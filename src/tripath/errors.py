"""Exception types shared across the package."""

from __future__ import annotations


class TripathError(Exception):
    """Base class for all package specific errors."""


class InvalidInputError(TripathError, ValueError):
    """Raised for an argument outside what the function accepts: a wrong
    shape, a norm other than 1, a point off the chart, a count too small."""


class ZeroVectorError(TripathError, ValueError):
    """Raised when the zero vector would have to be normalized."""


class NonFiniteError(TripathError, ValueError):
    """Raised when coefficients hold a NaN or an infinity."""


class DegeneratePairError(TripathError, ValueError):
    """Raised when two rays are too close to parallel, or otherwise
    degenerate for the requested construction."""


class InvalidReflectivityError(TripathError, ValueError):
    """Raised for beam splitter reflectivities that are not real numbers in the open interval (0, 1)."""


class UnknownPathError(TripathError, KeyError):
    """Raised when a path name is not one of the ten interferometer paths."""

    def __str__(self) -> str:
        # KeyError would repr() the message; keep it readable
        return str(self.args[0]) if self.args else ""


class UnknownPatternError(TripathError, ValueError):
    """Raised when a sign pattern matches no known sub-class region."""


class TableInconsistencyError(TripathError, RuntimeError):
    """Raised when the sub-class table cannot be built without collisions."""


class UnsupportedFormatError(TripathError, ValueError):
    """Raised for unknown atlas output formats."""
