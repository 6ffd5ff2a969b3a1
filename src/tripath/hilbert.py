"""Ray geometry in a three dimensional real Hilbert space.

States are rays: unit vectors identified up to a global sign.  The
canonical representative of a ray makes its first nonzero coefficient
positive, so two rays are equal exactly when their canonical vectors
coincide.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegeneratePairError, InvalidInputError, NonFiniteError, ZeroVectorError

COEFF_TOL = 1e-12


@dataclass(frozen=True)
class RayState:
    """Unit vector in the three path basis.

    The norm must be 1 within 1e-12.  The stored sign is whatever the
    constructor supplied; use :meth:`canonical` to fix the global sign.
    """

    c1: float
    c2: float
    c3: float

    def __post_init__(self) -> None:
        if not all(isinstance(c, numbers.Real) for c in self):  # numpy's complex scalars too
            raise InvalidInputError(f"ray coefficients must be real numbers, got {tuple(self)!r}")
        norm = math.sqrt(self.c1 * self.c1 + self.c2 * self.c2 + self.c3 * self.c3)
        if not abs(norm - 1.0) <= 1e-12:  # also rejects NaN
            raise InvalidInputError(f"ray coefficients have norm {norm!r}, expected 1")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3])

    def canonical(self) -> "RayState":
        """Representative with the first coefficient above 1e-12 positive."""
        return RayState(*_canonical_sign(self.vector))

    def flipped(self) -> "RayState":
        return RayState(-self.c1, -self.c2, -self.c3)

    def __iter__(self):
        return iter((self.c1, self.c2, self.c3))


def _real_array(v) -> np.ndarray:
    """``v`` as a float array, else InvalidInputError; one dtype test, and an object array's entries scanned."""
    arr = np.asarray(v)
    if not (arr.dtype.kind in "biuf" or arr.dtype == object and all(isinstance(c, numbers.Real) for c in arr.flat)):
        raise InvalidInputError(f"expected real numbers, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def _as_array(v: RayState | Sequence[float] | np.ndarray) -> np.ndarray:
    if isinstance(v, RayState):
        return v.vector
    arr = _real_array(v)
    if arr.shape != (3,):
        raise InvalidInputError(f"expected a 3-vector, got shape {arr.shape}")
    return arr


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    for c in v:
        if abs(c) > COEFF_TOL:
            return -v if c < 0 else v
    return v


def normalize(v: Sequence[float] | np.ndarray) -> RayState:
    """Scale a raw coefficient vector to a canonical unit ray.

    Scale-invariant: ``v`` is first divided by the smallest power of two
    above its largest absolute entry.  That division is exact for normal
    entries, so ordinary input keeps every bit, and the norm can neither
    overflow nor underflow.

    Raises
    ------
    NonFiniteError
        If ``v`` holds a NaN or an infinity.
    ZeroVectorError
        If ``v`` is the zero vector.
    """
    arr = _as_array(v)
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"cannot normalize non-finite coefficients {arr.tolist()}")
    arr = np.ldexp(arr, -np.frexp(np.abs(arr).max())[1])
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ZeroVectorError("cannot normalize the zero vector")
    return RayState(*_canonical_sign(arr / norm))


def inner(a: RayState | Sequence[float], b: RayState | Sequence[float]) -> float:
    """Real inner product of the stored representatives."""
    return float(np.dot(_as_array(a), _as_array(b)))


def same_ray(a: RayState | Sequence[float], b: RayState | Sequence[float], tol: float = 1e-12) -> bool:
    """Equality up to a global sign flip."""
    va, vb = _as_array(a), _as_array(b)
    return bool(
        np.linalg.norm(va - vb) <= tol or np.linalg.norm(va + vb) <= tol
    )


def orthogonal_to_pair(a: RayState | Sequence[float], b: RayState | Sequence[float]) -> RayState:
    """The unique ray orthogonal to two non-parallel rays.

    Computed as the vector cross product, then normalized to canonical
    sign.  Raises DegeneratePairError when ``a`` and ``b`` are parallel
    within 1e-9 (their span does not fix a third direction).
    """
    va, vb = _as_array(a), _as_array(b)
    if abs(float(np.dot(va, vb))) >= 1.0 - 1e-9:
        raise DegeneratePairError("rays are parallel within tolerance")
    cross = np.cross(va, vb)
    return normalize(cross)


def circle_points(axis: RayState | Sequence[float], n: int) -> np.ndarray:
    """Raw (n, 3) samples of the great circle orthogonal to ``axis``, uniform in angle.

    The points keep their parametrization sign, which renderers need for
    continuous polylines.
    """
    a = _as_array(axis)
    a = a / np.linalg.norm(a)
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(a)))] = 1.0
    e1 = seed - np.dot(seed, a) * a
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(a, e1)
    angles = 2.0 * np.pi * np.arange(n) / n
    return np.outer(np.cos(angles), e1) + np.outer(np.sin(angles), e2)
