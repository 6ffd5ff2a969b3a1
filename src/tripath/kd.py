"""Kirkwood-Dirac joint quasi-probabilities of path pairs.

For real rays a, b and a real pure state psi the joint quasi-probability
is

    rho(a, b) = <b|a><a|psi><psi|b>

which is symmetric in (a, b), invariant under global sign flips of any
argument, and satisfies rho(a, b)^2 = <a|b>^2 P(a) P(b).  Ten pair
combinations are physically meaningful: five (outer, inner) pairs that
each occur in exactly one non-contextual photon trajectory, and five
(outer, outer) pairs.  Negative values among them witness contextuality.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePairError, InvalidInputError, NonFiniteError, UnknownPathError, ZeroVectorError
from .hilbert import RayState, _real_array, inner, normalize
from .interferometer import INNER_PATHS, OUTER_PATHS, PATH_NAMES, PathSystem, _amplitudes, _per_system, default_system


@dataclass(frozen=True)
class KDPair:
    """One of the ten canonical path pairs."""

    a: str
    b: str
    kind: str  # "inner" or "outer"

    @property
    def label(self) -> str:
        return f"rho({self.a},{self.b})"


# Fixed profile order: the five trajectory (outer, inner) pairs, then the
# five (outer, outer) pairs.
KD_PAIRS = (
    KDPair("1", "P2", "inner"),
    KDPair("2", "P1", "inner"),
    KDPair("f", "3", "inner"),
    KDPair("S1", "D2", "inner"),
    KDPair("S2", "D1", "inner"),
    KDPair("1", "f", "outer"),
    KDPair("1", "S2", "outer"),
    KDPair("2", "f", "outer"),
    KDPair("2", "S1", "outer"),
    KDPair("S1", "S2", "outer"),
)

_PAIR_INDEX = {frozenset((p.a, p.b)): i for i, p in enumerate(KD_PAIRS)}
_INNER_ROWS = [PATH_NAMES.index(k) for k in INNER_PATHS]

# Per outer path, the context whose completeness turns three KD values
# into the path probability; terms listed with the trajectory pair last.
DECOMPOSITION_PAIRS = {
    "1": (("1", "f"), ("1", "S2"), ("1", "P2")),
    "S1": (("S1", "S2"), ("2", "S1"), ("S1", "D2")),
    "f": (("1", "f"), ("2", "f"), ("f", "3")),
    "S2": (("S1", "S2"), ("1", "S2"), ("S2", "D1")),
    "2": (("2", "f"), ("2", "S1"), ("2", "P1")),
}


@dataclass(frozen=True)
class KDProfile:
    """The ten canonical quasi-probabilities of one state."""

    state: RayState
    values: tuple[float, ...]

    def value(self, a: str, b: str) -> float:
        try:
            return self.values[_PAIR_INDEX[frozenset((a, b))]]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise UnknownPathError(f"({a},{b}) is not a canonical pair") from None


@_per_system
def _pair_geometry(system: PathSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair index arrays and the ten overlaps <a|b>, in KD_PAIRS order."""
    paths = system.vectors
    ia = np.array([PATH_NAMES.index(p.a) for p in KD_PAIRS])
    ib = np.array([PATH_NAMES.index(p.b) for p in KD_PAIRS])
    overlaps = np.array([float(paths[a] @ paths[b]) for a, b in zip(ia, ib)])
    return ia, ib, overlaps


def _kd_kernel(vectors: np.ndarray, system: PathSystem | None) -> tuple[np.ndarray, np.ndarray]:
    """Path amplitudes (10 x n, PATH_NAMES order) and KD values (10 x n, KD_PAIRS order) of many rows."""
    if system is None:
        system = default_system()
    ia, ib, overlaps = _pair_geometry(system)
    amps = _amplitudes(vectors, system)
    values = amps[ia]
    values *= overlaps[:, None]
    values *= amps[ib]
    return amps, values


def profile_values_batch(vectors: np.ndarray, system: PathSystem | None = None) -> np.ndarray:
    """Profiles of many unit vectors at once, shape (n, 10); rows follow KD_PAIRS order.

    The array is a transposed view of the paths-major kernel output.  The
    batch input checks run here: InvalidInputError for an array that is not
    real numbers of shape (n, 3), NonFiniteError and ZeroVectorError naming
    the rows that hold a NaN or infinity or are all zero.  Rows are not
    normalised: a row scaled by s has its values scaled by s**2.
    """
    vectors = _real_array(vectors)
    if vectors.ndim != 2 or vectors.shape[1] != 3:
        raise InvalidInputError(f"expected a real (n, 3) array, got shape {vectors.shape}")
    if not np.isfinite(vectors).all():
        bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
        raise NonFiniteError(f"non-finite coefficients in {len(bad)} rows, first {bad[:10].tolist()}")
    if not (np.abs(vectors) @ np.ones(3)).all():  # faster than any(axis=1)
        bad = np.flatnonzero(~vectors.any(axis=1))
        raise ZeroVectorError(f"zero vectors in {len(bad)} rows, first {bad[:10].tolist()}")
    return _kd_kernel(vectors, system)[1].T


def kd_profile(psi: RayState, system: PathSystem | None = None) -> KDProfile:
    """All ten canonical quasi-probabilities of ``psi``: one column of the batch kernel."""
    values = _kd_kernel(psi.vector[None, :], system)[1][:, 0]
    return KDProfile(state=psi, values=tuple(values.tolist()))


def _csv_doc(header: list[str], rows: list[list]) -> str:
    """The header and rows as one CSV document; csv loads on the first call, not with kd."""
    import csv
    import io

    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


def decompose_outer(
    psi: RayState, i: str, system: PathSystem | None = None
) -> list[tuple[KDPair, float]]:
    """Split P(i) into its three KD terms for an outer path ``i``.

    The terms sum over the context that contains neither i nor a path
    orthogonal to it, so completeness makes the sum exactly P(i).
    """
    if i not in OUTER_PATHS:  # a tuple, so an unhashable i compares instead of raising
        raise UnknownPathError(f"decompose_outer expects an outer path, got {i!r}")
    profile = kd_profile(psi, system)
    return [(KD_PAIRS[_PAIR_INDEX[frozenset(ab)]], profile.value(*ab)) for ab in DECOMPOSITION_PAIRS[i]]


def inequality_sum(psi: RayState, system: PathSystem | None = None) -> float:
    """Summed probability of the five inner paths.

    Any assignment of one definite path per context forces this sum to
    at least 1; quantum states can dip below.
    """
    amps = _amplitudes(psi.vector[None, :], system)[_INNER_ROWS, 0]
    return float(sum((amps * amps).tolist()))


def inequality_operator(system: PathSystem | None = None) -> np.ndarray:
    """Sum of the five inner path projectors."""
    if system is None:
        system = default_system()
    m = np.zeros((3, 3))
    for k in INNER_PATHS:
        vk = system.ray(k).vector
        m += np.outer(vk, vk)
    return m


def max_violation(system: PathSystem | None = None) -> tuple[RayState, float]:
    """State minimizing the inner path sum, and the amount below 1.

    Found as the lowest eigenvector of the summed inner projectors.
    """
    vals, vecs = np.linalg.eigh(inequality_operator(system))
    state = normalize(vecs[:, 0])
    return state, float(1.0 - vals[0])


def kd_negative_bound(a: str, b: str, system: PathSystem | None = None) -> float:
    """Largest magnitude rho(a, b) can reach on the negative side.

    Equals g(1 - g)/2 with g the magnitude of the path overlap <a|b>,
    attained on the great circle through a and b at the ray orthogonal
    to their bisector.
    """
    if system is None:
        system = default_system()
    g = abs(inner(system.ray(a), system.ray(b)))
    if g <= 1e-12 or g >= 1.0 - 1e-12:
        raise DegeneratePairError(
            f"paths {a!r} and {b!r} are orthogonal or parallel; no negative range"
        )
    return g * (1.0 - g) / 2.0


@dataclass(frozen=True)
class ExtremalScan:
    """Extremal quasi-probability states found on a great circle scan."""

    pair: tuple[str, str]
    max_state: RayState
    max_value: float
    min_state: RayState
    min_value: float


def extremal_kd_on_circle(
    a: str, b: str, n: int = 100_000, system: PathSystem | None = None
) -> ExtremalScan:
    """Scan rho(a, b) over ``n`` rays of the great circle through a and b.

    The extrema of rho(a, b) over the whole sphere lie on this circle, at
    a mutually orthogonal pair of rays, so a dense scan brackets both.
    ``n`` must be an integer of at least 4; anything else raises
    InvalidInputError.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 4:
        raise InvalidInputError(f"scan sample count must be an integer of at least 4, got {n!r}")
    if system is None:
        system = default_system()
    va = system.ray(a).vector
    vb = system.ray(b).vector
    g = float(va @ vb)
    if abs(g) <= 1e-12 or abs(g) >= 1.0 - 1e-12:
        raise DegeneratePairError(
            f"paths {a!r} and {b!r} do not span a proper circle of distinct rays"
        )
    e2 = vb - g * va
    e2 /= np.linalg.norm(e2)
    # 4096 angles at a time bound the memory; strict comparisons keep the first extrema
    hi = lo = None
    for start in range(0, n, 4096):
        angles = np.pi * np.arange(start, min(start + 4096, n)) / n  # half turn covers every ray once
        cos, sin = np.cos(angles), np.sin(angles)
        rho = g * (cos * (va @ va) + sin * (e2 @ va)) * (cos * g + sin * (e2 @ vb))
        k, j = np.argmax(rho), np.argmin(rho)
        if hi is None or rho[k] > hi[0]:
            hi = rho[k], cos[k] * va + sin[k] * e2
        if lo is None or rho[j] < lo[0]:
            lo = rho[j], cos[j] * va + sin[j] * e2
    return ExtremalScan(
        pair=(a, b),
        max_state=normalize(hi[1]),
        max_value=float(hi[0]),
        min_state=normalize(lo[1]),
        min_value=float(lo[0]),
    )
