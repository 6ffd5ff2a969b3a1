"""Classification of rays by the signs of their ten path amplitudes.

The ten zero-probability great circles P(path) = 0 cut the ray sphere
into 31 polygons, the cells of that circle arrangement.  Inside a cell
no path amplitude A_k = <k|psi> changes sign, so the ten amplitude
signs, taken up to a global flip, name the cell.  The ten canonical
quasi-probabilities rho(a, b) = <a|b> A_a A_b keep fixed signs too.
Their sign patterns group the cells into six classes by negativity
counts (inner negatives / outer negatives):

    N 5/0   V 4/0   B 3/0   T 2/2   X 1/2   Q 0/2

with 1, 5, 5, 5, 10 and 5 sub-classes respectively.

Sub-class names carry the defining paths: V(i) and the five B(i,j) and
T(i,j) pairs use outer paths, X(i,k) pairs an outer path with the inner
path completing one of the five trajectories, and Q(i,l) names the
trajectory pair whose quasi-probability it maximizes.  The ten X index
pairs are exactly (i,k) and (j,k) for each trajectory {i, k, j}:
(1,D2), (f,D2), (1,P1), (S2,P1), (S1,3), (S2,3), (2,P2), (S1,P2),
(2,D1), (f,D1).

The sub-class table is derived from the circles alone.  They cross only
at the 20 named states, and the contexts fix which circles hold each: a
path state lies on those of its context mates, an N or theta state on
those of its orthogonal_to pair.  An amplitude sign vector, path 1
positive, is a cell when every path has a corner of its closed cone off
that path's circle; the normalized sum of the corners is the centroid.
Its KD negativity counts give the class, and the path states among the
corners the parameters, outer paths first (T drops its inner path).

The ten canonical pairs form the outer 5-cycle 1-f-2-S1-S2 with one
inner path hanging off each outer path, so the KD signs fix the
amplitude signs up to a global flip, and the first nine pairs, a
spanning tree of that graph, already do: their signs give a 9-bit cell
code, 512 codes of which 31 are sub-classes.  The tenth pair closes the
cycle; its sign follows from the others.

A boundary ray, some KD value within tol of zero, has an amplitude within
the band radius r = sqrt(tol / min|<a|b>|) of zero.  Those amplitudes are
left free: it gets every sub-class whose cell agrees with its other signs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import InvalidInputError, TableInconsistencyError, UnknownPathError, UnknownPatternError
from .hilbert import RayState
from .interferometer import CONTEXTS, INNER_PATHS, OUTER_PATHS, PATH_NAMES, PathSystem, _per_system, default_system
from .kd import KDProfile, _kd_kernel, _pair_geometry, profile_values_batch
from .states import canonical_states

DEFAULT_TOL = 1e-9

# Smallest boundary band: a ray exactly on a circle keeps a rounding
# residue of a few eps in its amplitudes and KD values, so a smaller tol
# is raised to this one.
TOL_FLOOR = 16 * np.finfo(float).eps

# Expected (inner, outer) negativity counts per class.
NEGATIVITY_SIGNATURE = {
    "N": (5, 0),
    "V": (4, 0),
    "B": (3, 0),
    "T": (2, 2),
    "X": (1, 2),
    "Q": (0, 2),
}


@dataclass(frozen=True, order=True)
class ClassLabel:
    """A sub-class name such as N, V(1), B(1,S2), X(S2,3) or Q(S2,D1)."""

    cls: str
    params: tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.params:
            return self.cls
        return f"{self.cls}({','.join(self.params)})"


SignPattern = tuple[int, ...]


def sign_pattern(profile: KDProfile, tol: float = DEFAULT_TOL) -> SignPattern:
    """Ten trits in profile order: -1, 0 or +1 per quasi-probability.

    A ``tol`` below TOL_FLOOR counts as TOL_FLOOR; a negative or NaN
    ``tol`` raises InvalidInputError.
    """
    return _signs(profile.values, _checked_tol(tol))


def _signs(values: list[float] | tuple[float, ...], tol: float) -> SignPattern:
    return tuple(0 if abs(v) <= tol else (1 if v > 0 else -1) for v in values)


def pattern_string(pattern: SignPattern) -> str:
    return "".join({1: "+", 0: "0", -1: "-"}[t] for t in pattern)


# The 31 sub-classes in their fixed order: palette, JSON output and the
# label indices of classify_batch and the atlas all read it.
ALL_LABELS: tuple[ClassLabel, ...] = tuple(
    ClassLabel(name[0], tuple(name[2:-1].split(",")) if len(name) > 1 else ())
    for name in """N V(f) V(1) V(S2) V(S1) V(2) B(1,f) B(1,S2) B(S1,S2) B(2,S1) B(2,f)
    T(1,f) T(1,S2) T(S1,S2) T(2,S1) T(2,f) X(1,D2) X(f,D2) X(1,P1) X(S2,P1) X(S1,3)
    X(S2,3) X(2,P2) X(S1,P2) X(2,D1) X(f,D1) Q(1,P2) Q(S1,D2) Q(f,3) Q(S2,D1) Q(2,P1)""".split()
)

_CLASS_OF_SIGNATURE = {counts: cls for cls, counts in NEGATIVITY_SIGNATURE.items()}

# Every amplitude sign vector with the path 1 sign fixed at +1.
_SIGN_VECTORS = np.array([(1.0, *signs) for signs in product((1.0, -1.0), repeat=9)])
# Weights 2^0 .. 2^8 of the first nine KD signs in a cell code, from Python
# ints: a first np.power call at import would page in 128 KB of numpy.
_CODE_WEIGHTS = np.array([1 << i for i in range(9)], dtype=float)


def _cell_codes(values: np.ndarray) -> np.ndarray:
    """Cell code of each column of strict paths-major KD values, as intp: the signs of the first nine pairs."""
    return (_CODE_WEIGHTS @ (values[:9] > 0)).astype(np.intp)


def _arrangement_cells(system: PathSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centroids, amplitude signs and KD values of the cells, in ALL_LABELS order."""
    paths, named = system.vectors, [*canonical_states(system).values()]
    rays = np.array([state.ray.vector for state in named])
    # which circles hold each vertex comes from the contexts, not from float zeros
    mates = {n: {p for c in CONTEXTS if n in c.members for p in c.members if p != n} for n in PATH_NAMES}
    on_circle = np.array([[p in mates.get(state.name, state.orthogonal_to) for p in PATH_NAMES] for state in named])
    vertex_amps = rays @ paths.T
    miss = np.abs(vertex_amps) * on_circle
    if miss.max() > 1e-9:  # an open system moves the circles off the named states
        v, p = np.unravel_index(miss.argmax(), miss.shape)
        raise TableInconsistencyError(f"state {named[v].name} is {miss[v, p]:.3g} off the circle P({PATH_NAMES[p]}) = 0")
    signs = np.sign(vertex_amps) * ~on_circle
    vertices, vertex_signs = np.concatenate([rays, -rays]), np.concatenate([signs, -signs])
    # a vertex is in the closed cone when no amplitude sign disagrees
    corners = _SIGN_VECTORS @ vertex_signs.T == np.abs(vertex_signs).sum(axis=1)
    # the cone is a cell, not an arc or a point, when its corners leave every circle
    is_cell = (corners @ np.abs(vertex_signs) > 0).all(axis=1)
    sums = corners @ vertices
    centroids = sums[is_cell] / np.linalg.norm(sums[is_cell], axis=1, keepdims=True)
    corner_paths = (corners[:, :10] | corners[:, 20:30])[is_cell]  # the ten path states lead the named states
    values = profile_values_batch(centroids, system)
    negatives = (values[:, :5] < 0).sum(axis=1).tolist(), (values[:, 5:] < 0).sum(axis=1).tolist()
    names = {}
    for row, counts in enumerate(zip(*negatives)):
        if counts not in _CLASS_OF_SIGNATURE:
            raise TableInconsistencyError(f"a cell has negativity counts {counts}")
        cls = _CLASS_OF_SIGNATURE[counts]
        corner_set = {p for p, on in zip(PATH_NAMES, corner_paths[row]) if on}
        params = OUTER_PATHS if cls == "T" else OUTER_PATHS + INNER_PATHS
        names[ClassLabel(cls, tuple(p for p in params if p in corner_set))] = row
    if len(names) != len(centroids) or names.keys() != set(ALL_LABELS):
        raise TableInconsistencyError(f"the circles cut out the cells {sorted(map(str, names))}")
    order = [names[label] for label in ALL_LABELS]
    return centroids[order], _SIGN_VECTORS[is_cell][order], values[order]


@dataclass(frozen=True)
class SubclassTable:
    """Strict KD sign pattern and amplitude cell of every sub-class.

    ``cell_labels`` maps each of the 512 cell codes to an index into
    ``labels``, or -1 where no sub-class lies; ``cell_signs`` holds the
    amplitude signs of each sub-class, in label order.
    """

    labels: tuple[ClassLabel, ...]
    patterns: tuple[SignPattern, ...]
    cell_labels: np.ndarray = field(repr=False, compare=False)
    cell_signs: np.ndarray = field(repr=False, compare=False)

    def pattern_for(self, label: ClassLabel) -> SignPattern:
        try:
            return self.patterns[self.labels.index(label)]
        except ValueError:
            raise UnknownPatternError(f"no sub-class {label!r} in the table") from None


@_per_system
def build_subclass_table(system: PathSystem | None = None) -> SubclassTable:
    """Compute the 31 interior sign patterns and the cell of each.

    Raises TableInconsistencyError unless the circles of ``system`` cross
    at its named states and cut out exactly the 31 cells of ALL_LABELS.
    """
    _, signs, values = _arrangement_cells(system)
    cell_labels = np.full(1 << 9, -1, dtype=np.int16)
    cell_labels[_cell_codes(values.T)] = np.arange(len(ALL_LABELS))
    cell_labels.setflags(write=False)
    signs.setflags(write=False)
    return SubclassTable(
        labels=ALL_LABELS,
        patterns=tuple(map(tuple, np.sign(values).astype(int).tolist())),
        cell_labels=cell_labels,
        cell_signs=signs,
    )


def _checked_tol(tol: float) -> float:
    """``tol`` raised to TOL_FLOOR, inf past floats; a non-number, NaN or negative value raises InvalidInputError."""
    if type(tol) is float and tol >= TOL_FLOOR:  # the common case, without the numbers.Real check
        return tol
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not tol >= 0.0:  # also rejects NaN
        raise InvalidInputError(f"tol must be a non-negative number, got {tol!r}")
    try:
        return max(float(tol), TOL_FLOOR)
    except OverflowError:  # an int or Fraction too large for a float
        return math.inf


def _band_radius(system: PathSystem, tol: float) -> float:
    """r = sqrt(tol / min|<a|b>|): where every |A_k| > r, every |rho| > tol; inf past the float range."""
    return math.sqrt(float(tol) / float(np.abs(_pair_geometry(system)[2]).min()))


@dataclass(frozen=True)
class ClassificationResult:
    """KD sign pattern of a state and every sub-class whose cell holds or touches it.

    ``pattern`` has a zero wherever a quasi-probability lies within tol
    of zero; ``is_boundary`` says whether it has any.
    """

    state: RayState
    pattern: SignPattern
    labels: frozenset[ClassLabel]

    @property
    def is_boundary(self) -> bool:
        return 0 in self.pattern


def classify(
    psi: RayState,
    system: PathSystem | None = None,
    tol: float = DEFAULT_TOL,
) -> ClassificationResult:
    """Classify a ray by the signs of its path amplitudes.

    Every sub-class whose cell agrees with the fixed amplitude signs, up
    to a global flip, is collected.  An interior ray fixes every sign and
    gets classify_batch's one label; a boundary ray, some KD value within
    ``tol`` of zero, frees the amplitudes within the band radius and gets
    every cell touching that band.  A ``tol`` below TOL_FLOOR counts as
    TOL_FLOOR; a negative or NaN ``tol`` raises InvalidInputError.
    """
    if system is None:
        system = default_system()
    tol = _checked_tol(tol)
    table = build_subclass_table(system)
    amps, values = _kd_kernel(psi, system)
    pattern = _signs(values[:, 0].tolist(), tol)
    if 0 in pattern:
        fixed = np.abs(amps[:, 0]) > _band_radius(system, tol)
        agree = np.abs(table.cell_signs[:, fixed] @ np.sign(amps[fixed, 0])) == fixed.sum()
        rows = np.flatnonzero(agree).tolist()
    else:
        rows = table.cell_labels[_cell_codes(values)].tolist()
    if not rows or -1 in rows:
        raise UnknownPatternError(
            f"amplitude signs of {psi} (pattern {pattern_string(pattern)}) match no sub-class"
        )
    return ClassificationResult(state=psi, pattern=pattern, labels=frozenset(table.labels[i] for i in rows))


def classify_batch(
    vectors: np.ndarray,
    system: PathSystem | None = None,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized strict classification of many unit vectors.

    Returns (boundary_mask, label_index) arrays.  A row is boundary when
    any quasi-probability lies within ``tol`` of zero; its label_index is
    -1, and otherwise indexes ALL_LABELS.  A ``tol`` below TOL_FLOOR
    counts as TOL_FLOOR; a negative or NaN ``tol`` raises
    InvalidInputError.  Raises NonFiniteError or UnknownPatternError
    naming the offending rows.  Rows are not normalised and ``tol`` is
    absolute on the KD values, so for a row scaled by s the band is tol/s**2.
    """
    tol = _checked_tol(tol)
    table = build_subclass_table(system)
    values = profile_values_batch(vectors, system).T  # paths-major (10, n), contiguous
    boundary = (np.abs(values) <= tol).any(axis=0)
    idx = table.cell_labels[_cell_codes(values)]
    idx[boundary] = -1
    unknown = np.flatnonzero((idx < 0) & ~boundary)
    if len(unknown):
        raise UnknownPatternError(
            f"strict pattern outside the sub-class table in rows {unknown[:10].tolist()}"
        )
    return boundary, idx


MIRROR_PATHS = {
    "1": "2", "2": "1", "3": "3", "S1": "S2", "S2": "S1",
    "D1": "D2", "D2": "D1", "P1": "P2", "P2": "P1", "f": "f",
}


def mirror_label(label: ClassLabel) -> ClassLabel:
    """Image of a sub-class under the swap of input paths 1 and 2.

    The swap fixes path 3, exchanges partner paths on each side, and
    maps every polygon onto a polygon, so labels permute.
    """
    try:
        mirrored = tuple(MIRROR_PATHS[p] for p in label.params)
    except (KeyError, TypeError):  # TypeError: an unhashable parameter
        raise UnknownPathError(f"unknown path in {label!r}") from None
    for candidate in ALL_LABELS:
        if candidate.cls == label.cls and set(candidate.params) == set(mirrored):
            return candidate
    raise UnknownPatternError(f"no mirror image for {label}")
