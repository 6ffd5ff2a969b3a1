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

The sub-class table is built numerically: for each polygon, average the
corner rays (signs aligned first), normalize, and read off the interior
amplitude signs and KD sign pattern.  The ten canonical pairs form the
outer 5-cycle 1-f-2-S1-S2 with one inner path hanging off each outer
path, so the KD signs fix the amplitude signs up to a global flip, and
the first nine pairs, a spanning tree of that graph, already do: their
signs give a 9-bit cell code, 512 codes of which 31 are sub-classes.
The tenth pair closes the cycle; its sign follows from the others.

A ray with amplitudes within tol of zero lies on those circles.  It is
given every sub-class whose cell agrees with its other amplitude signs:
exactly the sub-classes that touch it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import TableInconsistencyError, UnknownPatternError
from .hilbert import RayState, normalize
from .interferometer import PathSystem, default_system
from .kd import KDProfile, _kd_kernel, profile_values_batch
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
    """Ten trits in profile order: -1, 0 or +1 per quasi-probability."""
    return tuple(
        0 if abs(v) <= tol else (1 if v > 0 else -1) for v in profile.values
    )


def pattern_string(pattern: SignPattern) -> str:
    return "".join({1: "+", 0: "0", -1: "-"}[t] for t in pattern)


# Corner rays of every polygon.  V corners: the outer path plus the
# pentagon edge orthogonal to its opposite inner path.  B corners: the
# two outer paths plus the pentagon corner orthogonal to both.  T
# corners: a full trajectory.  X corners: outer path, trajectory inner
# path, and the theta state adjoining both.  Q corners: a trajectory
# pair flanked by the two theta states that share its peak.
POLYGON_CORNERS: tuple[tuple[ClassLabel, tuple[str, ...]], ...] = (
    (ClassLabel("N"), ("N_f", "N_1", "N_S2", "N_S1", "N_2")),
    (ClassLabel("V", ("f",)), ("f", "N_S1", "N_S2")),
    (ClassLabel("V", ("1",)), ("1", "N_S1", "N_2")),
    (ClassLabel("V", ("S2",)), ("S2", "N_f", "N_2")),
    (ClassLabel("V", ("S1",)), ("S1", "N_f", "N_1")),
    (ClassLabel("V", ("2",)), ("2", "N_1", "N_S2")),
    (ClassLabel("B", ("1", "f")), ("N_S1", "1", "f")),
    (ClassLabel("B", ("1", "S2")), ("N_2", "1", "S2")),
    (ClassLabel("B", ("S1", "S2")), ("N_f", "S1", "S2")),
    (ClassLabel("B", ("2", "S1")), ("N_1", "2", "S1")),
    (ClassLabel("B", ("2", "f")), ("N_S2", "2", "f")),
    (ClassLabel("T", ("1", "f")), ("1", "f", "D2")),
    (ClassLabel("T", ("1", "S2")), ("1", "S2", "P1")),
    (ClassLabel("T", ("S1", "S2")), ("S1", "S2", "3")),
    (ClassLabel("T", ("2", "S1")), ("2", "S1", "P2")),
    (ClassLabel("T", ("2", "f")), ("2", "f", "D1")),
    (ClassLabel("X", ("1", "D2")), ("1", "D2", "theta_D1")),
    (ClassLabel("X", ("f", "D2")), ("f", "D2", "theta_P1")),
    (ClassLabel("X", ("1", "P1")), ("1", "P1", "theta_3")),
    (ClassLabel("X", ("S2", "P1")), ("S2", "P1", "theta_D2")),
    (ClassLabel("X", ("S1", "3")), ("S1", "3", "theta_P1")),
    (ClassLabel("X", ("S2", "3")), ("S2", "3", "theta_P2")),
    (ClassLabel("X", ("2", "P2")), ("2", "P2", "theta_3")),
    (ClassLabel("X", ("S1", "P2")), ("S1", "P2", "theta_D1")),
    (ClassLabel("X", ("2", "D1")), ("2", "D1", "theta_D2")),
    (ClassLabel("X", ("f", "D1")), ("f", "D1", "theta_P2")),
    (ClassLabel("Q", ("1", "P2")), ("1", "theta_D1", "P2", "theta_3")),
    (ClassLabel("Q", ("S1", "D2")), ("S1", "theta_D1", "D2", "theta_P1")),
    (ClassLabel("Q", ("f", "3")), ("f", "theta_P1", "3", "theta_P2")),
    (ClassLabel("Q", ("S2", "D1")), ("S2", "theta_P2", "D1", "theta_D2")),
    (ClassLabel("Q", ("2", "P1")), ("2", "theta_3", "P1", "theta_D2")),
)

ALL_LABELS: tuple[ClassLabel, ...] = tuple(label for label, _ in POLYGON_CORNERS)

def _cell_codes(values: np.ndarray) -> np.ndarray:
    """Cell code of each row of strict KD values: the signs of the first nine pairs."""
    return (values[:, :9] > 0).astype(np.int16) @ (1 << np.arange(9, dtype=np.int16))


def polygon_centroid(corners: tuple[str, ...], system: PathSystem) -> RayState:
    """Interior representative: normalized mean of sign-aligned corner rays.

    Corner signs are aligned greedily against the running sum, which is
    unambiguous because no two corners of one polygon are orthogonal.
    """
    named = canonical_states(system)
    vectors = [named[c].ray.vector for c in corners]
    acc = vectors[0].copy()
    for v in vectors[1:]:
        acc += -v if float(acc @ v) < 0 else v
    return normalize(acc)


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
            raise KeyError(str(label)) from None


def build_subclass_table(system: PathSystem | None = None) -> SubclassTable:
    """Compute the 31 interior sign patterns and the cell of each.

    Raises TableInconsistencyError if any centroid sits too close to a
    boundary or violates its class negativity signature, or unless each
    sub-class owns exactly one cell.
    """
    if system is None:
        system = default_system()
    return _build_table_cached(system)


@lru_cache(maxsize=4)
def _build_table_cached(system: PathSystem) -> SubclassTable:
    labels = []
    patterns: list[SignPattern] = []
    signs = []
    for label, corners in POLYGON_CORNERS:
        centroid = polygon_centroid(corners, system)
        amps, values = _kd_kernel(centroid.vector[None, :], system)
        if np.abs(values).min() <= 1e-6:
            raise TableInconsistencyError(
                f"centroid of {label} is not strictly interior"
            )
        pattern = sign_pattern(KDProfile(state=centroid, values=tuple(values[0].tolist())), tol=1e-6)
        inner_neg = sum(1 for t in pattern[:5] if t < 0)
        outer_neg = sum(1 for t in pattern[5:] if t < 0)
        if (inner_neg, outer_neg) != NEGATIVITY_SIGNATURE[label.cls]:
            raise TableInconsistencyError(
                f"{label} centroid has negativity counts ({inner_neg},{outer_neg})"
            )
        labels.append(label)
        patterns.append(pattern)
        signs.append(np.sign(amps[0]))
    codes = _cell_codes(np.array(patterns))
    if len(set(codes.tolist())) != len(codes):
        raise TableInconsistencyError("two sub-classes share one cell")
    cell_labels = np.full(1 << 9, -1, dtype=np.int16)
    cell_labels[codes] = np.arange(len(labels))
    return SubclassTable(
        labels=tuple(labels),
        patterns=tuple(patterns),
        cell_labels=cell_labels,
        cell_signs=np.array(signs),
    )


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

    Amplitudes within ``tol`` of zero are left free; every sub-class
    whose cell agrees with the other signs, up to a global flip, is
    collected.  An interior ray matches exactly one cell, a boundary ray
    exactly the cells that touch it.  A ``tol`` below TOL_FLOOR counts
    as TOL_FLOOR.
    """
    if system is None:
        system = default_system()
    tol = max(tol, TOL_FLOOR)
    table = build_subclass_table(system)
    amps, values = _kd_kernel(psi.vector[None, :], system)
    pattern = sign_pattern(KDProfile(state=psi, values=tuple(values[0].tolist())), tol)
    fixed = np.abs(amps[0]) > tol
    agree = np.abs(table.cell_signs[:, fixed] @ np.sign(amps[0, fixed])) == fixed.sum()
    found = frozenset(label for label, ok in zip(table.labels, agree) if ok)
    if not found:
        raise UnknownPatternError(
            f"amplitude signs of {psi} (pattern {pattern_string(pattern)}) match no sub-class"
        )
    return ClassificationResult(state=psi, pattern=pattern, labels=found)


def classify_batch(
    vectors: np.ndarray,
    system: PathSystem | None = None,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized strict classification of many unit vectors.

    Returns (boundary_mask, label_index) arrays.  A row is boundary when
    any quasi-probability lies within ``tol`` of zero; its label_index is
    -1, and otherwise indexes ALL_LABELS.  A ``tol`` below TOL_FLOOR
    counts as TOL_FLOOR.  Raises NonFiniteError or UnknownPatternError
    naming the offending rows.
    """
    if system is None:
        system = default_system()
    tol = max(tol, TOL_FLOOR)
    table = build_subclass_table(system)
    values = profile_values_batch(vectors, system)
    boundary = (np.abs(values) <= tol).any(axis=1)
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
    if not label.params:
        return label
    mirrored = tuple(MIRROR_PATHS[p] for p in label.params)
    for candidate, _ in POLYGON_CORNERS:
        if candidate.cls == label.cls and set(candidate.params) == set(mirrored):
            return candidate
    raise UnknownPatternError(f"no mirror image for {label}")
