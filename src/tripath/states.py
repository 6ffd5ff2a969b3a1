"""Canonical named states derived from the path geometry.

Every state here is constructed from two orthogonality conditions, never
from hard coded component lists, so each closed form below is a
consequence of the path geometry rather than an input.

Three families:

* ``N_i`` (one per outer path i): zero probability on the two inner
  paths whose opposite outer paths neighbor i on the pentagram rim.
  These are the corners of the pentagon of maximal inequality violation.
* ``theta_k`` (one per inner path k): zero probability on k and on the
  opposite outer path.  These are quasiclassical: four joint
  quasi-probabilities carry all the weight and reproduce four path
  probabilities exactly.
* A three state orthonormal basis of strongly nonclassical states,
  usable as a joint measurement.

For theta_D2 the construction yields (1, -1, 1)/sqrt(3).  The sign
variant (1, 1, -1)/sqrt(3) sometimes quoted for it equals the f path
state and fails the defining D2 orthogonality, so it is rejected here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import UnknownPathError
from .hilbert import RayState, inner, orthogonal_to_pair
from .interferometer import (
    CONTEXTS,
    INNER_PATHS,
    OPPOSITE_OUTER,
    OUTER_CYCLE,
    OUTER_PATHS,
    PATH_NAMES,
    PathSystem,
    default_system,
    probabilities,
)

N_STATE_ORDER = ("N_f", "N_1", "N_S2", "N_S1", "N_2")
THETA_ORDER = ("theta_3", "theta_D1", "theta_P1", "theta_P2", "theta_D2")


@dataclass(frozen=True)
class NamedState:
    """A ray together with the two orthogonality conditions that define it."""

    name: str
    ray: RayState
    orthogonal_to: tuple[str, str]


def _outer_neighbors(i: str) -> tuple[str, str]:
    idx = OUTER_CYCLE.index(i)
    n = len(OUTER_CYCLE)
    return OUTER_CYCLE[(idx - 1) % n], OUTER_CYCLE[(idx + 1) % n]


_OPPOSITE_INNER = {v: k for k, v in OPPOSITE_OUTER.items()}


def n_state(i: str, system: PathSystem | None = None) -> NamedState:
    """Pentagon corner state opposite the outer path ``i``.

    Orthogonal to the inner paths opposite to i's two rim neighbors,
    which suppresses both of the corresponding dark detectors.
    """
    if i not in OUTER_PATHS:
        raise UnknownPathError(f"n_state expects an outer path, got {i!r}")
    if system is None:
        system = default_system()
    a, b = (_OPPOSITE_INNER[n] for n in _outer_neighbors(i))
    ray = orthogonal_to_pair(system.ray(a), system.ray(b))
    return NamedState(f"N_{i}", ray, (a, b))


def theta_state(k: str, system: PathSystem | None = None) -> NamedState:
    """Quasiclassical state orthogonal to inner path ``k`` and its opposite outer path."""
    if k not in INNER_PATHS:
        raise UnknownPathError(f"theta_state expects an inner path, got {k!r}")
    if system is None:
        system = default_system()
    partner = OPPOSITE_OUTER[k]
    ray = orthogonal_to_pair(system.ray(k), system.ray(partner))
    return NamedState(f"theta_{k}", ray, (k, partner))


@lru_cache(maxsize=4)
def _joint_basis_cached(system: PathSystem) -> tuple[NamedState, NamedState, NamedState]:
    q = orthogonal_to_pair(n_state("S2", system).ray, theta_state("D1", system).ray)
    t2s1 = orthogonal_to_pair(q, system.ray("1"))
    t1f = orthogonal_to_pair(q, t2s1)
    return (
        NamedState("Q(S2,D1)", q, ("N_S2", "theta_D1")),
        NamedState("T(2,S1)", t2s1, ("Q(S2,D1)", "1")),
        NamedState("T(1,f)", t1f, ("Q(S2,D1)", "T(2,S1)")),
    )


def joint_basis(system: PathSystem | None = None) -> tuple[NamedState, NamedState, NamedState]:
    """Orthonormal basis of one Q sub-class state and two T sub-class states.

    Projective measurement in this basis certifies membership in the
    corresponding strongly nonclassical sub-classes with high fidelity.
    """
    if system is None:
        system = default_system()
    return _joint_basis_cached(system)


def decompose_in_basis(psi: RayState, system: PathSystem | None = None) -> tuple[float, float, float]:
    """Coefficients of ``psi`` in the joint basis, order Q(S2,D1), T(2,S1), T(1,f)."""
    basis = joint_basis(system)
    return tuple(inner(b.ray, psi) for b in basis)  # type: ignore[return-value]


def hardy_value(i: str, system: PathSystem | None = None) -> float:
    """Probability of finding N_i in its own outer path i.

    Nonzero despite both interferometer detectors behind i being dark,
    which is the single-state paradox carried by each pentagon corner.
    """
    state = n_state(i, system)
    return probabilities(state.ray, system)[i]


def _path_definition(name: str) -> tuple[str, str]:
    """The paths of the other kind, inner or outer, that share a context with ``name``."""
    other = OUTER_PATHS if name in INNER_PATHS else INNER_PATHS
    pair = (p for c in CONTEXTS if name in c.members for p in c.members if p in other)
    return tuple(pair)  # type: ignore[return-value]


@lru_cache(maxsize=4)
def _canonical_states_cached(system: PathSystem) -> tuple[NamedState, ...]:
    return (
        *(NamedState(n, system.ray(n), _path_definition(n)) for n in PATH_NAMES),
        *(n_state(name.removeprefix("N_"), system) for name in N_STATE_ORDER),
        *(theta_state(name.removeprefix("theta_"), system) for name in THETA_ORDER),
    )


def canonical_states(system: PathSystem | None = None) -> dict[str, NamedState]:
    """The twenty named states: ten paths, five N corners, five theta states.

    Built once per system; each call returns a fresh dict, so a caller
    that changes it changes no later result.
    """
    if system is None:
        system = default_system()
    return {s.name: s for s in _canonical_states_cached(system)}


def resolve_state(name: str, system: PathSystem | None = None) -> NamedState:
    """Look up any named state, including the three joint basis states."""
    table = canonical_states(system)
    if name in table:
        return table[name]
    for b in joint_basis(system):
        if b.name == name:
            return b
    raise UnknownPathError(f"unknown state name {name!r}")
