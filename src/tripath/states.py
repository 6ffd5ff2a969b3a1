"""Canonical named states derived from the path geometry.

Every state here is constructed from two orthogonality conditions, never
from hard coded component lists, so each closed form below is a
consequence of the path geometry rather than an input.  ``DEFINITIONS``
is where each derived state is defined: it names the two states it is
orthogonal to.

Three families:

* ``N_i`` (one per outer path i): zero probability on the two inner
  paths whose opposite outer paths neighbor i on the pentagram rim.
  These are the corners of the pentagon of maximal inequality violation.
* ``theta_k`` (one per inner path k): zero probability on k and on the
  opposite outer path, the one outer path that shares a context with
  neither outer member of k's context.  These are quasiclassical: four
  joint quasi-probabilities carry all the weight and reproduce four path
  probabilities exactly.
* A three state orthonormal basis of strongly nonclassical states,
  usable as a joint measurement.

For theta_D2 the construction yields (1, -1, 1)/sqrt(3).  The sign
variant (1, 1, -1)/sqrt(3) sometimes quoted for it equals the f path
state and fails the defining D2 orthogonality, so it is rejected here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from types import MappingProxyType
from typing import Mapping

from .errors import UnknownPathError
from .hilbert import RayState, inner, orthogonal_to_pair
from .interferometer import (
    CONTEXTS,
    INNER_PATHS,
    OUTER_PATHS,
    PATH_NAMES,
    PathSystem,
    _per_system,
    probabilities,
)

# Each derived state, in build order, and the two states it is orthogonal to.
DEFINITIONS = MappingProxyType({
    "N_f": ("D2", "D1"),
    "N_1": ("P1", "D2"),
    "N_S2": ("3", "P1"),
    "N_S1": ("P2", "3"),
    "N_2": ("D1", "P2"),
    "theta_3": ("3", "f"),
    "theta_D1": ("D1", "S2"),
    "theta_P1": ("P1", "2"),
    "theta_P2": ("P2", "1"),
    "theta_D2": ("D2", "S1"),
    "Q(S2,D1)": ("N_S2", "theta_D1"),
    "T(2,S1)": ("Q(S2,D1)", "1"),
    "T(1,f)": ("Q(S2,D1)", "T(2,S1)"),
})

N_STATE_ORDER = tuple(name for name in DEFINITIONS if name.startswith("N_"))
THETA_ORDER = tuple(name for name in DEFINITIONS if name.startswith("theta_"))
_CANONICAL = len(PATH_NAMES) + len(N_STATE_ORDER) + len(THETA_ORDER)  # the joint basis follows


@dataclass(frozen=True)
class NamedState:
    """A ray together with the two orthogonality conditions that define it."""

    name: str
    ray: RayState
    orthogonal_to: tuple[str, str]


def _path_definition(name: str) -> tuple[str, str]:
    """The paths of the other kind, inner or outer, that share a context with ``name``."""
    other = OUTER_PATHS if name in INNER_PATHS else INNER_PATHS
    pair = (p for c in CONTEXTS if name in c.members for p in c.members if p in other)
    return tuple(pair)  # type: ignore[return-value]


@_per_system
def _named_states(system: PathSystem) -> tuple[Mapping[str, NamedState], tuple[NamedState, ...]]:
    """All 23 named states by name, the ten paths and then ``DEFINITIONS`` in order, and the joint basis.

    The joint basis is the last three.  One memo holds both, so a basis
    state is one object in each, whichever systems the cache evicts.
    """
    named = {name: NamedState(name, system.ray(name), _path_definition(name)) for name in PATH_NAMES}
    for name, (a, b) in DEFINITIONS.items():
        named[name] = NamedState(name, orthogonal_to_pair(named[a].ray, named[b].ray), (a, b))
    return MappingProxyType(named), tuple(named.values())[_CANONICAL:]


def n_state(i: str, system: PathSystem | None = None) -> NamedState:
    """Pentagon corner state opposite the outer path ``i``.

    Orthogonal to the inner paths opposite to i's two rim neighbors,
    which suppresses both of the corresponding dark detectors.
    """
    if i not in OUTER_PATHS:
        raise UnknownPathError(f"n_state expects an outer path, got {i!r}")
    return _named_states(system)[0][f"N_{i}"]


def theta_state(k: str, system: PathSystem | None = None) -> NamedState:
    """Quasiclassical state orthogonal to inner path ``k`` and its opposite outer path."""
    if k not in INNER_PATHS:
        raise UnknownPathError(f"theta_state expects an inner path, got {k!r}")
    return _named_states(system)[0][f"theta_{k}"]


def joint_basis(system: PathSystem | None = None) -> tuple[NamedState, NamedState, NamedState]:
    """Orthonormal basis of one Q sub-class state and two T sub-class states.

    Projective measurement in this basis certifies membership in the
    corresponding strongly nonclassical sub-classes with high fidelity.
    """
    return _named_states(system)[1]  # type: ignore[return-value]


def decompose_in_basis(psi: RayState, system: PathSystem | None = None) -> tuple[float, float, float]:
    """Coefficients of ``psi`` in the joint basis, order Q(S2,D1), T(2,S1), T(1,f)."""
    basis = joint_basis(system)
    return tuple(inner(b.ray, psi) for b in basis)  # type: ignore[return-value]


def hardy_value(i: str, system: PathSystem | None = None) -> float:
    """Probability of finding N_i in its own outer path i.

    Nonzero despite both interferometer detectors behind i being dark,
    which is the single-state paradox carried by each pentagon corner.
    """
    return probabilities(n_state(i, system).ray, system)[i]


def canonical_states(system: PathSystem | None = None) -> dict[str, NamedState]:
    """The twenty named states: ten paths, five N corners, five theta states.

    Built once per system; each call returns a fresh dict, so a caller
    that changes it changes no later result.
    """
    return dict(islice(_named_states(system)[0].items(), _CANONICAL))


def resolve_state(name: str, system: PathSystem | None = None) -> NamedState:
    """Look up any named state, including the three joint basis states."""
    named = _named_states(system)[0]
    try:
        return named[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise UnknownPathError(f"unknown state name {name!r}") from None
