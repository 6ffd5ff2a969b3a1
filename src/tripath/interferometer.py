"""Five stage beam splitter cascade and its ten path states.

A photon enters in one of three input paths.  Five two-path beam
splitters connect the inputs to three output paths, creating seven
intermediate paths along the way.  Each path carries a state vector in
the input basis; the ten vectors organize into five measurement
contexts of three mutually orthogonal paths each.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache, wraps
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import InvalidReflectivityError, UnknownPathError
from .hilbert import RayState, same_ray

PATH_NAMES = ("1", "2", "3", "S1", "D1", "f", "P1", "P2", "S2", "D2")

# Outer paths run along the rim of the pentagram of contexts; inner
# paths sit between consecutive beam splitters.
OUTER_PATHS = ("1", "2", "S1", "f", "S2")
INNER_PATHS = ("3", "D1", "P1", "P2", "D2")

# Each inner path k pairs with the pentagon corner across from its
# context: the one outer path that shares a context with neither outer
# member of k's context.
OPPOSITE_OUTER = {"3": "f", "D1": "S2", "P1": "2", "P2": "1", "D2": "S1"}

# Cyclic order of the outer paths around the pentagram rim.
OUTER_CYCLE = ("1", "S1", "f", "S2", "2")


@dataclass(frozen=True)
class Context:
    """One orthonormal triple of simultaneously measurable paths."""

    name: str
    members: tuple[str, str, str]


CONTEXTS = (
    Context("C1", ("1", "2", "3")),
    Context("C2", ("1", "S1", "D1")),
    Context("C3", ("S1", "f", "P1")),
    Context("C4", ("f", "S2", "P2")),
    Context("C5", ("S2", "2", "D2")),
)


@dataclass(frozen=True)
class InterferometerSpec:
    """Reflectivities of the five beam splitters, in stage order.

    The subscript names the path that runs parallel to the splitter.
    """

    r1: float = 1 / 2
    rS1: float = 1 / 3
    rf: float = 1 / 4
    rS2: float = 1 / 3
    r2: float = 1 / 2

    def __post_init__(self) -> None:
        for name, r in vars(self).items():
            # a Fraction can lie inside (0, 1) and still read 0.0 or 1.0 as a float
            if not isinstance(r, numbers.Real) or not 0.0 < r < 1.0 or not 0.0 < float(r) < 1.0:
                raise InvalidReflectivityError(
                    f"reflectivity {name}={r!r} is not a real number in the open interval (0, 1), also as a float"
                )


@dataclass(frozen=True, eq=False)
class PathSystem:
    """The ten path states and three output states built from a reflectivity spec.

    Path vectors keep the orientation the cascade produces, which is what
    makes inner products between physically consecutive paths carry
    meaningful signs.  All derived quantities (probabilities, joint
    quasi-probabilities) are insensitive to those global signs.
    """

    spec: InterferometerSpec
    vectors: np.ndarray  # read-only (10, 3), rows in PATH_NAMES order
    outputs: Mapping[str, RayState]

    def ray(self, name: str) -> RayState:
        if name not in PATH_NAMES:
            raise UnknownPathError(f"unknown path {name!r}")
        return RayState(*self.vectors[PATH_NAMES.index(name)])


def _splitter(outer: np.ndarray, mid: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    r = float(r)  # np.sqrt takes no Fraction
    sr, st = np.sqrt(r), np.sqrt(1.0 - r)
    return sr * outer + st * mid, st * outer - sr * mid


def build(spec: InterferometerSpec | None = None) -> PathSystem:
    """Run the cascade stage by stage and collect all path states.

    Stage order: (2,3) -> (S1,D1), (1,D1) -> (f,P1), (S1,P1) -> (S2,P2),
    (f,P2) -> (2out,D2), (S2,D2) -> (1out,3out).
    """
    if spec is None:
        spec = InterferometerSpec()
    e1, e2, e3 = np.eye(3)
    s1, d1 = _splitter(e2, e3, spec.r1)
    f, p1 = _splitter(e1, d1, spec.rS1)
    s2, p2 = _splitter(s1, p1, spec.rf)
    out2, d2 = _splitter(f, p2, spec.rS2)
    out1, out3 = _splitter(s2, d2, spec.r2)
    vectors = np.array([e1, e2, e3, s1, d1, f, p1, p2, s2, d2])  # PATH_NAMES order
    vectors.setflags(write=False)
    outputs = {"1": RayState(*out1), "2": RayState(*out2), "3": RayState(*out3)}
    return PathSystem(spec=spec, vectors=vectors, outputs=MappingProxyType(outputs))


@lru_cache(maxsize=1)
def default_system() -> PathSystem:
    """The cascade at the canonical reflectivities (1/2, 1/3, 1/4, 1/3, 1/2)."""
    return build()


def _per_system(derive):
    """``derive(system)`` cached for the four most recent systems; ``system=None`` reads as default_system()."""
    cached = lru_cache(maxsize=4)(derive)

    @wraps(derive)
    def per_system(system: PathSystem | None = None):
        return cached(default_system() if system is None else system)

    return per_system


def verify_closure(system: PathSystem, tol: float = 1e-12) -> bool:
    """Check that each output state equals its input basis state up to sign."""
    return all(
        same_ray(system.outputs[name], system.ray(name), tol) for name in ("1", "2", "3")
    )


def _amplitudes(psi: RayState | np.ndarray, system: PathSystem | None = None) -> np.ndarray:
    """Path amplitudes <path|psi>, paths-major: row k holds path PATH_NAMES[k], one column per ray.

    ``psi`` is one RayState, finite by construction, or unchecked (n, 3)
    rows, which kd.profile_values_batch checks.
    """
    paths = (default_system() if system is None else system).vectors
    # A one-column product runs through BLAS gemv, whose last bits differ
    # from the gemm used for two or more columns; two equal columns keep
    # every value independent of the batch size.
    if isinstance(psi, RayState):
        c1, c2, c3 = psi.c1, psi.c2, psi.c3
        return (paths @ np.array(((c1, c1), (c2, c2), (c3, c3)), dtype=float))[:, :1]  # int and Fraction rays convert
    vectors = np.asarray(psi, dtype=float)
    if len(vectors) == 1:
        return (paths @ np.concatenate([vectors, vectors]).T)[:, :1]
    return paths @ vectors.T


def probabilities(psi: RayState, system: PathSystem | None = None) -> dict[str, float]:
    """Detection probability of every path for the state ``psi``."""
    amps = _amplitudes(psi, system)[:, 0]
    return dict(zip(PATH_NAMES, (amps * amps).tolist()))
