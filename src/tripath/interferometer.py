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
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import InvalidInputError, InvalidReflectivityError, NonFiniteError, UnknownPathError
from .hilbert import RayState, same_ray

PATH_NAMES = ("1", "2", "3", "S1", "D1", "f", "P1", "P2", "S2", "D2")

# Outer paths run along the rim of the pentagram of contexts; inner
# paths sit between consecutive beam splitters.
OUTER_PATHS = ("1", "2", "S1", "f", "S2")
INNER_PATHS = ("3", "D1", "P1", "P2", "D2")

# Each inner path pairs with the one outer path it shares no context with.
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
            if not isinstance(r, numbers.Real) or not 0.0 < r < 1.0:
                raise InvalidReflectivityError(
                    f"reflectivity {name}={r!r} is not a real number in the open interval (0, 1)"
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


def verify_closure(system: PathSystem, tol: float = 1e-12) -> bool:
    """Check that each output state equals its input basis state up to sign."""
    return all(
        same_ray(system.outputs[name], system.ray(name), tol) for name in ("1", "2", "3")
    )


def _amplitudes(vectors: np.ndarray, system: PathSystem | None = None) -> np.ndarray:
    """Path amplitudes <path|psi> of many rows, paths-major: row k holds path PATH_NAMES[k].

    Raises InvalidInputError for an array not of shape (n, 3) and
    NonFiniteError naming the rows that hold a NaN or infinity.
    """
    paths = (default_system() if system is None else system).vectors
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[1] != 3:
        raise InvalidInputError(f"expected an (n, 3) array, got shape {vectors.shape}")
    if not np.isfinite(vectors).all():
        bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
        raise NonFiniteError(f"non-finite coefficients in {len(bad)} rows, first {bad[:10].tolist()}")
    if len(vectors) == 1:
        # A one-row product runs through BLAS gemv, whose last bits differ
        # from the gemm used for two or more rows; a doubled row keeps
        # every value independent of the batch size.
        return (paths @ np.concatenate([vectors, vectors]).T)[:, :1]
    return paths @ vectors.T


def probabilities(psi: RayState, system: PathSystem | None = None) -> dict[str, float]:
    """Detection probability of every path for the state ``psi``."""
    amps = _amplitudes(psi.vector[None, :], system)[:, 0]
    return dict(zip(PATH_NAMES, (amps * amps).tolist()))
