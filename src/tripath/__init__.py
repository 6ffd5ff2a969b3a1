"""Three path interferometer states, Kirkwood-Dirac profiles, sub-class atlas.

The package models a five splitter optical network with real amplitudes,
computes the ten conditional quasi-probabilities of a pure state over its
path contexts, and sorts every ray of the real three dimensional state
space into one of 31 sub-classes by the sign pattern of those values.
"""

from .atlas import AtlasGrid, export_canonical_tables, render, sample_atlas
# the classify function itself stays at tripath.classify.classify so the
# submodule name keeps working as an attribute of the package
from .classify import (
    ClassificationResult,
    ClassLabel,
    SubclassTable,
    build_subclass_table,
    classify_batch,
    mirror_label,
    sign_pattern,
)
from .errors import (
    DegeneratePairError,
    InvalidInputError,
    InvalidReflectivityError,
    NonFiniteError,
    TableInconsistencyError,
    TripathError,
    UnknownPathError,
    UnknownPatternError,
    UnsupportedFormatError,
    ZeroVectorError,
)
from .hilbert import RayState, SpherePoint, inner, normalize, orthogonal_to_pair, same_ray
from .interferometer import (
    CONTEXTS,
    INNER_PATHS,
    OUTER_PATHS,
    PATH_NAMES,
    InterferometerSpec,
    PathSystem,
    build,
    default_system,
    probabilities,
    verify_closure,
)
from .kd import (
    KDPair,
    KDProfile,
    decompose_outer,
    extremal_kd_on_circle,
    inequality_sum,
    kd_negative_bound,
    kd_profile,
    max_violation,
)
from .states import canonical_states, decompose_in_basis, joint_basis, n_state, resolve_state, theta_state
from .verify import run_checks

__version__ = "0.1.0"

__all__ = [
    "AtlasGrid",
    "CONTEXTS",
    "ClassLabel",
    "ClassificationResult",
    "DegeneratePairError",
    "INNER_PATHS",
    "InterferometerSpec",
    "InvalidInputError",
    "InvalidReflectivityError",
    "KDPair",
    "KDProfile",
    "NonFiniteError",
    "OUTER_PATHS",
    "PATH_NAMES",
    "PathSystem",
    "RayState",
    "SpherePoint",
    "SubclassTable",
    "TableInconsistencyError",
    "TripathError",
    "UnknownPathError",
    "UnknownPatternError",
    "UnsupportedFormatError",
    "ZeroVectorError",
    "build",
    "build_subclass_table",
    "canonical_states",
    "classify_batch",
    "decompose_in_basis",
    "decompose_outer",
    "default_system",
    "export_canonical_tables",
    "extremal_kd_on_circle",
    "inequality_sum",
    "inner",
    "joint_basis",
    "kd_negative_bound",
    "kd_profile",
    "max_violation",
    "mirror_label",
    "n_state",
    "normalize",
    "orthogonal_to_pair",
    "probabilities",
    "render",
    "resolve_state",
    "run_checks",
    "same_ray",
    "sample_atlas",
    "sign_pattern",
    "theta_state",
    "verify_closure",
]
