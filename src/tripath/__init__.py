"""Three path interferometer states, Kirkwood-Dirac profiles, sub-class atlas.

The package models a five splitter optical network with real amplitudes,
computes the ten conditional quasi-probabilities of a pure state over its
path contexts, and sorts every ray of the real three dimensional state
space into one of 31 sub-classes by the sign pattern of those values.
"""

from types import ModuleType as _Module

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
from .hilbert import RayState, inner, normalize, orthogonal_to_pair, same_ray
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

# every public name bound above, submodules aside
__all__ = sorted(n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _Module))
