"""Three path interferometer states, Kirkwood-Dirac profiles, sub-class atlas.

The package models a five splitter optical network with real amplitudes,
computes the ten conditional quasi-probabilities of a pure state over its
path contexts, and sorts every ray of the real three dimensional state
space into one of 31 sub-classes by the sign pattern of those values.

``import tripath`` loads no submodule; reading a public name or a
submodule attribute of the package loads that submodule.
"""

__version__ = "0.1.0"

# The public names of each submodule.  The classify function stays at tripath.classify.classify,
# so the submodule name keeps working as an attribute of the package.
_PUBLIC = {
    "atlas": "AtlasGrid export_canonical_tables render sample_atlas",
    "classify": "ClassificationResult ClassLabel SubclassTable build_subclass_table classify_batch mirror_label"
    " sign_pattern",
    "errors": "DegeneratePairError InvalidInputError InvalidReflectivityError NonFiniteError TableInconsistencyError"
    " TripathError UnknownPathError UnknownPatternError UnsupportedFormatError ZeroVectorError",
    "hilbert": "RayState inner normalize orthogonal_to_pair same_ray",
    "interferometer": "CONTEXTS INNER_PATHS OUTER_PATHS PATH_NAMES InterferometerSpec PathSystem build default_system"
    " probabilities verify_closure",
    "kd": "KDPair KDProfile decompose_outer extremal_kd_on_circle inequality_sum kd_negative_bound kd_profile"
    " max_violation",
    "states": "canonical_states decompose_in_basis joint_basis n_state resolve_state theta_state",
    "verify": "run_checks",
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the submodule behind a public name, or a submodule itself, and bind the name here."""
    module = _MODULE_OF.get(name, name)
    if module not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # what ``from tripath.<module> import <name>`` runs, so -X importtime lists the submodule
    value = __import__(f"{__name__}.{module}", fromlist=[name])
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_PUBLIC})
