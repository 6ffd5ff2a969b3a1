import types

import numpy as np
import pytest

import tripath
from tripath import atlas, classify, hilbert, kd
from tripath.errors import InvalidInputError, TripathError

_PROFILE = kd.kd_profile(hilbert.normalize([1, 0, 0]))


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(tripath).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(tripath.__all__) == public
    assert len(tripath.__all__) == len(set(tripath.__all__))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: hilbert.RayState(1.0, 1.0, 0.0), "norm"),
        (lambda: hilbert.normalize([1.0, 2.0]), "3-vector"),
        (lambda: atlas.sample_atlas(8), "at least 16"),
        (lambda: atlas.sample_atlas(16.5), "must be an integer"),
        (lambda: atlas.sample_atlas(True), "must be an integer"),
        (lambda: atlas.sample_atlas(atlas.MAX_RESOLUTION + 1), "at most 16384"),
        (lambda: atlas.render(None, "raster"), "needs a sampled grid"),
        (lambda: kd.extremal_kd_on_circle("S1", "S2", n=3), "at least 4"),
        (lambda: classify.classify(hilbert.normalize([1, 0, 0]), tol=float("nan")), "non-negative"),
        (lambda: classify.classify_batch([[1.0, 0.0, 0.0]], tol=-1e-9), "non-negative"),
        (lambda: classify.classify(hilbert.normalize([1, 0, 0]), tol="1e-9"), "number, got '1e-9'"),
        (lambda: atlas.sample_atlas(16, tol=None), "number, got None"),
        (lambda: classify.sign_pattern(_PROFILE, float("nan")), "non-negative"),
        (lambda: classify.sign_pattern(_PROFILE, -1), "non-negative"),
        (lambda: classify.sign_pattern(_PROFILE, "1e-9"), "number, got '1e-9'"),
        (lambda: classify.classify_batch(np.ones((2, 2))), r"\(n, 3\) array, got shape \(2, 2\)"),
        (lambda: classify.classify_batch(np.array([1.0, 0.0, 0.0])), r"got shape \(3,\)"),
        (lambda: kd.profile_values_batch(np.ones((2, 2))), r"got shape \(2, 2\)"),
    ],
    ids=[
        "ray-norm", "vector-shape", "atlas-resolution",
        "atlas-resolution-float", "atlas-resolution-bool", "atlas-resolution-cap",
        "raster-grid", "scan-samples", "tol-nan", "tol-negative", "tol-string", "tol-none",
        "sign-pattern-tol-nan", "sign-pattern-tol-negative", "sign-pattern-tol-string",
        "batch-shape", "batch-row", "profile-batch-shape",
    ],
)
def test_bad_caller_input_raises_a_typed_error(call, message):
    with pytest.raises(InvalidInputError, match=message) as info:
        call()
    assert isinstance(info.value, TripathError)
    assert isinstance(info.value, ValueError)


def test_empty_batch_gives_empty_arrays():
    boundary, idx = classify.classify_batch(np.zeros((0, 3)))
    assert boundary.shape == idx.shape == (0,)
    assert kd.profile_values_batch(np.zeros((0, 3))).shape == (0, 10)
