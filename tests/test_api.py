import math
import types
from fractions import Fraction

import numpy as np
import pytest

import tripath
from tripath import atlas, classify, hilbert, interferometer, kd
from tripath.classify import ClassLabel
from tripath.errors import (
    DegeneratePairError,
    InvalidInputError,
    InvalidReflectivityError,
    TripathError,
    UnknownPathError,
    UnknownPatternError,
    ZeroVectorError,
)

_PROFILE = kd.kd_profile(hilbert.normalize([1, 0, 0]))


def test_all_lists_exactly_the_public_names():
    # the package loads submodules on demand, so resolve every listed name
    public = {
        name
        for name in dir(tripath)
        if not name.startswith("_") and not isinstance(getattr(tripath, name), types.ModuleType)
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
        (lambda: classify.classify(hilbert.normalize([1, 0, 0]), tol=float("nan")), "non-negative"),
        (lambda: classify.classify_batch([[1.0, 0.0, 0.0]], tol=-1e-9), "non-negative"),
        (lambda: classify.classify(hilbert.normalize([1, 0, 0]), tol="1e-9"), "number, got '1e-9'"),
        (lambda: atlas.sample_atlas(16, tol=None), "number, got None"),
        (lambda: classify.sign_pattern(_PROFILE, float("nan")), "non-negative"),
        (lambda: classify.sign_pattern(_PROFILE, -1), "non-negative"),
        (lambda: classify.sign_pattern(_PROFILE, "1e-9"), "number, got '1e-9'"),
        (lambda: classify.classify(hilbert.normalize([1, 2, 3]), tol=True), "number, got True"),
        (lambda: classify.classify_batch([[1.0, 0.0, 0.0]], tol=True), "number, got True"),
        (lambda: atlas.sample_atlas(16, True), "number, got True"),
        (lambda: classify.sign_pattern(_PROFILE, False), "number, got False"),
        (lambda: classify.classify_batch(np.ones((2, 2))), r"\(n, 3\) array, got shape \(2, 2\)"),
        (lambda: classify.classify_batch(np.array([1.0, 0.0, 0.0])), r"got shape \(3,\)"),
        (lambda: kd.profile_values_batch(np.ones((2, 2))), r"got shape \(2, 2\)"),
    ],
    ids=[
        "ray-norm", "vector-shape", "atlas-resolution",
        "atlas-resolution-float", "atlas-resolution-bool", "atlas-resolution-cap",
        "raster-grid", "tol-nan", "tol-negative", "tol-string", "tol-none",
        "sign-pattern-tol-nan", "sign-pattern-tol-negative", "sign-pattern-tol-string",
        "tol-bool", "batch-tol-bool", "atlas-tol-bool", "sign-pattern-tol-bool",
        "batch-shape", "batch-row", "profile-batch-shape",
    ],
)
def test_bad_caller_input_raises_a_typed_error(call, message):
    with pytest.raises(InvalidInputError, match=message) as info:
        call()
    assert isinstance(info.value, TripathError)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: classify.classify_batch(np.array([[0.6, 0.8j, 0.0]])), InvalidInputError, "dtype complex128"),
        (lambda: kd.profile_values_batch([[0.6, 0.8j, 0.0]]), InvalidInputError, "dtype complex128"),
        (
            lambda: classify.classify_batch([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, -0.0, 0.0]]),
            ZeroVectorError,
            r"2 rows, first \[1, 3\]",
        ),
        (
            lambda: classify.build_subclass_table().pattern_for(ClassLabel("B", ("1", "2"))),
            UnknownPatternError,
            r"ClassLabel\(cls='B', params=\('1', '2'\)\)",
        ),
        (
            lambda: classify.build_subclass_table().pattern_for(ClassLabel("B", (1, 2))),
            UnknownPatternError,
            r"params=\(1, 2\)",
        ),
        (lambda: interferometer.InterferometerSpec(r1=Fraction(1, 10**400)), InvalidReflectivityError, "r1=Fraction"),
        (
            lambda: interferometer.InterferometerSpec(rS2=Fraction(10**20 - 1, 10**20)),
            InvalidReflectivityError,
            "rS2=Fraction",
        ),
        (lambda: kd.profile_values_batch([[Fraction(3, 5), 0.8j, 0]]), InvalidInputError, "dtype object"),
        (lambda: hilbert.RayState(0.6, 0.8j, 0), InvalidInputError, r"real numbers, got \(0.6, 0.8j, 0\)"),
        (lambda: hilbert.RayState(np.complex128(0.6), 0.8, 0), InvalidInputError, "real numbers"),
        (lambda: hilbert.normalize([0.6, 0.8j, 0]), InvalidInputError, "dtype complex128"),
        (lambda: kd.profile_values_batch(np.array([["1", "0", "0"]])), InvalidInputError, "dtype <U1"),
        (lambda: classify.classify_batch(np.array([["1", "0", "0"]])), InvalidInputError, "dtype <U1"),
        (lambda: kd.kd_extrema("1", "3"), DegeneratePairError, "'1' and '3' are orthogonal or parallel"),
        (lambda: kd.kd_extrema("1", "X"), UnknownPathError, "unknown path 'X'"),
    ],
    ids=[
        "batch-complex", "profile-batch-complex", "batch-zero-rows",
        "pattern-for-unknown-label", "pattern-for-non-string-params",
        "reflectivity-reads-zero", "reflectivity-reads-one",
        "profile-batch-object-complex", "ray-complex", "ray-numpy-complex", "normalize-complex",
        "profile-batch-strings", "batch-strings", "extrema-degenerate-pair", "extrema-unknown-path",
    ],
)
def test_edge_inputs_raise_their_typed_error(call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert isinstance(info.value, TripathError)


@pytest.mark.parametrize(
    "exact, rounded",
    [
        (hilbert.RayState(1, 0, 0), hilbert.RayState(1.0, 0.0, 0.0)),
        (hilbert.RayState(Fraction(3, 5), Fraction(4, 5), 0), hilbert.RayState(0.6, 0.8, 0.0)),
    ],
    ids=["int", "fraction"],
)
def test_int_and_fraction_rays_match_their_float_rays_bit_for_bit(exact, rounded):
    def bits(values):
        return [float.hex(v) for v in values]

    assert bits(interferometer.probabilities(exact).values()) == bits(interferometer.probabilities(rounded).values())
    assert bits(kd.kd_profile(exact).values) == bits(kd.kd_profile(rounded).values)
    assert bits([kd.inequality_sum(exact)]) == bits([kd.inequality_sum(rounded)])
    got, want = classify.classify(exact), classify.classify(rounded)
    assert (got.pattern, got.labels) == (want.pattern, want.labels)


@pytest.mark.parametrize(
    "rows",
    [
        [[3, 4, 0], [0, 0, -2]],
        [[Fraction(3, 5), Fraction(4, 5), 0], [0, 0, Fraction(-1)]],
        np.array([[0.6, 0.8, 0.0], [0.0, 0.0, -1.0]], dtype=object),
    ],
    ids=["int", "fraction", "object"],
)
def test_int_fraction_and_object_rows_convert(rows):
    want = np.array(rows, dtype=float)
    assert np.array_equal(kd.profile_values_batch(rows), kd.profile_values_batch(want))
    for got, expected in zip(classify.classify_batch(rows), classify.classify_batch(want)):
        assert np.array_equal(got, expected)


def test_batch_tol_is_absolute_on_unnormalised_rows():
    # rows are not normalised: scaling a row by 2 scales its KD values by 4, so tol must scale by 4
    rng = np.random.default_rng(28)
    x = rng.normal(size=(2000, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x[:3] = [[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [1e-5, 1.0, 0.0]]  # boundary rows at the default tol and at 1e-3
    for t in (classify.DEFAULT_TOL, 1e-6, 1e-3):
        for got, want in zip(classify.classify_batch(2 * x, tol=4 * t), classify.classify_batch(x, tol=t)):
            assert np.array_equal(got, want)
    boundary, _ = classify.classify_batch(x, tol=1e-3)
    assert 0 < boundary.sum() < len(x)


def test_empty_batch_gives_empty_arrays():
    boundary, idx = classify.classify_batch(np.zeros((0, 3)))
    assert boundary.shape == idx.shape == (0,)
    assert kd.profile_values_batch(np.zeros((0, 3))).shape == (0, 10)


def test_tol_past_the_float_range_reads_as_inf():
    psi = hilbert.normalize([1, 2, 3])
    rays = np.array([psi.vector, hilbert.normalize([3, -1, 0.5]).vector])
    huge = 10**400
    assert classify.classify(psi, tol=huge) == classify.classify(psi, tol=math.inf)
    for got, want in zip(classify.classify_batch(rays, tol=huge), classify.classify_batch(rays, tol=math.inf)):
        assert np.array_equal(got, want)
    assert classify.sign_pattern(_PROFILE, huge) == classify.sign_pattern(_PROFILE, math.inf)
    grid, want = atlas.sample_atlas(16, huge), atlas.sample_atlas(16, math.inf)
    assert grid.tol == math.inf
    assert np.array_equal(grid.starts, want.starts) and np.array_equal(grid.values, want.values)


@pytest.mark.parametrize(
    "call",
    [
        lambda: kd.decompose_outer(hilbert.normalize([1, 0, 0]), ["1"]),
        lambda: _PROFILE.value(["1"], "f"),
        lambda: classify.mirror_label(ClassLabel("B", ("1", "Z"))),
    ],
    ids=["decompose-outer-list", "profile-value-list", "mirror-label-unknown-path"],
)
def test_path_names_that_are_not_paths_raise_unknown_path_error(call):
    with pytest.raises(UnknownPathError, match=r"\['1'\]|'Z'"):
        call()
