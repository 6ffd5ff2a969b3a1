import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripath import hilbert
from tripath.errors import DegeneratePairError, NonFiniteError, ZeroVectorError
from tripath.hilbert import (
    RayState,
    SpherePoint,
    hemisphere_project,
    inner,
    normalize,
    orthogonal_to_pair,
    same_ray,
)


def test_normalize_unit_and_canonical_sign():
    r = normalize([3, 1, 1])
    assert math.isclose(r.c1**2 + r.c2**2 + r.c3**2, 1.0, abs_tol=1e-15)
    assert r.c1 > 0

    r = normalize([-3, -1, -1])
    assert r.c1 > 0  # first nonzero coefficient made positive

    r = normalize([0, -2, 5])
    assert r.c2 > 0

    r = normalize([0, 0, -7])
    assert r.c3 == 1.0


def test_normalize_rejects_zero_vector():
    with pytest.raises(ZeroVectorError):
        normalize([0.0, 0.0, 0.0])
    with pytest.raises(ZeroVectorError):
        normalize([-0.0, 0.0, -0.0])


def test_normalize_is_scale_invariant():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or underflow warnings
        for v in ([3.0, 1.0, 1.0], [1.0, -4.0, 2.0], [0.0, 0.0, -7.0]):
            want = normalize(v)
            for k in (-1070, -600, -40, 1, 40, 600, 1020):
                assert normalize(np.ldexp(v, k)) == want  # exact for powers of two
            for c in (1e-300, 1e-200, 1e-13, 1e200, 1e300):
                assert same_ray(normalize(np.multiply(v, c)), want, tol=1e-15)
        assert normalize([1e-13, 0.0, 0.0]) == RayState(1.0, 0.0, 0.0)
        assert normalize([5e-324, 0.0, 0.0]) == RayState(1.0, 0.0, 0.0)
        assert same_ray(normalize([1e308, 1e308, 1.0]), normalize([1.0, 1.0, 0.0]), tol=1e-15)


def test_normalize_rejects_non_finite():
    for bad in ([math.nan, 1.0, 1.0], [1.0, -math.inf, 1.0]):
        with pytest.raises(NonFiniteError, match="non-finite"):
            normalize(bad)


def test_ray_state_requires_unit_norm():
    with pytest.raises(ValueError):
        RayState(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        RayState(math.nan, 0.0, 0.0)
    RayState(1.0, 0.0, 0.0)  # exact unit vector passes


def test_ray_state_iter_and_vector():
    r = normalize([1, 2, 2])
    assert tuple(r) == (r.c1, r.c2, r.c3)
    assert np.allclose(r.vector, [1 / 3, 2 / 3, 2 / 3])


def test_flipped_and_canonical():
    r = normalize([1, -1, 0])
    f = r.flipped()
    assert f.c1 == -r.c1 and f.c2 == -r.c2
    assert f.canonical() == r
    assert same_ray(r, f)


def test_inner_symmetric():
    a = normalize([1, 2, 3])
    b = normalize([2, -1, 1])
    assert math.isclose(inner(a, b), inner(b, a), abs_tol=1e-15)
    assert math.isclose(inner(a, a), 1.0, abs_tol=1e-15)


def test_same_ray_tolerance():
    a = normalize([1, 2, 3])
    nudged = np.array([1, 2, 3]) / math.sqrt(14) + 1e-13
    nudged /= np.linalg.norm(nudged)
    assert same_ray(a, nudged, tol=1e-9)
    assert not same_ray(a, normalize([1, 2, 3.001]), tol=1e-9)


def test_orthogonal_to_pair():
    a = normalize([1, 0, 0])
    b = normalize([1, 1, 0])
    c = orthogonal_to_pair(a, b)
    assert abs(inner(c, a)) < 1e-15
    assert abs(inner(c, b)) < 1e-15


def test_orthogonal_to_pair_degenerate():
    a = normalize([1, 2, 3])
    with pytest.raises(DegeneratePairError):
        orthogonal_to_pair(a, a)
    with pytest.raises(DegeneratePairError):
        orthogonal_to_pair(a, a.flipped())


def test_hemisphere_project_front_and_back():
    p = hemisphere_project(normalize([0.6, 0.48, 0.64]))
    assert p.u == pytest.approx(0.48) and p.v == pytest.approx(0.64)
    # antipode lands on the same chart point
    q = hemisphere_project(np.array([-0.6, -0.48, -0.64]))
    assert q.u == pytest.approx(0.48) and q.v == pytest.approx(0.64)


def test_hemisphere_project_equator_ties():
    p = hemisphere_project(np.array([0.0, -1.0, 0.0]))
    assert p.u == pytest.approx(1.0) and p.v == pytest.approx(0.0)
    p = hemisphere_project(np.array([0.0, 0.0, -1.0]))
    assert p.v == pytest.approx(1.0)


def test_sphere_point_validation():
    SpherePoint(0.6, 0.8)
    with pytest.raises(ValueError):
        SpherePoint(0.9, 0.9)


def test_circle_points_continuity():
    axis = normalize([0, 0, 1])
    pts = hilbert.circle_points(axis, 100)
    assert pts.shape == (100, 3)
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert steps.max() < 0.1  # no sign-flip jumps along the polyline


unit_vec = st.lists(
    st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False), min_size=3, max_size=3
).filter(lambda v: sum(x * x for x in v) > 1e-6)


@settings(max_examples=60, deadline=None)
@given(unit_vec)
def test_normalize_is_projective(v):
    r = normalize(v)
    s = normalize([-x for x in v])
    assert same_ray(r, s, tol=1e-9)
    # parallel to the input
    cross = np.cross(np.asarray(v, dtype=float), r.vector)
    assert np.linalg.norm(cross) < 1e-6 * np.linalg.norm(v)


@settings(max_examples=60, deadline=None)
@given(unit_vec)
def test_hemisphere_projection_in_disk(v):
    p = hemisphere_project(normalize(v))
    assert p.u**2 + p.v**2 <= 1.0 + 1e-9
