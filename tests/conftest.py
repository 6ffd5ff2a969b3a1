import numpy as np
import pytest
from hypothesis import strategies as st

from tripath import classify, interferometer, states


@pytest.fixture(scope="session")
def system():
    return interferometer.default_system()


@pytest.fixture(scope="session")
def named(system):
    return states.canonical_states(system)


@pytest.fixture(scope="session")
def table(system):
    return classify.build_subclass_table(system)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


# Random directions, plus small-integer vectors, which land on the zero
# circles (path states, corners, theta states) and so exercise boundary rays.
nonzero_vec = st.one_of(
    st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 3),
    st.tuples(*[st.integers(-3, 3)] * 3),
).filter(lambda v: any(v))


def _plane(n):
    """Two unit vectors orthogonal to the unit vector n and to each other."""
    e1 = np.cross(n, np.eye(3)[np.argmin(np.abs(n))])
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(n, e1)


def near_circle(path, angle, offset):
    """The point of path's zero circle at ``angle``, moved ``offset`` along the path (not normalized)."""
    e1, e2 = _plane(path)
    return np.cos(angle) * e1 + np.sin(angle) * e2 + offset * path


def near_vertex(vertex, angle, offset):
    """``vertex`` moved ``offset`` in the direction ``angle`` of its tangent plane (not normalized)."""
    e1, e2 = _plane(vertex)
    return vertex + offset * (np.cos(angle) * e1 + np.sin(angle) * e2)


def vertex_rays(system):
    """The 20 vertex rays, where two or more zero circles cross: cross products of path pairs."""
    ia, ib = np.triu_indices(len(system.vectors), 1)
    found = []
    for w in np.cross(system.vectors[ia], system.vectors[ib]):
        w = w / np.linalg.norm(w)
        if all(min(np.abs(w - x).max(), np.abs(w + x).max()) > 1e-9 for x in found):
            found.append(w)
    return np.array(found)


_PATHS = interferometer.default_system().vectors
_VERTICES = vertex_rays(interferometer.default_system())
_angles = st.floats(0.0, 2 * np.pi)
_offsets = st.builds(lambda e, s: s * 10.0**e, st.floats(-12.0, -6.0), st.sampled_from((1.0, -1.0)))

# Rays 1e-12 to 1e-6 off one of the ten zero circles, or off one of the
# 20 vertices where they cross: the band where KD values fall below tol
# while the amplitudes stay off zero.
near_boundary_vec = st.one_of(
    st.builds(lambda k, t, d: tuple(near_circle(_PATHS[k], t, d).tolist()), st.integers(0, 9), _angles, _offsets),
    st.builds(lambda k, t, d: tuple(near_vertex(_VERTICES[k], t, d).tolist()), st.integers(0, 19), _angles, _offsets),
)


def closing_system(r1, rS1):
    """Cascade of the closing family: C5 is orthonormal for any (r1, rS1)."""
    rS2 = (1 - r1) * (1 - rS1)
    spec = interferometer.InterferometerSpec(
        r1=r1, rS1=rS1, rf=rS1 * (1 - r1) / (r1 + rS1 * (1 - r1)), rS2=rS2, r2=1 - rS1 / (1 - rS2)
    )
    return interferometer.build(spec)


def random_unit_vectors(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def pixel_center(resolution, ix, iy):
    """Chart coordinates (u, v) of pixel (ix, iy); row 0 is the top, v = +1."""
    return (ix + 0.5) * 2.0 / resolution - 1.0, 1.0 - (iy + 0.5) * 2.0 / resolution


def fibonacci_sphere(n):
    golden = (1.0 + 5.0**0.5) / 2.0
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    theta = 2.0 * np.pi * i / golden
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def brute_force_min_inner_sum(system, n=1_000_000):
    """Grid minimum of the summed inner path probabilities.

    Global Fibonacci lattice pass, then one dense tangent-plane zoom
    around the best point; independent of the eigen-solver route.
    """
    inner_rows = np.array([system.ray(k).vector for k in ("3", "D1", "P1", "P2", "D2")])

    def sums(points):
        return ((points @ inner_rows.T) ** 2).sum(axis=1)

    pts = fibonacci_sphere(n)
    best = pts[np.argmin(sums(pts))]

    t1 = np.cross(best, [1.0, 0.0, 0.0])
    if np.linalg.norm(t1) < 1e-6:
        t1 = np.cross(best, [0.0, 1.0, 0.0])
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(best, t1)
    span = 2.0 * np.sqrt(4.0 * np.pi / n)
    offsets = np.linspace(-span, span, 400)
    a, b = np.meshgrid(offsets, offsets)
    local = best + a.ravel()[:, None] * t1 + b.ravel()[:, None] * t2
    local /= np.linalg.norm(local, axis=1, keepdims=True)
    return float(sums(local).min())
