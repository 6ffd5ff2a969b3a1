"""Exact integer oracles for the atlas and the classifier.

Each path vector is an integer vector k over sqrt(d) (``verify.CLOSED_FORMS``),
so the sign of every amplitude at a lattice ray or a pixel centre is decided
in integer arithmetic, with no KD kernel and no cell table.  The pixel oracle
also runs across the closing family, at specs built from integer KCBS
pentagons, where every KD value and path probability of a lattice ray is
an exact rational that the float kernel is checked against.
"""

from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np
import pytest

from tripath import atlas, classify, interferometer, kd, states
from tripath.hilbert import RayState
from tripath.interferometer import CONTEXTS, INNER_PATHS, PATH_NAMES
from tripath.kd import KD_PAIRS
from tripath.verify import CLOSED_FORMS

from conftest import vertex_rays

# (10, 3) integer path directions in PATH_NAMES order
K = np.array([CLOSED_FORMS[name][:3] for name in PATH_NAMES], dtype=np.int64)


def exact_pixel_codes(k, resolution):
    """Exact amplitude signs at every pixel centre, as (codes, zero, D) arrays of shape (resolution, resolution).

    ``k`` holds the ten integer path directions in PATH_NAMES order.
    Pixel (i, j) has resolution * (c1, u, v) = (sqrt(D), a, b) with
    a = 2i + 1 - resolution and b = resolution - 2j - 1, so k . (c1, u, v)
    has the sign of k1 sqrt(D) + s, s = k2 a + k3 b.  That is sign(k1)
    where s does not oppose k1 (D is never 0 at a pixel centre), and
    sign(k1) sign(k1^2 D - s^2) where it does.  ``codes`` holds the ten
    signs as base-3 digits, ``zero`` whether one is 0.
    """
    a = 2 * np.arange(resolution, dtype=np.int32) + 1 - resolution
    b = -a[:, None]  # row j has b = resolution - 2j - 1
    d = resolution * resolution - a * a - b * b
    codes, zero = np.zeros(d.shape, dtype=np.int32), np.zeros(d.shape, dtype=bool)
    for k1, k2, k3 in k:
        s = k2 * a + k3 * b
        sign = np.sign(s) if k1 == 0 else np.where(k1 * s >= 0, 1, np.sign(k1 * k1 * d - s * s)) * np.sign(k1)
        codes = 3 * codes + sign + 1
        zero |= sign == 0
    return codes, zero, d


def check_pixel_oracle(k, resolution, tols, system=None, every_label=False):
    """The atlas of ``system`` at each tol against the exact pixel signs of its integer directions ``k``.

    ``every_label`` also asks that all 31 sub-classes cover a pixel centre
    at the tols up to the default.
    """
    codes, zero, d = exact_pixel_codes(k, resolution)
    disk = d >= 0
    for tol in tols:
        labels = atlas.sample_atlas(resolution, tol, system).labels
        assert ((labels == atlas.EXTERIOR) == ~disk).all()
        boundary = labels == atlas.BOUNDARY
        if tol <= classify.DEFAULT_TOL:
            # BOUNDARY pixels are exactly those with an exactly zero amplitude
            assert (boundary == (zero & disk)).all(), tol
        else:
            assert not (zero & disk & ~boundary).any(), tol
        # strict pixels pair exact sign vectors one-to-one with labels: the
        # code -> label and label -> code lookups, last write winning, read back
        strict = labels >= 0
        code, label = codes[strict], labels[strict]
        label_of, code_of = np.full(3**10, -1), np.full(len(classify.ALL_LABELS), -1)
        label_of[code], code_of[label] = label, code
        assert (label_of[code] == label).all() and (code_of[label] == code).all()
        if tol <= classify.DEFAULT_TOL and every_label:
            assert (code_of >= 0).all()
        if tol == np.inf:
            assert not strict.any()


@pytest.mark.parametrize("resolution", [16, 17, 63, 255, 512, 1024])
def test_pixel_oracle(resolution):
    # at tol inf every pixel is a run start, which costs 0.25 s at 1024
    tols = (0.0, classify.DEFAULT_TOL, 1e-3, np.inf)[: 3 if resolution > 512 else 4]
    check_pixel_oracle(K, resolution, tols, every_label=resolution >= 255)


def pentagon(a, b, x, w):
    """Integer directions and the Fraction spec of the closing system whose outer paths are an integer pentagon.

    The outer paths 1 = e1, S1 = (0, a, b), f = (x, bw, -aw), S2 = f x e2
    and 2 = e2 form the KCBS pentagon 1 ⊥ S1 ⊥ f ⊥ S2 ⊥ 2 ⊥ 1; each inner
    path is the cross product of its context's two outer paths.
    (1, 1, 1, 1) gives the canonical spec.
    """
    e1, e2 = np.eye(3, dtype=np.int64)[:2]
    s1, f = np.array([0, a, b]), np.array([x, b * w, -a * w])
    dirs = {"1": e1, "2": e2, "S1": s1, "f": f, "S2": np.cross(f, e2)}
    for context in CONTEXTS:
        *outer, inner = context.members
        dirs[inner] = np.cross(dirs[outer[0]], dirs[outer[1]])
    k = np.array([dirs[name] for name in PATH_NAMES], dtype=np.int64)

    def cos2(u, v):
        return Fraction(int(u @ v) ** 2, int(u @ u) * int(v @ v))

    r1, rS1 = cos2(s1, e2), cos2(f, e1)
    rS2 = (1 - r1) * (1 - rS1)
    spec = interferometer.InterferometerSpec(
        r1=r1, rS1=rS1, rf=cos2(dirs["S2"], s1), rS2=rS2, r2=1 - rS1 / (1 - rS2)
    )
    return k, spec


PENTAGONS = [(1, 1, 1, 1), (1, 2, 1, 1), (2, 1, 3, 1), (3, 2, 1, 2), (1, 3, 2, 1), (2, 3, 1, 3)]

# Far along the closing family: r1 = 1/90001, r1 = 900/901 and rS1 = 1/180001.
# At (1, 300, 1, 1) the cascade's float path vectors miss the integer units by 1.2e-15.
FAR_PENTAGONS = [(1, 300, 1, 1), (30, 1, 1, 1), (1, 1, 1, 300)]


def pentagon_id(abxw):
    return "-".join(map(str, abxw))


@pytest.mark.parametrize("resolution", [63, 255])
@pytest.mark.parametrize(
    ("abxw", "bound"),
    [(p, 1e-15) for p in PENTAGONS] + [(p, 1e-14) for p in FAR_PENTAGONS],
    ids=map(pentagon_id, PENTAGONS + FAR_PENTAGONS),
)
def test_pixel_oracle_at_pentagons(abxw, bound, resolution):
    k, spec = pentagon(*abxw)
    system = interferometer.build(spec)
    assert interferometer.verify_closure(system, 1e-12)
    # the cascade's float path vectors are the integer directions, up to sign
    units = k / np.linalg.norm(k, axis=1, keepdims=True)
    assert np.minimum(abs(system.vectors - units), abs(system.vectors + units)).max() < bound
    if abxw == (1, 1, 1, 1):
        assert spec == interferometer.InterferometerSpec(*map(Fraction, ("1/2", "1/3", "1/4", "1/3", "1/2")))
    # not every_label: at (3, 2, 1, 2) V(2) covers 5 pixel centres at 1024 and none at 255
    check_pixel_oracle(k, resolution, (0.0, classify.DEFAULT_TOL, 1e-3), system)


@pytest.mark.parametrize("abxw", PENTAGONS + FAR_PENTAGONS, ids=pentagon_id)
def test_circles_cross_at_the_named_states(abxw):
    # the sub-class table takes its vertices from the named states: check
    # them against the crossings of the ten zero circles, found from cross products
    system = interferometer.build(pentagon(*abxw)[1])
    crossings = vertex_rays(system)
    named = np.array([s.ray.vector for s in states.canonical_states(system).values()])
    assert len(crossings) == len(named) == 20
    distance = np.minimum(abs(named[:, None] - crossings), abs(named[:, None] + crossings)).max(axis=2)
    assert distance.min(axis=1).max() < 1e-14 and distance.min(axis=0).max() < 1e-14


def primitive_rays(m):
    """Primitive integer vectors with entries in [-m, m], one per ray: first nonzero entry positive."""
    return np.array([
        x for x in product(range(-m, m + 1), repeat=3)
        if gcd(*x) == 1 and next(c for c in x if c) > 0
    ])


def exact_rho(a, b, psi):
    """rho(a, b) = (a.b)(a.psi)(psi.b) / (|a|^2 |b|^2 |psi|^2) at integer vectors, as a Fraction; rho(a, a) is P(a)."""
    return Fraction(int(a @ b) * int(a @ psi) * int(psi @ b), int(a @ a) * int(b @ b) * int(psi @ psi))


@pytest.mark.parametrize("abxw", PENTAGONS, ids=pentagon_id)
def test_kernel_matches_exact_rationals(abxw):
    # at an integer pentagon every path is an integer direction, and rho is
    # even in each of a and b, so the cascade's signs do not matter
    k, spec = pentagon(*abxw)
    system = interferometer.build(spec)
    dirs = dict(zip(PATH_NAMES, k))
    rays = np.array([x for x in product(range(-3, 4), repeat=3) if any(x)])  # all 342 nonzero
    units = rays / np.linalg.norm(rays, axis=1, keepdims=True)
    profiles = kd.profile_values_batch(units, system).tolist()
    for psi, u, profile in zip(rays, units.tolist(), profiles):
        state = RayState(*u)
        want = [exact_rho(dirs[p.a], dirs[p.b], psi) for p in KD_PAIRS]
        assert max(abs(Fraction(got) - w) for got, w in zip(profile, want)) < 1e-15, psi
        probs = {name: exact_rho(d, d, psi) for name, d in dirs.items()}
        got = interferometer.probabilities(state, system)
        assert max(abs(Fraction(got[name]) - p) for name, p in probs.items()) < 1e-15, psi
        # the inner sum reaches 3, and five roundings add up: its bound is relative
        inner = sum(probs[name] for name in INNER_PATHS)
        assert abs(Fraction(kd.inequality_sum(state, system)) - inner) < 1e-15 * inner, psi


def test_lattice_oracle():
    rays = primitive_rays(12)
    dots = rays @ K.T
    zero = dots == 0
    assert len(rays) == 6337 and zero.any(axis=1).sum() == 1580
    units = rays / np.linalg.norm(rays, axis=1, keepdims=True)
    boundary, idx = classify.classify_batch(units)
    # the boundary flag is "some amplitude exactly zero"
    assert (boundary == zero.any(axis=1)).all()
    # a boundary ray's labels are the strict labels of its exact neighbours
    # 100 x + v, v in [-3, 3]^3 off every circle through x; 100 |k . x| > |k . v|
    # keeps every other sign, and |k . v| > 0 picks a side of each circle through x
    v = np.array(list(product(range(-3, 4), repeat=3)))
    on = np.flatnonzero(boundary)
    side = v @ K.T
    ray_of, step = np.nonzero(((side[None] != 0) | ~zero[on][:, None]).all(axis=2))
    neighbours = 100 * rays[on][ray_of] + v[step]
    near, near_idx = classify.classify_batch(neighbours / np.linalg.norm(neighbours, axis=1, keepdims=True))
    assert not near.any()
    touching = np.zeros((len(on), len(classify.ALL_LABELS)), dtype=bool)
    touching[ray_of, near_idx] = True
    want = {k: {classify.ALL_LABELS[i] for i in np.flatnonzero(row)} for k, row in zip(on, touching)}
    for k, u in enumerate(units.tolist()):
        labels = classify.classify(RayState(*u)).labels
        assert labels == (want[k] if boundary[k] else {classify.ALL_LABELS[idx[k]]}), rays[k]


def exact_cells():
    """Sign vectors, corners and classes of the 31 cells, from integer sign tests alone.

    The 20 vertex rays are the primitive cross products of the path pairs;
    a sign vector (path 1 positive) is a cell when the sum of the signed
    vertices in its closed cone lies strictly inside it.  The class comes
    from the negativity counts of the KD signs sign(k_a . k_b) s_a s_b.
    Returns (signs, corners, classes), corners as unit vectors in cyclic order.
    """
    ia, ib = np.triu_indices(len(K), 1)
    rays = {}
    for w in np.cross(K[ia], K[ib]):
        w = w // gcd(*w.tolist())
        w = w if next(c for c in w if c) > 0 else -w
        rays[tuple(w.tolist())] = w
    assert len(rays) == 20
    vertices = np.array(list(rays.values()))
    vertices = np.concatenate([vertices, -vertices])
    vertex_dots = vertices @ K.T
    overlap = {(p.a, p.b): np.sign(K[PATH_NAMES.index(p.a)] @ K[PATH_NAMES.index(p.b)]) for p in KD_PAIRS}
    cells = []
    for tail in product((1, -1), repeat=9):
        s = np.array((1, *tail))
        inside = (vertex_dots * s >= 0).all(axis=1)
        if not (((vertices[inside].sum(axis=0) @ K.T) * s) > 0).all():
            continue
        corners = vertices[inside] / np.linalg.norm(vertices[inside], axis=1, keepdims=True)
        centre = corners.sum(axis=0) / np.linalg.norm(corners.sum(axis=0))
        e1 = np.cross(centre, corners[0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(centre, e1)
        corners = corners[np.argsort(np.arctan2(corners @ e2, corners @ e1))]
        sign = {name: t for name, t in zip(PATH_NAMES, s)}
        kd_signs = [overlap[p.a, p.b] * sign[p.a] * sign[p.b] for p in KD_PAIRS]
        counts = (sum(t < 0 for t in kd_signs[:5]), sum(t < 0 for t in kd_signs[5:]))
        cls = next(c for c, sig in classify.NEGATIVITY_SIGNATURE.items() if sig == counts)
        cells.append((tuple(s.tolist()), corners, cls))
    return cells


def edges(corners):
    """(start, end, arc angle, unit normal) of each edge of a cyclic corner list."""
    for a, b in zip(corners, np.roll(corners, -1, axis=0)):
        n = np.cross(a, b)
        yield a, b, np.arctan2(np.linalg.norm(n), a @ b), n / np.linalg.norm(n)


def girard_area(corners):
    """Angle sum minus (n - 2) pi: the sphere area of a convex spherical polygon."""
    total = 0.0
    for prev, v, nxt in zip(np.roll(corners, 1, axis=0), corners, np.roll(corners, -1, axis=0)):
        t1, t2 = prev - (prev @ v) * v, nxt - (nxt @ v) * v
        total += np.arccos(np.clip(t1 @ t2 / np.linalg.norm(t1) / np.linalg.norm(t2), -1.0, 1.0))
    return total - (len(corners) - 2) * np.pi


def chart_area(corners):
    """Orthographic chart area, the flux of e1 through the cell: 1/2 sum theta_e (e1 . n_e) (Stokes)."""
    return abs(0.5 * sum(theta * n[0] for _, _, theta, n in edges(corners)))


def chart_perimeter(corners, samples=2000):
    """Length of the cell's outline in the (u, v) chart, from fine polylines along each arc."""
    length = 0.0
    for a, b, theta, n in edges(corners):
        t = np.linspace(0.0, theta, samples)[:, None]
        arc = np.cos(t) * a + np.sin(t) * np.cross(n, a)
        length += np.linalg.norm(np.diff(arc[:, 1:], axis=0), axis=1).sum()
    return length


CELLS = exact_cells()
# Haar share of each class, from the Girard areas (four decimals)
CLASS_SHARES = {"N": 0.0604, "V": 0.0999, "B": 0.1189, "T": 0.1915, "X": 0.2615, "Q": 0.2677}


def test_exact_cells_are_the_arrangement():
    assert len(CELLS) == 31
    sizes = [len(corners) for _, corners, _ in CELLS]
    assert sum(sizes) == 100 and sorted(sizes) == [3] * 25 + [4] * 5 + [5]
    census = {}
    for _, _, cls in CELLS:
        census[cls] = census.get(cls, 0) + 1
    assert census == {"N": 1, "V": 5, "B": 5, "T": 5, "X": 10, "Q": 5}


def test_cell_areas_give_the_class_shares():
    # the cells tile the c1 > 0 hemisphere (area 2 pi) and the chart disk (area pi)
    assert abs(sum(chart_area(corners) for _, corners, _ in CELLS) - np.pi) < 1e-12
    areas = [girard_area(corners) for _, corners, _ in CELLS]
    assert min(areas) > 0
    assert abs(sum(areas) - 2 * np.pi) < 1e-12
    for cls, share in CLASS_SHARES.items():
        got = sum(a for a, (_, _, c) in zip(areas, CELLS) if c == cls) / (2 * np.pi)
        assert abs(got - share) < 5e-5, (cls, got)


@pytest.mark.parametrize("resolution", [256, 512, 1024])
def test_pixel_counts_approach_chart_areas(resolution):
    grid = atlas.sample_atlas(resolution)
    labels = grid.labels
    codes = exact_pixel_codes(K, resolution)[0]
    # pair each label with the one exact sign vector its pixels share
    strict = labels >= 0
    code_of = np.full(len(classify.ALL_LABELS), -1)
    code_of[labels[strict]] = codes[strict]
    assert (code_of >= 0).all() and (code_of[labels[strict]] == codes[strict]).all()
    cell_of = {s: (corners, cls) for s, corners, cls in CELLS}
    counts = grid.label_counts()
    pixel = (2.0 / resolution) ** 2
    for index, label in enumerate(classify.ALL_LABELS):
        signs = tuple(int(code_of[index]) // 3 ** (9 - k) % 3 - 1 for k in range(10))
        corners, cls = cell_of[signs]
        assert label.cls == cls, str(label)
        # a point where the cell and its pixels differ lies within half a
        # pixel diagonal d of the outline, as the segment to its pixel's
        # centre crosses it; the d-neighbourhood of an outline of chart
        # length L has area at most 2 d L + pi d^2
        d = np.sqrt(2.0) / resolution
        bound = 2 * d * chart_perimeter(corners) + np.pi * d * d
        assert abs(counts[label] * pixel - chart_area(corners)) <= bound, str(label)
