"""Exact integer oracles for the atlas and the classifier at the canonical spec.

Each path vector is an integer vector k over sqrt(d) (``verify.CLOSED_FORMS``),
so the sign of every amplitude at a lattice ray or a pixel centre is decided
in integer arithmetic, with no KD kernel and no cell table.
"""

from itertools import product
from math import gcd

import numpy as np
import pytest

from tripath import atlas, classify
from tripath.hilbert import RayState
from tripath.interferometer import PATH_NAMES
from tripath.verify import CLOSED_FORMS

# (10, 3) integer path directions in PATH_NAMES order
K = np.array([CLOSED_FORMS[name][:3] for name in PATH_NAMES], dtype=np.int64)


def exact_pixel_codes(resolution):
    """Exact amplitude signs at every pixel centre, as (codes, zero, D) arrays of shape (resolution, resolution).

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
    for k1, k2, k3 in K:
        s = k2 * a + k3 * b
        sign = np.sign(s) if k1 == 0 else np.where(k1 * s >= 0, 1, np.sign(k1 * k1 * d - s * s)) * np.sign(k1)
        codes = 3 * codes + sign + 1
        zero |= sign == 0
    return codes, zero, d


@pytest.mark.parametrize("resolution", [16, 17, 63, 255, 512, 1024])
def test_pixel_oracle(resolution):
    codes, zero, d = exact_pixel_codes(resolution)
    disk = d >= 0
    # at tol inf every pixel is a run start, which costs 0.25 s at 1024
    for tol in (0.0, classify.DEFAULT_TOL, 1e-3, np.inf)[: 3 if resolution > 512 else 4]:
        labels = atlas.sample_atlas(resolution, tol).labels
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
        if tol <= classify.DEFAULT_TOL and resolution >= 255:
            assert (code_of >= 0).all()
        if tol == np.inf:
            assert not strict.any()


def primitive_rays(m):
    """Primitive integer vectors with entries in [-m, m], one per ray: first nonzero entry positive."""
    return np.array([
        x for x in product(range(-m, m + 1), repeat=3)
        if gcd(*x) == 1 and next(c for c in x if c) > 0
    ])


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
