"""Hemisphere atlas of the sub-class regions.

The c1 >= 0 hemisphere is mapped orthographically to the unit disk with
chart coordinates (u, v) = (c2, c3).  Each pixel center inside the disk
lifts to a ray and is painted with its sub-class color, or boundary
marked where a KD value lies within tol of zero.  Labels only change
where a pixel row crosses one of the ten zero circles P(path) = 0, and
path 1's circle c1 = 0 is the rim of the disk.  The crossings' closed
form gives each row's runs, only each run's first pixel is classified,
and the atlas keeps the runs, so the PPM is the one buffer that grows
with the resolution.  Raster output is binary PPM, vector output is SVG
of the ten zero circles and the named states.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .classify import (
    ALL_LABELS,
    DEFAULT_TOL,
    ClassLabel,
    _band_radius,
    _checked_tol,
    classify,
    classify_batch,
)
from .errors import InvalidInputError, UnsupportedFormatError
from .hilbert import circle_points
from .interferometer import PATH_NAMES, PathSystem, _per_system, default_system, probabilities
from .kd import KD_PAIRS, _csv_doc, inequality_sum, kd_profile
from .states import _named_states, canonical_states

# Label index values below zero mark non-region pixels.
BOUNDARY = -1
EXTERIOR = -2

# Largest resolution: its PPM takes 768 MB, the one buffer that grows
# with the resolution.
MAX_RESOLUTION = 16384

# Pixels per row block of the PPM renderer, taken as whole rows; a block's
# 4-byte pixel words take 256 KB.
_BLOCK_PIXELS = 1 << 16
# Expected run starts per row block of the sampler, which bound its
# temporaries.  A row holds at most resolution run starts, and crosses the
# ten bands about 20 times, each in a window of about eps * resolution + 1
# pixels; the block counts + 3 per window, which also bounds its band arrays.
_BLOCK_STARTS = 1 << 14
# Rays per classify_batch call: its (10, n) float temporaries stay at 160 KB.
_BATCH_RAYS = 1 << 11

# Fill colors of the 31 sub-classes as RGB rows in ALL_LABELS order, one
# class per line: N red, V orange, B yellow, T green, X blue, Q purple.
PALETTE = np.frombuffer(bytes.fromhex("""
    e41a1c
    ff7f00 fd9e41 fdbf6f e8852a d96b0c
    ffd92f f5e642 e6c229 d4b106 c7a500
    33a02c 66c2a5 1b9e77 52b788 74c476
    1f78b4 3690c0 4eb3d3 6baed6 2171b5 08519c 4292c6 5aa7de 2b8cbe 0868ac
    6a3d9a 807dba 9e9ac8 8c6bb1 756bb1
"""), dtype=np.uint8).reshape(-1, 3)


@dataclass(frozen=True, eq=False)
class AtlasGrid:
    """Sub-class indices over the chart square [-1, 1]^2, as runs of pixels.

    Row 0 is the top of the image (v = +1); u grows to the right.  Run k
    starts at flat pixel ``starts[k]``, every row start among them, and
    holds ``values[k]``: an index into ALL_LABELS, or BOUNDARY / EXTERIOR.
    """

    resolution: int
    tol: float  # the tol sampled at, after the raise to TOL_FLOOR
    starts: np.ndarray  # int64, strictly increasing from 0
    values: np.ndarray  # int16

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.starts, append=self.resolution**2)

    @property
    def labels(self) -> np.ndarray:
        """Dense (resolution, resolution) int16 labels, built on each access."""
        return np.repeat(self.values, self.lengths).reshape(self.resolution, self.resolution)

    def label_counts(self) -> dict[ClassLabel, int]:
        region = self.values >= 0
        counts = np.bincount(self.values[region], self.lengths[region], len(ALL_LABELS))
        return {label: int(n) for label, n in zip(ALL_LABELS, counts) if n}


def lift(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Chart coordinates to hemisphere unit vectors, stacked as rows."""
    c1 = np.sqrt(np.clip(1.0 - u * u - v * v, 0.0, None))
    return np.stack([c1, u, v], axis=-1)


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The integers first[i], ..., first[i] + count[i] - 1 for each i, concatenated."""
    return np.repeat(first - (np.cumsum(count) - count), count) + np.arange(count.sum())


def _checked_resolution(resolution: int) -> None:
    """Raise InvalidInputError unless ``resolution`` is an integer from 16 to MAX_RESOLUTION."""
    if isinstance(resolution, bool) or not isinstance(resolution, numbers.Integral):
        raise InvalidInputError(f"atlas resolution must be an integer, got {resolution!r}")
    if not 16 <= resolution <= MAX_RESOLUTION:
        raise InvalidInputError(f"atlas resolution must be at least 16 and at most {MAX_RESOLUTION}, got {resolution}")


def sample_atlas(
    resolution: int,
    tol: float = DEFAULT_TOL,
    system: PathSystem | None = None,
) -> AtlasGrid:
    """Classify every pixel of a resolution x resolution chart.

    On each row the amplitudes' closed form gives each band |A_k| < eps,
    twice classify's band radius sqrt(tol / min|<a|b>|), as a pixel range.
    Runs start at each pixel in a band, at the pixel after it and at the
    row start.  Path 1's band ends at the disk's rim c1 = 0, so its
    windows hold the disk edges; only the run starts in the disk go
    through classify_batch, and each run takes its first pixel's label.
    That is exact: along a run every |A_k| >= eps, so no amplitude changes
    sign and every |rho| >= min|<a|b>| eps^2 = 4 tol.  A pixel that float
    rounding leaves just outside a window still has |A_k| near eps, far
    above the band radius, so it is strict with its run start's signs: the
    factor 2 needs no guard pixels.  Equal neighbours in a row merge.
    Rows go in blocks of about _BLOCK_STARTS expected run starts, and
    classify_batch takes _BATCH_RAYS of them at a time, so the memory held
    does not grow with the resolution or the tol.  ``resolution`` must be
    an integer from 16 to MAX_RESOLUTION; anything else raises
    InvalidInputError.
    """
    _checked_resolution(resolution)
    if system is None:
        system = default_system()
    # On the row at height v, (c1, u) = R (cos t, sin t) with R^2 = 1 - v^2,
    # so A_k = R m_k cos(t - phi_k) + k3_k v.
    k1, k2, k3 = system.vectors.T
    m, phi = np.hypot(k1, k2), np.arctan2(k2, k1)
    tol = _checked_tol(tol)
    eps = 2.0 * _band_radius(system, tol)
    centers = (np.arange(resolution) + 0.5) * 2.0 / resolution - 1.0
    sign = np.array([1.0, -1.0])[:, None, None]
    runs = []
    # past eps = 1 the windows fill every row, and an infinite tol has no int
    rows = max(1, _BLOCK_STARTS // min(20 * (int(min(eps, 1.0) * resolution) + 3), resolution))
    for top in range(0, resolution, rows):
        vb = -centers[top : top + rows, None]  # row y lies at height -centers[y], row 0 at v = +1
        rb = np.sqrt(1.0 - vb * vb)
        # cos(t - phi) bounds of the band |A_k| < eps; path 3 has m = 0, and
        # its band fills the row when |k3 v| < eps and misses it otherwise
        bounds, scale = sign * eps - k3 * vb, rb * m
        cosines = np.divide(bounds, scale, out=np.copysign(2.0, bounds), where=scale > 0)
        angles = np.arccos(np.clip(cosines, -1.0, 1.0))  # near, far
        # t - phi in [near, far] or [-far, -near]: wrap each start into
        # [-3pi/2, pi/2) and cut the band to the row, t in [-pi/2, pi/2]; as
        # phi + sign angles lies in (-2pi, 2pi], a start moves one turn at most
        w = phi + sign * angles + 1.5 * np.pi
        start = np.where(w < 0, w + 2 * np.pi, np.where(w >= 2 * np.pi, w - 2 * np.pi, w)) - 1.5 * np.pi
        lo, hi = np.maximum(start, -np.pi / 2), np.minimum(start + (angles[1] - angles[0]), np.pi / 2)
        keep = lo <= hi
        row = np.nonzero(keep)[1]
        x_lo, x_hi = (rb[row, 0] * np.sin(np.stack([lo[keep], hi[keep]])) + 1.0) * (resolution / 2) - 0.5
        # runs start at each pixel of a band's window (its pixels and the pixel
        # after them): count >= 0 pixels from first, as x lies in
        # [-0.5, resolution - 0.5]; cuts holds them as flat indices
        first = np.maximum(np.ceil(x_lo), 0).astype(int)
        count = np.minimum(np.floor(x_hi) + 1, resolution - 1).astype(int) - first + 1
        # and each row start.  Path 1's band (A_1 = R cos t) ends at the rim
        # t = +-pi/2, x = (1 -+ R) resolution / 2 - 0.5, so its windows hold the
        # disk edges.  Flat indices in a block fit in int32, which halves the sort
        row_starts = np.arange(0, len(vb) * resolution + 1, resolution)
        cuts = np.concatenate([_ranges(row * resolution + first, count), row_starts], dtype=np.int32)
        cuts.sort()
        # the block's end is the largest cut; the others, without repeats, are the run starts
        starts = cuts[:-1][cuts[1:] != cuts[:-1]]
        y = starts // resolution
        x = starts - y * resolution
        # a pixel lies in the disk when its center has c^2 + v^2 <= 1
        c, h = centers.take(x), vb.take(y)
        disk = np.flatnonzero(c * c + h * h <= 1.0)
        values = np.full(len(starts), EXTERIOR, dtype=np.int16)
        # classify_batch gives boundary rays the index -1, which is BOUNDARY;
        # each chunk lifts its own rays, so no (n, 3) array holds the block's
        for at in range(0, len(disk), _BATCH_RAYS):
            part = disk[at : at + _BATCH_RAYS]
            values[part] = classify_batch(lift(c[part], h[part]), system, tol)[1]
        # equal neighbours merge, and every row start stays
        keep = x == 0
        keep[1:] |= values[1:] != values[:-1]
        runs.append((starts[keep] + np.int64(top * resolution), values[keep]))
    return AtlasGrid(resolution, tol, *map(np.concatenate, zip(*runs)))


def render(
    grid: AtlasGrid | None, fmt: str = "raster", system: PathSystem | None = None
) -> memoryview | str:
    """Render the chart; ``raster`` gives the PPM file as a memoryview, ``vector`` SVG text.

    Raster output needs a sampled grid, and its view is read-only.  Vector output
    draws the region boundaries analytically from the path system alone, once per system.
    """
    if fmt == "raster":
        if grid is None:
            raise InvalidInputError("raster rendering needs a sampled grid")
        if not isinstance(grid, AtlasGrid):
            raise InvalidInputError(f"raster rendering needs an AtlasGrid, got {type(grid).__name__}")
        return _render_ppm(grid)
    if fmt == "vector":
        return _render_svg(system)
    raise UnsupportedFormatError(f"unknown atlas format {fmt!r}")


def _render_ppm(grid: AtlasGrid) -> memoryview:
    table = np.concatenate([PALETTE, np.uint8([[255, 255, 255], [0, 0, 0]])])  # rows -2, -1: EXTERIOR, BOUNDARY
    res = grid.resolution
    header = f"P6\n{res} {res}\n255\n".encode("ascii")
    # one store per pixel, into a buffer with no zero fill: R | G << 8 | B << 16
    # as a little-endian 4-byte word, in address order, so the next pixel's red
    # overwrites each spare byte; the last one falls past the PPM, outside the view
    out = np.empty(len(header) + 3 * res * res + 1, np.uint8)
    out[: len(header)] = np.frombuffer(header, np.uint8)
    pixel = np.ndarray(res * res, "<u4", buffer=out, offset=len(header), strides=3)
    words, lengths = np.pad(table, ((0, 0), (0, 1))).view("<u4")[grid.values, 0], grid.lengths
    # every row starts a run, so a block of whole rows is a slice of runs
    pixels = np.append(np.arange(0, res, max(1, _BLOCK_PIXELS // res)) * res, res * res)
    runs = np.searchsorted(grid.starts, pixels)
    for a, b, i, j in zip(pixels[:-1], pixels[1:], runs[:-1], runs[1:]):
        pixel[a:b] = np.repeat(words[i:j], lengths[i:j])
    out.flags.writeable = False
    return memoryview(out)[:-1]


_SVG_SAMPLES = 720


@_per_system
def _render_svg(system: PathSystem) -> str:
    named = canonical_states(system)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.15 -1.15 2.3 2.3" '
        'width="720" height="720">',
        '<rect x="-1.15" y="-1.15" width="2.3" height="2.3" fill="white"/>',
        '<circle cx="0" cy="0" r="1" fill="none" stroke="black" stroke-width="0.006"/>',
    ]
    points = np.stack([circle_points(system.ray(name), _SVG_SAMPLES) for name in PATH_NAMES])
    # The projected circle is centrally symmetric, so skipping the
    # hemisphere flip keeps the polyline continuous; SVG y points down.
    coords = np.round(np.stack([points[..., 1], -points[..., 2]], -1), 5)
    for name, line in zip(PATH_NAMES, coords):
        text = " ".join(f"{x!r},{y!r}" for x, y in line.tolist())
        parts.append(
            f'<polyline points="{text}" fill="none" stroke="#666666" stroke-width="0.004">'
            f"<title>P({name}) = 0</title></polyline>"
        )
    for name, state in named.items():
        # chart point (u, v) = (c2, c3) of the c1 >= 0 representative; SVG y points down
        _, u, v = map(float, state.ray.canonical())
        x, y = round(u, 5), round(-v, 5)
        parts.append(f'<circle cx="{x}" cy="{y}" r="0.012" fill="#d62728"/>')
        parts.append(
            f'<text x="{x + 0.018}" y="{y - 0.012}" font-size="0.045" '
            f'font-family="sans-serif" fill="black">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def export_canonical_tables(system: PathSystem | None = None) -> dict[str, str]:
    """Reference CSV tables for the named states and the joint basis.

    Returns documents keyed ``probabilities``, ``kd_values``,
    ``inequality`` and ``labels``, built once per system; each call gets
    its own dict.
    """
    return dict(_canonical_tables(system))


@_per_system
def _canonical_tables(system: PathSystem) -> dict[str, str]:
    prob_rows, kd_rows, ineq_rows, label_rows = [], [], [], []
    for name, state in _named_states(system)[0].items():
        ray = state.ray
        probs = probabilities(ray, system)
        prob_rows.append([name] + [repr(probs[p]) for p in PATH_NAMES])
        profile = kd_profile(ray, system)
        kd_rows.append([name] + [repr(v) for v in profile.values])
        s = inequality_sum(ray, system)
        ineq_rows.append([name, repr(s), repr(max(0.0, 1.0 - s))])
        result = classify(ray, system)
        label_rows.append([name, ";".join(sorted(str(l) for l in result.labels))])
    return {
        "probabilities": _csv_doc(["state"] + [f"P({p})" for p in PATH_NAMES], prob_rows),
        "kd_values": _csv_doc(["state"] + [p.label for p in KD_PAIRS], kd_rows),
        "inequality": _csv_doc(["state", "inner_sum", "violation"], ineq_rows),
        "labels": _csv_doc(["state", "labels"], label_rows),
    }
