"""Hemisphere atlas of the sub-class regions.

The c1 >= 0 hemisphere is mapped orthographically to the unit disk with
chart coordinates (u, v) = (c2, c3).  Each pixel center inside the disk
lifts to a ray and is painted with its sub-class color, or boundary
marked where a KD value lies within tol of zero.  Labels only change
where a pixel row crosses one of the ten zero circles P(path) = 0, so
only the pixels next to those crossings and the first pixel of each run
between them are classified; the run takes that pixel's label.  Raster
output is binary PPM, vector output is standalone SVG showing the ten
zero-probability circles and the twenty named states.
"""

from __future__ import annotations

import csv
import io
import numbers
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .classify import (
    ALL_LABELS,
    DEFAULT_TOL,
    ClassLabel,
    _checked_tol,
    classify,
    classify_batch,
)
from .errors import InvalidInputError, UnsupportedFormatError
from .hilbert import circle_points, hemisphere_project
from .interferometer import PATH_NAMES, PathSystem, default_system, probabilities
from .kd import KD_PAIRS, _pair_geometry, inequality_sum, kd_profile
from .states import N_STATE_ORDER, THETA_ORDER, canonical_states, joint_basis

# Label index values below zero mark non-region pixels.
BOUNDARY = -1
EXTERIOR = -2

# Largest resolution: its int16 labels take 512 MB, the one buffer that
# grows with the resolution.
MAX_RESOLUTION = 16384

# Pixels per classify_batch call, taken as whole image rows.
_BLOCK_PIXELS = 1 << 15


@dataclass(frozen=True, eq=False)
class AtlasGrid:
    """Per-pixel sub-class indices over the chart square [-1, 1]^2.

    Row 0 is the top of the image (v = +1); u grows to the right.
    ``labels[iy, ix]`` indexes ALL_LABELS, or BOUNDARY / EXTERIOR.
    """

    resolution: int
    tol: float
    labels: np.ndarray

    def label_counts(self) -> dict[ClassLabel, int]:
        out = {}
        for i, label in enumerate(ALL_LABELS):
            n = int(np.count_nonzero(self.labels == i))
            if n:
                out[label] = n
        return out


def lift(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Chart coordinates to hemisphere unit vectors, stacked as rows."""
    c1 = np.sqrt(np.clip(1.0 - u * u - v * v, 0.0, None))
    return np.stack([c1, u, v], axis=-1)


def sample_atlas(
    resolution: int,
    tol: float = DEFAULT_TOL,
    system: PathSystem | None = None,
) -> AtlasGrid:
    """Classify every pixel of a resolution x resolution chart.

    Rows go in blocks of about 2^15 pixels.  Each window pixel, one within
    a pixel of a band |A_k| < eps with eps = 2 sqrt(tol / min|<a|b>|),
    goes through classify_batch; each run of pixels between windows and
    disk edges sends only its first pixel and takes its label.  That is
    exact: along such a run every |A_k| >= eps, so no amplitude changes
    sign and every |rho| >= min|<a|b>| eps^2 = 4 tol.
    ``resolution`` must be an integer from 16 to MAX_RESOLUTION;
    anything else raises InvalidInputError.
    """
    if isinstance(resolution, bool) or not isinstance(resolution, numbers.Integral):
        raise InvalidInputError(f"atlas resolution must be an integer, got {resolution!r}")
    if not 16 <= resolution <= MAX_RESOLUTION:
        raise InvalidInputError(f"atlas resolution must be at least 16 and at most {MAX_RESOLUTION}, got {resolution}")
    if system is None:
        system = default_system()
    # On the row at height v, (c1, u) = R (cos t, sin t) with R^2 = 1 - v^2,
    # so A_k = R m_k cos(t - phi_k) + k3_k v.
    k1, k2, k3 = system.matrix().T
    m, phi = np.hypot(k1, k2), np.arctan2(k2, k1)
    eps = 2.0 * np.sqrt(_checked_tol(tol) / np.abs(_pair_geometry(system)[2]).min())
    centers = (np.arange(resolution) + 0.5) * 2.0 / resolution - 1.0
    labels = np.full((resolution, resolution), EXTERIOR, dtype=np.int16)
    rows = max(1, _BLOCK_PIXELS // resolution)
    for top in range(0, resolution, rows):
        v = -centers[top : top + rows, None]  # row 0 at v = +1
        radius = np.sqrt(1.0 - v * v)
        # cos(t - phi) bounds of the band |A_k| < eps; path 3 has m = 0, and
        # its band fills the row when |k3 v| < eps and misses it otherwise
        bounds, scale = np.stack([eps - k3 * v, -eps - k3 * v]), radius * m
        cosines = np.divide(bounds, scale, out=np.copysign(2.0, bounds), where=scale > 0)
        near, far = np.arccos(np.clip(cosines, -1.0, 1.0))
        # t - phi in [near, far] or [-far, -near]: wrap each start into
        # [-3pi/2, pi/2) and cut the band to the row, t in [-pi/2, pi/2]
        start = np.mod(phi + np.stack([near, -far]) + 1.5 * np.pi, 2.0 * np.pi) - 1.5 * np.pi
        lo, hi = np.maximum(start, -np.pi / 2), np.minimum(start + (far - near), np.pi / 2)
        keep = lo <= hi
        x_lo, x_hi = ((radius * np.sin(np.stack([lo, hi])) + 1.0) * (resolution / 2) - 0.5)[:, keep]
        # window: the pixels in each band and the nearest pixel on either side
        first, stop = np.clip([np.ceil(x_lo) - 1, np.floor(x_hi) + 2], 0, resolution).astype(int)
        diff, row = np.zeros((len(v), resolution + 1), dtype=np.int8), np.nonzero(keep)[1]
        np.add.at(diff, (row, first), 1)
        np.add.at(diff, (row, stop), -1)
        window = diff.cumsum(axis=1, dtype=np.int8)[:, :-1] > 0
        # runs start at each row start, disk edge and window pixel, and after
        # each window pixel, so that a run keeps a pixel away from every band
        inside = centers * centers + v * v <= 1.0
        cut = window.copy()
        cut[:, 1:] |= window[:, :-1] | (inside[:, 1:] != inside[:, :-1])
        cut[:, 0] = True
        starts = np.flatnonzero(cut)
        iy, ix = np.divmod(starts, resolution)
        values = np.full(len(starts), EXTERIOR, dtype=np.int16)
        disk = inside[iy, ix]
        # classify_batch gives boundary rays the index -1, which is BOUNDARY
        values[disk] = classify_batch(lift(centers[ix[disk]], v[iy[disk], 0]), system, tol)[1]
        labels[top : top + rows] = np.repeat(values, np.diff(starts, append=cut.size)).reshape(cut.shape)
    return AtlasGrid(resolution=resolution, tol=tol, labels=labels)


@lru_cache(maxsize=1)
def palette() -> dict[str, tuple[int, int, int]]:
    """Sub-class fill colors from the packaged config file."""
    text = resources.files("tripath").joinpath("data/palette.txt").read_text()
    out: dict[str, tuple[int, int, int]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0] if raw.lstrip().startswith("#") else raw
        if not line.strip():
            continue
        name, hexcolor = line.rsplit("#", 1)
        h = hexcolor.strip()
        out[name.strip()] = (int(h[0:2], 16), int(h[2:4], 16), int(h[4:6], 16))
    missing = [str(l) for l in ALL_LABELS if str(l) not in out]
    if missing:
        raise UnsupportedFormatError(f"palette misses sub-classes: {missing}")
    return out


def render(
    grid: AtlasGrid | None, fmt: str = "raster", system: PathSystem | None = None
) -> bytearray | str:
    """Render the chart; ``raster`` gives the PPM file as a bytearray, ``vector`` SVG text.

    Raster output needs a sampled grid.  Vector output draws the region
    boundaries analytically and only needs the path system.
    """
    if fmt == "raster":
        if grid is None:
            raise InvalidInputError("raster rendering needs a sampled grid")
        return _render_ppm(grid)
    if fmt == "vector":
        return _render_svg(system or default_system())
    raise UnsupportedFormatError(f"unknown atlas format {fmt!r}")


def _render_ppm(grid: AtlasGrid) -> bytearray:
    colors = palette()
    table = np.zeros((len(ALL_LABELS) + 2, 3), dtype=np.uint8)
    table[EXTERIOR] = (255, 255, 255)
    table[BOUNDARY] = (0, 0, 0)
    for i, label in enumerate(ALL_LABELS):
        table[i] = colors[str(label)]
    header = f"P6\n{grid.resolution} {grid.resolution}\n255\n".encode("ascii")
    out = bytearray(len(header) + 3 * grid.labels.size)
    out[: len(header)] = header
    image = np.frombuffer(out, dtype=np.uint8, offset=len(header)).reshape(*grid.labels.shape, 3)
    # Row blocks bound the intp copy that take makes of the indices; "wrap"
    # maps the negative BOUNDARY and EXTERIOR indices to the last table rows,
    # as plain indexing does, and writes straight into ``out``.
    rows = max(1, _BLOCK_PIXELS // grid.resolution)
    for top in range(0, grid.resolution, rows):
        block = slice(top, top + rows)
        np.take(table, grid.labels[block], axis=0, out=image[block], mode="wrap")
    return out


_SVG_SAMPLES = 720


def _svg_coord(u: float, v: float) -> tuple[float, float]:
    return round(u, 5), round(-v, 5)  # SVG y axis points down


def _render_svg(system: PathSystem) -> str:
    named = canonical_states(system)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.15 -1.15 2.3 2.3" '
        'width="720" height="720">',
        '<rect x="-1.15" y="-1.15" width="2.3" height="2.3" fill="white"/>',
        '<circle cx="0" cy="0" r="1" fill="none" stroke="black" stroke-width="0.006"/>',
    ]
    for name in PATH_NAMES:
        points = circle_points(system.ray(name), _SVG_SAMPLES)
        # The projected circle is centrally symmetric, so skipping the
        # hemisphere flip keeps the polyline continuous.
        coords = np.round(np.stack([points[:, 1], -points[:, 2]], 1), 5).tolist()
        parts.append(
            f'<polyline points="{" ".join(f"{x},{y}" for x, y in coords)}" fill="none" '
            f'stroke="#666666" stroke-width="0.004">'
            f"<title>P({name}) = 0</title></polyline>"
        )
    for name, state in named.items():
        point = hemisphere_project(state.ray)
        x, y = _svg_coord(point.u, point.v)
        parts.append(f'<circle cx="{x}" cy="{y}" r="0.012" fill="#d62728"/>')
        parts.append(
            f'<text x="{x + 0.018}" y="{y - 0.012}" font-size="0.045" '
            f'font-family="sans-serif" fill="black">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _csv_doc(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def export_canonical_tables(system: PathSystem | None = None) -> dict[str, str]:
    """Reference CSV tables for the named states and the joint basis.

    Returns documents keyed ``probabilities``, ``kd_values``,
    ``inequality`` and ``labels``.
    """
    if system is None:
        system = default_system()
    named = canonical_states(system)
    order = list(PATH_NAMES) + list(N_STATE_ORDER) + list(THETA_ORDER)
    rows = [(name, named[name].ray) for name in order]
    rows += [(b.name, b.ray) for b in joint_basis(system)]

    prob_rows = []
    kd_rows = []
    ineq_rows = []
    label_rows = []
    for name, ray in rows:
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
