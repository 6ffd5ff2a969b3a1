import csv
import hashlib
import io
import re
import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripath import atlas, classify, interferometer
from tripath.classify import ClassLabel
from tripath.errors import UnsupportedFormatError
from tripath.hilbert import circle_points, normalize

from conftest import closing_system, pixel_center

GOLDEN_PPM_64_SHA256 = "648ad8f54e87204648e9bcf4c4f58d9b28a36f57f347090609a43842114cd220"
GOLDEN_SVG_SHA256 = "fc21efca7d8758d04d40fceb0b2dc6509dac98314236c6844fdfc284a70ffe21"


@pytest.fixture(scope="module")
def grid(system):
    return atlas.sample_atlas(256, system=system)


def test_lift_produces_front_hemisphere():
    u = np.array([0.0, 0.3, -0.5])
    v = np.array([0.0, 0.4, 0.5])
    rays = atlas.lift(u, v)
    assert np.allclose(np.linalg.norm(rays, axis=1), 1.0, atol=1e-12)
    assert (rays[:, 0] >= 0).all()
    assert np.allclose(rays[:, 1], u) and np.allclose(rays[:, 2], v)


def test_resolution_floor(system):
    with pytest.raises(ValueError):
        atlas.sample_atlas(8, system=system)


def test_grid_keeps_the_tol_it_was_sampled_at(system):
    assert atlas.sample_atlas(16, 0.0, system).tol == classify.TOL_FLOOR
    assert atlas.sample_atlas(16, 1e-3, system).tol == 1e-3


def test_grid_marks_exterior(grid):
    res = grid.resolution
    assert grid.labels.shape == (res, res)
    assert grid.labels[0, 0] == atlas.EXTERIOR
    assert grid.labels[0, res - 1] == atlas.EXTERIOR
    assert grid.labels[res - 1, 0] == atlas.EXTERIOR
    interior = grid.labels[res // 2, res // 2]
    assert interior >= 0 or interior == atlas.BOUNDARY


def every_pixel_labels(resolution, tol, system):
    """Reference labels: every in-disk pixel center through classify_batch."""
    centers = (np.arange(resolution) + 0.5) * 2.0 / resolution - 1.0
    u, v = np.meshgrid(centers, -centers)
    inside = u * u + v * v <= 1.0
    rays = atlas.lift(u[inside], v[inside])
    want = np.full((resolution, resolution), atlas.EXTERIOR, dtype=np.int16)
    # one call up to 1000 pixels; larger disks go in slices of 2^20 rays,
    # which give the same labels because kernel rows do not depend on the
    # batch size
    step = 1 << 20
    want[inside] = np.concatenate(
        [classify.classify_batch(rays[i : i + step], system, tol)[1] for i in range(0, len(rays), step)]
    )
    return want


# (resolution, tol, closing spec or None for the canonical one); from 16 to
# 48 the top and bottom rows hold 5 to 10 disk pixels, so a rim row's two
# disk edges lie a few pixels apart
ROW_BLOCK_CASES = [
    (127, 1e-9, None), (255, 1e-9, None), (300, 1e-9, None), (1000, 1e-9, None),
    (2048, 1e-9, None), (300, 0.0, None), (300, 1e-6, None), (300, 1e-3, None), (64, float("inf"), None),
] + [(res, tol, spec) for spec in (None, (0.2, 0.7)) for res in range(16, 49) for tol in (0.0, 1e-9, float("inf"))]


@pytest.mark.parametrize(
    "resolution, tol, spec",
    ROW_BLOCK_CASES,
    ids=[f"{res}-{tol}" + (f"-closing-{spec[0]}-{spec[1]}" if spec else "") for res, tol, spec in ROW_BLOCK_CASES],
)
def test_row_blocks_match_one_batch_call(system, monkeypatch, resolution, tol, spec):
    if spec:
        system = closing_system(*spec)
    # 300, 1000 and 2048 put a block edge inside the disk at the module's
    # budget.  A budget of 180 run starts gives blocks of a few rows (three
    # where a row expects 60 run starts, as at the default tol from 60 pixels
    # up, and one at tol 1e-3), so block edges fall inside the disk at every
    # resolution; classify_batch calls of 7 rays put chunk edges inside rows
    want = every_pixel_labels(resolution, tol, system)
    got = atlas.sample_atlas(resolution, tol, system).labels
    assert got.dtype == np.int16
    assert np.array_equal(got, want)
    monkeypatch.setattr(atlas, "_BLOCK_STARTS", 180)
    monkeypatch.setattr(atlas, "_BATCH_RAYS", 7)
    assert np.array_equal(atlas.sample_atlas(resolution, tol, system).labels, want)


@pytest.mark.parametrize("resolution", [127, 255])
def test_odd_resolution_middle_row_is_boundary(system, resolution):
    # the middle row lies on v = 0, the zero circle of path 3 = (0, 0, 1)
    row = atlas.sample_atlas(resolution, system=system).labels[resolution // 2]
    assert (row[row != atlas.EXTERIOR] == atlas.BOUNDARY).all()


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
def test_scanline_at_a_closing_spec(tol):
    system = closing_system(0.4, 0.3)
    assert interferometer.verify_closure(system)
    grid = atlas.sample_atlas(301, tol, system)
    assert np.array_equal(grid.labels, every_pixel_labels(301, tol, system))
    assert len(grid.label_counts()) == 31


@settings(max_examples=10, deadline=None)
@given(st.integers(16, 400), st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]))
def test_scanline_matches_every_pixel(resolution, tol):
    system = interferometer.default_system()
    got = atlas.sample_atlas(resolution, tol, system).labels
    assert np.array_equal(got, every_pixel_labels(resolution, tol, system))


def test_only_run_starts_are_classified(system, monkeypatch):
    # a run start is a pixel in a band, the pixel after a band or a row start;
    # path 1's windows hold the disk edges.  At 2048 the disk holds 3 294 288 pixels
    rays = []

    def counting(vectors, *args):
        rays.append(len(vectors))
        return classify.classify_batch(vectors, *args)

    monkeypatch.setattr(atlas, "classify_batch", counting)
    atlas.sample_atlas(2048, system=system)
    assert sum(rays) == 19_941


@pytest.mark.parametrize("tol", [0.0, 1e-3])
@pytest.mark.parametrize("resolution, closing", [(17, False), (301, False), (2048, False), (301, True)])
def test_grid_holds_merged_runs(system, resolution, closing, tol):
    if closing:
        system = closing_system(0.4, 0.3)
    grid = atlas.sample_atlas(resolution, tol, system)
    starts, values = grid.starts, grid.values
    assert starts.dtype == np.int64 and values.dtype == np.int16 and len(starts) == len(values)
    assert starts[0] == 0 and (np.diff(starts) > 0).all() and starts[-1] < resolution**2
    assert np.isin(np.arange(0, resolution**2, resolution), starts).all()
    within_row = starts[1:] % resolution != 0
    assert (values[1:] != values[:-1])[within_row].all()
    index, count = np.unique(grid.labels, return_counts=True)
    want = {classify.ALL_LABELS[i]: int(n) for i, n in zip(index, count) if i >= 0}
    assert grid.label_counts() == want


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "resolution, tol, limit_mb",
    [
        pytest.param(512, classify.DEFAULT_TOL, 4, id="512"),
        pytest.param(2048, classify.DEFAULT_TOL, 4, id="2048"),
        pytest.param(4096, classify.DEFAULT_TOL, 4, id="4096"),
        pytest.param(8192, classify.DEFAULT_TOL, 4, id="8192"),
        pytest.param(16384, classify.DEFAULT_TOL, 4, id="16384"),
        # nearly every pixel starts a run and goes through classify_batch
        pytest.param(2048, 1e-3, 4, id="2048-tol1e-3"),
    ],
)
def test_sampler_memory_does_not_grow_with_resolution(system, resolution, tol, limit_mb):
    atlas.sample_atlas(16, system=system)  # build the cached tables first
    _, peak = traced_peak(lambda: atlas.sample_atlas(resolution, tol, system))
    assert peak < limit_mb << 20


@pytest.mark.parametrize("resolution", [512, 2048, 4096])
def test_raster_memory_is_the_ppm(system, resolution):
    grid = atlas.sample_atlas(resolution, system=system)
    ppm, peak = traced_peak(lambda: atlas.render(grid, "raster"))
    assert peak - len(ppm) < 2 << 20


def test_sampling_raises_no_numpy_warnings(system):
    # path 3 has no (c1, u) component, so its band needs no division
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        atlas.sample_atlas(127, system=system)
        # past the float range the band radius is inf, not an overflow
        atlas.sample_atlas(16, tol=1e308, system=system)
        assert len(classify.classify(system.ray("3"), system, tol=1e308).labels) == 31


def test_center_pixel_is_path_1(system):
    # odd resolution puts a pixel center exactly at the chart origin
    g = atlas.sample_atlas(127, system=system)
    iy = ix = 127 // 2
    u, v = pixel_center(g.resolution, ix, iy)
    assert u == pytest.approx(0.0, abs=1e-12) and v == pytest.approx(0.0, abs=1e-12)
    # |1> sits on several zero circles at once
    assert g.labels[iy, ix] == atlas.BOUNDARY


def test_all_labels_present_at_256(grid):
    assert len(grid.label_counts()) == 31


def test_n_region_is_connected(grid):
    n_index = classify.ALL_LABELS.index(ClassLabel("N"))
    mask = grid.labels == n_index
    assert mask.any()
    seen = np.zeros_like(mask)
    ys, xs = np.nonzero(mask)
    queue = deque([(int(ys[0]), int(xs[0]))])
    seen[ys[0], xs[0]] = True
    while queue:
        y, x = queue.popleft()
        for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ny, nx = y + dy, x + dx
            if 0 <= ny < mask.shape[0] and 0 <= nx < mask.shape[1]:
                if mask[ny, nx] and not seen[ny, nx]:
                    seen[ny, nx] = True
                    queue.append((ny, nx))
    assert (seen == mask).all()


def test_palette_covers_all_labels():
    assert atlas.PALETTE.shape == (len(classify.ALL_LABELS), 3) == (31, 3)
    assert atlas.PALETTE.dtype == np.uint8
    assert len({tuple(rgb) for rgb in atlas.PALETTE.tolist()}) == 31


def test_raster_output_shape(grid):
    ppm = atlas.render(grid, "raster")
    header = f"P6\n{grid.resolution} {grid.resolution}\n255\n".encode()
    assert ppm.startswith(header)
    assert len(ppm) == len(header) + 3 * grid.resolution**2


@pytest.mark.parametrize(
    "resolution, closing", [(17, False), (64, False), (301, False), (301, True), (1031, False)]
)
def test_raster_matches_a_palette_lookup(system, resolution, closing):
    # odd sizes put the 4-byte pixel stores on every byte phase; 1031 paints
    # sixteen blocks of 63 rows and a last one of 23, so it checks the block
    # seams and the last pixel, whose spare byte falls past the PPM
    if closing:
        system = closing_system(0.4, 0.3)
    grid = atlas.sample_atlas(resolution, system=system)
    table = np.concatenate([atlas.PALETTE, np.uint8([[255, 255, 255], [0, 0, 0]])])  # rows -2, -1
    header = f"P6\n{resolution} {resolution}\n255\n".encode()
    assert atlas.render(grid, "raster") == header + table[grid.labels].tobytes()


def test_raster_determinism_and_golden(system):
    a = atlas.render(atlas.sample_atlas(64, system=system), "raster")
    b = atlas.render(atlas.sample_atlas(64, system=system), "raster")
    assert a == b
    assert hashlib.sha256(a).hexdigest() == GOLDEN_PPM_64_SHA256


def test_vector_output(system):
    svg = atlas.render(None, "vector", system)
    assert svg.lstrip().startswith("<svg")
    assert svg.count("<polyline") == 10
    assert svg.count("<text") == 20
    assert "N_2" in svg and "theta_3" in svg


def test_vector_golden():
    svg = atlas.render(None, "vector")
    assert hashlib.sha256(svg.encode()).hexdigest() == GOLDEN_SVG_SHA256


@settings(max_examples=20, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_polylines_at_closing_specs(r1, rS1):
    # reference: one float repr per rounded coordinate
    system = closing_system(r1, rS1)
    want = []
    for name in interferometer.PATH_NAMES:
        points = circle_points(system.ray(name), atlas._SVG_SAMPLES)
        coords = np.round(np.stack([points[:, 1], -points[:, 2]], 1), 5).tolist()
        want.append(" ".join(f"{x},{y}" for x, y in coords))
    assert re.findall(r'<polyline points="([^"]*)"', atlas.render(None, "vector", system)) == want


def test_vector_chart_is_built_once_per_system():
    svg = atlas.render(None, "vector")
    assert atlas.render(None, "vector", interferometer.default_system()) is svg
    other = closing_system(0.4, 0.3)
    assert atlas.render(None, "vector", other) is not svg
    assert atlas.render(None, "vector", other) is atlas.render(None, "vector", other)
    assert atlas._render_svg.__wrapped__(other) == atlas.render(None, "vector", other)
    assert atlas._render_svg.__wrapped__(interferometer.default_system()) == svg


def test_canonical_tables_are_built_once_per_system():
    docs = atlas.export_canonical_tables()
    again = atlas.export_canonical_tables(interferometer.default_system())
    assert again == docs and again is not docs
    assert atlas._canonical_tables() is atlas._canonical_tables(interferometer.default_system())
    docs["labels"] = "changed"
    del docs["kd_values"]
    assert atlas.export_canonical_tables() == again
    other = closing_system(0.4, 0.3)
    assert atlas.export_canonical_tables(other) != again
    assert atlas._canonical_tables.__wrapped__(other) == atlas.export_canonical_tables(other)
    assert atlas._canonical_tables.__wrapped__(interferometer.default_system()) == again


def test_render_format_errors(grid):
    with pytest.raises(UnsupportedFormatError):
        atlas.render(grid, "png")
    with pytest.raises(ValueError):
        atlas.render(None, "raster")


def test_mirror_correspondence_on_pixel_pairs(system, grid, rng):
    res = grid.resolution
    checked = 0
    while checked < 200:
        ix = int(rng.integers(0, res))
        iy = int(rng.integers(0, res))
        idx = int(grid.labels[iy, ix])
        if idx < 0:
            continue
        u, v = pixel_center(res, ix, iy)
        c1 = float(np.sqrt(max(0.0, 1.0 - u * u - v * v)))
        mirrored = normalize([u, c1, v])  # swap of the first two amplitudes
        result = classify.classify(mirrored, system)
        want = classify.mirror_label(classify.ALL_LABELS[idx])
        assert want in result.labels
        if not result.is_boundary:
            assert result.labels == frozenset({want})
        checked += 1


def test_canonical_tables_shape(system):
    docs = atlas.export_canonical_tables(system)
    assert set(docs) == {"probabilities", "kd_values", "inequality", "labels"}
    for doc in docs.values():
        assert "\r\n" in doc  # RFC 4180 line endings
        rows = list(csv.reader(io.StringIO(doc)))
        assert len(rows) == 24  # header + 10 paths + 5 + 5 + 3 basis states


def test_canonical_tables_content(system):
    docs = atlas.export_canonical_tables(system)

    rows = {r[0]: r[1:] for r in list(csv.reader(io.StringIO(docs["probabilities"])))[1:]}
    assert float(rows["1"][0]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows["N_f"][5]) == pytest.approx(1 / 9, abs=1e-12)  # P(f)

    rows = {r[0]: r[1:] for r in list(csv.reader(io.StringIO(docs["inequality"])))[1:]}
    assert float(rows["N_1"][0]) == pytest.approx(9 / 11, abs=1e-12)
    assert float(rows["N_1"][1]) == pytest.approx(2 / 11, abs=1e-12)
    assert float(rows["theta_3"][1]) == 0.0

    rows = {r[0]: r[1:] for r in list(csv.reader(io.StringIO(docs["labels"])))[1:]}
    assert rows["N_2"][0] == "B(1,S2);N;V(1);V(S2)"
    assert rows["Q(S2,D1)"][0] == "Q(S2,D1)"

    rows = {r[0]: r[1:] for r in list(csv.reader(io.StringIO(docs["kd_values"])))[1:]}
    assert float(rows["theta_3"][9]) == pytest.approx(-1 / 8, abs=1e-12)  # rho(S1,S2)


def test_header_order_of_kd_table(system):
    docs = atlas.export_canonical_tables(system)
    header = next(csv.reader(io.StringIO(docs["kd_values"])))
    assert header[0] == "state"
    assert header[1:] == [
        "rho(1,P2)", "rho(2,P1)", "rho(f,3)", "rho(S1,D2)", "rho(S2,D1)",
        "rho(1,f)", "rho(1,S2)", "rho(2,f)", "rho(2,S1)", "rho(S1,S2)",
    ]
