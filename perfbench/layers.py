"""Per-layer metrics computed from the spans of a traced run.

A segment is ``(SpanSet, lo, hi)``: the spans with index in [lo, hi) of
one dump.  Timings use every traced unit of the run; counts use the
set-up and the first traced unit only, so that they repeat exactly.  A
timing whose layer the workload never reaches is taken from the sweep,
a reduced traced pass of the other workloads, and marked as such.
"""

from __future__ import annotations

import numpy as np

from common import SUBCOMMANDS


def _values(segments, span: str, field: str = "duration") -> np.ndarray:
    parts = [getattr(s, field)[s.select(span, lo, hi)] for s, lo, hi in segments]
    return np.concatenate(parts) if parts else np.zeros(0)


def _median(span: str, scale: float, field: str = "duration"):
    def metric(segments):
        v = _values(segments, span, field)
        return (float(np.median(v)) / scale, len(v)) if len(v) else None

    return metric


def _building_tables(segments):
    """Calls of build_subclass_table that built the table (cached calls have no children)."""
    v = np.concatenate([
        s.duration[idx][s.has_children[idx]]
        for s, lo, hi in segments
        for idx in [s.select("classify.build_subclass_table", lo, hi)]
    ] or [np.zeros(0)])
    return (float(np.median(v)) / 1e6, len(v)) if len(v) else None


def _per_ray(span: str, counter: str):
    def metric(segments):
        total = sum(float(s.duration[s.select(span, lo, hi)].sum()) for s, lo, hi in segments)
        rays = sum(s.count(counter, lo, hi) for s, lo, hi in segments)
        return (total / rays, rays) if rays else None

    return metric


def _peak_rss_delta(segments):
    calls = sum(len(s.select("atlas.sample_atlas", lo, hi)) for s, lo, hi in segments)
    if not calls:
        return None
    kb = [s.count_value[(s.count_name == "atlas.peak_rss_delta_kb") & (s.count_span >= lo) & (s.count_span < hi)]
          for s, lo, hi in segments]
    return float(np.concatenate(kb).max()) / 1024, calls


def _import(segments):
    v = [s.meta["import_ns"] for s, _, _ in segments if "import_ns" in s.meta]
    return (float(np.median(v)) / 1e6, len(v)) if v else None


# (name, unit, metric); a metric maps segments to (value, samples) or None.
TIMED = [
    ("interferometer.build_ms", "ms", _median("interferometer.build", 1e6)),
    ("interferometer.probabilities_us", "us", _median("interferometer.probabilities", 1e3)),
    ("kd.kd_profile_us", "us", _median("kd.kd_profile", 1e3)),
    ("kd.inequality_sum_us", "us", _median("kd.inequality_sum", 1e3)),
    ("classify.classify_interior_us", "us", _median("classify.classify[interior]", 1e3)),
    ("classify.classify_boundary_us", "us", _median("classify.classify[boundary]", 1e3)),
    ("classify.build_subclass_table_ms", "ms", _building_tables),
    ("states.canonical_states_us", "us", _median("states.canonical_states", 1e3)),
    ("kd.profile_values_batch_ns_per_ray", "ns", _per_ray("kd.profile_values_batch", "kd.profile_values_batch_rays")),
    ("classify.classify_batch_ns_per_ray", "ns", _per_ray("classify.classify_batch", "classify.classify_batch_rays")),
    ("atlas.sample_atlas_self_s", "s", _median("atlas.sample_atlas", 1e9, "self_time")),
    ("atlas.peak_rss_delta_mb", "MB", _peak_rss_delta),
    ("atlas.render_raster_ms", "ms", _median("atlas.render[raster]", 1e6)),
    ("atlas.render_vector_ms", "ms", _median("atlas.render[vector]", 1e6)),
    ("atlas.export_tables_ms", "ms", _median("atlas.export_canonical_tables", 1e6)),
    ("verify.run_checks_ms", "ms", _median("verify.run_checks", 1e6)),
    ("cli.import_ms", "ms", _import),
] + [(f"cli.{c}_ms", "ms", _median(f"cli.main[{c}]", 1e6)) for c in SUBCOMMANDS]


def _calls(span: str):
    return lambda segments: sum(len(s.select(span, lo, hi)) for s, lo, hi in segments)


def _counter(name: str):
    return lambda segments: sum(s.count(name, lo, hi) for s, lo, hi in segments)


def _boundary_share(segments):
    calls = _calls("classify.classify[interior]")(segments) + _calls("classify.classify[boundary]")(segments)
    return _counter("classify.boundary_results")(segments) / calls if calls else 0.0


COUNTS = [
    ("classify.expansions", "count", _counter("classify.expansions")),
    ("classify.boundary_share", "ratio", _boundary_share),
    ("states.canonical_states_calls", "count", _calls("states.canonical_states")),
    ("atlas.rays_classified", "count", _counter("classify.classify_batch_rays")),
    ("atlas.in_disk_pixels", "count", _counter("atlas.in_disk_pixels")),
    ("atlas.boundary_pixels", "count", _counter("atlas.boundary_pixels")),
    ("atlas.exterior_pixels", "count", _counter("atlas.exterior_pixels")),
] + [(f"cli.{c}_invocations", "count", _calls(f"cli.main[{c}]")) for c in SUBCOMMANDS]

OVERHEAD = ("trace.overhead_share", "ratio")
PER_LAYER = [(n, u) for n, u, _ in TIMED] + [(n, u) for n, u, _ in COUNTS] + [OVERHEAD]


def layer_metrics(run, first, sweep, overhead: float) -> dict[str, dict]:
    """Every per-layer metric as {"value", "unit", "samples", "source"}."""
    out = {}
    for name, unit, metric in TIMED:
        got, source = metric(run), "run"
        if got is None:
            got, source = metric(sweep), "sweep"
        if got is None:
            raise RuntimeError(f"no spans for {name}, not even in the sweep")
        out[name] = {"value": got[0], "unit": unit, "samples": got[1], "source": source}
    for name, unit, metric in COUNTS:
        out[name] = {"value": metric(first), "unit": unit, "samples": 1, "source": "first unit"}
    out[OVERHEAD[0]] = {"value": overhead, "unit": OVERHEAD[1], "samples": 1, "source": "run"}
    return out


def layer_self_ns(segments) -> dict[str, float]:
    """Self time per layer (module), summed over the segments."""
    total: dict[str, float] = {}
    for s, lo, hi in segments:
        for layer, ns in s.module_self_ns(lo, hi).items():
            total[layer] = total.get(layer, 0.0) + ns
    return dict(sorted(total.items(), key=lambda kv: -kv[1]))
