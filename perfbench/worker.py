"""One measured run of one workload, in a process of its own.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE REDUCED T0
    python3 perfbench/worker.py --probe T0

T0 is ``time.monotonic()`` in the parent just before it started this
process, so set-up time counts from process start.  The last line of
standard output is a JSON record that ``run.py`` turns into metrics.
``--probe`` only sets up (import, ``default_system()``,
``build_subclass_table()``) and reports how long that took.
"""

import sys
import time


def setup(t0: float, tracer=None) -> float:
    import tripath

    if tracer is not None:
        tracer.install()
        with tracer.span("bench.setup"):
            tripath.build_subclass_table(tripath.default_system())
        tracer.uninstall()
    else:
        tripath.build_subclass_table(tripath.default_system())
    return time.monotonic() - t0


if sys.argv[1] == "--probe":
    print(f'{{"setup_s": {setup(float(sys.argv[2]))!r}}}')
    sys.exit(0)

# Everything below runs after the timed set-up, so benchmark code does
# not count towards set-up time.
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402

from common import OUT, WORKLOADS  # noqa: E402

CLI_PREPARATIONS = 5  # set-up samples of cli_session, for a median
TAIL_MIN = 10  # a tail percentile has at least this many operations beyond it


def _loop(seconds: float, step) -> list:
    """Call ``step`` until ``seconds`` have passed; the last call may run over."""
    done = []
    start = time.monotonic()
    while not done or time.monotonic() - start < seconds:
        done.append(step())
    return done


def _tail_ms(op_ms) -> float:
    """A unit's highest percentile, at most the 99th, with at least
    TAIL_MIN operations beyond it; the median when none has."""
    ops = np.sort(op_ms)
    beyond = max(TAIL_MIN, math.ceil(len(ops) / 100))
    return float(ops[-beyond - 1]) if len(ops) > beyond else float(np.median(ops))


def _record(units, setup_s: list[float], extra=()) -> dict:
    """Merge units of one run; ``extra`` units (warm-up, sweep) add only their checks."""
    problems = [p for u in (*units, *extra) for p in u.problems]
    failed = sum(u.failed for u in (*units, *extra))
    counts = units[0].counts
    if any(u.counts != counts for u in units):
        problems.append(f"counts differ between units of one run: {[u.counts for u in units]}")
        failed += 1
    ops = np.concatenate([u.op_ms for u in units])
    return {
        "setup_s": setup_s,
        "ops": len(ops),
        "op_p50_ms": float(np.median(ops)),
        "op_p99_ms": float(np.percentile(ops, 99)),
        "unit_tail_ms": [_tail_ms(u.op_ms) for u in units],
        "unit_s": [u.wall_s for u in units],
        "attempted": sum(u.attempted for u in (*units, *extra)),
        "failed": failed,
        "problems": problems[:20],
        "counts": counts,
        "child_rss_kb": max(u.child_rss_kb for u in units),
    }


def make_workload(name: str, seed: int, workdir, reduced: bool = False):
    import workloads

    if name == "atlas_2048":
        return workloads.AtlasWorkload(seed, reduced)
    if name == "point_queries":
        return workloads.QueryWorkload(seed, reduced)
    return workloads.CliWorkload(seed, workdir, reduced)


def untraced(name: str, seed: int, seconds: float, t0: float, reduced: bool) -> dict:
    if name == "cli_session":
        workload = make_workload(name, seed, OUT / f"cli-{seed}", reduced)
        setup_s = [workload.prepare() for _ in range(CLI_PREPARATIONS)]
    else:
        setup_s = [setup(t0)]
        workload = make_workload(name, seed, None, reduced)
    gc.freeze()  # the harness's own objects stay out of collections
    warmup = [workload.unit()] if workload.warmup else []
    units = _loop(seconds, workload.unit)
    if name == "cli_session":
        shutil.rmtree(workload.workdir, ignore_errors=True)
    record = _record(units, setup_s, warmup)
    record["warmup_s"] = [u.wall_s for u in warmup]
    return record


def traced(name: str, seed: int, seconds: float, t0: float, reduced: bool) -> dict:
    """Alternate traced and untraced units; per-layer metrics from the traced ones."""
    from layers import layer_metrics, layer_self_ns
    from spans import SpanSet, Tracer

    trace_dir = OUT / "trace" / name
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    tracer = Tracer()
    if name == "cli_session":
        setup(t0)  # the in-process sweep below needs the package
        workload = make_workload(name, seed, trace_dir / "work", reduced)
        workload.prepare()
    else:
        setup(t0, tracer)
        workload = make_workload(name, seed, None, reduced)
    setup_end = len(tracer)
    ranges = []
    gc.freeze()

    def pair():
        lo = len(tracer)
        if name == "cli_session":
            on = workload.unit(traced_dir=trace_dir, tag=f"u{len(ranges)}")
        else:
            tracer.install()
            on = workload.unit(tracer)
            tracer.uninstall()
        ranges.append((lo, len(tracer), on.span_files))
        off = workload.unit()
        return on, off

    pairs = _loop(seconds, pair)
    units = [u for p in pairs for u in p]

    sweep_tracer = Tracer()
    sweep_units = []
    sweep_files = []
    for other in WORKLOADS:
        if other == name:
            continue
        w = make_workload(other, seed, trace_dir / "sweep-work", reduced=True)
        if other == "cli_session":
            w.prepare()
            sweep_units.append(w.unit(traced_dir=trace_dir, tag="sweep"))
            sweep_files += sweep_units[-1].span_files
        else:
            sweep_tracer.install()
            sweep_units.append(w.unit(sweep_tracer))
            sweep_tracer.uninstall()
    tracer.dump(trace_dir / "run.npz")
    sweep_tracer.dump(trace_dir / "sweep.npz")
    shutil.rmtree(trace_dir / "work", ignore_errors=True)
    shutil.rmtree(trace_dir / "sweep-work", ignore_errors=True)

    main = SpanSet(trace_dir / "run.npz")
    run = [(main, 0, setup_end)] + [(main, lo, hi) for lo, hi, _ in ranges]
    first = run[:2]
    for k, (_, _, files) in enumerate(ranges):
        loaded = [(s, 0, len(s)) for s in map(SpanSet, files)]
        run += loaded
        if k == 0:
            first += loaded
    sweep_set = SpanSet(trace_dir / "sweep.npz")
    sweep = [(sweep_set, 0, len(sweep_set))] + [(s, 0, len(s)) for s in map(SpanSet, sweep_files)]

    on_s = statistics.median(p[0].wall_s for p in pairs)
    off_s = statistics.median(p[1].wall_s for p in pairs)
    record = _record(units, [], sweep_units)
    record["layers"] = layer_metrics(run, first, sweep, on_s / off_s - 1.0)
    record["layer_self_ms"] = {k: v / 1e6 / len(pairs) for k, v in layer_self_ns(run[1:]).items()}
    record["traced_unit_s"] = on_s
    record["trace_dir"] = str(trace_dir)
    return record


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, reduced, t0 = argv
    run = traced if trace == "1" else untraced
    print(json.dumps(run(name, int(seed), float(seconds), float(t0), reduced == "1")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
