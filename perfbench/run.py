"""Benchmark of the tripath package: one workload per run.

    python3 perfbench/run.py --workload atlas_2048 --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (the package is imported from
``src/``).  The workload runs in a fresh worker process; set-up time
counts from that process's start.  Lines before the last describe the
run for a reader: each metric, also under the name it has for that
workload, with unit and sample count.  The last line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics of BENCHMARK.json with ``--trace 0`` and its
per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

from common import HERE, ROOT, SRC, WORKLOADS, bench_env

SETUP_PROBES = 4  # extra fresh processes that only set up, for a median
WORKER_TIMEOUT_S = 160  # every run must end within 180 s


def spawn(args: list[str]) -> tuple[dict, int]:
    """Run a worker to the end: (its JSON record, its peak RSS in KB).

    The worker gets its own process group; if it runs past the time limit
    the whole group, CLI children included, is killed.
    """
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args, repr(t0)],
        stdout=subprocess.PIPE,
        env=bench_env(),
        cwd=ROOT,
        start_new_session=True,
    )
    timer = threading.Timer(WORKER_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    status = None
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
        if status is None:  # interrupted: stop the worker and its children
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1]), usage.ru_maxrss


def end_to_end(workload: str, record: dict, worker_rss_kb: int) -> dict[str, tuple[float, str, int]]:
    """The end-to-end metrics as name -> (value, unit, samples)."""
    rss_kb = record["child_rss_kb"] if workload == "cli_session" else worker_rss_kb
    setup = record["setup_s"]
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (rss_kb / 1024, "MB", 1),
        "op_p50_ms": (record["op_p50_ms"], "ms", record["ops"]),
    }


def also_measured(workload: str, record: dict) -> dict[str, tuple[float, str, int, str]]:
    """Tail and unit times: printed, but too noisy on a shared machine to gate.

    ``op_tail_ms`` is each unit's highest percentile, at most the 99th,
    with at least TAIL_MIN operations beyond it, then the median over
    units; ``unit_s`` is the median time of one unit.
    """
    units = len(record["unit_s"])
    gated, free = "(= op_p50_ms)", "(not gated)"
    tail = (statistics.median(record["unit_tail_ms"]), "ms", units, free)
    unit = (statistics.median(record["unit_s"]), "s", units, free)
    out = {"op_tail_ms": tail, "unit_s": unit}
    ops, p50 = record["ops"], record["op_p50_ms"]
    if workload == "atlas_2048":
        out["atlas_s"] = (p50 / 1e3, "s", ops, gated)
    elif workload == "point_queries":
        out["query_p50_us"] = (p50 * 1e3, "us", ops, gated)
        out["query_p99_us"] = (record["op_p99_ms"] * 1e3, "us", ops, free)
        out["queries_per_s"] = (ops / sum(record["unit_s"]), "1/s", ops, free)
    else:
        out["cli_p50_ms"] = (p50, "ms", ops, gated)
        out["cli_total_s"] = unit
    return out


def describe(workload: str, metrics: dict, record: dict) -> list[str]:
    def line(name, value, unit, n, note=""):
        return f"  {name + ' = ' + format(value, '.6g') + ' ' + unit:<40} n={n:<8}{note}"

    lines = [line(name, *m) for name, m in metrics.items()]
    lines += [line(name, *m) for name, m in also_measured(workload, record).items()]
    for wall in record.get("warmup_s", []):
        lines.append(f"  warm-up unit, checked but not timed: {wall:.4g} s")
    lines.append(line("failed_share", record["failed"] / record["attempted"], "", record["attempted"]))
    for name, value in record["counts"].items():
        lines.append(f"  {name} = {value} (count per unit, exact)")
    return lines


def describe_layers(record: dict) -> list[str]:
    lines = [f"  {'layer':<16} self ms per traced unit (traced unit {record['traced_unit_s']:.4g} s)"]
    for layer, ms in record["layer_self_ms"].items():
        lines.append(f"  {layer:<16} {ms:12.3f}")
    for name, m in record["layers"].items():
        lines.append(f"  {name:<38} {m['value']:14.6g} {m['unit']:<6} n={m['samples']:<8} {m['source']}")
    lines.append(f"  spans written to {os.path.relpath(record['trace_dir'], ROOT)}")
    return lines


def declared(key: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[key]]


def run_one(workload: str, seed: int, seconds: float, trace: int, reduced: bool) -> None:
    record, worker_rss = spawn([workload, str(seed), str(seconds), str(trace), str(int(reduced))])
    print(f"{workload} seed={seed} seconds={seconds} trace={trace} "
          f"blas_threads={bench_env()['OPENBLAS_NUM_THREADS']} nproc={os.cpu_count()}")
    if trace:
        metrics = {n: (m["value"], m["unit"]) for n, m in record["layers"].items()}
        lines = describe_layers(record)
        key = "per_layer"
    else:
        if workload != "cli_session":
            for _ in range(SETUP_PROBES):
                record["setup_s"].append(spawn(["--probe"])[0]["setup_s"])
        full = end_to_end(workload, record, worker_rss)
        metrics = {n: (v, u) for n, (v, u, _) in full.items()}
        lines = describe(workload, full, record)
        key = "end_to_end"
    if sorted((n, u) for n, (_, u) in metrics.items()) != sorted(declared(key)):
        raise RuntimeError(f"metrics do not match the {key} list of BENCHMARK.json")
    print("\n".join(lines))
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }), flush=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true", help="small inputs, for the self-test")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so that spawn() cleans up
    if not (SRC / "tripath" / "__init__.py").is_file():
        print(f"run.py: no tripath sources under {SRC}", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_one(workload, args.seed, args.seconds, args.trace, args.reduced)
    return 0


if __name__ == "__main__":
    sys.exit(main())
