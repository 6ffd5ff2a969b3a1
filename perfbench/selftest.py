"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

1. A reduced-size run of each workload, untraced and traced, prints every
   metric of BENCHMARK.json with its unit and reports correct outputs.
2. Every correctness check fails when fed one corrupted output: a flipped
   pixel, a wrong KD value, a missing label, a non-zero exit code.
"""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SRC, WORKLOADS, bench_env  # noqa: E402

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import workloads  # noqa: E402
from tripath import atlas, interferometer, kd  # noqa: E402
from tripath import classify as classify_mod  # noqa: E402

SEED = 7


def _run(workload: str, trace: int) -> str:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--reduced"]
    done = subprocess.run(cmd, cwd=ROOT, env=bench_env(), capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def test_reduced_runs_print_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = _run(workload, trace)
            result = json.loads(out.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            assert got == want, (workload, trace)
            text = "\n".join(out.splitlines()[:-1])
            for name, unit in want.items():
                assert name in text and unit in text, (workload, trace, name)


def _atlas_outputs():
    grid = atlas.sample_atlas(workloads.REDUCED_RESOLUTION)
    ppm = atlas.render(grid, "raster")
    svg = atlas.render(None, "vector")
    tables = atlas.export_canonical_tables()
    pixels = checks.pixel_counts(grid.labels)
    counts = {str(k): v for k, v in grid.label_counts().items()}
    return ppm, svg, counts, pixels, tables


def _csv(head, rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows([head, *rows])
    return buf.getvalue()


def test_atlas_check_catches_corruption():
    ref = workloads.reference()
    reference = dict(ref["atlas"][str(workloads.REDUCED_RESOLUTION)], tables=ref["tables"])
    touching = workloads.touching_labels(workloads.named_rays(), SEED)
    ppm, svg, counts, pixels, tables = _atlas_outputs()

    def problems(ppm=ppm, tables=tables):
        summary = checks.atlas_summary(ppm, svg, counts, pixels, tables)
        return checks.check_atlas(summary, tables["labels"], reference, touching)

    assert problems() == []
    flipped = bytearray(ppm)
    flipped[-1] ^= 1
    assert problems(ppm=bytes(flipped))
    head, rows = checks.parse_table(tables["kd_values"])
    rows[3][2] = repr(float(rows[3][2]) + 1e-9)
    wrong_kd = dict(tables, kd_values=_csv(head, rows))
    assert problems(tables=wrong_kd)
    head, rows = checks.parse_table(tables["labels"])
    state = next(r for r in rows if len(touching[r[0]]) > 1)
    dropped = sorted(touching[state[0]])[0]
    state[1] = ";".join(lab for lab in state[1].split(";") if lab != dropped)
    missing = dict(tables, labels=_csv(head, rows))
    assert problems(tables=missing)


def test_query_check_catches_corruption():
    named = workloads.named_rays()
    touching = workloads.touching_labels(named, SEED)
    contexts = [tuple(c.members) for c in interferometer.CONTEXTS]
    for name in ("N_2", "3"):
        ray = named[name]
        batch = kd.profile_values_batch(ray.vector[None, :])[0]
        boundary, idx = classify_mod.classify_batch(ray.vector[None, :])
        label = None if boundary[0] else str(classify_mod.ALL_LABELS[idx[0]])
        probs = interferometer.probabilities(ray)
        values = kd.kd_profile(ray).values
        total = kd.inequality_sum(ray)
        labels = {str(x) for x in classify_mod.classify(ray).labels}

        def problems(values=values, labels=labels):
            return checks.check_query(name, probs, values, total, labels, batch_values=batch,
                                      batch_label=label, contexts=contexts,
                                      inner_paths=interferometer.INNER_PATHS, touching=touching[name])

        assert problems() == []
        assert problems(values=(values[0] + 1e-9,) + values[1:])
        assert problems(labels=set())
        assert problems(labels=labels - {sorted(touching[name])[0]})


def test_invocation_check_catches_corruption():
    ok = checks.check_invocation(["verify"], 0, "ok ...\n31 checks, 0 failed\n")
    assert ok == []
    assert checks.check_invocation(["kd", "--state", "N_2"], 1, "state N_2\n")
    assert checks.check_invocation(["kd", "--state", "N_2"], 0, "")
    assert checks.check_invocation(["verify"], 0, "31 checks, 1 failed\n")
    doc = json.dumps({"checks": [{}] * 31, "failed": 1})
    assert checks.check_invocation(["verify", "--json"], 0, doc)
    assert checks.check_invocation(["classify", "--json"], 0, "not json")
    ppm, svg, *_ = _atlas_outputs()
    files = {name: b"x" for name in checks.ATLAS_FILES} | {"atlas.ppm": ppm}
    digest = checks.sha256(ppm)
    assert checks.check_invocation(["atlas"], 0, "wrote atlas.ppm\n", files, digest) == []
    flipped = bytearray(ppm)
    flipped[-1] ^= 1
    assert checks.check_invocation(["atlas"], 0, "wrote\n", files | {"atlas.ppm": bytes(flipped)}, digest)
    assert checks.check_invocation(["atlas"], 0, "wrote\n", {"atlas.ppm": ppm}, digest)


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"ok    {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {test.__name__}: {exc}")
    print(f"{len(tests)} self-tests, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
