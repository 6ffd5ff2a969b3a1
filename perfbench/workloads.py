"""The three workloads, each as a repeatable unit of work with its checks.

``atlas_2048``    one pass of ``tripath atlas --resolution 2048 --format both --tables``
                  through the library: sample, render raster, render vector, export.
``point_queries`` 20 000 single-state queries (probabilities, KD profile,
                  inequality sum, classify); 95 % random interior rays, 5 %
                  the 23 named and basis states.
``cli_session``   about 40 ``python -m tripath`` invocations covering all
                  seven subcommands, one process each.

A unit is one pass, one session of queries or one session of commands.
Its inputs come from the seed and are the same in every unit of a run.
The package is used only through its public functions and its CLI.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import checks
from common import HERE, ROOT, SUBCOMMANDS, bench_env
from tripath import RayState, atlas, interferometer, kd, states
from tripath import classify as classify_mod

QUERIES = 20_000
REDUCED_QUERIES = 500
NAMED_COPIES = 56  # per named state in 20 000 queries (28 per path state): 5.04 %
INTERIOR_MARGIN = 1e-6  # random rays keep every |KD value| above this
PERTURBATIONS = 16
PERTURB_SCALE = 1e-6
ATLAS_RESOLUTION = 2048
REDUCED_RESOLUTION = 256


@dataclass
class Unit:
    """What one unit of work took and whether its outputs were right."""

    wall_s: float
    op_ms: np.ndarray  # latency of each operation
    failed: int
    problems: list[str]
    counts: dict[str, int]
    child_rss_kb: int = 0
    span_files: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.op_ms)


def reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def named_rays() -> dict[str, object]:
    """The 20 canonical states and the 3 joint basis states, by name."""
    out = {name: s.ray for name, s in states.canonical_states().items()}
    out.update((b.name, b.ray) for b in states.joint_basis())
    return out


def touching_labels(rays: dict[str, object], seed: int) -> dict[str, set[str]]:
    """Labels that ``classify_batch`` gives seeded small perturbations of each ray.

    Every sub-class found this way touches the state, so any correct label
    set for the state must contain it.
    """
    rng = np.random.default_rng([seed, 2])
    names = list(rays)
    base = np.array([rays[n].vector for n in names])
    noise = rng.normal(size=(len(names), PERTURBATIONS, 3)) * PERTURB_SCALE
    moved = base[:, None, :] + noise
    moved /= np.linalg.norm(moved, axis=2, keepdims=True)
    boundary, idx = classify_mod.classify_batch(moved.reshape(-1, 3))
    idx = idx.reshape(len(names), PERTURBATIONS)
    boundary = boundary.reshape(len(names), PERTURBATIONS)
    return {
        name: {str(classify_mod.ALL_LABELS[i]) for i, b in zip(idx[k], boundary[k]) if not b}
        for k, name in enumerate(names)
    }


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


class AtlasWorkload:
    warmup = True  # the first pass in a process pays extra page faults

    def __init__(self, seed: int, reduced: bool = False) -> None:
        self.resolution = REDUCED_RESOLUTION if reduced else ATLAS_RESOLUTION
        ref = reference()
        self.reference = dict(ref["atlas"][str(self.resolution)], tables=ref["tables"])
        self.touching = touching_labels(named_rays(), seed)

    def unit(self, tracer=None) -> Unit:
        with _span(tracer, "bench.atlas_pass"):
            t0 = time.perf_counter()
            grid = atlas.sample_atlas(self.resolution)
            ppm = atlas.render(grid, "raster")
            svg = atlas.render(None, "vector")
            tables = atlas.export_canonical_tables()
            wall = time.perf_counter() - t0
        pixels = checks.pixel_counts(grid.labels)
        counts = {str(k): v for k, v in grid.label_counts().items()}
        summary = checks.atlas_summary(ppm, svg, counts, pixels, tables)
        problems = checks.check_atlas(summary, tables["labels"], self.reference, self.touching)
        return Unit(
            wall_s=wall,
            op_ms=np.array([wall * 1e3]),
            failed=int(bool(problems)),
            problems=problems,
            counts={"atlas.rays_classified": pixels["in_disk"]}
            | {f"atlas.{k}_pixels": v for k, v in pixels.items()},
        )


def make_queries(seed: int, n: int, named: dict[str, object]) -> tuple[list[str], list[object]]:
    """``n`` seeded rays: 5 % named states, the rest random interior rays.

    The named mix is the same for every seed.  The ten path states come
    half as often as the other named states, so that the 99th percentile
    falls among the paths with six zero amplitudes, whose latencies lie
    close together, and not on the edge of a group.
    """
    rng = np.random.default_rng([seed, 1])
    copies = max(2, n * NAMED_COPIES // QUERIES)
    paths = set(interferometer.PATH_NAMES)
    picks = [name for name in named for _ in range(copies // 2 if name in paths else copies)]
    n_named = len(picks)
    flips = rng.random(len(picks)) < 0.5
    chosen = [named[p].flipped() if f else named[p] for p, f in zip(picks, flips)]

    interior: list[np.ndarray] = []
    while len(interior) < n - n_named:
        v = rng.normal(size=(2 * n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        keep = np.abs(kd.profile_values_batch(v)).min(axis=1) > INTERIOR_MARGIN
        interior.extend(v[keep])
    labels = list(picks) + [f"ray{i}" for i in range(n - n_named)]
    rays = chosen + [RayState(*v) for v in interior[: n - n_named]]
    order = rng.permutation(n)
    return [labels[i] for i in order], [rays[i] for i in order]


class QueryWorkload:
    warmup = False

    def __init__(self, seed: int, reduced: bool = False) -> None:
        named = named_rays()
        self.names, self.rays = make_queries(seed, REDUCED_QUERIES if reduced else QUERIES, named)
        touching = touching_labels(named, seed)
        self.touching = [touching.get(n) for n in self.names]
        vectors = np.array([r.vector for r in self.rays])
        self.batch_values = kd.profile_values_batch(vectors)
        boundary, idx = classify_mod.classify_batch(vectors)
        self.batch_labels = [None if b else str(classify_mod.ALL_LABELS[i]) for b, i in zip(boundary, idx)]
        self.contexts = [tuple(c.members) for c in interferometer.CONTEXTS]

    def unit(self, tracer=None) -> Unit:
        """One session; each query is checked as soon as it is timed, so
        no results pile up for the garbage collector to scan."""
        latencies = array("q")
        failed = boundary = expansions = 0
        problems: list[str] = []
        clock = time.perf_counter_ns
        for k, ray in enumerate(self.rays):
            with _span(tracer, "bench.query"):
                t0 = clock()
                probs = interferometer.probabilities(ray)
                profile = kd.kd_profile(ray)
                total = kd.inequality_sum(ray)
                result = classify_mod.classify(ray)
                latencies.append(clock() - t0)
            zeros = result.pattern.count(0)
            boundary += zeros > 0
            expansions += 2**zeros
            found = checks.check_query(
                self.names[k],
                probs,
                profile.values,
                total,
                {str(label) for label in result.labels},
                batch_values=self.batch_values[k],
                batch_label=self.batch_labels[k],
                contexts=self.contexts,
                inner_paths=interferometer.INNER_PATHS,
                touching=self.touching[k],
            )
            failed += bool(found)
            problems += found
        return Unit(
            wall_s=sum(latencies) / 1e9,
            op_ms=np.asarray(latencies, dtype=np.float64) / 1e6,
            failed=failed,
            problems=problems,
            counts={
                "queries": len(self.rays),
                "queries.boundary": boundary,
                "classify.expansions": expansions,
            },
        )


def _amplitude(rng: random.Random) -> str:
    a, b = rng.randint(1, 9), rng.randint(1, 9)
    token = rng.choice((f"{a}", f"{a}/{b}", f"√{a}", f"sqrt({a})", "0"))
    return ("-" + token) if token != "0" and rng.random() < 0.4 else token


def _amplitudes(rng: random.Random) -> str:
    while True:
        tokens = [_amplitude(rng) for _ in range(3)]
        if any(t != "0" for t in tokens):
            return ",".join(tokens)


def make_script(seed: int, reduced: bool = False) -> list[list[str]]:
    """A seeded session of CLI invocations; the mix of subcommands is fixed."""
    atlas_args = ["atlas", "--resolution", str(REDUCED_RESOLUTION), "--format", "both", "--tables"]
    if reduced:
        return [["states"], ["kd", "--state", "N_2"], ["classify", "--state", "3"],
                ["inequality", "--max"], ["basis"], ["verify"], atlas_args]
    rng = random.Random(seed)
    corners = [f"N_{i}" for i in ("f", "1", "S2", "S1", "2")] + [
        f"theta_{k}" for k in ("3", "D1", "P1", "P2", "D2")
    ] + ["Q(S2,D1)", "T(2,S1)", "T(1,f)"]
    paths = list(interferometer.PATH_NAMES)

    def state(i: int) -> list[str]:
        kind = i % 3
        if kind == 0:
            return ["--state", rng.choice(corners)]
        if kind == 1:
            return ["--state", rng.choice(paths)]
        return [f"--amplitudes={_amplitudes(rng)}"]

    script = [
        ["states"], ["states", "--json"], ["basis"], ["basis", "--json"],
        ["inequality", "--max"], ["inequality", "--max", "--json"],
        ["verify"], ["verify", "--json"], atlas_args,
    ]
    script += [["kd", *state(i), *(([], ["--json"], ["--csv"], [])[i % 4])] for i in range(12)]
    script += [["classify", *state(i), *(([], ["--json"])[i % 2])] for i in range(12)]
    script += [["inequality", *state(i), *(([], ["--json"])[i % 2])] for i in range(4)]
    rng.shuffle(script)
    return script


def run_child(cmd: list[str], stderr_path) -> tuple[float, int, str, int]:
    """Run one process to the end: (seconds, exit code, stdout, peak RSS in KB)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=bench_env(), cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, out.decode(errors="replace"), usage.ru_maxrss


class CliWorkload:
    warmup = False

    def __init__(self, seed: int, workdir, reduced: bool = False) -> None:
        self.seed = seed
        self.reduced = reduced
        self.workdir = workdir
        self.script: list[list[str]] = []
        self.atlas_sha256 = reference()["atlas"][str(REDUCED_RESOLUTION)]["ppm_sha256"]

    def prepare(self) -> float:
        """The harness's own set-up: script, work directory, one CLI start."""
        t0 = time.perf_counter()
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.script = make_script(self.seed, self.reduced)
        _, code, out, _ = run_child([sys.executable, "-m", "tripath", "--version"], self.workdir / "stderr")
        if code != 0 or not out.startswith("tripath"):
            raise RuntimeError(f"tripath --version exited {code}: {out!r}")
        return time.perf_counter() - t0

    def unit(self, traced_dir=None, tag: str = "u") -> Unit:
        op_ms = []
        problems: list[str] = []
        failed = peak = 0
        span_files = []
        start = time.perf_counter()
        for k, argv in enumerate(self.script):
            outdir = self.workdir / f"out{k}"
            args = argv + ["--out", str(outdir)] if argv[0] == "atlas" else argv
            if traced_dir is None:
                cmd = [sys.executable, "-m", "tripath", *args]
            else:
                span_files.append(str(traced_dir / f"{tag}-{k}.npz"))
                cmd = [sys.executable, str(HERE / "traced_cli.py"), span_files[-1], *args]
            elapsed, code, out, rss = run_child(cmd, self.workdir / "stderr")
            op_ms.append(elapsed * 1e3)
            peak = max(peak, rss)
            files = None
            if argv[0] == "atlas" and outdir.is_dir():
                files = {p.name: p.read_bytes() for p in outdir.iterdir()}
                shutil.rmtree(outdir)
            found = checks.check_invocation(argv, code, out, files, self.atlas_sha256)
            if found and code != 0:
                found[0] += ": " + (self.workdir / "stderr").read_text(errors="replace").strip()[-300:]
            failed += bool(found)
            problems += found
        wall = time.perf_counter() - start
        counts = {f"cli.{c}_invocations": sum(a[0] == c for a in self.script) for c in SUBCOMMANDS}
        return Unit(wall, np.array(op_ms), failed, problems, counts, child_rss_kb=peak, span_files=span_files)
