"""Paths and the process environment shared by the benchmark's programs."""

from __future__ import annotations

import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("atlas_2048", "point_queries", "cli_session")
SUBCOMMANDS = ("states", "kd", "classify", "inequality", "basis", "verify", "atlas")
# One caller in a closed loop; BLAS gets one thread (at most nproc) so that
# runs on a shared two-CPU machine do not contend with themselves.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bench_env() -> dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env
