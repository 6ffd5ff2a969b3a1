"""Run one ``tripath`` command with every public function traced.

    python3 perfbench/traced_cli.py SPANS.npz SUBCOMMAND [ARGS...]

Does what ``python -m tripath SUBCOMMAND ARGS`` does, and writes the
spans, plus the time ``import tripath`` took once numpy was loaded, to
SPANS.npz when the command ends.
"""

import sys
import time

t0 = time.perf_counter_ns()
import numpy  # noqa: E402,F401  (timed apart from the package import)

t1 = time.perf_counter_ns()
import tripath.cli  # noqa: E402

t2 = time.perf_counter_ns()

from spans import Tracer  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.meta = {"numpy_import_ns": t1 - t0, "import_ns": t2 - t1}
    tracer.install()
    try:
        return tripath.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
