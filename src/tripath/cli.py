"""Command line front end.

Each handler computes its result once and returns ``(doc, lines,
exit_code)``: the JSON document (None for ``atlas``) and the text lines.
``main`` prints one or the other and is the only writer of command
output.  Exit codes: 0 on success, 1 on usage or input errors, 2 when
the ``verify`` suite finds a failing identity.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, atlas, classify, interferometer, kd, states, verify
from .errors import TripathError
from .hilbert import RayState, inner, normalize

_BASIS_TARGETS = {"Q(S2,D1)": "P1", "T(2,S1)": "S1", "T(1,f)": "f"}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _atom(tok: str) -> float:
    tok = tok.strip()
    if tok.startswith("√"):
        return math.sqrt(float(tok[1:]))
    low = tok.lower()
    if low.startswith("sqrt(") and tok.endswith(")"):
        return math.sqrt(float(tok[5:-1]))
    if low.startswith("sqrt"):
        return math.sqrt(float(tok[4:]))
    return float(tok)


def parse_amplitude(tok: str) -> float:
    """One amplitude: a float, a ratio p/q, or a surd such as 1/√3."""
    tok = tok.strip()
    if not tok:
        raise ValueError("empty amplitude")
    sign = 1.0
    while tok and tok[0] in "+-":
        if tok[0] == "-":
            sign = -sign
        tok = tok[1:].lstrip()
    if "/" in tok:
        num, _, den = tok.partition("/")
        return sign * _atom(num) / _atom(den)
    return sign * _atom(tok)


def parse_amplitudes(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma separated amplitudes, got {len(parts)}")
    try:
        return np.array([parse_amplitude(p) for p in parts])
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad amplitude in {text!r}: {exc}") from exc


def _state_from_args(args) -> tuple[RayState, str]:
    # the parser requires exactly one of --state and --amplitudes
    if args.state is not None:
        named = states.resolve_state(args.state)
        return named.ray, named.name
    vec = parse_amplitudes(args.amplitudes)
    canonical = normalize(vec)  # raises on a zero or non-finite vector
    norm = math.hypot(*vec)  # neither overflows nor underflows
    if abs(norm - 1.0) > 1e-9:
        print(f"note: normalizing amplitudes (norm was {norm:.12g})", file=sys.stderr)
    # keep the sign the caller typed
    if float(np.sign(vec) @ canonical.vector) < 0:
        canonical = canonical.flipped()
    return canonical, "custom"


def _num(x: float) -> float:
    # adding 0.0 turns IEEE negative zeros into plain zeros
    return x + 0.0


def _signed(x: float, digits: int) -> str:
    """Signed fixed point; a value that rounds to zero prints as +0.000..."""
    return f"{_num(round(float(x), digits)):+.{digits}f}"


def _vec(ray: RayState) -> list[float]:
    return [_num(c) for c in ray]


def _fmt_vec(ray: RayState) -> str:
    return "(" + ", ".join(_signed(c, 9) for c in ray) + ")"


def _cmd_states(args):
    named = states.canonical_states().values()
    doc = {
        "states": [
            {"name": s.name, "components": _vec(s.ray), "orthogonal_to": list(s.orthogonal_to)}
            for s in named
        ]
    }
    lines = [f"{s.name:<9} {_fmt_vec(s.ray)}   perp: {', '.join(s.orthogonal_to)}" for s in named]
    return doc, lines, 0


def _cmd_kd(args):
    ray, name = _state_from_args(args)
    values = kd.kd_profile(ray).values
    doc = {
        "name": name,
        "state": _vec(ray),
        "values": [
            {"pair": [p.a, p.b], "kind": p.kind, "value": _num(v)}
            for p, v in zip(kd.KD_PAIRS, values)
        ],
    }
    if args.csv:
        header = ["state"] + [p.label for p in kd.KD_PAIRS]
        text = atlas._csv_doc(header, [[name] + [repr(v) for v in values]])
        # csv ends every row with \r\n; print restores the final \n
        return doc, [text.removesuffix("\n")], 0
    lines = [f"state {name}: {_fmt_vec(ray)}"]
    lines += [f"{p.label:<11} {p.kind:<6} {_signed(v, 10)}" for p, v in zip(kd.KD_PAIRS, values)]
    lines.append(f"inner path probability sum: {kd.inequality_sum(ray):.10f}")
    return doc, lines, 0


def _cmd_classify(args):
    ray, name = _state_from_args(args)
    result = classify.classify(ray, tol=args.tol)
    pattern = classify.pattern_string(result.pattern)
    labels = sorted(str(l) for l in result.labels)
    doc = {
        "name": name,
        "state": _vec(ray),
        "pattern": pattern,
        "labels": labels,
        "boundary": result.is_boundary,
    }
    lines = [
        f"state {name}: {_fmt_vec(ray)}",
        f"pattern  inner {pattern[:5]}  outer {pattern[5:]}",
        "labels   " + ", ".join(labels),
        "boundary " + ("yes" if result.is_boundary else "no"),
    ]
    return doc, lines, 0


def _cmd_inequality(args):
    if args.max:
        ray, violation = kd.max_violation()
        name, total = "max-violation", 1.0 - violation
    else:
        ray, name = _state_from_args(args)
        total = kd.inequality_sum(ray)
        violation = max(0.0, 1.0 - total)
    doc = {"name": name, "state": _vec(ray), "inner_sum": total, "violation": violation}
    bound = "" if args.max else "  (classical bound: at least 1)"
    lines = [
        f"state {name}: {_fmt_vec(ray)}",
        f"inner sum  {total:.10f}{bound}",
        f"violation  {violation:.10f}",
    ]
    if args.max:
        probs = interferometer.probabilities(ray)
        doc["input_probabilities"] = {p: probs[p] for p in ("1", "2", "3")}
        lines.append("P(1), P(2), P(3) = " + ", ".join(f"{probs[p]:.6f}" for p in ("1", "2", "3")))
    return doc, lines, 0


def _cmd_basis(args):
    system = interferometer.default_system()
    rows = []
    for b in states.joint_basis():
        target = _BASIS_TARGETS[b.name]
        rows.append((b, target, inner(b.ray, system.ray(target)) ** 2))
    doc = {
        "basis": [
            {"name": b.name, "components": _vec(b.ray), "detector": target, "fidelity": fidelity}
            for b, target, fidelity in rows
        ]
    }
    lines = [
        f"{b.name:<9} {_fmt_vec(b.ray)}   detector {target}, fidelity {fidelity:.10f}"
        for b, target, fidelity in rows
    ]
    return doc, lines, 0


def _cmd_atlas(args):
    system = interferometer.default_system()
    raster = args.format in ("raster", "both")
    # check the input before creating the directory, so bad input leaves none behind
    atlas._checked_resolution(args.resolution)
    classify._checked_tol(args.tol)
    grid = atlas.sample_atlas(args.resolution, args.tol, system) if raster else None
    outdir = Path(args.out or os.environ.get("TRIPATH_OUTDIR", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if raster:
        path = outdir / "atlas.ppm"
        path.write_bytes(atlas.render(grid, "raster"))
        written.append(path)
    if args.format in ("vector", "both"):
        path = outdir / "atlas.svg"
        path.write_text(atlas.render(None, "vector", system))
        written.append(path)
    if args.tables:
        for key, text in atlas.export_canonical_tables(system).items():
            path = outdir / f"{key}.csv"
            path.write_text(text, newline="")
            written.append(path)
    return None, [f"wrote {path}" for path in written], 0


def _cmd_verify(args):
    results = verify.run_checks()
    failed = sum(not r.ok for r in results)
    doc = {
        "checks": [
            {"ident": r.ident, "description": r.description, "ok": r.ok, "detail": r.detail}
            for r in results
        ],
        "failed": failed,
    }
    lines = [
        f"{'ok  ' if r.ok else 'FAIL'} {r.ident:<24} {r.description}"
        + (f" [{r.detail}]" if not r.ok and r.detail else "")
        for r in results
    ]
    lines.append(f"{len(results)} checks, {failed} failed")
    return doc, lines, 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tripath",
        description="Three path interferometer quasi-probabilities and sub-class atlas.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    def state_group(p):
        """--state and --amplitudes, exactly one of which is required."""
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--state", help="a named state, e.g. N_2, theta_3, S1")
        group.add_argument(
            "--amplitudes",
            help="three comma separated amplitudes; fractions and surds work, e.g. '1/√3,1/√3,1/√3'",
        )
        return group

    p = command("states", _cmd_states, "list the twenty named states")
    p.add_argument("--json", action="store_true")

    p = command("kd", _cmd_kd, "ten conditional quasi-probabilities of a state")
    state_group(p)
    out = p.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true")
    out.add_argument("--csv", action="store_true")

    p = command("classify", _cmd_classify, "sub-class labels of a state")
    state_group(p)
    p.add_argument("--tol", type=float, default=classify.DEFAULT_TOL)
    p.add_argument("--json", action="store_true")

    p = command("inequality", _cmd_inequality, "inner path sum and its classical gap")
    state_group(p).add_argument("--max", action="store_true", help="show the maximally violating state")
    p.add_argument("--json", action="store_true")

    p = command("basis", _cmd_basis, "orthonormal basis of nonclassical states")
    p.add_argument("--json", action="store_true")

    p = command("atlas", _cmd_atlas, "render the sub-class chart and data tables")
    p.add_argument("--resolution", type=int, default=512)
    p.add_argument("--tol", type=float, default=classify.DEFAULT_TOL)
    p.add_argument("--format", choices=("raster", "vector", "both"), default="raster")
    p.add_argument("--tables", action="store_true", help="also write the reference CSV tables")
    p.add_argument(
        "--out",
        help="output directory (default: $TRIPATH_OUTDIR or the working directory)",
    )

    p = command("verify", _cmd_verify, "recompute the published reference values")
    p.add_argument("--json", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the only place that writes command output."""
    args = build_parser().parse_args(argv)
    try:
        doc, lines, code = args.handler(args)
        for line in [json.dumps(doc, indent=2)] if getattr(args, "json", False) else lines:
            print(line)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader has gone: end quietly, and let what is still buffered
        # drain into devnull so the interpreter's last flush cannot fail.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return 0
    except (TripathError, OSError, ValueError) as exc:
        print(f"tripath: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
