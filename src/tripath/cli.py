"""Command line front end.

Exit codes: 0 on success, 1 on usage or input errors, 2 when the
``verify`` suite finds a failing identity.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, atlas, classify, interferometer, kd, states
from .errors import TripathError
from .hilbert import RayState, inner, normalize

_BASIS_TARGETS = {"Q(S2,D1)": "P1", "T(2,S1)": "S1", "T(1,f)": "f"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _plain(tok: str) -> float:
    tok = tok.strip()
    try:
        return float(Fraction(tok))
    except ValueError:
        return float(tok)


def _atom(tok: str) -> float:
    tok = tok.strip()
    if tok.startswith("√"):
        return math.sqrt(_plain(tok[1:]))
    low = tok.lower()
    if low.startswith("sqrt(") and tok.endswith(")"):
        return math.sqrt(_plain(tok[5:-1]))
    if low.startswith("sqrt"):
        return math.sqrt(_plain(tok[4:]))
    return _plain(tok)


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
        raise _UsageError(f"expected three comma separated amplitudes, got {len(parts)}")
    try:
        return np.array([parse_amplitude(p) for p in parts])
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad amplitude in {text!r}: {exc}") from exc


def _state_from_args(args) -> tuple[RayState, str]:
    if getattr(args, "state", None):
        try:
            named = states.resolve_state(args.state)
        except TripathError as exc:
            raise _UsageError(str(exc)) from exc
        return named.ray, named.name
    if getattr(args, "amplitudes", None):
        vec = parse_amplitudes(args.amplitudes)
        canonical = normalize(vec)  # raises on a zero or non-finite vector
        norm = math.hypot(*vec)  # neither overflows nor underflows
        if abs(norm - 1.0) > 1e-9:
            print(f"note: normalizing amplitudes (norm was {norm:.12g})", file=sys.stderr)
        # keep the sign the caller typed
        if float(np.sign(vec) @ canonical.vector) < 0:
            canonical = canonical.flipped()
        return canonical, "custom"
    raise _UsageError("select a state with --state NAME or --amplitudes a,b,c")


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2))


def _components(ray: RayState) -> list[float]:
    # adding 0.0 turns IEEE negative zeros into plain zeros
    return [ray.c1 + 0.0, ray.c2 + 0.0, ray.c3 + 0.0]


def _fmt_vec(ray: RayState) -> str:
    return "({:+.9f}, {:+.9f}, {:+.9f})".format(*_components(ray))


def _cmd_states(args) -> int:
    named = states.canonical_states()
    if args.json:
        _print_json(
            {
                "states": [
                    {
                        "name": s.name,
                        "components": _components(s.ray),
                        "orthogonal_to": list(s.orthogonal_to),
                    }
                    for s in named.values()
                ]
            }
        )
        return 0
    for s in named.values():
        print(f"{s.name:<9} {_fmt_vec(s.ray)}   perp: {', '.join(s.orthogonal_to)}")
    return 0


def _cmd_kd(args) -> int:
    ray, name = _state_from_args(args)
    profile = kd.kd_profile(ray)
    if args.json:
        _print_json(kd.profile_to_json(profile, name))
        return 0
    if args.csv:
        sys.stdout.write(kd.profiles_to_csv([(name, profile)]))
        return 0
    print(f"state {name}: {_fmt_vec(ray)}")
    for pair, value in zip(kd.KD_PAIRS, profile.values):
        print(f"{pair.label:<11} {pair.kind:<6} {value + 0.0:+.10f}")
    print(f"inner path probability sum: {kd.inequality_sum(ray):.10f}")
    return 0


def _cmd_classify(args) -> int:
    ray, name = _state_from_args(args)
    result = classify.classify(ray, tol=args.tol)
    if args.json:
        doc = {"name": name}
        doc.update(result.to_json())
        doc["boundary"] = result.is_boundary
        _print_json(doc)
        return 0
    pattern = result.pattern
    print(f"state {name}: {_fmt_vec(ray)}")
    print(
        "pattern  inner "
        + classify.pattern_string(pattern[:5])
        + "  outer "
        + classify.pattern_string(pattern[5:])
    )
    print("labels   " + ", ".join(sorted(str(l) for l in result.labels)))
    print("boundary " + ("yes" if result.is_boundary else "no"))
    return 0


def _cmd_inequality(args) -> int:
    if args.max:
        state, violation = kd.max_violation()
        probs = interferometer.probabilities(state)
        if args.json:
            _print_json(
                {
                    "name": "max-violation",
                    "state": _components(state),
                    "inner_sum": 1.0 - violation,
                    "violation": violation,
                    "input_probabilities": {p: probs[p] for p in ("1", "2", "3")},
                }
            )
            return 0
        print(f"state max-violation: {_fmt_vec(state)}")
        print(f"inner sum  {1.0 - violation:.10f}")
        print(f"violation  {violation:.10f}")
        print(
            "P(1), P(2), P(3) = "
            + ", ".join(f"{probs[p]:.6f}" for p in ("1", "2", "3"))
        )
        return 0
    ray, name = _state_from_args(args)
    total = kd.inequality_sum(ray)
    violation = max(0.0, 1.0 - total)
    if args.json:
        _print_json(
            {
                "name": name,
                "state": _components(ray),
                "inner_sum": total,
                "violation": violation,
            }
        )
        return 0
    print(f"state {name}: {_fmt_vec(ray)}")
    print(f"inner sum  {total:.10f}  (classical bound: at least 1)")
    print(f"violation  {violation:.10f}")
    return 0


def _cmd_basis(args) -> int:
    basis = states.joint_basis()
    rows = []
    for b in basis:
        target = _BASIS_TARGETS[b.name]
        fidelity = inner(b.ray, interferometer.default_system().ray(target)) ** 2
        rows.append((b, target, fidelity))
    if args.json:
        _print_json(
            {
                "basis": [
                    {
                        "name": b.name,
                        "components": _components(b.ray),
                        "detector": target,
                        "fidelity": fidelity,
                    }
                    for b, target, fidelity in rows
                ]
            }
        )
        return 0
    for b, target, fidelity in rows:
        print(f"{b.name:<9} {_fmt_vec(b.ray)}   detector {target}, fidelity {fidelity:.10f}")
    return 0


def _cmd_atlas(args) -> int:
    outdir = Path(args.out or os.environ.get("TRIPATH_OUTDIR", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    system = interferometer.default_system()
    written: list[Path] = []
    if args.format in ("raster", "both"):
        grid = atlas.sample_atlas(args.resolution, args.tol, system)
        path = outdir / "atlas.ppm"
        path.write_bytes(atlas.render(grid, "raster"))
        written.append(path)
    if args.format in ("vector", "both"):
        path = outdir / "atlas.svg"
        path.write_text(atlas.render(None, "vector", system))
        written.append(path)
    if args.tables:
        for key, doc in atlas.export_canonical_tables(system).items():
            path = outdir / f"{key}.csv"
            path.write_text(doc, newline="")
            written.append(path)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_verify(args) -> int:
    from . import verify as verify_mod

    results = verify_mod.run_checks()
    failed = [r for r in results if not r.ok]
    if args.json:
        _print_json(
            {
                "checks": [
                    {
                        "ident": r.ident,
                        "description": r.description,
                        "ok": r.ok,
                        "detail": r.detail,
                    }
                    for r in results
                ],
                "failed": len(failed),
            }
        )
        return 2 if failed else 0
    for r in results:
        mark = "ok  " if r.ok else "FAIL"
        line = f"{mark} {r.ident:<24} {r.description}"
        if not r.ok and r.detail:
            line += f" [{r.detail}]"
        print(line)
    print(f"{len(results)} checks, {len(failed)} failed")
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tripath",
        description="Three path interferometer quasi-probabilities and sub-class atlas.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("states", help="list the twenty named states")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_states)

    def add_state_args(p):
        p.add_argument("--state", help="a named state, e.g. N_2, theta_3, S1")
        p.add_argument(
            "--amplitudes",
            help="three comma separated amplitudes; fractions and surds work, e.g. '1/√3,1/√3,1/√3'",
        )

    p = sub.add_parser("kd", help="ten conditional quasi-probabilities of a state")
    add_state_args(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_kd)

    p = sub.add_parser("classify", help="sub-class labels of a state")
    add_state_args(p)
    p.add_argument("--tol", type=float, default=classify.DEFAULT_TOL)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("inequality", help="inner path sum and its classical gap")
    add_state_args(p)
    p.add_argument("--max", action="store_true", help="show the maximally violating state")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_inequality)

    p = sub.add_parser("basis", help="orthonormal basis of nonclassical states")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_basis)

    p = sub.add_parser("atlas", help="render the sub-class chart and data tables")
    p.add_argument("--resolution", type=int, default=512)
    p.add_argument("--tol", type=float, default=classify.DEFAULT_TOL)
    p.add_argument("--format", choices=("raster", "vector", "both"), default="raster")
    p.add_argument("--tables", action="store_true", help="also write the reference CSV tables")
    p.add_argument(
        "--out",
        help="output directory (default: $TRIPATH_OUTDIR or the working directory)",
    )
    p.set_defaults(handler=_cmd_atlas)

    p = sub.add_parser("verify", help="recompute the published reference values")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"tripath: error: {exc}", file=sys.stderr)
        return 1
    except (TripathError, OSError, ValueError) as exc:
        print(f"tripath: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
