"""Correctness checks of the benchmark, as pure functions of the outputs.

Each check returns a list of problems; an empty list means the output is
correct.  They take plain data (bytes, text, numbers, label strings) so
that the self-test can feed them corrupted copies.

The checks are chosen so that a later change cannot trip them by being
right: tables are compared within a tolerance rather than byte for byte,
and sub-class labels of boundary states are checked by a rule that both
the current expansion and an exact one satisfy (the label set is not
empty and holds every label found on seeded small perturbations).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

TABLE_TOL = 1e-12
VALUE_TOL = 1e-12
VERIFY_CHECKS = 31
PINNED_TABLES = ("probabilities", "kd_values", "inequality")
ATLAS_FILES = ("atlas.ppm", "atlas.svg", "probabilities.csv", "kd_values.csv", "inequality.csv", "labels.csv")


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def parse_table(doc: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(doc)))
    return rows[0], rows[1:]


def pixel_counts(labels) -> dict[str, int]:
    """In-disk, boundary and exterior pixels of an ``AtlasGrid.labels`` array."""
    from tripath.atlas import BOUNDARY, EXTERIOR

    exterior = int((labels == EXTERIOR).sum())
    return {"in_disk": labels.size - exterior, "boundary": int((labels == BOUNDARY).sum()), "exterior": exterior}


def atlas_summary(ppm: bytes, svg: str, label_counts: dict[str, int], pixels: dict[str, int], tables: dict[str, str]) -> dict:
    """The record of one atlas pass that the reference pins."""
    return {
        "ppm_sha256": sha256(ppm),
        "svg_sha256": sha256(svg),
        "label_counts": dict(sorted(label_counts.items())),
        "pixels": pixels,
        "tables": {key: parse_table(tables[key]) for key in PINNED_TABLES},
    }


def check_table(key: str, got: tuple[list[str], list[list[str]]], want) -> list[str]:
    (got_head, got_rows), (want_head, want_rows) = got, want
    if got_head != want_head:
        return [f"{key}: header {got_head} != {want_head}"]
    if [r[0] for r in got_rows] != [r[0] for r in want_rows]:
        return [f"{key}: row names differ"]
    problems = []
    for g, w in zip(got_rows, want_rows):
        for col, a, b in zip(got_head[1:], g[1:], w[1:]):
            if not abs(float(a) - float(b)) <= TABLE_TOL:
                problems.append(f"{key}: {g[0]} {col} = {a}, expected {b}")
    return problems


def check_labels_rule(name: str, labels: set[str], touching: set[str]) -> list[str]:
    if not labels:
        return [f"{name}: empty label set"]
    missing = touching - labels
    if missing:
        return [f"{name}: labels {sorted(labels)} miss neighbouring {sorted(missing)}"]
    return []


def check_atlas(summary: dict, labels_csv: str, reference: dict, touching: dict[str, set[str]]) -> list[str]:
    """One atlas pass against the pinned reference and the label rule."""
    problems = []
    for key in ("ppm_sha256", "svg_sha256", "label_counts", "pixels"):
        if summary[key] != reference[key]:
            problems.append(f"atlas {key} differs from the reference")
    for key in PINNED_TABLES:
        problems += check_table(key, summary["tables"][key], reference["tables"][key])
    head, rows = parse_table(labels_csv)
    if head != ["state", "labels"] or sorted(r[0] for r in rows) != sorted(touching):
        problems.append("labels.csv: unexpected header or states")
    for row in rows:
        if len(row) != 2:
            problems.append(f"labels.csv: malformed row {row}")
            continue
        labels = set(row[1].split(";")) if row[1] else set()
        problems += check_labels_rule(row[0], labels, touching.get(row[0], set()))
    return problems


def check_query(
    name: str,
    probs: dict[str, float],
    values: tuple[float, ...],
    inner_sum: float,
    labels: set[str],
    *,
    batch_values,
    batch_label: str | None,
    contexts: list[tuple[str, ...]],
    inner_paths: tuple[str, ...],
    touching: set[str] | None = None,
) -> list[str]:
    """One single-state query against the batch kernel and closed-form identities.

    ``batch_label`` is the ``classify_batch`` label of the ray, or None
    when the batch kernel calls it a boundary ray; then the label rule
    with ``touching`` applies.
    """
    problems = []
    worst = max(abs(a - float(b)) for a, b in zip(values, batch_values))
    if not worst <= VALUE_TOL:
        problems.append(f"{name}: kd_profile differs from profile_values_batch by {worst:.3g}")
    for members in contexts:
        total = sum(probs[p] for p in members)
        if not abs(total - 1.0) <= VALUE_TOL:
            problems.append(f"{name}: context {members} probabilities sum to {total!r}")
    expected_sum = sum(probs[p] for p in inner_paths)
    if not abs(inner_sum - expected_sum) <= VALUE_TOL:
        problems.append(f"{name}: inequality_sum {inner_sum!r} != inner probabilities {expected_sum!r}")
    if batch_label is not None and labels != {batch_label}:
        problems.append(f"{name}: classify {sorted(labels)} != classify_batch {batch_label}")
    elif batch_label is None:
        problems += check_labels_rule(name, labels, touching or set())
    return problems


def check_invocation(argv: list[str], returncode: int, stdout: str, files: dict[str, bytes] | None = None, ppm_sha256: str | None = None) -> list[str]:
    """One ``tripath`` invocation: exit code, output, and what it promises.

    ``files`` maps the names written by ``atlas`` to their contents.
    """
    where = "tripath " + " ".join(argv)
    if returncode != 0:
        return [f"{where}: exit code {returncode}"]
    if not stdout.strip():
        return [f"{where}: no output"]
    command = argv[0]
    if "--json" in argv:
        try:
            doc = json.loads(stdout)
        except ValueError:
            return [f"{where}: output is not JSON"]
    if command == "verify" and "--json" in argv:
        if doc["failed"] != 0 or len(doc["checks"]) != VERIFY_CHECKS:
            return [f"{where}: {doc['failed']} failed of {len(doc['checks'])}"]
    elif command == "verify":
        last = stdout.strip().splitlines()[-1]
        if last != f"{VERIFY_CHECKS} checks, 0 failed":
            return [f"{where}: reports {last!r}"]
    elif command == "atlas":
        files = files or {}
        missing = [f for f in ATLAS_FILES if f not in files]
        if missing:
            return [f"{where}: did not write {missing}"]
        if ppm_sha256 is not None and sha256(files["atlas.ppm"]) != ppm_sha256:
            return [f"{where}: atlas.ppm differs from the reference"]
    return []
