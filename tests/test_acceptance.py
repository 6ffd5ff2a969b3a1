"""Acceptance suite: one test per published acceptance criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
on failure) and asserts that no sub-check failed, reporting every
violated sub-check by name.
"""

import math

import numpy as np

from tripath import atlas, classify, kd, states
from tripath import interferometer as itf
from tripath.classify import ALL_LABELS, ClassLabel, NEGATIVITY_SIGNATURE
from tripath.hilbert import inner, normalize, same_ray

from conftest import brute_force_min_inner_sum, pixel_center, random_unit_vectors

S2 = math.sqrt(2.0)
S3 = math.sqrt(3.0)
S5 = math.sqrt(5.0)
S6 = math.sqrt(6.0)
S11 = math.sqrt(11.0)


def _report(num, desc, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"{status} criterion {num:02d}: {desc}")
    assert not problems, f"criterion {num:02d} ({desc}): " + "; ".join(problems)


def test_criterion_01_cascade_closure(system):
    problems = []
    expected = {
        "1": (1, 0, 0), "2": (0, 1, 0), "3": (0, 0, 1),
        "S1": (0, 1 / S2, 1 / S2), "D1": (0, 1 / S2, -1 / S2),
        "f": (1 / S3, 1 / S3, -1 / S3),
        "P1": (2 / S6, -1 / S6, 1 / S6), "P2": (-1 / S6, 2 / S6, 1 / S6),
        "S2": (1 / S2, 0, 1 / S2), "D2": (1 / S2, 0, -1 / S2),
    }
    for name, want in expected.items():
        if not np.allclose(system.ray(name).vector, want, atol=1e-12):
            problems.append(f"path {name} off its closed form")
    if not itf.verify_closure(system, tol=1e-12):
        problems.append("outputs differ from inputs beyond sign")
    _report(1, "default cascade reproduces the ten paths and closes", problems)


def test_criterion_02_hardy_values(system):
    problems = []
    want = {"f": 1 / 9, "1": 1 / 11, "2": 1 / 11, "S1": 1 / 10, "S2": 1 / 10}
    for i, w in want.items():
        got = states.hardy_value(i, system)
        if abs(got - w) > 1e-12:
            problems.append(f"hardy_value({i}) = {got!r}, want {w!r}")
    _report(2, "paradoxical detection probabilities of the five corners", problems)


def test_criterion_03_inequality_and_max_violation(system, named):
    problems = []
    sums = {"N_f": 7 / 9, "N_1": 9 / 11, "N_2": 9 / 11, "N_S1": 4 / 5, "N_S2": 4 / 5}
    for name, w in sums.items():
        if abs(kd.inequality_sum(named[name].ray, system) - w) > 1e-12:
            problems.append(f"inner sum of {name} off")
    state, violation = kd.max_violation(system)
    if abs(violation - (math.sqrt(11 / 12) - 0.5)) > 1e-9:
        problems.append(f"violation {violation!r} off the closed form")
    probs = itf.probabilities(state, system)
    if abs(probs["1"] - 0.4676) > 5e-4 or abs(probs["2"] - 0.4676) > 5e-4:
        problems.append("maximizer P(1), P(2) off 0.4676")
    if abs(probs["3"] - 0.0648) > 5e-4:
        problems.append("maximizer P(3) off 0.0648")
    grid_min = brute_force_min_inner_sum(system, n=1_000_000)
    if abs(grid_min - (1.0 - violation)) > 1e-6:
        problems.append(f"grid minimum {grid_min!r} disagrees with eigen route")
    _report(3, "inequality sums, maximal violation, brute-force agreement", problems)


def test_criterion_04_kd_identity_suite(system):
    problems = []
    rng = np.random.default_rng(11)
    vectors = random_unit_vectors(rng, 10_000)
    values = kd.profile_values_batch(vectors, system)
    paths = system.vectors
    name_col = {n: i for i, n in enumerate(itf.PATH_NAMES)}
    pair_col = {frozenset((p.a, p.b)): j for j, p in enumerate(kd.KD_PAIRS)}
    probs = (vectors @ paths.T) ** 2

    for i, pairs in kd.DECOMPOSITION_PAIRS.items():
        total = sum(values[:, pair_col[frozenset(p)]] for p in pairs)
        err = np.abs(total - probs[:, name_col[i]]).max()
        if err > 1e-10:
            problems.append(f"decomposition of P({i}) off by {err:.2e}")

    for j, p in enumerate(kd.KD_PAIRS):
        g = float(paths[name_col[p.a]] @ paths[name_col[p.b]])
        rhs = g * g * probs[:, name_col[p.a]] * probs[:, name_col[p.b]]
        err = np.abs(values[:, j] ** 2 - rhs).max()
        if err > 1e-10:
            problems.append(f"magnitude relation off for {p.label} by {err:.2e}")

    for v in vectors[:100]:
        psi = normalize(v)
        p_of = itf.probabilities(psi, system)
        for i in itf.OUTER_PATHS:
            total = sum(t for _, t in kd.decompose_outer(psi, i, system))
            if abs(total - p_of[i]) > 1e-10:
                problems.append(f"decompose_outer({i}) API route off")
                break

    for name in itf.PATH_NAMES:
        if min(kd.kd_profile(system.ray(name), system).values) < -1e-10:
            problems.append(f"path state {name} has a negative KD value")
    _report(4, "decompositions, magnitude relation, path-state nonnegativity", problems)


def test_criterion_05_n_state_tables(system, named):
    problems = []
    n2 = kd.kd_profile(named["N_2"].ray, system)
    for pair, w in {
        ("1", "S2"): 6 / 11, ("S1", "S2"): 2 / 11, ("1", "f"): 3 / 11,
        ("2", "S1"): 1 / 11, ("2", "f"): 1 / 11,
        ("2", "P1"): -1 / 11, ("S1", "D2"): -1 / 11, ("f", "3"): -1 / 11,
    }.items():
        if abs(n2.value(*pair) - w) > 1e-12:
            problems.append(f"N_2 rho{pair} off")
    terms = [t for _, t in kd.decompose_outer(named["N_2"].ray, "2", system)]
    if not (
        abs(terms[0] - 1 / 11) < 1e-12
        and abs(terms[1] - 1 / 11) < 1e-12
        and abs(terms[2] + 1 / 11) < 1e-12
    ):
        problems.append("N_2 plus-minus 1/11 cancellation pattern off")
    ns1 = kd.kd_profile(named["N_S1"].ray, system)
    for pair, w in {("1", "f"): 2 / 5, ("2", "f"): 1 / 5, ("1", "S2"): 2 / 5}.items():
        if abs(ns1.value(*pair) - w) > 1e-12:
            problems.append(f"N_S1 rho{pair} off")
    nf = kd.kd_profile(named["N_f"].ray, system)
    for pair in (("S1", "S2"), ("2", "S1"), ("1", "S2")):
        if abs(nf.value(*pair) - 1 / 3) > 1e-12:
            problems.append(f"N_f rho{pair} off")
    _report(5, "corner state KD tables and cancellation pattern", problems)


def test_criterion_06_theta_state_tables(system, named):
    problems = []
    if not same_ray(named["theta_D2"].ray, np.array([1, -1, 1]) / S3, tol=1e-12):
        problems.append("theta_D2 is not the derived (1,-1,1)/sqrt(3)")
    quads = {
        "theta_D1": {("2", "S1"): 1 / 3, ("1", "f"): 1 / 9, ("S1", "D2"): 1 / 3, ("1", "P2"): 2 / 9},
        "theta_3": {("1", "S2"): 1 / 4, ("2", "S1"): 1 / 4, ("1", "P2"): 1 / 4, ("2", "P1"): 1 / 4},
        "theta_P1": {("1", "f"): 1 / 5, ("S1", "S2"): 1 / 10, ("f", "3"): 2 / 5, ("S1", "D2"): 3 / 10},
        "theta_P2": {("2", "f"): 1 / 5, ("S1", "S2"): 1 / 10, ("f", "3"): 2 / 5, ("S2", "D1"): 3 / 10},
        "theta_D2": {("1", "S2"): 1 / 3, ("2", "f"): 1 / 9, ("S2", "D1"): 1 / 3, ("2", "P1"): 2 / 9},
    }
    for name, want in quads.items():
        profile = kd.kd_profile(named[name].ray, system)
        total = 0.0
        for pair, w in want.items():
            got = profile.value(*pair)
            total += got
            if abs(got - w) > 1e-12:
                problems.append(f"{name} rho{pair} off")
        if abs(total - 1.0) > 1e-12:
            problems.append(f"{name} quasiclassical weights sum to {total!r}")
    negatives = {
        "theta_3": (("S1", "S2"), 1 / 8),
        "theta_D1": (("2", "f"), 1 / 9),
        "theta_P1": (("1", "S2"), 1 / 10),
        "theta_P2": (("2", "S1"), 1 / 10),
        "theta_D2": (("1", "f"), 1 / 9),
    }
    for name, (pair, mag) in negatives.items():
        got = kd.kd_profile(named[name].ray, system).value(*pair)
        if abs(got + mag) > 1e-12:
            problems.append(f"{name} negative value off")
    _report(6, "quasiclassical tables, unit sums, negative magnitudes", problems)


def test_criterion_07_extremal_bounds(system):
    problems = []
    if abs(kd.kd_extrema("S1", "S2", system).min_value + 1 / 8) > 1e-15:
        problems.append("kd_extrema(S1,S2) minimum is not -1/8")
    # independent route: rho(a, b) at 100 000 rays of the great circle through a and b
    t = np.pi * np.arange(100_000) / 100_000
    for pair in (("1", "f"), ("1", "S2"), ("2", "f"), ("2", "S1"), ("S1", "S2")):
        a, b = (system.ray(name).vector for name in pair)
        g = a @ b
        e = (b - g * a) / np.linalg.norm(b - g * a)
        rays = np.outer(np.cos(t), a) + np.outer(np.sin(t), e)
        rho = g * (rays @ a) * (rays @ b)
        ext = kd.kd_extrema(*pair, system)
        if abs(rho.min() - ext.min_value) > 1e-6:
            problems.append(f"scan minimum off for {pair}")
        if abs(rho.max() - ext.max_value) > 1e-6:
            problems.append(f"scan maximum off for {pair}")
    _report(7, "closed-form extrema match great-circle scans", problems)


def test_criterion_08_joint_basis(system):
    problems = []
    basis = {b.name: b.ray for b in states.joint_basis(system)}
    m = np.array([r.vector for r in basis.values()])
    if not np.allclose(m @ m.T, np.eye(3), atol=1e-12):
        problems.append("basis not orthonormal")
    fidelities = {
        ("T(2,S1)", "S1"): 4 / 5,
        ("T(1,f)", "f"): 27 / 35,
        ("Q(S2,D1)", "P1"): 16 / 21,
    }
    for (bname, path), w in fidelities.items():
        got = inner(basis[bname], system.ray(path)) ** 2
        if abs(got - w) > 1e-12:
            problems.append(f"fidelity of {bname} at {path} off")
    negatives = [
        ("Q(S2,D1)", ("2", "S1"), -1 / 14),
        ("Q(S2,D1)", ("1", "f"), -2 / 21),
        ("T(2,S1)", ("S2", "D1"), -1 / 20),
        ("T(1,f)", ("2", "S1"), -1 / 35),
        ("T(1,f)", ("S2", "D1"), -2 / 35),
    ]
    for bname, pair, w in negatives:
        got = kd.kd_profile(basis[bname], system).value(*pair)
        if abs(got - w) > 1e-12:
            problems.append(f"negative KD value of {bname} at rho{pair} off")
    t2f = normalize(np.array([1, 4, -2]) / math.sqrt(21))
    probs = itf.probabilities(t2f, system)
    exact_and_rounded = [
        (probs["2"], 16 / 21, 0.76),
        (probs["f"], 7 / 9, 0.78),
        (probs["D1"], 6 / 7, 0.86),
        (inner(basis["Q(S2,D1)"], system.ray("D1")) ** 2, 4 / 7, 0.57),
        (inner(basis["Q(S2,D1)"], t2f) ** 2, 64 / 294, 0.22),
        (inner(basis["T(2,S1)"], system.ray("2")) ** 2, 9 / 10, 0.90),
        (inner(basis["T(2,S1)"], t2f) ** 2, 100 / 210, 0.48),
        (inner(basis["T(1,f)"], system.ray("f")) ** 2, 27 / 35, 0.77),
        (inner(basis["T(1,f)"], t2f) ** 2, 225 / 735, 0.31),
    ]
    for got, exact, rounded in exact_and_rounded:
        if abs(got - exact) > 1e-12:
            problems.append(f"value {got!r} off exact {exact!r}")
        if abs(got - rounded) > 5e-3:
            problems.append(f"value {got!r} off rounded {rounded!r}")
    _report(8, "joint basis vectors, fidelities, negatives, certification", problems)


def test_criterion_09_classification(system, named, table):
    problems = []
    if len(set(table.patterns)) != 31:
        problems.append("table does not hold 31 distinct strict patterns")
    # Interior states only: a sample with a KD value inside the strict
    # tolerance band sits on a boundary plane numerically, so it is
    # rejected and redrawn.  Rejection looks at zero-ness alone, never
    # at the classification outcome.
    rng = np.random.default_rng(23)
    collected = []
    total = 0
    while total < 100_000:
        chunk = random_unit_vectors(rng, 100_000 - total)
        interior = ~classify.classify_batch(chunk, system)[0]
        collected.append(chunk[interior])
        total += int(interior.sum())
    vectors = np.concatenate(collected)
    boundary, idx = classify.classify_batch(vectors, system)
    if boundary.any():
        problems.append(f"{int(boundary.sum())} interior states flagged as boundary")
    if (idx < 0).any():
        problems.append("some interior states have no sub-class")
    values = kd.profile_values_batch(vectors, system)
    neg_inner = (values[:, :5] < 0).sum(axis=1)
    neg_outer = (values[:, 5:] < 0).sum(axis=1)
    signature = np.array([NEGATIVITY_SIGNATURE[l.cls] for l in ALL_LABELS])
    want = signature[idx]
    bad = (want[:, 0] != neg_inner) | (want[:, 1] != neg_outer)
    if bad.any():
        problems.append(f"{int(bad.sum())} states break the negativity signature")
    got = {str(l) for l in classify.classify(named["N_2"].ray, system).labels}
    if got != {"N", "V(1)", "V(S2)", "B(1,S2)"}:
        problems.append(f"N_2 labels {sorted(got)}")
    got = {str(l) for l in classify.classify(named["theta_D1"].ray, system).labels}
    if got != {"Q(S1,D2)", "Q(1,P2)", "X(1,D2)", "X(S1,P2)"}:
        problems.append(f"theta_D1 labels {sorted(got)}")
    _report(9, "31 patterns, interior singletons, boundary label sets", problems)


def test_criterion_10_atlas(system, rng):
    problems = []
    grid = atlas.sample_atlas(512, system=system)
    if len(grid.label_counts()) != 31:
        problems.append("not all 31 sub-classes appear at resolution 512")
    raster_a = atlas.render(grid, "raster")
    raster_b = atlas.render(atlas.sample_atlas(512, system=system), "raster")
    if raster_a != raster_b:
        problems.append("raster output is not byte-identical across runs")

    checked = 0
    mismatches = 0
    while checked < 1000:
        ix = int(rng.integers(0, 512))
        iy = int(rng.integers(0, 512))
        idx = int(grid.labels[iy, ix])
        if idx < 0:
            continue
        u, v = pixel_center(512, ix, iy)
        c1 = float(np.sqrt(max(0.0, 1.0 - u * u - v * v)))
        mirrored = normalize([u, c1, v])
        result = classify.classify(mirrored, system)
        want = classify.mirror_label(ALL_LABELS[idx])
        if want not in result.labels:
            mismatches += 1
        checked += 1
    if mismatches:
        problems.append(f"{mismatches} of 1000 mirrored pixel pairs disagree")
    _report(10, "full atlas coverage, determinism, mirror correspondence", problems)
