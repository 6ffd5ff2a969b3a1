import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripath import classify, hilbert, interferometer, kd, states
from tripath.classify import ClassLabel
from tripath.errors import NonFiniteError, TableInconsistencyError, UnknownPatternError
from tripath.hilbert import inner, normalize
from tripath.interferometer import PATH_NAMES

from conftest import (
    closing_system,
    near_boundary_vec,
    near_circle,
    near_vertex,
    nonzero_vec,
    random_unit_vectors,
    vertex_rays,
)

GOLDEN = Path(__file__).parent / "golden" / "subclass_table.json"


def test_class_label_str():
    assert str(ClassLabel("N")) == "N"
    assert str(ClassLabel("B", ("1", "S2"))) == "B(1,S2)"
    assert str(ClassLabel("X", ("S2", "3"))) == "X(S2,3)"


def test_all_labels_census():
    by_class = {}
    for label in classify.ALL_LABELS:
        by_class.setdefault(label.cls, []).append(label)
    assert {k: len(v) for k, v in by_class.items()} == {
        "N": 1, "V": 5, "B": 5, "T": 5, "X": 10, "Q": 5,
    }
    assert len(classify.ALL_LABELS) == 31


def test_table_has_31_distinct_patterns(table):
    assert len(table.patterns) == 31
    assert len(set(table.patterns)) == 31
    for pattern in table.patterns:
        assert len(pattern) == 10
        assert all(t in (-1, 1) for t in pattern)


def test_table_negativity_signature(table):
    for label, pattern in zip(table.labels, table.patterns):
        neg_inner = sum(1 for t in pattern[:5] if t < 0)
        neg_outer = sum(1 for t in pattern[5:] if t < 0)
        assert (neg_inner, neg_outer) == classify.NEGATIVITY_SIGNATURE[label.cls], str(label)


def test_cells_derived_at_closing_specs():
    for r1, rS1 in ((1 / 2, 1 / 3), (0.3, 0.6), (0.7, 0.2), (0.15, 0.85)):
        system = closing_system(r1, rS1)
        assert interferometer.verify_closure(system)
        assert classify.build_subclass_table(system).labels == classify.ALL_LABELS
        centroids = classify._arrangement_cells(system)[0]
        assert len(centroids) == 31
        for label, centroid in zip(classify.ALL_LABELS, centroids):
            result = classify.classify(normalize(centroid), system)
            assert not result.is_boundary and result.labels == {label}, (r1, rS1, str(label))
        boundary, idx = classify.classify_batch(centroids, system)
        assert not boundary.any()
        assert idx.tolist() == list(range(31))


_log_reflectivity = st.floats(math.log(1e-6), math.log(1 - 1e-6)).map(math.exp)


@settings(max_examples=60, deadline=None)
@given(_log_reflectivity, _log_reflectivity)
def test_cells_derived_across_the_closing_family(r1, rS1):
    # no verify_closure: near the ends of the family the cascade misses it at 1e-12 by float rounding
    system = closing_system(r1, rS1)
    table = classify.build_subclass_table(system)
    assert table.labels == classify.ALL_LABELS
    centroids = classify._arrangement_cells(system)[0]
    # every centroid lies strictly inside its own cell: no amplitude is zero
    assert (np.sign(centroids @ system.vectors.T) == table.cell_signs).all()
    for label, centroid in zip(classify.ALL_LABELS, centroids):
        result = classify.classify(normalize(centroid), system)
        # a thin cell's centroid can carry KD values below tol; it is then a
        # boundary ray whose label set holds its own label
        assert label in result.labels, (r1, rS1, str(label))
        assert result.is_boundary or result.labels == {label}, (r1, rS1, str(label))


# r1, rS2 or rf alone breaks closure; the circles then miss the named states
@pytest.mark.parametrize(
    "spec",
    [{"r1": 0.45}, {"rS2": 0.4}, {"rf": 0.3}, {"r1": 1e-300}, {"r1": 1e-17}],
    ids=lambda spec: ",".join(f"{k}={v}" for k, v in spec.items()),
)
def test_open_system_table_is_refused(spec):
    open_system = interferometer.build(interferometer.InterferometerSpec(**spec))
    with pytest.raises(TableInconsistencyError, match=r"^state \S+ is \S+ off the circle P\(\w+\) = 0$"):
        classify.build_subclass_table(open_system)


def test_table_builds_when_r2_alone_moves(table):
    # the last splitter shapes only the outputs: the ten path vectors stay canonical
    system = interferometer.build(interferometer.InterferometerSpec(r2=0.3))
    assert not interferometer.verify_closure(system)
    assert (system.vectors == interferometer.default_system().vectors).all()
    assert classify.build_subclass_table(system).patterns == table.patterns


def test_sign_pattern_and_string(system, named):
    profile = kd.kd_profile(named["N_2"].ray, system)
    pattern = classify.sign_pattern(profile)
    assert classify.pattern_string(pattern) == "0---0" + "+++++"
    loose = classify.sign_pattern(profile, tol=1.0)
    assert loose == (0,) * 10


@pytest.mark.parametrize("tol", [0.0, 1e-20, classify.DEFAULT_TOL, 1e-3])
def test_sign_pattern_agrees_with_classify(system, named, tol):
    # both raise a tol below TOL_FLOOR to it, so rounding residues on the
    # zero circles read as zeros in both
    rays = [s.ray for s in named.values()] + [b.ray for b in states.joint_basis(system)]
    assert len(rays) == 23
    for ray in rays:
        pattern = classify.sign_pattern(kd.kd_profile(ray, system), tol)
        assert pattern == classify.classify(ray, system, tol).pattern, ray


def test_classify_interior_random(system, rng):
    vectors = random_unit_vectors(rng, 2000)
    boundary, idx = classify.classify_batch(vectors, system)
    # a random ray almost never sits on a zero circle
    assert not boundary.any()
    assert (idx >= 0).all()
    # spot check against the scalar route
    for v, i in zip(vectors[:40], idx[:40]):
        result = classify.classify(normalize(v), system)
        assert result.labels == frozenset({classify.ALL_LABELS[i]})


def test_classify_signature_on_random(system, rng):
    vectors = random_unit_vectors(rng, 2000)
    values = kd.profile_values_batch(vectors, system)
    _, idx = classify.classify_batch(vectors, system)
    neg_inner = (values[:, :5] < 0).sum(axis=1)
    neg_outer = (values[:, 5:] < 0).sum(axis=1)
    for i, (ni, no) in zip(idx, zip(neg_inner, neg_outer)):
        assert (ni, no) == classify.NEGATIVITY_SIGNATURE[classify.ALL_LABELS[i].cls]


def test_boundary_states(system, named):
    result = classify.classify(named["N_2"].ray, system)
    assert result.is_boundary
    assert {str(l) for l in result.labels} == {"N", "V(1)", "V(S2)", "B(1,S2)"}

    result = classify.classify(named["theta_D1"].ray, system)
    assert {str(l) for l in result.labels} == {"Q(S1,D2)", "Q(1,P2)", "X(1,D2)", "X(S1,P2)"}

    result = classify.classify(named["N_f"].ray, system)
    assert {str(l) for l in result.labels} == {"N", "V(S1)", "V(S2)", "B(S1,S2)"}


def test_path_state_classes(system):
    # outer path: its whole flank of the map; inner path: quasiclassical belt
    result = classify.classify(system.ray("1"), system)
    assert {l.cls for l in result.labels} == {"V", "B", "T", "X", "Q"}
    assert all("1" in l.params for l in result.labels)

    result = classify.classify(system.ray("3"), system)
    assert {l.cls for l in result.labels} == {"T", "X", "Q"}
    assert {str(l) for l in result.labels} == {"Q(f,3)", "T(S1,S2)", "X(S1,3)", "X(S2,3)"}


def test_boundary_labels_are_the_touching_cells(system, named):
    # a state's labels are exactly the sub-classes found on small
    # perturbations; tol=0 because two perturbed zero amplitudes give
    # KD values near 1e-12, inside the default band
    rays = {name: state.ray for name, state in named.items()}
    rays.update((b.name, b.ray) for b in states.joint_basis(system))
    assert len(rays) == 23
    rng = np.random.default_rng(5)
    for name, ray in rays.items():
        moved = ray.vector + rng.normal(size=(4000, 3)) * 1e-6
        moved /= np.linalg.norm(moved, axis=1, keepdims=True)
        boundary, idx = classify.classify_batch(moved, system, tol=0.0)
        touching = {classify.ALL_LABELS[i] for i in idx[~boundary]}
        assert classify.classify(ray, system).labels == touching, name


def test_tol_widening_collects_all_subclasses(system):
    result = classify.classify(normalize([1, 1, 1]), system, tol=10.0)
    assert result.pattern == (0,) * 10
    assert len(result.labels) == 31


def test_zero_tol_flags_circle_rows_as_boundary(system, rng):
    # rays exactly on a circle keep rounding residues of a few eps
    boundary, idx = classify.classify_batch(
        hilbert.circle_points(system.ray("D2"), 50000), system, tol=0.0
    )
    assert boundary.all() and (idx == -1).all()
    boundary, _ = classify.classify_batch(random_unit_vectors(rng, 100_000), system, tol=0.0)
    assert not boundary.any()


def test_zero_tol_keeps_the_default_label_sets(system, named):
    rays = {name: state.ray for name, state in named.items()}
    rays.update((b.name, b.ray) for b in states.joint_basis(system))
    for name, ray in rays.items():
        at_zero = classify.classify(ray, system, tol=0.0)
        default = classify.classify(ray, system)
        assert at_zero.labels == default.labels, name
        assert at_zero.pattern == default.pattern, name
    assert len(classify.classify(system.ray("f"), system, tol=0.0).labels) == 8


def test_pattern_for_roundtrip(table):
    for label in classify.ALL_LABELS:
        assert table.labels[table.patterns.index(table.pattern_for(label))] == label
    with pytest.raises(UnknownPatternError):
        table.pattern_for(ClassLabel("B", ("1", "2")))


def test_mirror_label_involution():
    for label in classify.ALL_LABELS:
        image = classify.mirror_label(label)
        assert classify.mirror_label(image) == label
        assert image.cls == label.cls
    assert classify.mirror_label(ClassLabel("V", ("1",))) == ClassLabel("V", ("2",))
    assert classify.mirror_label(ClassLabel("N")) == ClassLabel("N")
    assert classify.mirror_label(ClassLabel("Q", ("S2", "D1"))) == ClassLabel("Q", ("S1", "D2"))


def test_table_rebuild_is_deterministic(system, table):
    again = classify.build_subclass_table(system)
    assert again.labels == table.labels
    assert again.patterns == table.patterns


def test_cell_table(system, table):
    # bit j of a cell code is set when KD pair j is positive (j < 9); the
    # amplitude signs of each cell rebuild the sub-class's whole pattern
    assert table.cell_labels.shape == (512,)
    assert int((table.cell_labels >= 0).sum()) == 31
    for i, label in enumerate(table.labels):
        (code,) = np.flatnonzero(table.cell_labels == i)
        pattern = table.pattern_for(label)
        assert [1 if code >> j & 1 else -1 for j in range(9)] == list(pattern[:9])
        sign = dict(zip(PATH_NAMES, table.cell_signs[i]))
        rebuilt = tuple(
            int(np.sign(inner(system.ray(p.a), system.ray(p.b)))) * int(sign[p.a] * sign[p.b])
            for p in kd.KD_PAIRS
        )
        assert rebuilt == pattern, str(label)


def test_subclass_table_is_read_only(system, table):
    # the one cached table serves every later call in the process
    for array in (table.cell_labels, table.cell_signs):
        with pytest.raises(ValueError, match="read-only"):
            array[:] = -1
    boundary, idx = classify.classify_batch(random_unit_vectors(np.random.default_rng(7), 1000), system)
    assert (idx[~boundary] >= 0).all()
    assert classify.classify(normalize([3, 1, 1]), system).labels


def test_subclass_table_golden(table):
    want = json.loads(GOLDEN.read_text())
    assert [str(l) for l in table.labels] == want["labels"]
    assert [list(p) for p in table.patterns] == want["patterns"]
    assert table.cell_labels.dtype == np.int16
    assert table.cell_labels.tolist() == [i for row in want["cell_labels"] for i in row]
    assert table.cell_signs.dtype == np.float64
    assert table.cell_signs.tolist() == want["cell_signs"]


def test_batch_names_non_finite_rows(system):
    vectors = np.tile([0.0, 1.0, 0.0], (4, 1))
    vectors[2, 1] = np.nan
    with pytest.raises(NonFiniteError, match=r"\[2\]"):
        classify.classify_batch(vectors, system)


@settings(max_examples=150, deadline=None)
@given(st.one_of(nonzero_vec, near_boundary_vec))
def test_single_and_batch_classifiers_agree_under_sign_flip(v):
    psi = normalize(v)
    results = [classify.classify(ray) for ray in (psi, psi.flipped())]
    boundary, idx = classify.classify_batch(np.array([psi.vector, -psi.vector]))
    assert results[0].pattern == results[1].pattern
    assert results[0].labels == results[1].labels
    assert boundary[0] == boundary[1] and idx[0] == idx[1]
    assert results[0].is_boundary == bool(boundary[0])
    if boundary[0]:
        assert len(results[0].labels) >= 2
    else:
        assert results[0].labels == {classify.ALL_LABELS[idx[0]]}


def test_band_rule_near_vertices_and_circles(system):
    rng = np.random.default_rng(22)
    # 1e-9 to 1e-5 off a vertex, inside the default band radius 5e-5: a
    # boundary ray carries exactly the vertex's labels, a strict one its cell's
    for w in vertex_rays(system):
        want = classify.classify(normalize(w), system).labels
        for t, d in zip(rng.uniform(0, 2 * np.pi, 40), 10.0 ** rng.uniform(-9, -5, 40)):
            result = classify.classify(normalize(near_vertex(w, t, d)), system)
            assert result.labels == want if result.is_boundary else result.labels < want
    # 1e-12 to 1e-1 off a circle: a strict ray gets the batch label, a
    # boundary ray at least two labels, among them its own cell at tol 0
    for s in (system, closing_system(0.4, 0.3)):
        rays = np.array([
            near_circle(path, t, d)
            for path in s.vectors
            for t, d in zip(rng.uniform(0, 2 * np.pi, 25), rng.choice((1, -1), 25) * 10.0 ** rng.uniform(-12, -1, 25))
        ])
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        exact, cell = classify.classify_batch(rays, s, tol=0.0)
        for tol in (0.0, 1e-6, 1e-3):
            boundary, idx = classify.classify_batch(rays, s, tol)
            for k, v in enumerate(rays):
                labels = classify.classify(normalize(v), s, tol).labels
                if boundary[k]:
                    assert len(labels) >= 2 and (exact[k] or classify.ALL_LABELS[cell[k]] in labels)
                else:
                    assert labels == {classify.ALL_LABELS[idx[k]]}


@settings(max_examples=150, deadline=None)
@given(st.one_of(nonzero_vec, near_boundary_vec))
def test_mirror_symmetry_of_classification(v):
    # the 1<->2 swap maps every label set onto its mirror image, boundary sets included
    a = classify.classify(normalize(v))
    b = classify.classify(normalize((v[1], v[0], v[2])))
    assert {classify.mirror_label(l) for l in a.labels} == set(b.labels)
