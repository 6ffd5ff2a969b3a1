import inspect
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from tripath import classify, states
from tripath import interferometer as itf
from tripath.errors import InvalidReflectivityError, UnknownPathError
from tripath.hilbert import inner, normalize, same_ray

from conftest import closing_system, random_unit_vectors

S2 = math.sqrt(2.0)
S3 = math.sqrt(3.0)
S6 = math.sqrt(6.0)

# path vectors implied by the default reflectivities, derived by hand
# from the five splitter stages
EXPECTED = {
    "1": (1, 0, 0),
    "2": (0, 1, 0),
    "3": (0, 0, 1),
    "S1": (0, 1 / S2, 1 / S2),
    "D1": (0, 1 / S2, -1 / S2),
    "f": (1 / S3, 1 / S3, -1 / S3),
    "P1": (2 / S6, -1 / S6, 1 / S6),
    "P2": (-1 / S6, 2 / S6, 1 / S6),
    "S2": (1 / S2, 0, 1 / S2),
    "D2": (1 / S2, 0, -1 / S2),
}


def test_default_path_vectors(system):
    for name, want in EXPECTED.items():
        assert np.allclose(system.ray(name).vector, want, atol=1e-12), name


def test_default_closure(system):
    assert itf.verify_closure(system, tol=1e-12)
    for beam, ray in system.outputs.items():
        assert same_ray(ray, system.ray(beam), tol=1e-12)


def test_closure_fails_off_default():
    assert not itf.verify_closure(itf.build(itf.InterferometerSpec(r1=0.45)))
    assert not itf.verify_closure(itf.build(itf.InterferometerSpec(rf=0.3)))


def test_reflectivity_validation():
    itf.InterferometerSpec(r1=0.999)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(InvalidReflectivityError):
            itf.InterferometerSpec(r1=bad)
        with pytest.raises(InvalidReflectivityError):
            itf.InterferometerSpec(rS2=bad)
    for bad in ("0.5", None, [0.5]):
        with pytest.raises(InvalidReflectivityError, match="not a real number"):
            itf.InterferometerSpec(r1=bad)


def test_fraction_reflectivities_build_the_canonical_cascade(system):
    spec = itf.InterferometerSpec(*(Fraction(1, n) for n in (2, 3, 4, 3, 2)))
    assert np.array_equal(itf.build(spec).vectors, system.vectors)


def test_contexts_are_orthonormal_triples(system):
    assert len(itf.CONTEXTS) == 5
    for ctx in itf.CONTEXTS:
        assert len(ctx.members) == 3
        rays = [system.ray(m) for m in ctx.members]
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(inner(rays[i], rays[j])) < 1e-12


def test_context_membership_counts():
    counts = {}
    for ctx in itf.CONTEXTS:
        for m in ctx.members:
            counts[m] = counts.get(m, 0) + 1
    for p in itf.OUTER_PATHS:
        assert counts[p] == 2
    for p in itf.INNER_PATHS:
        assert counts[p] == 1


def test_contexts_share_one_outer_path():
    ring = list(itf.CONTEXTS)
    for a, b in zip(ring, ring[1:] + ring[:1]):
        shared = set(a.members) & set(b.members)
        assert len(shared) == 1
        assert shared <= set(itf.OUTER_PATHS)


def test_each_context_holds_one_inner_and_two_outer_paths():
    for ctx in itf.CONTEXTS:
        assert sum(m in itf.INNER_PATHS for m in ctx.members) == 1, ctx.name
        assert sum(m in itf.OUTER_PATHS for m in ctx.members) == 2, ctx.name


def sharing_a_context(p):
    return {q for ctx in itf.CONTEXTS if p in ctx.members for q in ctx.members}


def opposite_outer():
    """Inner path k -> its opposite outer path, read from the theta rows of states.DEFINITIONS."""
    pairs = {name.removeprefix("theta_"): states.DEFINITIONS[name] for name in states.THETA_ORDER}
    assert all(k == pair[0] for k, pair in pairs.items())
    return {k: i for k, (_, i) in pairs.items()}


def test_opposite_outer_is_not_adjacent(system):
    opposite = opposite_outer()
    assert sorted(opposite) == sorted(itf.INNER_PATHS)
    for k, i in opposite.items():
        # the opposite outer path never shares a context with k ...
        assert i not in sharing_a_context(k)
        # ... and is the one outer path that shares none with either outer member of k's context
        ends = [p for p in sharing_a_context(k) if p in itf.OUTER_PATHS]
        across = [p for p in itf.OUTER_PATHS if not any(p in sharing_a_context(e) for e in ends)]
        assert across == [i], k
        # and their overlap is strictly between 0 and 1
        g = abs(inner(system.ray(k), system.ray(i)))
        assert 1e-6 < g < 1 - 1e-6


def test_n_corner_pairs_sit_opposite_the_rim_neighbours():
    # N_i is orthogonal to the two inner paths whose opposite outer paths
    # are i's rim neighbours, the outer paths that share a context with i
    opposite = opposite_outer()
    assert sorted(states.N_STATE_ORDER) == sorted(f"N_{i}" for i in itf.OUTER_PATHS)
    for i in itf.OUTER_PATHS:
        pair = states.DEFINITIONS[f"N_{i}"]
        neighbours = {p for p in sharing_a_context(i) if p in itf.OUTER_PATHS} - {i}
        assert len(neighbours) == 2 and all(p in itf.INNER_PATHS for p in pair)
        assert {opposite[p] for p in pair} == neighbours, i


def test_probabilities_sum_to_one_per_context(system, rng):
    for v in random_unit_vectors(rng, 200):
        probs = itf.probabilities(normalize(v), system)
        for ctx in itf.CONTEXTS:
            total = sum(probs[m] for m in ctx.members)
            assert abs(total - 1.0) < 1e-12


def test_probabilities_of_basis_state(system):
    probs = itf.probabilities(system.ray("1"), system)
    assert probs["1"] == pytest.approx(1.0)
    assert probs["3"] == pytest.approx(0.0, abs=1e-24)
    assert probs["f"] == pytest.approx(1 / 3)


def test_matrix_rows(system):
    m = system.vectors
    assert m.shape == (10, 3)
    for row, name in zip(m, itf.PATH_NAMES):
        assert np.array_equal(row, system.ray(name).vector)
    with pytest.raises(ValueError, match="read-only"):
        m[0, 0] = 2.0


def test_unknown_path(system):
    with pytest.raises(UnknownPathError):
        system.ray("Z9")


def test_build_is_pure():
    a = itf.build(itf.InterferometerSpec())
    b = itf.build(itf.InterferometerSpec())
    for name in itf.PATH_NAMES:
        assert np.array_equal(a.ray(name).vector, b.ray(name).vector)


@pytest.mark.parametrize(
    "derive", [classify.build_subclass_table, states.joint_basis, states.canonical_states], ids=lambda f: f.__name__
)
def test_per_system_data_keeps_its_identity_and_is_built_once(derive):
    # span tracing finds functions by their module, so the memo must not rename them
    assert getattr(sys.modules[derive.__module__], derive.__name__) is derive
    assert derive.__module__ in ("tripath.classify", "tripath.states")
    assert derive.__doc__
    assert inspect.signature(derive).parameters["system"].default is None
    if derive is states.canonical_states:  # a fresh dict of the same states
        assert derive() is not derive(itf.default_system())
        assert all(a is b for a, b in zip(derive().values(), derive(itf.default_system()).values()))
        return
    other = closing_system(0.4, 0.3)
    assert derive() is derive(itf.default_system())
    assert derive(other) is derive(other)
    assert derive(other) is not derive()


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_closing_family_is_closed(r1, rS1):
    system = closing_system(r1, rS1)
    for ctx in itf.CONTEXTS:
        rows = np.array([system.ray(m).vector for m in ctx.members])
        assert np.abs(rows @ rows.T - np.eye(3)).max() <= 1e-12, (ctx.name, r1, rS1)
    assert itf.verify_closure(system)
    assert classify.build_subclass_table(system).labels == classify.ALL_LABELS
