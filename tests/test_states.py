import math

import numpy as np
import pytest

from tripath import states
from tripath.errors import UnknownPathError
from tripath.hilbert import inner, normalize, same_ray

from conftest import random_unit_vectors

S2 = math.sqrt(2.0)
S3 = math.sqrt(3.0)
S5 = math.sqrt(5.0)
S11 = math.sqrt(11.0)

N_EXPECTED = {
    "N_f": (1 / S3, 1 / S3, 1 / S3),
    "N_1": (1 / S11, 3 / S11, 1 / S11),
    "N_S2": (1 / S5, 2 / S5, 0),
    "N_S1": (2 / S5, 1 / S5, 0),
    "N_2": (3 / S11, 1 / S11, 1 / S11),
}

THETA_EXPECTED = {
    "theta_3": (1 / S2, -1 / S2, 0),
    "theta_D1": (1 / S3, -1 / S3, -1 / S3),
    "theta_P1": (1 / S5, 0, -2 / S5),
    "theta_P2": (0, 1 / S5, -2 / S5),
    "theta_D2": (1 / S3, -1 / S3, 1 / S3),
}

BASIS_EXPECTED = {
    "Q(S2,D1)": np.array([2, -1, 3]) / math.sqrt(14),
    "T(2,S1)": np.array([0, 3, 1]) / math.sqrt(10),
    "T(1,f)": np.array([5, 1, -3]) / math.sqrt(35),
}


def test_n_state_closed_forms(system):
    for name, want in N_EXPECTED.items():
        got = states.canonical_states(system)[name].ray
        assert same_ray(got, np.array(want), tol=1e-12), name


def test_n_state_defining_orthogonality(system):
    for i in ("1", "2", "S1", "S2", "f"):
        s = states.n_state(i, system)
        assert len(s.orthogonal_to) == 2
        for p in s.orthogonal_to:
            assert abs(inner(s.ray, system.ray(p))) < 1e-12


def test_n_state_rejects_inner_paths(system):
    with pytest.raises(UnknownPathError):
        states.n_state("D1", system)


def test_theta_closed_forms(system):
    for name, want in THETA_EXPECTED.items():
        got = states.canonical_states(system)[name].ray
        assert same_ray(got, np.array(want), tol=1e-12), name


def test_theta_d2_is_not_the_misprint(system):
    # (1,1,-1)/sqrt(3) equals the f path and breaks the defining
    # orthogonality, so the derived (1,-1,1)/sqrt(3) must win
    s = states.theta_state("D2", system)
    assert not same_ray(s.ray, system.ray("f"))
    assert abs(inner(s.ray, system.ray("D2"))) < 1e-12
    assert abs(inner(s.ray, system.ray("S1"))) < 1e-12


def test_theta_defining_orthogonality(system):
    from tripath.interferometer import OPPOSITE_OUTER

    for k in ("3", "D1", "P1", "P2", "D2"):
        s = states.theta_state(k, system)
        assert set(s.orthogonal_to) == {k, OPPOSITE_OUTER[k]}
        for p in s.orthogonal_to:
            assert abs(inner(s.ray, system.ray(p))) < 1e-12


def test_theta_rejects_outer_paths(system):
    with pytest.raises(UnknownPathError):
        states.theta_state("S1", system)


def test_canonical_states_order_and_count(named):
    keys = list(named)
    assert len(keys) == 20
    assert keys[:10] == ["1", "2", "3", "S1", "D1", "f", "P1", "P2", "S2", "D2"]
    assert keys[10:15] == list(states.N_STATE_ORDER)
    assert keys[15:] == list(states.THETA_ORDER)


def test_canonical_states_returns_a_fresh_dict(system):
    first = states.canonical_states(system)
    second = states.canonical_states(system)
    assert first == second and first is not second
    first["N_2"] = first.pop("N_1")
    assert states.canonical_states(system) == second
    assert len(second) == 20 and second["N_2"].name == "N_2"


def test_named_state_invariant(system, named):
    # every named state is orthogonal to both paths in its definition
    for s in named.values():
        for p in s.orthogonal_to:
            assert abs(inner(s.ray, system.ray(p))) < 1e-12, s.name


def test_joint_basis_closed_forms(system):
    basis = states.joint_basis(system)
    assert tuple(b.name for b in basis) == tuple(BASIS_EXPECTED)
    for b in basis:
        assert same_ray(b.ray, BASIS_EXPECTED[b.name], tol=1e-12)


def test_joint_basis_orthonormal(system):
    basis = states.joint_basis(system)
    m = np.array([b.ray.vector for b in basis])
    assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)


def test_joint_basis_definitions(system):
    q, t2s1, t1f = states.joint_basis(system)
    # Q is fixed by two zero-probability conditions, the T states by
    # orthogonality within the basis plus one zero condition each
    for p in q.orthogonal_to:
        assert abs(inner(q.ray, normalize(states.resolve_state(p, system).ray.vector))) < 1e-12
    assert abs(inner(t2s1.ray, system.ray("1"))) < 1e-12
    assert abs(inner(t1f.ray, t2s1.ray)) < 1e-12


def test_decompose_in_basis_t2f(system):
    t2f = normalize(np.array([1, 4, -2]) / math.sqrt(21))
    c = states.decompose_in_basis(t2f, system)
    want = (8 / (7 * math.sqrt(6)), math.sqrt(210) / 21, math.sqrt(15) / 7)
    got = tuple(abs(x) for x in c)
    assert got == pytest.approx(want, abs=1e-12)
    assert sum(x * x for x in c) == pytest.approx(1.0, abs=1e-12)


def test_decompose_in_basis_roundtrip(system, rng):
    basis = states.joint_basis(system)
    m = np.array([b.ray.vector for b in basis])
    for v in random_unit_vectors(rng, 100):
        c = states.decompose_in_basis(normalize(v), system)
        rebuilt = np.array(c) @ m
        assert same_ray(normalize(rebuilt), normalize(v), tol=1e-10)


def test_hardy_values(system):
    assert states.hardy_value("f", system) == pytest.approx(1 / 9, abs=1e-12)
    assert states.hardy_value("1", system) == pytest.approx(1 / 11, abs=1e-12)
    assert states.hardy_value("2", system) == pytest.approx(1 / 11, abs=1e-12)
    assert states.hardy_value("S1", system) == pytest.approx(1 / 10, abs=1e-12)
    assert states.hardy_value("S2", system) == pytest.approx(1 / 10, abs=1e-12)


def test_resolve_state(system):
    assert states.resolve_state("N_2", system).name == "N_2"
    assert states.resolve_state("S1", system).name == "S1"
    assert states.resolve_state("Q(S2,D1)", system).name == "Q(S2,D1)"
    with pytest.raises(UnknownPathError):
        states.resolve_state("N_3", system)
