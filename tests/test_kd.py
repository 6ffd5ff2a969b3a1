import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripath import kd
from tripath.errors import DegeneratePairError, NonFiniteError, UnknownPathError
from tripath.hilbert import RayState, inner, normalize, same_ray
from tripath.interferometer import INNER_PATHS, OUTER_PATHS, probabilities
from tripath.states import joint_basis

from conftest import brute_force_min_inner_sum, closing_system, fibonacci_sphere, nonzero_vec, random_unit_vectors


def test_pair_catalog():
    inner_pairs = {frozenset(p) for p in (("1", "P2"), ("2", "P1"), ("f", "3"), ("S1", "D2"), ("S2", "D1"))}
    outer_pairs = {frozenset(p) for p in (("1", "f"), ("1", "S2"), ("2", "f"), ("2", "S1"), ("S1", "S2"))}
    got_inner = {frozenset((p.a, p.b)) for p in kd.KD_PAIRS if p.kind == "inner"}
    got_outer = {frozenset((p.a, p.b)) for p in kd.KD_PAIRS if p.kind == "outer"}
    assert got_inner == inner_pairs
    assert got_outer == outer_pairs
    assert [p.kind for p in kd.KD_PAIRS] == ["inner"] * 5 + ["outer"] * 5


def test_profile_against_direct_formula(system, rng):
    # independent route: raw vectors and the textbook expression
    for v in random_unit_vectors(rng, 300):
        psi = normalize(v)
        profile = kd.kd_profile(psi, system)
        for pair, got in zip(kd.KD_PAIRS, profile.values):
            va = system.ray(pair.a).vector
            vb = system.ray(pair.b).vector
            w = psi.vector
            want = float((vb @ va) * (va @ w) * (w @ vb))
            assert got == pytest.approx(want, abs=1e-14)


def test_profile_value_lookup(system, named):
    p = kd.kd_profile(named["theta_3"].ray, system)
    assert p.value("S1", "S2") == p.value("S2", "S1")
    with pytest.raises(UnknownPathError):
        p.value("1", "2")


def test_profile_batch_matches_loop(system, rng):
    vectors = random_unit_vectors(rng, 500)
    batch = kd.profile_values_batch(vectors, system)
    assert batch.shape == (500, 10)
    for row, v in zip(batch[:50], vectors[:50]):
        profile = kd.kd_profile(normalize(v), system)
        assert np.allclose(row, profile.values, atol=1e-14)


def test_kernel_rows_do_not_depend_on_batch_size(system, rng, named):
    # bit for bit: a one-row call, a row of a large batch and kd_profile agree,
    # on random rays and on the named states, which sit on the zero circles
    named_rows = [s.ray.vector for s in named.values()]
    named_rows += [b.ray.vector for b in joint_basis(system)]
    vectors = np.concatenate([random_unit_vectors(rng, 300), named_rows])
    for n in (1, 2, 3, len(vectors)):
        assert kd.profile_values_batch(vectors[:n], system).shape == (n, 10)
    batch = kd.profile_values_batch(vectors, system)
    for k, v in enumerate(vectors):
        single = kd.profile_values_batch(vectors[k : k + 1], system)[0]
        profile = kd.kd_profile(RayState(*v), system)
        assert single.tobytes() == batch[k].tobytes()
        assert np.array(profile.values).tobytes() == batch[k].tobytes()


def test_batch_names_non_finite_rows(system):
    vectors = np.tile([1.0, 0.0, 0.0], (5, 1))
    vectors[1, 2] = np.nan
    vectors[3, 0] = np.inf
    with pytest.raises(NonFiniteError, match=r"\[1, 3\]"):
        kd.profile_values_batch(vectors, system)


@settings(max_examples=150, deadline=None)
@given(nonzero_vec)
def test_sign_flip_invariance(v):
    # negation is exact in every product of the kernel, so the values agree
    # exactly; only a zero may change its sign bit (x - x is +0.0 either way)
    psi = normalize(v)
    assert kd.kd_profile(psi.flipped()).values == kd.kd_profile(psi).values


@settings(max_examples=150, deadline=None)
@given(nonzero_vec)
def test_decompose_outer_rebuilds_probability(v):
    psi = normalize(v)
    probs = probabilities(psi)
    for i in OUTER_PATHS:
        terms = kd.decompose_outer(psi, i)
        assert len(terms) == 3
        assert sum(t for _, t in terms) == pytest.approx(probs[i], abs=1e-12)
        # trajectory pair comes last
        assert terms[-1][0].kind == "inner"


def test_decompose_outer_rejects_inner(system):
    with pytest.raises(UnknownPathError):
        kd.decompose_outer(normalize([1, 1, 1]), "3", system)


def test_magnitude_relation(system, rng):
    # rho(a,b)^2 = <a|b>^2 P(a) P(b)
    for v in random_unit_vectors(rng, 300):
        psi = normalize(v)
        probs = probabilities(psi, system)
        profile = kd.kd_profile(psi, system)
        for pair, value in zip(kd.KD_PAIRS, profile.values):
            g = inner(system.ray(pair.a), system.ray(pair.b))
            assert value**2 == pytest.approx(g**2 * probs[pair.a] * probs[pair.b], abs=1e-14)


def test_path_state_profiles_nonnegative(system):
    for name in ("1", "2", "3", "S1", "D1", "f", "P1", "P2", "S2", "D2"):
        profile = kd.kd_profile(system.ray(name), system)
        assert min(profile.values) >= -1e-14, name


def test_n2_table(system, named):
    p = kd.kd_profile(named["N_2"].ray, system)
    assert p.value("1", "S2") == pytest.approx(6 / 11, abs=1e-12)
    assert p.value("S1", "S2") == pytest.approx(2 / 11, abs=1e-12)
    assert p.value("1", "f") == pytest.approx(3 / 11, abs=1e-12)
    assert p.value("2", "S1") == pytest.approx(1 / 11, abs=1e-12)
    assert p.value("2", "f") == pytest.approx(1 / 11, abs=1e-12)
    for pair in (("2", "P1"), ("S1", "D2"), ("f", "3")):
        assert p.value(*pair) == pytest.approx(-1 / 11, abs=1e-12)
    for pair in (("1", "P2"), ("S2", "D1")):
        assert p.value(*pair) == pytest.approx(0.0, abs=1e-12)


def test_n2_cancellation(system, named):
    # P(2) = 1/11 arrives as (+1/11) + (+1/11) + (-1/11)
    psi = named["N_2"].ray
    terms = dict()
    for pair, value in kd.decompose_outer(psi, "2", system):
        terms[frozenset((pair.a, pair.b))] = value
    assert terms[frozenset(("2", "f"))] == pytest.approx(1 / 11, abs=1e-12)
    assert terms[frozenset(("2", "S1"))] == pytest.approx(1 / 11, abs=1e-12)
    assert terms[frozenset(("2", "P1"))] == pytest.approx(-1 / 11, abs=1e-12)
    assert probabilities(psi, system)["2"] == pytest.approx(1 / 11, abs=1e-12)


def test_ns1_and_nf_tables(system, named):
    p = kd.kd_profile(named["N_S1"].ray, system)
    assert p.value("1", "f") == pytest.approx(2 / 5, abs=1e-12)
    assert p.value("2", "f") == pytest.approx(1 / 5, abs=1e-12)
    assert p.value("1", "S2") == pytest.approx(2 / 5, abs=1e-12)
    p = kd.kd_profile(named["N_f"].ray, system)
    for pair in (("S1", "S2"), ("2", "S1"), ("1", "S2")):
        assert p.value(*pair) == pytest.approx(1 / 3, abs=1e-12)


def test_theta_tables(system, named):
    cases = {
        "theta_D1": ({("2", "S1"): 1 / 3, ("1", "f"): 1 / 9, ("S1", "D2"): 1 / 3, ("1", "P2"): 2 / 9},
                     ("2", "f"), -1 / 9),
        "theta_3": ({("1", "S2"): 1 / 4, ("2", "S1"): 1 / 4, ("1", "P2"): 1 / 4, ("2", "P1"): 1 / 4},
                    ("S1", "S2"), -1 / 8),
        "theta_P1": ({("1", "f"): 1 / 5, ("S1", "S2"): 1 / 10, ("f", "3"): 2 / 5, ("S1", "D2"): 3 / 10},
                     ("1", "S2"), -1 / 10),
        "theta_P2": ({("2", "f"): 1 / 5, ("S1", "S2"): 1 / 10, ("f", "3"): 2 / 5, ("S2", "D1"): 3 / 10},
                     ("2", "S1"), -1 / 10),
        "theta_D2": ({("1", "S2"): 1 / 3, ("2", "f"): 1 / 9, ("S2", "D1"): 1 / 3, ("2", "P1"): 2 / 9},
                     ("1", "f"), -1 / 9),
    }
    for name, (positives, neg_pair, neg_value) in cases.items():
        p = kd.kd_profile(named[name].ray, system)
        for pair, want in positives.items():
            assert p.value(*pair) == pytest.approx(want, abs=1e-12), (name, pair)
        assert sum(positives.values()) == pytest.approx(1.0, abs=1e-12)
        assert p.value(*neg_pair) == pytest.approx(neg_value, abs=1e-12), name


def test_inequality_sums(system, named):
    want = {"N_f": 7 / 9, "N_1": 9 / 11, "N_2": 9 / 11, "N_S1": 4 / 5, "N_S2": 4 / 5}
    for name, w in want.items():
        assert kd.inequality_sum(named[name].ray, system) == pytest.approx(w, abs=1e-12)


def test_inequality_sum_equals_inner_probabilities(system, rng):
    for v in random_unit_vectors(rng, 100):
        psi = normalize(v)
        probs = probabilities(psi, system)
        want = sum(probs[k] for k in INNER_PATHS)
        assert kd.inequality_sum(psi, system) == pytest.approx(want, abs=1e-12)


def test_inequality_operator(system):
    m = kd.inequality_operator(system)
    assert np.allclose(m, m.T, atol=1e-15)
    # five rank-1 projectors in 3 dimensions: trace 5
    assert np.trace(m) == pytest.approx(5.0, abs=1e-12)


def test_max_violation_value(system):
    state, violation = kd.max_violation(system)
    assert violation == pytest.approx(math.sqrt(11 / 12) - 0.5, abs=1e-12)
    probs = probabilities(state, system)
    assert probs["1"] == pytest.approx(probs["2"], abs=1e-9)
    assert probs["1"] == pytest.approx(0.4676, abs=5e-4)
    assert probs["3"] == pytest.approx(0.0648, abs=5e-4)
    assert kd.inequality_sum(state, system) == pytest.approx(1.0 - violation, abs=1e-12)


def test_max_violation_matches_brute_force(system):
    # independent grid search, one zoom stage; slow-ish but well bounded
    grid_min = brute_force_min_inner_sum(system, n=1_000_000)
    _, violation = kd.max_violation(system)
    assert grid_min == pytest.approx(1.0 - violation, abs=1e-6)


def test_negative_bound_values(system):
    assert -kd.kd_extrema("S1", "S2", system).min_value == pytest.approx(1 / 8, abs=1e-15)
    g = 1 / math.sqrt(2)
    assert -kd.kd_extrema("1", "S2", system).min_value == pytest.approx(g * (1 - g) / 2, abs=1e-15)
    g = 1 / math.sqrt(3)
    assert -kd.kd_extrema("1", "f", system).min_value == pytest.approx(g * (1 - g) / 2, abs=1e-15)


def test_negative_bound_degenerate(system):
    with pytest.raises(DegeneratePairError):
        kd.kd_extrema("1", "3", system)  # orthogonal
    with pytest.raises(DegeneratePairError):
        kd.kd_extrema("f", "f", system)  # parallel


def test_extrema_bound_the_kernel_and_are_attained(system):
    for s in (system, closing_system(0.3, 0.6), closing_system(0.7, 0.2)):
        values = kd.profile_values_batch(fibonacci_sphere(20_000), s)
        for k, pair in enumerate(kd.KD_PAIRS):
            ext = kd.kd_extrema(pair.a, pair.b, s)
            assert values[:, k].min() >= ext.min_value - 1e-15, pair
            assert values[:, k].max() <= ext.max_value + 1e-15, pair
            assert abs(kd.kd_profile(ext.min_state, s).value(pair.a, pair.b) - ext.min_value) <= 1e-15, pair
            assert abs(kd.kd_profile(ext.max_state, s).value(pair.a, pair.b) - ext.max_value) <= 1e-15, pair
            assert abs(inner(ext.min_state, ext.max_state)) <= 1e-15, pair


def great_circle_scan(a, b, n, system):
    """Kernel rho(a, b) at n rays of the great circle through rays a and b."""
    k = next(k for k, p in enumerate(kd.KD_PAIRS) if {p.a, p.b} == {a, b})
    va, vb = system.ray(a).vector, system.ray(b).vector
    e = normalize(vb - (va @ vb) * va).vector
    t = np.pi * np.arange(n) / n
    rays = np.outer(np.cos(t), va) + np.outer(np.sin(t), e)
    return rays, kd.profile_values_batch(rays, system)[:, k]


def test_scan_extrema_match_closed_forms(system):
    for pair in (("1", "f"), ("1", "S2"), ("2", "f"), ("2", "S1"), ("S1", "S2")):
        rays, rho = great_circle_scan(*pair, 100_000, system)
        g = abs(inner(system.ray(pair[0]), system.ray(pair[1])))
        ext = kd.kd_extrema(*pair, system)
        assert rho.min() == pytest.approx(-g * (1 - g) / 2, abs=1e-6), pair
        assert rho.max() == pytest.approx(g * (1 + g) / 2, abs=1e-6), pair
        assert ext.min_value == pytest.approx(-g * (1 - g) / 2, abs=1e-15), pair
        assert ext.max_value == pytest.approx(g * (1 + g) / 2, abs=1e-15), pair
        # extrema sit at orthogonal rays of the circle
        assert abs(rays[rho.argmin()] @ rays[rho.argmax()]) < 1e-3


def test_scan_minimizer_is_theta3(system, named):
    rays, rho = great_circle_scan("S1", "S2", 200_000, system)
    assert same_ray(normalize(rays[rho.argmin()]), named["theta_3"].ray, tol=1e-4)
    assert same_ray(kd.kd_extrema("S1", "S2", system).min_state, named["theta_3"].ray, tol=1e-12)


unit_vec = st.lists(
    st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False), min_size=3, max_size=3
).filter(lambda v: sum(x * x for x in v) > 1e-6)


@settings(max_examples=60, deadline=None)
@given(unit_vec)
def test_outer_probability_identity(v):
    # summed outer probabilities = 2 * (outer KD sum) + inner KD sum,
    # because each outer pair feeds two decompositions and each inner one
    psi = normalize(v)
    profile = kd.kd_profile(psi)
    probs = probabilities(psi)
    lhs = sum(probs[i] for i in OUTER_PATHS)
    rhs = 2.0 * sum(profile.values[5:]) + sum(profile.values[:5])
    assert lhs == pytest.approx(rhs, abs=1e-10)
