"""Self check suite: every published closed form value, recomputed from first principles.

A check is one row of ``_ROWS``: ident, description, the detail reported on
success (a format string applied to the first computed value) and a function
yielding ``(what, got, want, tol)`` comparisons.  A number passes when
``|got - want| <= tol``; any other value must equal ``want``.  A failing check
reports its first failing comparison.  ``tripath verify`` prints one line per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import atlas, classify, hilbert, interferometer, kd, states
from .interferometer import PathSystem


@dataclass
class CheckResult:
    ident: str
    description: str
    ok: bool
    detail: str = ""


# Closed forms (x, y, z, d) of the rays (x, y, z)/sqrt(d).
CLOSED_FORMS = {
    "1": (1, 0, 0, 1), "2": (0, 1, 0, 1), "3": (0, 0, 1, 1), "S1": (0, 1, 1, 2), "D1": (0, 1, -1, 2),
    "f": (1, 1, -1, 3), "P1": (2, -1, 1, 6), "P2": (-1, 2, 1, 6), "S2": (1, 0, 1, 2), "D2": (1, 0, -1, 2),
}
N_FORMS = {
    "N_f": (1, 1, 1, 3), "N_1": (1, 3, 1, 11), "N_S2": (1, 2, 0, 5), "N_S1": (2, 1, 0, 5), "N_2": (3, 1, 1, 11),
}
THETA_FORMS = {
    "theta_P2": (0, 1, -2, 5), "theta_D1": (1, -1, -1, 3), "theta_3": (1, -1, 0, 2),
    "theta_D2": (1, -1, 1, 3), "theta_P1": (1, 0, -2, 5),
}
BASIS_FORMS = {"Q(S2,D1)": (2, -1, 3, 14), "T(2,S1)": (0, 3, 1, 10), "T(1,f)": (5, 1, -3, 35)}
T2F_FORM = (1, 4, -2, 21)  # T(2,f), the state the joint basis certifies
HARDY = {"f": 1 / 9, "1": 1 / 11, "2": 1 / 11, "S1": 1 / 10, "S2": 1 / 10}
INEQUALITY_SUMS = {"N_f": 7 / 9, "N_1": 9 / 11, "N_2": 9 / 11, "N_S1": 4 / 5, "N_S2": 4 / 5}
T2F_COEFFICIENTS = (-8 / (7 * math.sqrt(6)), math.sqrt(210) / 21, math.sqrt(15) / 7)
# KD values of the quasiclassical states; the first four of each carry unit weight.
THETA_PROFILES = {
    "theta_D1": {("2", "S1"): 1 / 3, ("1", "f"): 1 / 9, ("S1", "D2"): 1 / 3, ("1", "P2"): 2 / 9,
                 ("2", "f"): -1 / 9, ("2", "P1"): 1 / 9, ("f", "3"): 1 / 9},
    "theta_3": {("1", "S2"): 1 / 4, ("2", "S1"): 1 / 4, ("1", "P2"): 1 / 4, ("2", "P1"): 1 / 4},
    "theta_P1": {("1", "f"): 1 / 5, ("S1", "S2"): 1 / 10, ("f", "3"): 2 / 5, ("S1", "D2"): 3 / 10},
    "theta_P2": {("2", "f"): 1 / 5, ("S1", "S2"): 1 / 10, ("f", "3"): 2 / 5, ("S2", "D1"): 3 / 10},
    "theta_D2": {("1", "S2"): 1 / 3, ("2", "f"): 1 / 9, ("S2", "D1"): 1 / 3, ("2", "P1"): 2 / 9},
}
# (state, a, b, rho(a,b)): the negative values of the quasiclassical and joint basis states.
THETA_NEGATIVES = [
    ("theta_3", "S1", "S2", -1 / 8), ("theta_D1", "2", "f", -1 / 9), ("theta_P1", "1", "S2", -1 / 10),
    ("theta_P2", "2", "S1", -1 / 10), ("theta_D2", "1", "f", -1 / 9),
]
JOINT_NEGATIVES = [
    ("Q(S2,D1)", "2", "S1", -1 / 14), ("Q(S2,D1)", "1", "f", -2 / 21), ("T(2,S1)", "S2", "D1", -1 / 20),
    ("T(1,f)", "2", "S1", -1 / 35), ("T(1,f)", "S2", "D1", -2 / 35),
]
# ((a, b), path, rho(a,b)) at a corner; where a path is named, rho(a,b) = +-P(path).
N2_IDENTITIES = [
    (("1", "S2"), "P1", 6 / 11), (("S1", "S2"), "S1", 2 / 11), (("1", "f"), "f", 3 / 11),
    (("2", "S1"), "2", 1 / 11), (("2", "f"), "2", 1 / 11), (("2", "P1"), "2", -1 / 11),
    (("S1", "D2"), "2", -1 / 11), (("f", "3"), "2", -1 / 11),
]
NS1_IDENTITIES = [(("1", "f"), "D2", 2 / 5), (("2", "f"), "2", 1 / 5), (("1", "S2"), "S2", 2 / 5)]
NF_VALUES = [(("S1", "S2"), None, 1 / 3), (("2", "S1"), None, 1 / 3), (("1", "S2"), None, 1 / 3)]
# (state, state, |<a|b>|^2) certification fidelities, and the published roundings.
FIDELITIES = [
    ("T(2,S1)", "S1", 4 / 5), ("T(1,f)", "f", 27 / 35), ("Q(S2,D1)", "P1", 16 / 21),
    ("T(2,f)", "2", 16 / 21), ("T(2,f)", "f", 7 / 9), ("T(2,f)", "D1", 6 / 7),
    ("Q(S2,D1)", "D1", 4 / 7), ("Q(S2,D1)", "T(2,f)", 64 / 294), ("T(2,S1)", "2", 9 / 10),
    ("T(2,S1)", "T(2,f)", 100 / 210), ("T(1,f)", "T(2,f)", 225 / 735),
]
ROUNDED = [
    (16 / 21, 0.76), (7 / 9, 0.78), (6 / 7, 0.86), (4 / 7, 0.57), (64 / 294, 0.22),
    (9 / 10, 0.90), (100 / 210, 0.48), (27 / 35, 0.77), (225 / 735, 0.31),
]

Comparison = tuple[str, object, object, "float | None"]
Rays = dict[str, "hilbert.RayState"]


def _form(t) -> np.ndarray:
    x, y, z, d = t
    return np.array([x, y, z]) / math.sqrt(d)


def _ray(what: str, got: np.ndarray, form, tol: float = 1e-12) -> Comparison:
    """min(|a - b|, |a + b|) against 0: the ray comparison of ``hilbert.same_ray``."""
    want = _form(form)
    return what, min(np.linalg.norm(got - want), np.linalg.norm(got + want)), 0.0, tol


def _forms(r: Rays, forms: dict) -> list[Comparison]:
    return [_ray(name, r[name].vector, form) for name, form in forms.items()]


def _rho(p: kd.KDProfile, a: str, b: str, want: float, prefix: str = "") -> Comparison:
    return f"{prefix}rho({a},{b})", p.value(a, b), want, 1e-12


def _kd(s: PathSystem, r: Rays, name: str, a: str, b: str, want: float) -> Comparison:
    return _rho(kd.kd_profile(r[name], s), a, b, want, f"{name} ")


def _inside(what: str, x: float, lo: float, hi: float) -> Comparison:
    return f"{what} = {x!r} in ({lo}, {hi})", lo < x < hi, True, None


def _profiles(s: PathSystem, r: Rays, names: Iterable[str]):
    for name in names:
        p, want = kd.kd_profile(r[name], s), THETA_PROFILES[name]
        yield from (_rho(p, a, b, w, f"{name} ") for (a, b), w in want.items())
        yield f"{name} weight sum", sum(p.value(*pair) for pair in list(want)[:4]), 1.0, 1e-12


def _identities(s: PathSystem, r: Rays, name: str, table):
    p, probs = kd.kd_profile(r[name], s), interferometer.probabilities(r[name], s)
    for (a, b), path, w in table:
        yield _rho(p, a, b, w, f"{name} ")
        if path:
            yield f"{name} rho({a},{b}) vs P({path})", p.value(a, b), math.copysign(probs[path], w), 1e-12


def _basis(s: PathSystem, r: Rays):
    yield from _forms(r, BASIS_FORMS)
    gram = np.array([r[name].vector for name in BASIS_FORMS])
    yield "Gram matrix deviation from identity", np.abs(gram @ gram.T - np.eye(3)).max(), 0.0, 1e-12


def _decompose(s: PathSystem, r: Rays):
    c = states.decompose_in_basis(r["T(2,f)"], s)
    for k, (got, w) in enumerate(zip(c, T2F_COEFFICIENTS)):
        yield f"|coefficient {k}|", abs(got), abs(w), 1e-12
    yield "sum of squared coefficients", sum(x * x for x in c), 1.0, 1e-12


def _decompose_outer(s: PathSystem, r: Rays):
    # 50 states of a Fibonacci sphere: heights 1 - (2k + 1)/50, golden angle steps
    for k in range(50):
        z, t = 1 - (2 * k + 1) / 50, math.pi * (3 - math.sqrt(5)) * k
        psi = hilbert.normalize([math.sqrt(1 - z * z) * math.cos(t), math.sqrt(1 - z * z) * math.sin(t), z])
        for i in interferometer.OUTER_PATHS:
            total = sum(v for _, v in kd.decompose_outer(psi, i, s))
            yield f"state {k}: P({i}) from KD terms", total, interferometer.probabilities(psi, s)[i], 1e-10


def _max_violation(s: PathSystem, r: Rays):
    state, violation = kd.max_violation(s)
    yield "violation", violation, math.sqrt(11 / 12) - 0.5, 1e-12
    probs = interferometer.probabilities(state, s)
    yield "maximizer P(1) vs P(2)", probs["1"], probs["2"], 1e-9
    yield "maximizer P(1)", probs["1"], 0.4676, 5e-4
    yield "maximizer P(3)", probs["3"], 0.0648, 5e-4


def _negative_bounds(s: PathSystem, r: Rays):
    yield "bound(S1,S2)", -kd.kd_extrema("S1", "S2", s).min_value, 1 / 8, 1e-12
    # bound(1,b) = (1 - 1/sqrt(d)) / (2 sqrt(d)), just above the theta state's negative value
    for b, d, theta, lo, hi in (("S2", 2, 1 / 10, 0.0035, 0.0036), ("f", 3, 1 / 9, 0.0105, 0.0115)):
        bound = -kd.kd_extrema("1", b, s).min_value
        yield f"bound(1,{b})", bound, (1 / math.sqrt(d)) * (1 - 1 / math.sqrt(d)) / 2, 1e-12
        yield _inside(f"bound(1,{b}) - 1/{1 / theta:.0f}", bound - theta, lo, hi)


def _extrema(s: PathSystem, r: Rays):
    ext = kd.kd_extrema("S1", "S2", s)
    yield "kernel rho(S1,S2) at the minimizer", kd.kd_profile(ext.min_state, s).value("S1", "S2"), ext.min_value, 1e-15
    yield _ray("minimizer vs theta_3", ext.min_state.vector, THETA_FORMS["theta_3"])
    yield "|<minimizer|maximizer>|", abs(hilbert.inner(ext.min_state, ext.max_state)), 0.0, 1e-12
    ext = kd.kd_extrema("1", "f", s)
    yield _inside("|min rho(1,f)| - 1/9", abs(ext.min_value) - 1 / 9, 0.0105, 0.0115)
    overlap = abs(hilbert.inner(ext.min_state, r["theta_D2"]))
    yield f"|<minimizer|theta_D2>| = {overlap!r} >= 0.98", overlap >= 0.98, True, None


def _path_zeros(s: PathSystem, r: Rays):
    profiles = {path: kd.kd_profile(r[path], s) for path in ("1", "3")}
    for path, inner_zeros, outer_zeros in (("1", 4, 3), ("3", 2, 4)):
        pattern = classify.sign_pattern(profiles[path])
        yield f"path {path} inner zeros", pattern[:5].count(0), inner_zeros, 0
        yield f"path {path} outer zeros", pattern[5:].count(0), outer_zeros, 0
    yield _rho(profiles["3"], "f", "3", 1 / 3, "path 3 ")
    for path, p in profiles.items():
        yield f"path {path} most negative value", max(0.0, -min(p.values)), 0.0, 1e-15


def _table(s: PathSystem, r: Rays):
    table = classify.build_subclass_table(s)
    yield "distinct patterns", len(set(table.patterns)), 31, 0
    b = table.pattern_for(classify.ClassLabel("B", ("1", "S2")))
    yield "B(1,S2) positive inner pairs", [i for i in range(5) if b[i] > 0], [0, 4], None
    yield "B(1,S2) negative outer pairs", sum(t < 0 for t in b[5:]), 0, 0
    q = table.pattern_for(classify.ClassLabel("Q", ("S2", "D1")))
    yield "Q(S2,D1) negative inner pairs", sum(t < 0 for t in q[:5]), 0, 0
    yield "Q(S2,D1) negative outer pairs", [i for i in range(5, 10) if q[i] < 0], [5, 8], None


def _named_states(s: PathSystem, r: Rays):
    got = {name: classify.classify(r[name], s).labels for name in ("N_2", "theta_D1", "f", "3")}
    yield "N_2", sorted(map(str, got["N_2"])), ["B(1,S2)", "N", "V(1)", "V(S2)"], None
    yield "theta_D1", sorted(map(str, got["theta_D1"])), ["Q(1,P2)", "Q(S1,D2)", "X(1,D2)", "X(S1,P2)"], None
    yield "path f classes", sorted({label.cls for label in got["f"]}), ["B", "Q", "T", "V", "X"], None
    yield "path 3 classes", sorted({label.cls for label in got["3"]}), ["Q", "T", "X"], None


def _fidelities(s: PathSystem, r: Rays):
    for a, b, w in FIDELITIES:
        yield f"|<{a}|{b}>|^2", hilbert.inner(r[a], r[b]) ** 2, w, 1e-12
    for w, rounded in ROUNDED:
        yield f"published rounding of {w!r}", w, rounded, 5e-3


def _atlas(s: PathSystem, r: Rays):
    grid = atlas.sample_atlas(512, system=s)
    yield "visible sub-classes", len(grid.label_counts()), 31, 0
    yield "state markers in the vector chart", atlas.render(grid, "vector", s).count("<text"), 20, 0


# (ident, description, detail on success, comparisons(system, rays))
_ROWS: list[tuple[str, str, str, Callable[[PathSystem, Rays], Iterable[Comparison]]]] = [
    ("normalize/N_2", "normalize((3,1,1)) gives the pentagon corner opposite path 2", "match",
     lambda s, r: [_ray("normalize((3,1,1))", hilbert.normalize([3, 1, 1]).vector, N_FORMS["N_2"])]),
    ("inner/S1.S2", "overlap of the two sum paths is 1/2", "{!r}",
     lambda s, r: [("<S1|S2>", hilbert.inner(s.ray("S1"), s.ray("S2")), 0.5, 1e-12)]),
    ("orthogonal/N_f", "ray orthogonal to D1 and D2 is (1,1,1)/sqrt(3)", "match",
     lambda s, r: [_ray("D1 x D2", hilbert.orthogonal_to_pair(r["D1"], r["D2"]).vector, N_FORMS["N_f"])]),
    ("orthogonal/theta_3", "ray orthogonal to path 3 and path f is (1,-1,0)/sqrt(2)", "match",
     lambda s, r: [_ray("3 x f", hilbert.orthogonal_to_pair(r["3"], r["f"]).vector, THETA_FORMS["theta_3"])]),
    ("cascade/closed-forms", "default cascade reproduces all ten path vectors", "all ten paths match",
     lambda s, r: [(f"path {name}", np.abs(s.ray(name).vector - _form(form)).max(), 0.0, 1e-12)
                   for name, form in CLOSED_FORMS.items()]),
    ("cascade/closure", "default outputs equal inputs up to sign", "",
     lambda s, r: [("outputs equal inputs", interferometer.verify_closure(s, 1e-12), True, None)]),
    ("probability/N_f.f", "P(f) = 1/9 for the central pentagon corner", "{!r}",
     lambda s, r: [("P(f)", interferometer.probabilities(r["N_f"], s)["f"], 1 / 9, 1e-12)]),
    ("probability/N_1.1", "P(1) = 1/11 for the corner opposite path 1", "{!r}",
     lambda s, r: [("P(1)", interferometer.probabilities(r["N_1"], s)["1"], 1 / 11, 1e-12)]),
    ("states/N", "pentagon corners match their closed forms", "all five corners match",
     lambda s, r: _forms(r, N_FORMS)),
    ("states/theta", "quasiclassical states match their closed forms, theta_D2 = (1,-1,1)/sqrt(3)",
     "all five quasiclassical states match", lambda s, r: _forms(r, THETA_FORMS)),
    ("states/joint-basis", "nonclassical joint basis matches its closed forms",
     "orthonormal, all three match", _basis),
    ("states/hardy", "paradoxical detection probabilities of the corners", "1/9, 1/11, 1/11, 1/10, 1/10",
     lambda s, r: [(f"hardy_value({i})", states.hardy_value(i, s), w, 1e-12) for i, w in HARDY.items()]),
    ("states/decompose", "T(2,f) splits over the joint basis with weight 64/294 on Q(S2,D1)",
     "T(2,f) coefficients match", _decompose),
    ("kd/N_2.1S2", "rho(1,S2) = 6/11 for the corner opposite path 2", "{!r}",
     lambda s, r: [_kd(s, r, "N_2", "1", "S2", 6 / 11)]),
    ("kd/theta_3.S1S2", "rho(S1,S2) = -1/8 at theta_3, the extremal negative value", "{!r}",
     lambda s, r: [_kd(s, r, "theta_3", "S1", "S2", -1 / 8)]),
    ("kd/theta_D1-profile", "theta_D1 reproduces four probabilities, negative -1/9",
     "profile and unit weight sum match", lambda s, r: _profiles(s, r, ["theta_D1"])),
    ("kd/theta-quads", "remaining quasiclassical states carry unit weight on four values",
     "all four quasiclassical quadruples match",
     lambda s, r: _profiles(s, r, ["theta_3", "theta_P1", "theta_P2", "theta_D2"])),
    ("kd/theta-negatives", "single negative value of each quasiclassical state",
     "magnitudes 1/8, 1/9, 1/10, 1/10, 1/9", lambda s, r: [_kd(s, r, *row) for row in THETA_NEGATIVES]),
    ("kd/N_2-identities", "corner opposite 2: KD values equal path probabilities",
     "probability identities and +-1/11 cancellations hold",
     lambda s, r: _identities(s, r, "N_2", N2_IDENTITIES)),
    ("kd/N_S1-N_f", "remaining corner identities match", "2/5, 1/5, 2/5 and the three 1/3 values match",
     lambda s, r: [*_identities(s, r, "N_S1", NS1_IDENTITIES), *_identities(s, r, "N_f", NF_VALUES)]),
    ("kd/decompose-outer", "three KD terms rebuild every outer probability",
     "P(i) recovered for all outer paths", _decompose_outer),
    ("kd/inequality-sums", "inner path sums of the five corners", "7/9, 9/11, 9/11, 4/5, 4/5",
     lambda s, r: [(f"{n} inner sum", kd.inequality_sum(r[n], s), w, 1e-12) for n, w in INEQUALITY_SUMS.items()]),
    ("kd/max-violation", "largest violation is sqrt(11/12) - 1/2", "violation {:.9f}", _max_violation),
    ("kd/negative-bounds", "extremal negative magnitudes per outer pair",
     "1/8 exact, 0.10355 and 0.12201 match", _negative_bounds),
    ("kd/extrema", "the kernel attains the closed form extrema",
     "theta_3 is exactly extremal; theta_D2 nearly so", _extrema),
    ("classify/path-zeros", "path states sit on the documented boundaries",
     "zero counts 4/3 and 2/4, no negatives", _path_zeros),
    ("classify/table", "sub-class table matches the documented patterns",
     "31 distinct patterns, spot checks pass", _table),
    ("classify/named-states", "boundary states list their adjacent sub-classes",
     "corner states resolve to their adjacent sub-classes", _named_states),
    ("kd/joint-negatives", "negative KD values of the joint basis states",
     "-1/14, -2/21, -1/20, -1/35, -2/35", lambda s, r: [_kd(s, r, *row) for row in JOINT_NEGATIVES]),
    ("states/fidelities", "joint basis certifies its sub-classes with published fidelities",
     "fidelities and certification probabilities match", _fidelities),
    ("atlas/regions", "chart shows every sub-class and all named states",
     "all 31 regions visible, 20 markers drawn", _atlas),
]


def _judge(detail: str, comparisons: Iterable[Comparison]) -> tuple[bool, str]:
    """Run one row's comparisons; stop at the first that fails."""
    first = []
    for what, got, want, tol in comparisons:
        if isinstance(got, np.generic):
            got = got.item()
        number = isinstance(want, (int, float)) and not isinstance(want, bool)
        if not (abs(got - want) <= tol if number else got == want):
            return False, f"{what}: got {got!r}, want {want!r}"
        first = first or [got]
    return True, detail.format(*first)


def run_checks() -> list[CheckResult]:
    system = interferometer.default_system()
    rays = {name: st.ray for name, st in states.canonical_states(system).items()}
    rays.update({b.name: b.ray for b in states.joint_basis(system)})
    rays["T(2,f)"] = hilbert.normalize(_form(T2F_FORM))
    results = []
    for ident, description, detail, comparisons in _ROWS:
        try:
            ok, text = _judge(detail, comparisons(system, rays))
        except Exception as exc:  # a crashed check reports as failure
            ok, text = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(ident, description, ok, text))
    return results
