import pytest

from tripath import cli, verify


@pytest.mark.parametrize(
    "forms, name, form, failing",
    [
        (verify.BASIS_FORMS, "T(2,S1)", (0, 1, 3, 10), {"states/joint-basis": "T(2,S1): got "}),
        (
            verify.THETA_FORMS,
            "theta_3",
            (1, 1, 0, 2),
            {
                "orthogonal/theta_3": "3 x f: got ",
                "states/theta": "theta_3: got ",
                "kd/extrema": "minimizer vs theta_3: got ",
            },
        ),
    ],
    ids=["basis", "theta_3"],
)
def test_a_wrong_published_constant_fails_its_checks(monkeypatch, capsys, forms, name, form, failing):
    monkeypatch.setitem(forms, name, form)
    results = verify.run_checks()
    assert len(results) == 31
    failed = {r.ident: r.detail for r in results if not r.ok}
    assert set(failed) == set(failing)
    for ident, prefix in failing.items():
        assert failed[ident].startswith(prefix), failed[ident]
        assert ", want 0.0" in failed[ident]

    assert cli.main(["verify"]) == 2
    out = capsys.readouterr().out
    for ident in failing:
        assert f"FAIL {ident}" in out
    assert out.strip().splitlines()[-1] == f"31 checks, {len(failing)} failed"

