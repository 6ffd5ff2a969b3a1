import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tripath
from tripath import cli, states

GOLDEN = Path(__file__).parent / "golden"

# Text output of the parent release, byte for byte (the CSV keeps csv's \r\n).
TEXT_GOLDENS = {
    "states.txt": ["states"],
    "kd_N_2.txt": ["kd", "--state", "N_2"],
    "kd_N_2.csv": ["kd", "--state", "N_2", "--csv"],
    "classify_3.txt": ["classify", "--state", "3"],
    "inequality_N_1.txt": ["inequality", "--state", "N_1"],
    "inequality_max.txt": ["inequality", "--max"],
    "basis.txt": ["basis"],
    "verify.txt": ["verify"],
}


def run_cli(*args, env=None, cwd=None):
    # the child imports the same tripath as the tests, installed or not
    env = dict(os.environ if env is None else env)
    package_root = str(Path(tripath.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "tripath", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=cwd)


def test_version():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "tripath 0.1.0"


def test_states_text():
    proc = run_cli("states")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 20
    assert lines[0].startswith("1")
    assert any(line.startswith("theta_D2") for line in lines)


def test_states_json():
    proc = run_cli("states", "--json")
    doc = json.loads(proc.stdout)
    assert len(doc["states"]) == 20
    by_name = {s["name"]: s for s in doc["states"]}
    assert by_name["N_f"]["components"] == pytest.approx([1 / math.sqrt(3)] * 3)
    assert by_name["theta_3"]["orthogonal_to"] == ["3", "f"]


def test_kd_json_golden():
    proc = run_cli("kd", "--state", "theta_3", "--json")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "kd_theta_3.json").read_text()


def test_classify_json_golden():
    proc = run_cli("classify", "--state", "N_2", "--json")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "classify_N_2.json").read_text()


def test_basis_json_golden():
    proc = run_cli("basis", "--json")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "basis.json").read_text()


def test_verify_json_golden():
    proc = run_cli("verify", "--json")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "verify.json").read_text()


@pytest.mark.parametrize("golden", sorted(TEXT_GOLDENS))
def test_text_golden(golden, capsys):
    assert cli.main(TEXT_GOLDENS[golden]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_bytes().decode("utf-8")


def test_kd_text_has_no_negative_zero(capsys):
    names = list(states.canonical_states()) + [b.name for b in states.joint_basis()]
    for name in names:
        assert cli.main(["kd", "--state", name]) == 0
        assert "-0.0000000000" not in capsys.readouterr().out, name


def test_kd_text_at_extreme_scale(capsys):
    assert cli.main(["kd", "--amplitudes", "1e308,1e308,1"]) == 0
    big = capsys.readouterr().out
    assert cli.main(["kd", "--amplitudes", "1,1,0"]) == 0
    assert big == capsys.readouterr().out


def test_kd_json_and_csv_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["kd", "--state", "N_2", "--json", "--csv"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument --json" in captured.err


def test_kd_csv():
    proc = run_cli("kd", "--state", "N_2", "--csv")
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert len(rows) == 2
    assert rows[0][0] == "state"
    assert rows[1][0] == "N_2"
    values = [float(x) for x in rows[1][1:]]
    assert values[6] == pytest.approx(6 / 11)  # rho(1,S2)


def test_kd_amplitudes_with_surds():
    proc = run_cli("kd", "--amplitudes", "1/√2,-1/√2,0")
    assert proc.returncode == 0
    assert "normalizing" not in proc.stderr
    line = next(l for l in proc.stdout.splitlines() if l.startswith("rho(S1,S2)"))
    assert float(line.split()[-1]) == pytest.approx(-0.125)


def test_classify_normalization_warning():
    proc = run_cli("classify", "--amplitudes", "3,1,1")
    assert proc.returncode == 0
    assert "normalizing" in proc.stderr
    assert "N" in proc.stdout
    assert "boundary yes" in proc.stdout


def test_classify_fraction_amplitudes():
    proc = run_cli("classify", "--amplitudes", "3/11,1/11,1/11", "--json")
    doc = json.loads(proc.stdout)
    assert doc["labels"] == ["B(1,S2)", "N", "V(1)", "V(S2)"]


def test_classify_ray_in_the_band_lists_both_sides():
    # 2e-9 off circle f: rho(1,f) and rho(f,3) fall within the default tol
    proc = run_cli("classify", "--amplitudes", "0.30304576452036375,0.5050762734308059,0.8081220344870681", "--json")
    doc = json.loads(proc.stdout)
    assert doc["boundary"] and doc["labels"] == ["B(S1,S2)", "T(S1,S2)"]


def test_inequality_state():
    proc = run_cli("inequality", "--state", "N_1", "--json")
    doc = json.loads(proc.stdout)
    assert doc["inner_sum"] == pytest.approx(9 / 11, abs=1e-12)
    assert doc["violation"] == pytest.approx(2 / 11, abs=1e-12)


def test_inequality_max():
    proc = run_cli("inequality", "--max", "--json")
    doc = json.loads(proc.stdout)
    assert doc["violation"] == pytest.approx(math.sqrt(11 / 12) - 0.5, abs=1e-9)
    assert doc["input_probabilities"]["1"] == pytest.approx(0.4676, abs=5e-4)


def test_inequality_requires_a_state():
    proc = run_cli("inequality")
    assert proc.returncode == 1
    assert "one of the arguments --state --amplitudes --max is required" in proc.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (["kd", "--state", "N_1", "--amplitudes", "1,0,0"], "--amplitudes: not allowed with argument --state"),
        (["inequality", "--max", "--state", "N_1"], "--state: not allowed with argument --max"),
    ],
)
def test_state_selectors_exclude_each_other(args, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_unknown_state_name():
    proc = run_cli("classify", "--state", "N_9")
    assert proc.returncode == 1
    assert "unknown state" in proc.stderr


def test_bad_amplitudes():
    proc = run_cli("kd", "--amplitudes", "1,2")
    assert proc.returncode == 1
    assert "three comma separated" in proc.stderr

    proc = run_cli("kd", "--amplitudes", "a,b,c")
    assert proc.returncode == 1

    proc = run_cli("kd", "--amplitudes", "0,0,0")
    assert proc.returncode == 1
    assert "zero vector" in proc.stderr


def test_amplitudes_at_extreme_scales():
    big = run_cli("kd", "--amplitudes", "1e308,1e308,1", "--json")
    unit = run_cli("kd", "--amplitudes", "1,1,0", "--json")
    assert big.returncode == 0 and unit.returncode == 0
    assert "Warning" not in big.stderr
    assert "normalizing" in big.stderr
    big_doc, unit_doc = json.loads(big.stdout), json.loads(unit.stdout)
    # the third amplitude is 1e-308 of the others: equal up to subnormal terms
    assert big_doc["state"] == pytest.approx(unit_doc["state"], rel=0, abs=1e-300)
    for got, want in zip(big_doc["values"], unit_doc["values"]):
        assert got["pair"] == want["pair"]
        assert got["value"] == pytest.approx(want["value"], rel=0, abs=1e-300)

    tiny = run_cli("classify", "--amplitudes", "1e-200,0,0")
    assert tiny.returncode == 0
    assert tiny.stdout == run_cli("classify", "--amplitudes", "1,0,0").stdout


def test_non_finite_amplitudes():
    for amplitudes in ("nan,1,1", "inf,1,1"):
        proc = run_cli("classify", "--amplitudes", amplitudes)
        assert proc.returncode == 1
        assert "non-finite" in proc.stderr


# Every token form of the benchmark's CLI session: a, a/b, √a, sqrt(a), each
# with and without a leading minus; the state lines are the parent release's.
@pytest.mark.parametrize(
    "amplitudes, norm, state",
    [
        ("3,4/7,0", "3.05393690378", "(+0.982338566, +0.187112108, +0.000000000)"),
        ("-2,√5,sqrt(3)", "3.46410161514", "(-0.577350269, +0.645497224, +0.500000000)"),
        ("9/4,-√2,-sqrt(8)", "3.88104367407", "(+0.579740964, -0.364390015, -0.728780030)"),
        ("-7/3,0,-1", "2.53859103529", "(-0.919145030, +0.000000000, -0.393919299)"),
    ],
)
def test_amplitude_token_forms(amplitudes, norm, state, capsys):
    assert cli.main(["kd", f"--amplitudes={amplitudes}"]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"note: normalizing amplitudes (norm was {norm})\n"
    assert captured.out.splitlines()[0] == f"state custom: {state}"


@pytest.mark.parametrize("amplitudes", ["1/2/3,1,0", "1e400,0,1"])
def test_malformed_amplitudes_fail_cleanly(amplitudes):
    # a second '/' is not a nested ratio, and an overflowing number is non-finite
    proc = run_cli("kd", f"--amplitudes={amplitudes}")
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("tripath: error:"), proc.stderr


def test_usage_errors_exit_1():
    assert run_cli().returncode == 1
    assert run_cli("frobnicate").returncode == 1
    assert run_cli("atlas", "--format", "gif").returncode == 1


def test_atlas_writes_files(tmp_path):
    out = tmp_path / "chart"
    proc = run_cli(
        "atlas", "--resolution", "64", "--format", "both", "--tables", "--out", str(out)
    )
    assert proc.returncode == 0
    names = {p.name for p in out.iterdir()}
    assert names == {
        "atlas.ppm", "atlas.svg",
        "probabilities.csv", "kd_values.csv", "inequality.csv", "labels.csv",
    }
    assert (out / "atlas.ppm").read_bytes().startswith(b"P6\n64 64\n255\n")
    assert (out / "atlas.svg").read_text().count("<polyline") == 10
    # a second run reproduces the raster byte for byte
    first = (out / "atlas.ppm").read_bytes()
    run_cli("atlas", "--resolution", "64", "--out", str(out))
    assert (out / "atlas.ppm").read_bytes() == first


def test_atlas_bad_input_leaves_no_directory(tmp_path):
    out = tmp_path / "newdir"
    proc = run_cli("atlas", "--resolution", "5", "--out", str(out))
    assert proc.returncode == 1
    assert "at least 16" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["raster", "vector", "both"])
@pytest.mark.parametrize(
    "args, message",
    [(["--resolution", "5"], "at least 16"), (["--tol", "-1"], "non-negative")],
)
def test_atlas_bad_input_fails_for_every_format(tmp_path, fmt, args, message):
    out = tmp_path / "newdir"
    proc = run_cli("atlas", "--format", fmt, *args, "--out", str(out))
    assert proc.returncode == 1
    assert message in proc.stderr
    assert not out.exists()


def test_atlas_outdir_env(tmp_path):
    env = dict(os.environ)
    env["TRIPATH_OUTDIR"] = str(tmp_path / "fromenv")
    proc = run_cli("atlas", "--resolution", "64", env=env)
    assert proc.returncode == 0
    assert (tmp_path / "fromenv" / "atlas.ppm").exists()


def test_verify_command():
    proc = run_cli("verify")
    assert proc.returncode == 0
    last = proc.stdout.strip().splitlines()[-1]
    assert last.endswith("0 failed")
    assert "FAIL" not in proc.stdout


def test_closed_stdout_ends_quietly(capsys, monkeypatch):
    # a pipe whose reader has gone: every write raises BrokenPipeError
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = os.fdopen(write_end, "w")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(["states"]) == 0
    stdout.close()  # as the interpreter's last flush would: nothing left to fail
    assert capsys.readouterr().err == ""
