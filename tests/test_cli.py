import json

import numpy as np
import pytest

from triwave import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_csv(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--model", "ho", "--a", "1",
                             "--parity", "even", "--levels", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,epsilon,nu,mu,epsilon_alt,oracle,rel_dev"
    eps = [float(line.split(",")[1]) for line in lines[1:]]
    assert eps == [1.0, 5.0, 9.0, 13.0]


def test_spectrum_hbar_omega(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--model", "ho", "--parity", "odd",
                           "--levels", "3", "--hbar-omega")
    eps = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert eps == [1.5, 3.5, 5.5]


def test_spectrum_determinism(capsys):
    args = ("spectrum", "--model", "rosen-morse", "--A", "1", "--B", "-2",
            "--levels", "3", "--format", "json", "--epoch", "0")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["meta"]["timestamp"] == 0
    row = doc["rows"][0]
    assert row[1] == pytest.approx(-0.25, rel=1e-12)
    assert row[4] == pytest.approx(-3.0625, rel=1e-12)  # reported alternative


def test_spectrum_invalid_parameters_exit_1(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--model", "morse", "--A", "-6",
                             "--B", "2", "--mu-scale", "2")
    assert code == 1
    assert "1/4" in err


@pytest.mark.parametrize("flags", [
    ("--model", "morse", "--A", "nan", "--B", "1", "--mu-scale", "2"),
    ("--model", "morse", "--A", "-3", "--B", "1", "--mu-scale", "inf"),
    ("--model", "rosen-morse", "--A", "inf", "--B", "-2"),
    ("--model", "ho", "--a", "nan"),
])
def test_spectrum_non_finite_parameters_exit_1(capsys, flags):
    code, out, err = run_cli(capsys, "spectrum", *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "not finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (("wavefunction", "--model", "ho", "--epsilon", "nan"), "--epsilon = nan"),
    (("spectrum", "--model", "ho", "--levels", "2", "--verify", "--tol", "nan"),
     "--tol = nan"),
    (("wavefunction", "--model", "ho", "--epsilon", "1", "--x-max", "inf"), "--x-max = inf"),
])
def test_non_finite_float_flags_exit_1(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: %s is not finite\n" % flag
    assert "Traceback" not in err


def test_spectrum_verify_exit_codes(capsys):
    base = ("spectrum", "--model", "rosen-morse", "--A", "1", "--B", "-2",
            "--levels", "1", "--verify")
    code, out, err = run_cli(capsys, *base)
    assert code == 0
    rel = float(out.strip().splitlines()[1].split(",")[6])
    assert rel < 1e-3
    code, out, err = run_cli(capsys, *base, "--tol", "1e-12")
    assert code == 2
    assert "verification failed" in err


def test_wavefunction_table(capsys):
    code, out, _ = run_cli(capsys, "wavefunction", "--model", "ho", "--a", "1",
                           "--epsilon", "1.0", "--x-min", "-5", "--x-max", "5",
                           "--samples", "101", "-N", "20")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,psi,tail_estimate,converged"
    assert len(lines) == 102
    mid = lines[51].split(",")
    assert float(mid[0]) == pytest.approx(0.0)
    assert mid[3] == "true"


def test_wavefunction_unconverged_flag(capsys):
    code, out, _ = run_cli(capsys, "wavefunction", "--model", "osc-inv-sq-super",
                           "--b", "-0.5", "--epsilon", "1.0", "--x-min", "0.2",
                           "--x-max", "4.0", "--samples", "41", "-N", "40")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert all(r[3] == "false" for r in rows)
    assert all(np.isfinite(float(r[1])) for r in rows)


def test_jmatrix_diagonal(capsys):
    code, out, _ = run_cli(capsys, "jmatrix", "--model", "ho", "--a", "1",
                           "--parity", "even", "--epsilon", "1", "--size", "4")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    diag = {int(r[0]): float(r[2]) for r in rows if r[0] == r[1]}
    assert [diag[n] for n in range(4)] == [0.0, 4.0, 8.0, 12.0]
    off = [float(r[2]) for r in rows if r[0] != r[1]]
    assert all(v == 0.0 for v in off)


def test_jmatrix_numeric_agreement(capsys):
    code, out, _ = run_cli(capsys, "jmatrix", "--model", "osc-inv-sq", "--a", "2",
                           "--b", "0.75", "--epsilon", "0.7", "--size", "6",
                           "--numeric")
    assert code == 0
    scale = 0.0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    vals = [(float(r[2]), float(r[3])) for r in rows]
    scale = max(abs(a) for a, _ in vals)
    assert all(abs(a - n) <= 1e-8 * scale for a, n in vals)


def test_jmatrix_numeric_largest_size(capsys):
    for model in (("--model", "ho"), ("--model", "osc-inv-sq", "--a", "2", "--b", "0.75")):
        code, out, _ = run_cli(capsys, "jmatrix", *model, "--epsilon", "0.7",
                               "--size", "64", "--numeric")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        analytic = np.array([float(r[2]) for r in rows])
        numeric = np.array([float(r[3]) for r in rows])
        assert np.max(np.abs(numeric - analytic)) <= 1e-8 * np.max(np.abs(numeric))


def test_jmatrix_size_limit(capsys):
    code, _, err = run_cli(capsys, "jmatrix", "--model", "ho", "--epsilon", "1",
                           "--size", "65")
    assert code == 1


def test_verify_fast_suites(capsys):
    for suite in ("tridiagonality", "orthogonality", "recursion-closed-form"):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--epoch", "0")
        assert code == 0, suite
        report = json.loads(out)
        assert report["passed"] is True
        assert all(c["pass"] for c in report["checks"])
        assert all(c["measured"] <= c["threshold"] for c in report["checks"])


def test_verify_negative_control(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "tridiagonality",
                           "--perturb-alpha", "0.1", "--epoch", "0")
    assert code == 2
    report = json.loads(out)
    assert not report["passed"]
    assert any(not c["pass"] for c in report["checks"])


def test_verify_report_determinism(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--suite", "recursion-closed-form",
                             "--epoch", "0")
    code2, out2, _ = run_cli(capsys, "verify", "--suite", "recursion-closed-form",
                             "--epoch", "0")
    assert out1 == out2


def test_verify_spectrum_oracle(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "spectrum-oracle",
                           "--epoch", "0")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"spectrum-oracle/ho-even", "spectrum-oracle/ho-odd",
            "spectrum-oracle/osc-inv-sq", "spectrum-oracle/morse",
            "spectrum-oracle/rosen-morse"} <= names


def test_help_documents_columns(capsys):
    with pytest.raises(SystemExit):
        cli.main(["spectrum", "--help"])
    out = capsys.readouterr().out
    assert "n,epsilon,nu,mu,epsilon_alt,oracle,rel_dev" in out
