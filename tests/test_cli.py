import argparse
import io
import json
import os
import runpy
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from triwave import cli
from triwave import models as md
from triwave import oracle as oc

import helpers


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


_MORSE = ("--model", "morse", "--A", "-6", "--B", "1")


@pytest.mark.parametrize("argv, name", [
    (("spectrum",) + _MORSE + ("--mu-scale", "1e300"), "mu_scale = 1e+300"),
    (("wavefunction",) + _MORSE + ("--mu-scale", "1e-300", "--epsilon", "-1"),
     "mu_scale = 1e-300"),
    (("jmatrix",) + _MORSE + ("--mu-scale", "2", "--epsilon", "-8000", "--numeric"),
     "weight ('laguerre', 176.885"),
    (("jmatrix", "--model", "ho", "--epsilon", "1", "--numeric", "--perturb-alpha", "100"),
     "weight ('laguerre', 198.5)"),
    (("jmatrix", "--model", "ho", "--epsilon", "1", "--numeric", "--perturb-alpha", "80"),
     "(m, n) = (6, 7) over weight ('laguerre', 159.5)"),
    (("jmatrix", "--model", "ho", "--epsilon", "1.3", "--numeric", "--perturb-alpha", "0.1",
      "--size", "2"), "weight ('laguerre', -0.3) diverges"),
], ids=["morse-mu-scale-huge", "morse-mu-scale-tiny", "morse-numeric-moment",
        "ho-numeric-moment", "ho-numeric-entry", "ho-numeric-divergent"])
def test_float_range_refusals_exit_1(capsys, argv, name):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert [w.message for w in caught] == []
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and name in err
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


@pytest.mark.parametrize("argv, message", [
    (("wavefunction", "--model", "ho", "--epsilon", "1", "--samples", "-1"),
     "--samples = -1 must be at least 1"),
    (("spectrum", "--model", "ho", "--levels", "0", "--verify"),
     "--levels = 0 must be at least 1"),
    (("spectrum", "--model", "ho", "--levels", "-2", "--verify"),
     "--levels = -2 must be at least 1"),
    (("spectrum", "--model", "ho", "--levels", "2", "--verify", "--tol", "-1"),
     "--tol = -1.0 must be positive"),
    (("spectrum", "--model", "ho", "--levels", "2", "--verify", "--tol", "0"),
     "--tol = 0.0 must be positive"),
    (("wavefunction", "--model", "ho", "--epsilon", "1", "--samples", "0"),
     "--samples = 0 must be at least 1"),
    (("wavefunction", "--model", "ho", "--epsilon", "1", "-N", "0"),
     "-N = 0 must be at least 1"),
    (("jmatrix", "--model", "ho", "--epsilon", "1", "--size", "0"),
     "--size = 0 must be between 1 and 64"),
])
def test_out_of_range_count_and_tolerance_flags_exit_1(capsys, argv, message):
    # a vacuous request (no levels, no samples) or a gate no result can pass
    # is an invalid request, not a pass (exit 0) or a failed check (exit 2)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: %s\n" % message


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


def test_spectrum_verify_json_reports_the_oracle_solve(capsys):
    # meta names the rows and passes of the grid solve behind the oracle
    # column; CSV output has no meta and stays as it was
    model = md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0)
    sol = oc.grid_solve(model.potential, *md.default_grid(model, 8))
    base = ("spectrum", "--model", "morse", "--A", "-6", "--B", "1", "--mu-scale", "2")
    code, out, _ = run_cli(capsys, *base, "--verify", "--format", "json", "--epoch", "0")
    assert code == 0
    assert json.loads(out)["meta"]["oracle"] == {"rows": sol.x.size, "passes": sol.passes}
    code, out, _ = run_cli(capsys, *base, "--format", "json", "--epoch", "0")
    assert code == 0
    assert "oracle" not in json.loads(out)["meta"]
    code, out, _ = run_cli(capsys, *base, "--verify")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,epsilon,nu,mu,epsilon_alt,oracle,rel_dev"
    assert len(lines) == 1 + 3


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


def test_wavefunction_on_the_diagonal_limit_exits_0(capsys):
    # a - 1 = 5e-13 lies in the diagonal limit that spectrum takes, so the
    # series is the delta series of a = 1, not a breakdown at n = 0
    argv = ("wavefunction", "--model", "ho", "--epsilon", "5", "--samples", "5")
    code, out, err = run_cli(capsys, *argv, "--a", "1.0000000000005")
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, *argv, "--a", "1")[1]


def test_wavefunction_rosen_morse_ground_level_is_even(capsys):
    # on the even well A = 0 the ground-level series ends at d_0, so psi is
    # even and converged
    code, out, err = run_cli(capsys, "wavefunction", "--model", "rosen-morse", "--A", "0",
                             "--B", "-2000", "--epsilon", "-1955.77584545237",
                             "--x-min", "-0.1", "--x-max", "0.1", "--samples", "3")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows[0][1] == rows[2][1]
    assert [row[3] for row in rows] == ["true"] * 3


@pytest.mark.parametrize("argv", [
    ("--model", "morse", "--A", "-6", "--B", "1", "--mu-scale", "2", "--epsilon", "-6.25",
     "--samples", "3", "--x-min", "-800", "--x-max", "0"),
    ("--model", "ho", "--epsilon", "1", "--samples", "3", "--x-min", "1e10"),
], ids=["morse", "ho"])
def test_wavefunction_overflow_exits_1(capsys, argv):
    with np.errstate(all="ignore"):
        code, out, err = run_cli(capsys, "wavefunction", *argv)
    assert code == 1
    assert out == ""
    assert "psi is not finite at x = " in err


def test_wavefunction_overflow_prints_only_the_error_line():
    # a fresh process with numpy's default error state: no RuntimeWarning
    # comes before the refusal
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "triwave", "wavefunction", "--model", "morse", "--A", "-6",
         "--B", "1", "--mu-scale", "2", "--epsilon", "-6.25", "--samples", "3",
         "--x-min", "-800", "--x-max", "0"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default"))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: psi is not finite at x = -800.0 (a basis function "
                           "overflows there); move x inward\n")


def test_closed_stdout_exits_1_without_traceback():
    # the reader closes the pipe before the child writes (triwave ... | head
    # with head gone): exit 1 and no BrokenPipeError traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "triwave", "spectrum", "--model", "ho"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=src))
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""  # no BrokenPipeError traceback


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["spectrum", "--model", "ho"],
    # more than one buffer: the write fails inside the command, not at the flush
    ["wavefunction", "--model", "ho", "--epsilon", "1", "--samples", "2000"],
    # argparse writes the help and exits; its own writer drops the error
    ["--help"],
    ["spectrum", "--help"],
], ids=["spectrum", "wavefunction-2000", "help", "spectrum-help"])
def test_full_stdout_exits_1_with_one_error_line(argv):
    # ENOSPC on stdout: one error line, and the flush at exit does not raise
    # again ("Exception ignored", exit 120)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "triwave"] + argv,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_wavefunction_non_finite_coefficients_still_print(capsys):
    # the recursion's own coefficients overflow to NaN here (the open series
    # defect); that output stays as it was, flagged unconverged
    with np.errstate(all="ignore"):
        code, out, _ = run_cli(capsys, "wavefunction", "--model", "osc-inv-sq", "--a", "2",
                               "--b", "0.75", "--epsilon", "0.7", "-N", "1000",
                               "--samples", "3", "--x-min", "0.05", "--x-max", "5.0")
    assert code == 0
    assert out.splitlines()[1:] == ["0.05,nan,nan,false", "2.525,nan,nan,false",
                                    "5,nan,nan,false"]


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


def test_spectrum_oracle_suite_reports_the_check_spectrum_worst(capsys):
    # the suite formats models.check_spectrum's record: its measured value
    # is the record's worst for every case
    code, out, _ = run_cli(capsys, "verify", "--suite", "spectrum-oracle", "--epoch", "0")
    assert code == 0
    measured = {c["name"]: c["measured"] for c in json.loads(out)["checks"]}
    assert measured == {"spectrum-oracle/" + name: md.check_spectrum(model, n_levels).worst
                        for name, model, n_levels in helpers.SPECTRUM_ORACLE_CASES}


def test_help_documents_columns(capsys):
    with pytest.raises(SystemExit):
        cli.main(["spectrum", "--help"])
    out = capsys.readouterr().out
    assert "n,epsilon,nu,mu,epsilon_alt,oracle,rel_dev" in out


@pytest.mark.parametrize("argv, message", [
    (("spectrum", "--model", "morse", "--B", "1", "--mu-scale", "2", "--A"),
     "argument --A: expected one argument"),
    (("spectrum", "--levels", "2"), "the following arguments are required: --model"),
])
def test_usage_errors_exit_1(capsys, argv, message):
    # exit 2 is reserved for a failed verification
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage: triwave spectrum")
    assert captured.err.endswith("triwave spectrum: error: %s\n" % message)


@pytest.mark.parametrize("token", ["-4.9e-05", "-2.5E-1", "-1e+00"])
def test_negative_exponent_values(capsys, token):
    code, out, err = run_cli(capsys, "wavefunction", "--model", "osc-inv-sq-super",
                             "--b", "-0.5", "--nu", "0.5", "--epsilon", token,
                             "--x-min", "0.1", "--samples", "3", "-N", "20",
                             "--format", "json", "--epoch", "0")
    assert code == 0, err
    assert json.loads(out)["meta"]["config"]["epsilon"] == float(token)


def test_negative_infinity_value_is_not_finite(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--model", "morse", "--A", "-inf",
                             "--B", "1", "--mu-scale", "2")
    assert code == 1
    assert out == ""
    assert err == "error: --A = -inf is not finite\n"


def test_python_dash_m(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["triwave", "spectrum", "--model", "ho",
                                      "--levels", "2"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("triwave", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == "n,epsilon,nu,mu,epsilon_alt,oracle,rel_dev\n" \
        "0,1,-0.5,,,,\n1,5,-0.5,,,,\n"


# ---------------------------------------------------------------------------
# The column-wise writer against the per-value reference
# ---------------------------------------------------------------------------

def _reference_csv(names, columns):
    """The table written row by row, one _fmt call per cell."""
    n_rows = max(len(c) for c in columns if np.ndim(c))
    rows = zip(*[c if np.ndim(c) else [c] * n_rows for c in columns])
    return ",".join(names) + "\n" + "".join(",".join(cli._fmt(v) for v in row) + "\n"
                                            for row in rows)


def _emitted(columns, fmt="csv"):
    out = io.StringIO()
    names = ["c%d" % i for i in range(len(columns))]
    cli._emit(names, columns, argparse.Namespace(format=fmt, epoch=0), out)
    return names, out.getvalue()


def test_writer_matches_per_value_reference():
    floats = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-300, -2.5e300,
                       0.1, -1.0 / 3.0, 12345678901234567.0, 5e-324])
    columns = [floats, np.arange(-5, 6), floats[::-1].copy(), 2.5e-11, True, None,
               [None, 1, -0.0, 2.0, np.float64(-0.0), False, np.int64(-3), 7, None, 3.5, 0],
               np.array([True, False] * 5 + [True])]
    names, text = _emitted(columns)
    assert text == _reference_csv(names, columns[:-1] + [columns[-1].tolist()])
    assert text.splitlines()[1] == "0,-5,4.94065645841247e-324,2.5e-11,true,,,true"
    assert text.splitlines()[2] == "0,-4,1.23456789012346e+16,2.5e-11,true,,1,false"


def test_writer_json_keeps_raw_values():
    names, text = _emitted([np.array([-0.0, 1.5]), np.array([3, 4]), None, False], "json")
    doc = json.loads(text)
    assert doc["columns"] == names
    assert doc["rows"] == [[-0.0, 3, None, False], [1.5, 4, None, False]]
    assert "-0.0" in text


def test_writer_empty_table():
    names, text = _emitted([[], [], None])
    assert text == "c0,c1,c2\n"


@pytest.mark.parametrize("argv", [
    ("spectrum", "--model", "rosen-morse", "--A", "1", "--B", "-2", "--levels", "3"),
    ("spectrum", "--model", "ho", "--levels", "2", "--verify"),
    ("jmatrix", "--model", "ho", "--epsilon", "1", "--size", "5"),
    ("jmatrix", "--model", "osc-inv-sq", "--a", "2", "--b", "0.75", "--epsilon", "0.7",
     "--size", "6", "--numeric"),
    ("wavefunction", "--model", "ho", "--a", "-1.5", "--parity", "odd", "--epsilon", "2.5",
     "--samples", "101", "-N", "60"),
])
def test_commands_write_the_per_value_table(capsys, monkeypatch, argv):
    seen = []
    emit = cli._emit

    def recording_emit(names, columns, *rest, **kw):
        seen.append((names, columns))
        return emit(names, columns, *rest, **kw)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    (names, columns), = seen
    assert out == _reference_csv(names, columns)


def test_jmatrix_csv_text(capsys):
    # the exact bytes: integer and float columns, and the empty numeric column
    code, out, _ = run_cli(capsys, "jmatrix", "--model", "ho", "--epsilon", "1",
                           "--size", "2")
    assert code == 0
    assert out == "m,n,analytic,numeric\n0,0,0,\n0,1,0,\n1,0,0,\n1,1,4,\n"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage: triwave" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ("spectrum", "--model", "ho"),
    ("wavefunction", "--model", "ho", "--epsilon", "1"),
    ("jmatrix", "--model", "ho", "--epsilon", "1"),
    ("verify", "--suite", "recursion-closed-form"),
])
def test_unwritable_output_exit_1(capsys, tmp_path, argv):
    path = str(tmp_path / "missing" / "out.txt")
    code, out, err = run_cli(capsys, *argv, "--output", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write --output %s: " % path)
    assert err.count("\n") == 1 and "Traceback" not in err


def test_output_file_holds_the_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    path.write_text("stale content " * 1000)
    code, out, _ = run_cli(capsys, "verify", "--suite", "recursion-closed-form",
                           "--epoch", "0", "--output", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["passed"] is True
    code, out, _ = run_cli(capsys, "spectrum", "--model", "ho", "--levels", "2",
                           "--output", str(path))
    assert code == 0 and out == ""
    assert path.read_text().splitlines()[0] == "n,epsilon,nu,mu,epsilon_alt,oracle,rel_dev"


def test_failed_command_leaves_the_output_file(capsys, tmp_path):
    path = tmp_path / "levels.csv"
    path.write_text("earlier run\n")
    code, _, err = run_cli(capsys, "spectrum", "--model", "morse", "--A", "-6", "--B", "2",
                           "--mu-scale", "2", "--output", str(path))
    assert code == 1 and "1/4" in err
    assert path.read_text() == "earlier run\n"
    # a file this run would have made is not left behind
    new = tmp_path / "new.csv"
    code, _, err = run_cli(capsys, "spectrum", "--model", "ho", "--a", "2", "--output", str(new))
    assert code == 1 and "a = 1" in err
    assert not new.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_output_to_a_fifo(capsys, tmp_path):
    # a FIFO has no content to empty: the report goes through unchanged
    fifo = tmp_path / "report"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    code, out, err = run_cli(capsys, "spectrum", "--model", "ho", "--levels", "2",
                             "--output", str(fifo))
    reader.join(timeout=60)
    assert (code, out, err) == (0, "", "")
    assert received == ["n,epsilon,nu,mu,epsilon_alt,oracle,rel_dev\n0,1,-0.5,,,,\n1,5,-0.5,,,,\n"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_output_write_error_exit_1(capsys):
    # the write fails at the flush on close (ENOSPC): one error line, no traceback
    code, out, err = run_cli(capsys, "spectrum", "--model", "ho", "--output", "/dev/full")
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write --output /dev/full: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_minus_branch_is_not_verifiable(capsys):
    # the grid imposes the regular x^(1/2+nu) wall behaviour, a different
    # problem from the minus branch: an unsupported request, not a failed check
    code, out, err = run_cli(capsys, "spectrum", "--model", "osc-inv-sq", "--b", "-0.1",
                             "--branch", "-", "--levels", "1", "--verify")
    assert code == 1
    assert err.startswith("error: ") and "minus branch" in err


@pytest.mark.parametrize("b", ["-0.2", "0.01", "0.3", "2.7", "10"])
def test_osc_inv_sq_verifies_across_the_coupling_range(capsys, b):
    code, out, err = run_cli(capsys, "spectrum", "--verify", "--model", "osc-inv-sq",
                             "--a", "1", "--b", b)
    assert code == 0, err
    rel = [float(line.split(",")[6]) for line in out.strip().splitlines()[1:]]
    assert len(rel) == 4 and max(rel) < 1e-5


def test_spectrum_off_the_diagonal_limit_names_a(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--model", "ho", "--a", "2")
    assert code == 1
    assert out == ""
    assert err == "error: the diagonal closed form needs a = 1 (got a = 2)\n"


_SUBCOMMANDS = ["spectrum", "wavefunction", "jmatrix", "verify"]


def test_only_the_named_subcommand_gets_its_flags(capsys, monkeypatch):
    def refuse(p):
        raise AssertionError("flags built for a subcommand that does not run")

    for name in _SUBCOMMANDS[1:]:
        monkeypatch.setattr(cli, "_add_%s_flags" % name, refuse)
    code, out, err = run_cli(capsys, "spectrum", "--model", "ho", "--levels", "2")
    assert code == 0, err
    assert out.splitlines()[0] == "n,epsilon,nu,mu,epsilon_alt,oracle,rel_dev"


@pytest.mark.parametrize("argv", [
    ("--help",), ("spectrum", "--help"), ("wavefunction", "--help"),
    ("jmatrix", "--help"), ("verify", "--help"), (), ("levels",),
    ("spectrum", "--levels", "2"), ("verify", "--suite", "bogus"),
])
def test_help_and_usage_errors_match_the_full_parser(capsys, argv):
    # the reference builds every subcommand's flags, as one full tree
    with pytest.raises(SystemExit) as want:
        cli._parser(_SUBCOMMANDS).parse_args(list(argv))
    want_out, want_err = capsys.readouterr()
    with pytest.raises(SystemExit) as got:
        cli.main(list(argv))
    assert got.value.code == want.value.code
    assert capsys.readouterr() == (want_out, want_err)


def test_value_token_named_like_a_subcommand(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "spectrum", "--model", "ho", "--levels", "2",
                             "--output", "verify")
    assert code == 0 and out == "", err
    assert (tmp_path / "verify").read_text().splitlines() == [
        "n,epsilon,nu,mu,epsilon_alt,oracle,rel_dev", "0,1,-0.5,,,,", "1,5,-0.5,,,,"]


@pytest.mark.parametrize("levels", ["8", "32"])
def test_spectrum_verify_deep_osc_inv_sq_levels(capsys, levels):
    # the default grid halves h until the Numerov step bound holds, so a
    # deep request verifies instead of asking for a smaller h
    code, out, err = run_cli(capsys, "spectrum", "--model", "osc-inv-sq", "--b", "0.75",
                             "--levels", levels, "--verify")
    assert code == 0, err
    assert len(out.strip().splitlines()) == int(levels) + 1


def test_spectrum_verify_rosen_morse_above_the_default_level_count(capsys):
    # the oracle grid is sized from the requested 9 levels, not from 8
    code, out, err = run_cli(capsys, "spectrum", "--model", "rosen-morse", "--A", "0.5",
                             "--B", "-200", "--levels", "9", "--verify")
    assert code in (1, 2)
    assert "ValueError" not in err and "broadcast" not in err
