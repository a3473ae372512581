import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symlap import errors
from symlap.cli import (forward_csv, grid_points, invert_csv,
                        invert_numeric_csv, main)
from symlap.core import CATALOG_NAMES, catalog_signal
from symlap.errors import DivergenceError
from symlap.forward import sl_forward_grid


def run_cli(*args: str, env=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "symlap", *args]
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(cmd, capture_output=True, text=True, env=full_env)


def test_help_exits_cleanly():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "forward" in cp.stdout and "verify" in cp.stdout


def test_forward_grid_rows_and_example1_value():
    cp = run_cli("forward", "--signal", "sign", "--x1", "1", "--x2", "1",
                 "--ymin", "-1", "--ymax", "1", "--steps", "2")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "y,re,im,err"
    assert len(lines) == 1 + 3  # header + steps+1 rows
    y, re, im, err = map(float, lines[-1].split(","))
    assert y == 1.0
    assert abs(re - 0.0) <= 1e-8 and abs(im - (-1.0)) <= 1e-8
    assert err >= 0.0


def test_forward_single_point_asymmetric():
    cp = run_cli("forward", "--signal", "one", "--x1", "2", "--x2", "3",
                 "--y", "1")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert len(lines) == 2
    _, re, im, _ = map(float, lines[1].split(","))
    assert abs(re - 0.7) <= 1e-8 and abs(im - (-0.1)) <= 1e-8


def test_forward_divergence_exits_4():
    cp = run_cli("forward", "--signal", "sign", "--x1", "0", "--x2", "1",
                 "--y", "0")
    assert cp.returncode == 4
    assert "half-line" in cp.stderr
    assert cp.stdout == ""


def test_forward_unknown_signal_exits_2():
    cp = run_cli("forward", "--signal", "nosuch", "--x1", "1", "--x2", "1",
                 "--y", "0")
    assert cp.returncode == 2
    assert "nosuch" in cp.stderr and "sign" in cp.stderr


def test_forward_usage_error_exits_2():
    cp = run_cli("forward", "--signal", "sign", "--x1", "1", "--x2", "1")
    assert cp.returncode == 2


@pytest.mark.parametrize("args,message", [
    (("forward", "--signal", "sign", "--x1", "1", "--x2", "1", "--y", "1",
      "--ymin", "0", "--ymax", "2"), "--y conflicts with --ymin/--ymax"),
    (("invert", "--expr", "1/s + 1/cs", "--t", "1", "--tmin", "0",
      "--tmax", "2"), "--t conflicts with --tmin/--tmax"),
    (("invert", "--expr", "1/s + 1/cs", "--t", "1", "--tmax", "2"),
     "--t conflicts with --tmin/--tmax")])
def test_point_and_grid_together_exit_2(args, message):
    cp = run_cli(*args)
    assert cp.returncode == 2
    assert cp.stdout == ""
    assert cp.stderr.strip().splitlines()[-1] == f"symlap: error: {message}"


@pytest.mark.parametrize("bad", [("--tol", "nan"), ("--tol", "0"),
                                 ("--y", "nan"), ("--x1", "inf")])
def test_forward_bad_number_exits_2_with_one_line(bad):
    args = {"--x1": "1", "--x2": "1", "--y": "0", "--tol": "1e-8"}
    args[bad[0]] = bad[1]
    cp = run_cli("forward", "--signal", "sign",
                 *(v for kv in args.items() for v in kv))
    assert cp.returncode == 2
    assert cp.stdout == ""
    assert cp.stderr.startswith("symlap: ")
    assert len(cp.stderr.strip().splitlines()) == 1


def test_invert_recovers_identity_signal():
    cp = run_cli("invert", "--expr", "1/s^2 - 1/cs^2",
                 "--tmin", "-3", "--tmax", "3", "--steps", "6")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "t,re,im"
    assert len(lines) == 8
    for row in lines[1:]:
        t, re, im = map(float, row.split(","))
        assert abs(re - t) <= 1e-12
        assert abs(im) <= 1e-12


def test_invert_sign_expression():
    cp = run_cli("invert", "--expr", "1/s - 1/cs",
                 "--tmin", "-1", "--tmax", "1", "--steps", "2")
    assert cp.returncode == 0, cp.stderr
    rows = [r.split(",") for r in cp.stdout.strip().splitlines()[1:]]
    assert [float(r[1]) for r in rows] == [-1.0, 1.0, 1.0]


def test_invert_mixed_term_exits_3():
    cp = run_cli("invert", "--expr", "1/(s*cs)", "--t", "1")
    assert cp.returncode == 3
    assert "position" in cp.stderr


def test_invert_syntax_error_exits_3_with_position():
    cp = run_cli("invert", "--expr", "1/s + * 2", "--t", "1")
    assert cp.returncode == 3
    assert "position 6" in cp.stderr


@pytest.mark.parametrize("expr,t,code", [
    ("1/s - 1/cs", "nan", 2), ("1/s - 1/cs", "inf", 2),
    ("1/s - 1/cs", "-inf", 2), ("1/(s-2)", "400", 5)])
def test_invert_bad_time_exits_with_one_line(expr, t, code):
    cp = run_cli("invert", "--expr", expr, f"--t={t}")
    assert cp.returncode == code
    assert cp.stdout == ""
    assert cp.stderr.startswith("symlap: ")
    assert len(cp.stderr.strip().splitlines()) == 1


def test_invert_decaying_term_at_large_time_is_zero():
    # exp(-800) underflows to 0 rather than overflowing
    cp = run_cli("invert", "--expr", "1/(s+1) - 1/cs", "--t", "800")
    assert cp.returncode == 0, cp.stderr
    t, re, im = map(float, cp.stdout.strip().splitlines()[1].split(","))
    assert (t, re, im) == (800.0, 0.0, 0.0)


def test_invert_repeated_decaying_pole_at_huge_time_is_zero():
    # t^2 overflows a float there, the decaying term does not
    cp = run_cli("invert", "--expr", "1/(s+2)^3", "--t", "1e200")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "t,re,im\n1e+200,0.0,0.0\n"


def test_invert_improper_exits_5():
    cp = run_cli("invert", "--expr", "s + 1/cs", "--t", "1")
    assert cp.returncode == 5
    assert "proper" in cp.stderr


@pytest.mark.parametrize("command,expr,code", [
    ("invert", "1/(s+1e400-1e400)", 3),
    ("invert", "(1e308*s+1e308*s)/(s+1)^2", 3),
    ("invert", "(1e-300*s+1e300)/(s+1)^2", 3),
    ("invert", "1/(s+1e400)", 3),
    ("invert", "1/(s+1e308*10)", 3),
    ("invert", "1e300*(s+1e10)/(s+1)^2", 5),
    ("invert", "(s+1e200)*(s+1e200)/(s+1)^3", 5),
    ("invert-numeric", "1/(s+1e400-1e400)", 3),
    ("invert-numeric", "(1e308*s+1e308*s)/(s+1)^2", 3),
    ("invert-numeric", "1/(s+1e400)", 3),
    ("invert-numeric", "1/(s+1e308*10)", 3),
    ("invert-numeric", "1e300*(s+1e10)/(s+1)^2", 5),
    ("invert-numeric", "(s+1e200)*(s+1e200)/(s+1)^3", 5)])
def test_non_finite_coefficients_exit_typed_without_a_warning(command, expr,
                                                              code):
    # a coefficient that is infinite or overflows in the parse is an
    # expression problem; an overflow in the decomposition, or of the
    # integrand on the line, a numeric one
    args = ["--expr", expr, "--t", "1"]
    if command == "invert-numeric":
        args += ["--x1", "0.5", "--x2", "0.5", "--A", "20"]
    cp = run_cli(command, *args,
                 env={"PYTHONWARNINGS": "error::RuntimeWarning"})
    assert cp.returncode == code
    assert cp.stdout == ""
    assert cp.stderr.startswith("symlap: ")
    assert len(cp.stderr.strip().splitlines()) == 1


_DEEP = "(" * 300 + "s" + ")" * 300


@pytest.mark.parametrize("args,code,value", [
    (("invert", "--expr", _DEEP, "--t", "1"), 3,
     "parentheses nested deeper than 100 (at position 100)"),
    (("invert", "--expr=" + "-" * 2001 + "1/s", "--t", "1"), 0, -1.0),
    (("forward", "--signal", "sign", "--x1", "1e-300", "--x2", "1e-300",
      "--y", "1"), 5, "budget cannot resolve"),
    (("forward", "--signal", "sign", "--x1", "5e-324", "--x2", "1",
      "--y", "1"), 5, "truncation point overflows"),
    (("forward", "--signal", "ramp", "--x1", "1e-200", "--x2", "1e-200",
      "--y", "1", "--tol", "1e-200"), 5, "budget cannot resolve"),
    (("invert-numeric", "--expr", "1/(s+1)+1/(cs+2)", "--x1", "1", "--x2",
      "1", "--t", "0.5", "--tol", "1e-300"), 5,
     "refinement budget exhausted"),
    (("invert", "--expr", "1/(s^64*s^64*s^43)", "--t", "100"), 0,
     1.3779009677917705867e33),
    (("invert", "--expr", "1/(s^64*s^36)", "--t", "2000"), 0,
     6.7915032994648558611e170),
    (("invert", "--expr", "1/((s+1)^64)^4", "--t", "1"), 0, 0.0),
    (("invert", "--expr", "1/((s+1)^64)^4", "--t", "300"), 0,
     7.1190215334774511860e-4),
    (("invert", "--expr", "1/(s-5)^50", "--t", "100"), 0,
     2.3074701069400386e252),
    (("invert", "--expr", "1e-10/(s-2)^3", "--t", "360"), 0,
     3.1886142028109527e307),
    (("invert", "--expr", "1/(s-1)", "--t", "705"), 0,
     1.5052538330631941e306),
    (("invert", "--expr", "1e300/(s-1)", "--t", "600"), 5,
     "overflows for pole (1+0j) at t=600.0"),
    (("invert", "--expr", "1/(s-1) + 1/(s-1.0000001)", "--t", "709.5"), 5,
     "the sum of the terms overflows at t=709.5"),
    (("invert", "--expr", "1/((s+1)^64)^16", "--t", "1"), 5,
     "failed validation"),
    (("invert", "--expr", "(s+1)^64*(s+1)^64/(s+2)^3", "--t", "1"), 5,
     "is not strictly proper"),
    (("invert-numeric", "--expr", "1/((s+1)^64)^4", "--x1", "-1", "--x2",
      "1", "--t", "1", "--A", "10"), 5, "evaluation at a pole")],
    ids=["deep-parentheses", "long-sign-run", "forward-x-1e-300",
         "forward-x-5e-324", "forward-ramp-tol-1e-200",
         "invert-numeric-tol-1e-300", "invert-s^171", "invert-s^100",
         "invert-(s+1)^256-t1", "invert-(s+1)^256-t300",
         "invert-(s-5)^50-t100", "invert-1e-10-(s-2)^3-t360",
         "invert-(s-1)-t705", "invert-1e300-(s-1)-t600",
         "invert-sum-overflow-t709.5", "invert-(s+1)^1024-t1",
         "invert-(s+1)^128-over-(s+2)^3", "invert-numeric-at-a-pole"])
def test_edge_inputs_exit_typed_or_print_their_value(args, code, value):
    # nesting past Python's recursion limit, damping or tolerance past
    # float range and table terms past the factorial's or past float
    # range on the way: a traceback, an error that named no cause, a
    # false overflow or inf,nan before; error lines of hundreds of
    # digits or the whole expanded polynomial.  An error row gives the
    # cause its message names in one short line, a value row its value
    # by mpmath
    cp = run_cli(*args, env={"PYTHONWARNINGS": "error::RuntimeWarning"})
    assert cp.returncode == code, cp.stderr
    assert "Traceback" not in cp.stderr
    if code:
        assert cp.stdout == ""
        assert cp.stderr.startswith("symlap: ") and value in cp.stderr
        assert len(cp.stderr.strip().splitlines()) == 1
        assert len(cp.stderr.encode()) <= 300, len(cp.stderr.encode())
        return
    assert cp.stderr == ""
    header, row = cp.stdout.splitlines()
    assert header == "t,re,im"
    _, re, im = map(float, row.split(","))
    assert re == pytest.approx(value, rel=1e-12, abs=0.0) and im == 0.0


def test_invert_numeric_single_line():
    cp = run_cli("invert-numeric", "--expr", "1/s - 1/cs", "--x1", "1",
                 "--x2", "1", "--t", "1", "--A", "1000", "--tol", "1e-6")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "t,re,im,a_sensitivity"
    t, re, im, sens = map(float, lines[1].split(","))
    assert t == 1.0
    assert abs(re - 1.0) <= 1e-2
    assert abs(im) <= 1e-6
    assert 0.0 <= sens <= 1e-2


def test_invert_numeric_midpoint():
    cp = run_cli("invert-numeric", "--expr", "1/s - 1/cs", "--x1", "1",
                 "--x2", "1", "--t", "0", "--A", "1000", "--tol", "1e-6")
    _, re, im, _ = map(float, cp.stdout.strip().splitlines()[1].split(","))
    assert abs(re) <= 5e-3


@pytest.mark.parametrize("expr", ["1/s - 1/cs", "(1+i)*(1-i)/(s+2)^2",
                                  "0.57/(s+1.85) + 1.81/(cs+1.0)"])
def test_invert_numeric_of_a_real_expression_prints_a_zero_im(expr):
    # real coefficients: a real signal, integrated over [0, A] as 2*Re
    cp = run_cli("invert-numeric", "--expr", expr, "--x1", "0.5", "--x2",
                 "0.5", "--t", "-1.5", "--A", "250")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.splitlines()[1].split(",")[2] == "0.0"


@pytest.mark.parametrize("t", [-2.0, -0.5, 0.5, 1.5, 3.0])
@pytest.mark.parametrize("A", [250.0, 1000.0])
def test_invert_numeric_of_a_complex_expression(t, A):
    # f = (1+i)exp(-t) for t > 0 and -exp(2t) for t < 0: the real and
    # imaginary parts come from the transforms of Re f and Im f.
    # Truncation: |J|/(pi*A*|t|) for the jump J = 2 + i at 0, plus at
    # most 4/(pi*A) from the 1/y^2 remainder, times the prefactor
    x1, x2 = 0.4, 0.5
    row = invert_numeric_csv("(1+i)/(s+1) - 1/(cs+2)", x1, x2, t, A, 1e-8)
    _, re, im, _ = map(float, row.splitlines()[1].split(","))
    f = (1 + 1j) * math.exp(-t) if t > 0 else -math.exp(2.0 * t)
    allow = ((abs(2 + 1j) / abs(t) + 4.0) * math.exp(max(x1 * t, -x2 * t))
             / (math.pi * A))
    assert abs(re - f.real) <= allow
    assert abs(im - f.imag) <= allow


@pytest.mark.parametrize("bad,code", [
    (("--tol", "nan"), 2), (("--tol", "0"), 2), (("--A", "-5"), 2),
    (("--A", "inf"), 2), (("--t", "nan"), 2), (("--x2", "inf"), 2),
    (("--expr", "1/s + * 2"), 3), (("--t", "1000"), 5)])
def test_invert_numeric_bad_input_exits_with_one_line(bad, code):
    args = {"--expr": "1/s - 1/cs", "--x1": "1", "--x2": "1", "--t": "1",
            "--A": "100", "--tol": "1e-6"}
    args[bad[0]] = bad[1]
    cp = run_cli("invert-numeric", *(v for kv in args.items() for v in kv))
    assert cp.returncode == code
    assert cp.stdout == ""
    assert cp.stderr.startswith("symlap: ")
    assert len(cp.stderr.strip().splitlines()) == 1


def test_out_flag_writes_file(tmp_path: Path):
    out = tmp_path / "grid.csv"
    cp = run_cli("forward", "--signal", "one", "--x1", "2", "--x2", "3",
                 "--y", "1", "--out", str(out))
    assert cp.returncode == 0
    assert out.read_text().startswith("y,re,im,err\n")


@pytest.mark.parametrize("argv,text", [
    (("forward", "--signal", "sincos", "--x1", "2", "--x2", "3", "--ymin",
      "-1", "--ymax", "1", "--steps", "3", "--freq", "2"),
     lambda: forward_csv("sincos", 2.0, 3.0, grid_points(-1.0, 1.0, 3),
                         1e-8, freq=2.0)),
    (("invert", "--expr", "1/s - 1/cs", "--tmin", "-1", "--tmax", "2",
      "--steps", "3"),
     lambda: invert_csv("1/s - 1/cs", grid_points(-1.0, 2.0, 3))),
    (("invert-numeric", "--expr", "1/(s+1) - 1/cs", "--x1", "1", "--x2",
      "1", "--t", "0.5", "--A", "100"),
     lambda: invert_numeric_csv("1/(s+1) - 1/cs", 1.0, 1.0, 0.5, 100.0,
                                1e-8))])
def test_out_writes_the_csv_text_and_nothing_to_stdout(argv, text, tmp_path,
                                                       capsys):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_text() == text()


def test_verify_out_writes_the_report_to_stdout_and_the_file(tmp_path,
                                                              capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed
    assert json.loads(printed)["all_pass"] is True


@pytest.mark.parametrize("argv", [
    ("forward", "--signal", "sign", "--x1", "1", "--x2", "1", "--y", "0"),
    ("invert", "--expr", "1/s - 1/cs", "--t", "1"),
    ("invert-numeric", "--expr", "1/s - 1/cs", "--x1", "1", "--x2", "1",
     "--t", "1", "--A", "20"),
    ("verify",)])
def test_out_that_cannot_be_opened_exits_2_with_one_line(argv, tmp_path):
    # a directory that does not exist: one symlap line on stderr and no
    # traceback; verify has written its report to stdout before
    out = tmp_path / "missing" / "x.csv"
    cp = run_cli(*argv, "--out", str(out))
    assert cp.returncode == 2
    assert cp.stderr.startswith("symlap: ") and str(out) in cp.stderr
    assert len(cp.stderr.splitlines()) == 1
    if argv[0] == "verify":
        assert json.loads(cp.stdout)["all_pass"] is True
    else:
        assert cp.stdout == ""
    assert not out.exists()


def test_unwritable_out_after_a_failed_criterion_exits_2(tmp_path,
                                                         monkeypatch, capsys):
    # the report with its failed criterion is on stdout; the file it was
    # also asked for is not, which the exit code says
    from symlap import verify

    failed = verify.CriterionResult("C1", False, 2.0, 1.0, "part")
    out = tmp_path / "missing" / "report.json"
    monkeypatch.setattr(verify, "run_all", lambda: [failed])
    assert main(["verify", "--out", str(out)]) == 2
    printed, err = capsys.readouterr()
    assert json.loads(printed)["all_pass"] is False
    assert err.startswith("symlap: ") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("error,code", [
    (errors.CatalogError("no signal 'x'"), 2),
    (errors.ParseError("unexpected '*'", 6), 3),
    (errors.SplitError("mixed term"), 3),
    (errors.ExprError("bad expression"), 3),
    (errors.DivergenceError("half-line diverges"), 4),
    (errors.AccuracyError("budget ran out"), 5),
    (errors.PropernessError("not proper"), 5),
    (errors.PoleError("on a pole"), 5),
    (errors.RootFindingError("no convergence"), 5),
    (errors.ExpOverflowError("exp overflows"), 5),
    (OverflowError("overflow"), 5),
    (ValueError("tol must be positive"), 2),
    (errors.SymLapError("untyped"), None),
    (BrokenPipeError(32, "Broken pipe"), None),  # not an --out problem
    (ZeroDivisionError("division by zero"), None)])
def test_exit_code_of_each_error_type(error, code, monkeypatch, capsys):
    # the first row of the table that matches wins; no row, no catch
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("symlap.cli.forward_csv", fail)
    argv = ["forward", "--signal", "one", "--x1", "1", "--x2", "1", "--y",
            "0"]
    if code is None:
        with pytest.raises(type(error)):
            main(argv)
        assert capsys.readouterr() == ("", "")
        return
    assert main(argv) == code
    assert capsys.readouterr() == ("", f"symlap: {error}\n")


def test_verify_json_schema_and_exit_code():
    cp = run_cli("verify")
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(cp.stdout)  # must be strict-parseable
    ids = [entry["id"] for entry in doc["criteria"]]
    assert "example1_grid" in ids
    assert len(ids) == 10
    for entry in doc["criteria"]:
        assert set(entry) == {"id", "status", "measured", "tolerance"}
        assert entry["status"] in ("pass", "fail")
    assert doc["all_pass"] is True


@pytest.mark.parametrize("args", [
    ("forward", "--signal", "sincos", "--freq", "2", "--x1", "1",
     "--x2", "1", "--ymin", "-2", "--ymax", "2", "--steps", "7"),
    ("invert", "--expr", "1/s + 1/cs", "--tmin", "-2", "--tmax", "2",
     "--steps", "5"),
    ("invert-numeric", "--expr", "1/s - 1/cs", "--x1", "1", "--x2", "1",
     "--t", "0.5", "--A", "500", "--tol", "1e-6"),
])
def test_byte_identical_across_runs_and_thread_counts(args):
    first = run_cli(*args, env={"OMP_NUM_THREADS": "1"})
    second = run_cli(*args, env={"OMP_NUM_THREADS": "4"})
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_forward_grid_is_byte_identical_across_blas_thread_counts(
        monkeypatch):
    # every BLAS product of the forward pass stays below the size at which
    # OpenBLAS splits it over threads, so no thread count, the default
    # included, can change a sum; the 401-point grid takes the node
    # products through several row chunks
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    args = ("forward", "--signal", "sincos", "--x1", "0.5", "--x2", "1",
            "--ymin", "-59", "--ymax", "59", "--steps", "400")
    default = run_cli(*args)
    assert default.returncode == 0, default.stderr
    assert len(default.stdout.splitlines()) == 402
    for threads in ("1", "2", "4"):
        cp = run_cli(*args, env={"OPENBLAS_NUM_THREADS": threads})
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == default.stdout, threads


def _blas_name() -> str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        return ""
    return config.get("Build Dependencies", {}).get("blas", {}).get("name", "")


# Runs the 401-point sincos grid, a sign grid with y = 1e4 (whose second
# pass has 38,071 panels) and a cos(40 t) grid whose every y is bisected
# from its own panels 10 times and prints the CPU clock ticks
# (utime + stime) that every thread but the main one spent meanwhile,
# then the same for a complex product that OpenBLAS does split over
# threads, to show that helper threads are there to be seen.  OpenBLAS's
# helper threads spin for a while after they start, so the count starts
# once they have gone to sleep.
_HELPER_TICKS = """
import os
import time
import numpy as np
from symlap import ExponentialOrderBound, PiecewiseSignal, sl_forward_grid
from symlap.cli import forward_csv, grid_points

def helper_ticks():
    total = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == os.getpid():
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total

def settled_ticks():
    last = helper_ticks()
    for _ in range(100):
        time.sleep(0.2)
        now = helper_ticks()
        if now == last:
            break
        last = now
    return now

# cos(40 t) without an osc_hint: every y is refined by bisection
fast = PiecewiseSignal(
    "fast", lambda t: np.cos(40.0 * t), lambda t: np.zeros_like(t),
    ExponentialOrderBound(1.0, 0.0), ExponentialOrderBound(1.0, 0.0))
fast_ys = [-1.0, -0.5, 0.0, 0.5, 1.0]
ys = grid_points(-59.0, 59.0, 400)
forward_csv("sincos", 0.5, 1.0, ys, 1e-8)
forward_csv("sign", 1.0, 1.0, [0.5, 1e4], 1e-8)
sl_forward_grid(fast, 1.0, 2.0, fast_ys, 1e-8)
before = settled_ticks()
for _ in range(10):
    forward_csv("sincos", 0.5, 1.0, ys, 1e-8)
    forward_csv("sign", 1.0, 1.0, [0.5, 1e4], 1e-8)
    sl_forward_grid(fast, 1.0, 2.0, fast_ys, 1e-8)
grid = helper_ticks() - before
a = np.ones((400, 400)) * (1.0 + 1.0j)
before = helper_ticks()
for _ in range(10):
    a @ a
print(grid, helper_ticks() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="needs Linux per-thread CPU times")
def test_forward_grid_leaves_blas_helper_threads_idle():
    if "openblas" not in _blas_name().lower():
        pytest.skip("numpy is not built on OpenBLAS")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    cp = subprocess.run([sys.executable, "-c", _HELPER_TICKS],
                        capture_output=True, text=True, env=env)
    assert cp.returncode == 0, cp.stderr
    grid, control = map(int, cp.stdout.split())
    if control == 0:
        pytest.skip("OpenBLAS runs no helper threads here")
    assert grid == 0


_ROW_GRIDS = {
    "single": [0.75],
    "negative zero": [-0.0],
    "mirrored": [-3.0, -1.5, -0.0, 0.0, 1.5, 3.0],
    "unsorted": [2.5, -7.0, 0.1, 41.0, -0.3],
    "repeating": [1.0, 1.0, -2.0, 1.0, -2.0],
    "wide": grid_points(-59.0, 59.0, 100),
}


def _csv_from_samples(signal, x1, x2, ys, tol, freq=1.0):
    # one TransformSample per row, formatted field by field
    lines = ["y,re,im,err"]
    for sample in sl_forward_grid(catalog_signal(signal, freq=freq), x1, x2,
                                  ys, tol):
        lines.append(f"{float(sample.point.y)!r},{sample.value.real!r},"
                     f"{sample.value.imag!r},{sample.abs_error_estimate!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("grid", _ROW_GRIDS)
@pytest.mark.parametrize("signal", CATALOG_NAMES)
def test_forward_csv_writes_the_sample_rows(signal, grid):
    ys = _ROW_GRIDS[grid]
    text = forward_csv(signal, 2.0, 1.25, ys, 1e-8, freq=2.0)
    assert text == _csv_from_samples(signal, 2.0, 1.25, ys, 1e-8, freq=2.0)
    assert len(text.splitlines()) == len(ys) + 1


@pytest.mark.parametrize("x1,x2,ys,error,argv,code", [
    (1.0, 1.0, [0.5, math.nan], ValueError, ("--y", "nan"), 2),
    (1.0, 1.0, [math.inf], ValueError, ("--y", "inf"), 2),
    (0.0, 1.0, [0.0, 1.0], DivergenceError, ("--x1", "0", "--y", "0"), 4),
    (1.0, -0.5, [2.0], DivergenceError, ("--x2", "-0.5", "--y", "2"), 4),
])
def test_forward_csv_raises_what_the_samples_raise(x1, x2, ys, error, argv,
                                                   code, capsys):
    with pytest.raises(error) as by_rows:
        sl_forward_grid(catalog_signal("sign"), x1, x2, ys, 1e-8)
    with pytest.raises(error) as by_columns:
        forward_csv("sign", x1, x2, ys, 1e-8)
    assert str(by_columns.value) == str(by_rows.value)
    args = {"--x1": "1", "--x2": "1"}
    args.update(zip(argv[::2], argv[1::2]))
    assert main(["forward", "--signal", "sign",
                 *(v for kv in args.items() for v in kv)]) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("symlap: ")
