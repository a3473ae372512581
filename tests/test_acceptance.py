"""Acceptance suite: one test per verification criterion.

Each test prints a PASS/FAIL line with the measured value and its
tolerance; `symlap verify` runs the same checks from the command line.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from symlap import forward, verify
from symlap.core import SLPoint, catalog_signal


def _run(criterion):
    result = criterion()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.id}: measured {result.measured:.3e} vs "
          f"tolerance {result.tolerance:.3e} ({result.worst_part})")
    assert result.passed, (
        f"{result.id}: {result.worst_part} measured {result.measured} "
        f"exceeds {result.tolerance}")


def test_c01_example1_grid():
    _run(verify.criterion_example1_grid)


def test_c02_examples_2_3_grid():
    _run(verify.criterion_examples_2_3_grid)


def test_c03_reductions():
    _run(verify.criterion_reductions)


def test_c04_kernel_witness():
    _run(verify.criterion_kernel_witness)


def test_c05_split_inversion():
    _run(verify.criterion_split_inversion)


def test_c06_numeric_inversion():
    _run(verify.criterion_numeric_inversion)


def test_c07_derivative_rules():
    _run(verify.criterion_derivative_rules)


def test_c08_heat_application():
    _run(verify.criterion_heat_application)


def test_c09_ode_application():
    _run(verify.criterion_ode_application)


def test_c10_determinism():
    _run(verify.criterion_determinism)


@pytest.mark.parametrize("threads", ["1", "4"])
def test_c10_verify_command_is_byte_identical_across_runs(threads):
    env = dict(os.environ, OMP_NUM_THREADS=threads)
    cmd = [sys.executable, "-m", "symlap", "verify"]
    first = subprocess.run(cmd, capture_output=True, text=True, env=env)
    second = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert first.returncode == 0, first.stderr
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout


def test_report_is_stable_json():
    text = verify.report_json()
    assert text == verify.report_json()


def test_suite_makes_one_grid_pass_per_damping_row(monkeypatch,
                                                  refined_ys):
    # machine-independent; point-by-point grid criteria made 406 calls,
    # 402 of them at a single y, and one call per damping row 182, 108
    # of them at a single point.  With the rows of a call run together
    # every set of points is one call per piece side; the Gaussian's
    # three Fourier points (6 calls) and the heat check's six pieces (12)
    # stay single points.  No y of the suite has its panels bisected
    sizes = []
    grid = forward.laplace_grid

    def counted(piece, bound, x, ys, tol, **kwargs):
        sizes.append(np.broadcast(x, ys, tol).size)
        return grid(piece, bound, x, ys, tol, **kwargs)

    monkeypatch.setattr(forward, "laplace_grid", counted)
    verify.run_all()
    assert len(sizes) == 48
    assert sizes.count(1) == 18
    assert refined_ys == []


_CRITERION_EVALUATIONS = {"criterion_example1_grid": 1860,
                          "criterion_examples_2_3_grid": 10540,
                          "criterion_reductions": 2604}


@pytest.mark.parametrize("name,gk15", [
    ("criterion_example1_grid", 4680),
    ("criterion_examples_2_3_grid", 26220),
    ("criterion_reductions", 5340)])
def test_grid_criteria_evaluation_counts_are_pinned(monkeypatch, name, gk15):
    # _CRITERION_EVALUATIONS, less than half of gk15, the counts with
    # 7/15 panels; point-by-point loops of those took 19260, 104760 and
    # 19920
    count = [0]

    def wrap(piece):
        def counted(u):
            count[0] += np.size(u)
            return piece(u)
        return counted

    def counted_signal(signal, **kwargs):
        f = catalog_signal(signal, **kwargs)
        return dataclasses.replace(f, pos=wrap(f.pos), neg=wrap(f.neg))

    monkeypatch.setattr(verify, "catalog_signal", counted_signal)
    assert getattr(verify, name)().passed
    assert count[0] == _CRITERION_EVALUATIONS[name]
    assert 2 * count[0] < gk15


@pytest.mark.parametrize("name,freq", [
    ("sign", 1.0), ("one", 1.0), ("sincos", 1.0), ("cossin", 1.0),
    ("sincos", 2.0), ("cossin", 2.0), ("heaviside", 1.0)])
def test_grid_rows_agree_with_single_points(name, freq):
    f = catalog_signal(name, freq=freq)
    for x in verify._GRID_X:
        values, estimates = forward.sl_forward_values(f, x, x,
                                                      verify._GRID_Y, 1e-9)
        for y, v, e in zip(verify._GRID_Y, values, estimates):
            p = forward.sl_forward(f, SLPoint(x, x, float(y)), 1e-9)
            assert abs(v - p.value) <= e + p.abs_error_estimate, (x, y)


def test_root_finding_horner_calls_are_pinned(monkeypatch):
    # machine-independent: the Horner evaluations made inside each
    # polynomial_roots call of one suite run.  Roots are found per
    # denominator factor, so no call runs to the iteration cap of
    # _ABERTH_ITERATIONS rounds (two evaluations each); the expanded ODE
    # denominator (s-1)(s^2+1)^2 alone used to take 1000.  16 of the 18
    # factors are linear and take their root without any evaluation,
    # where Aberth spent 7 on each (116 in all); 4 of the calls come from
    # the factors s and cs of "1/s - 1/cs", whose poles in y grade its
    # numeric inversion (inversion._poles)
    from symlap import expr, inversion

    counts = []
    inside = [False]
    horner = expr._horner
    roots = inversion.polynomial_roots

    def counted_horner(c, z):
        if inside[0]:
            counts[-1] += 1
        return horner(c, z)

    def counted_roots(p):
        counts.append(0)
        inside[0] = True
        try:
            return roots(p)
        finally:
            inside[0] = False

    monkeypatch.setattr(expr, "_horner", counted_horner)
    monkeypatch.setattr(inversion, "polynomial_roots", counted_roots)
    verify.run_all()
    assert len(counts) == 18
    assert sum(counts) == 32
    assert max(counts) == 16


@pytest.mark.parametrize("text, products", [
    ("0.57/(s+1.85) + 1.81/(cs+1.0)", 0),
    ("0.78/(s+1.75)^2 + -1.13/(cs+0.65)", 0),
    (verify.ODE_TRANSFORM_TEXT, 14)], ids=["simple", "squared", "ode"])
def test_polynomial_products_per_parse_are_pinned(monkeypatch, text,
                                                  products):
    # machine-independent: the polynomial products, by a polynomial or a
    # number, of one parse_transform after a warm-up parse, each one call
    # of the product helper expr._times.  A sum multiplies a numerator
    # only by the factors of the common denominator that its own
    # denominator lacks, so (s + a) takes none; when every sum convolved
    # with the polynomial 1 these took 4, 4 and 34
    from symlap import expr

    count = [0]
    times = expr._times

    def counted(a, b):
        count[0] += 1
        return times(a, b)

    expr.parse_transform(text)
    monkeypatch.setattr(expr, "_times", counted)
    expr.parse_transform(text)
    assert count[0] == products


@pytest.mark.parametrize("text, rationals, polynomials", [
    ("0.57/(s+1.85) + 1.81/(cs+1.0)", 8, 0),
    ("0.78/(s+1.75)^2 + -1.13/(cs+0.65)", 11, 0),
    (verify.ODE_TRANSFORM_TEXT, 40, 9)], ids=["simple", "squared", "ode"])
def test_algebra_objects_per_parse_are_pinned(monkeypatch, text, rationals,
                                              polynomials):
    # machine-independent: the RationalFunction values (each built by
    # one __init__ call) and the Polynomials one parse_transform builds,
    # after a warm-up parse.  A constant folds into the other side as it
    # is, a sum works on coefficient lists and a constant's numerator
    # needs no Polynomial.  A factor is its own coefficient tuple, so
    # the only Polynomials are the expanded numerators a sum writes over
    # a common denominator; when factors were Polynomials these took 2, 2
    # and 22, and when a fold rebuilt the constant and a sum built its
    # operands and result as Polynomials 10, 13 and 42 RationalFunction
    # values and 6, 6 and 33 Polynomials
    from symlap import expr

    count = {"rationals": 0, "polynomials": 0}
    build, init = expr.RationalFunction.__init__, expr.Polynomial.__init__

    def counted_build(self, *args):
        count["rationals"] += 1
        return build(self, *args)

    def counted_init(self, *args):
        count["polynomials"] += 1
        return init(self, *args)

    expr.parse_transform(text)
    monkeypatch.setattr(expr.RationalFunction, "__init__", counted_build)
    monkeypatch.setattr(expr.Polynomial, "__init__", counted_init)
    expr.parse_transform(text)
    assert count == {"rationals": rationals, "polynomials": polynomials}


def test_numeric_inversion_builds_no_expanded_polynomial():
    # evaluation goes by the factors; num and den, cached on first use,
    # serve only printing and the tests
    from symlap import expr, inversion

    st = expr.parse_transform("0.57/(s+1.85) + 1.81/(cs+1.0)^2")
    inversion.sl_inverse_numeric_pair(st, 0.5, 0.5, 1.0, 250.0, 1e-6)
    for g in (st.g1, st.g2):
        assert "num" not in vars(g) and "den" not in vars(g)
