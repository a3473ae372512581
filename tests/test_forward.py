import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from _oracles import simpson
from symlap import quadrature
from symlap.core import (
    CATALOG_NAMES,
    ExponentialOrderBound,
    PiecewiseSignal,
    SLPoint,
    catalog_signal,
)
from symlap.errors import AccuracyError, DivergenceError
from symlap.forward import one_sided_values, sl_forward, sl_forward_values

SQRT_PI = math.sqrt(math.pi)


def test_sign_at_unit_point():
    r = sl_forward(catalog_signal("sign"), SLPoint(1.0, 1.0, 1.0), 1e-9)
    assert abs(r.value - (-1j)) <= 1e-9
    assert r.abs_error_estimate <= 1e-9


def test_one_at_asymmetric_point():
    # 1/(2+i) + 1/(3-i) = 0.7 - 0.1i
    r = sl_forward(catalog_signal("one"), SLPoint(2.0, 3.0, 1.0), 1e-9)
    assert abs(r.value - (0.7 - 0.1j)) <= 1e-9


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_ramp_vanishes_for_real_argument(x):
    r = sl_forward(catalog_signal("ramp"), SLPoint(x, x, 0.0), 1e-10)
    assert abs(r.value) <= 1e-9


def test_sincos_unit_point():
    r = sl_forward(catalog_signal("sincos"), SLPoint(1.0, 1.0, 0.0), 1e-9)
    assert abs(r.value - 1.0) <= 1e-9


def test_equal_damping_examples():
    # x1 = x2 = Re s, y = Im s: the Laplace reduction's point
    assert abs(sl_forward(catalog_signal("sign"), SLPoint(1.0, 1.0, 1.0),
                          1e-9).value - (-1j)) <= 1e-9
    assert abs(sl_forward(catalog_signal("heaviside"),
                          SLPoint(2.0, 2.0, 0.0), 1e-9).value - 0.5) <= 1e-9
    assert abs(sl_forward(catalog_signal("one"), SLPoint(1.0, 1.0, 0.0),
                          1e-9).value - 2.0) <= 1e-9


def test_fourier_gauss_at_zero():
    r = sl_forward(catalog_signal("gauss"), SLPoint(0.0, 0.0, 0.0), 1e-9)
    assert abs(r.value - SQRT_PI) <= 1e-9


def test_fourier_gauss_pair_and_simpson_oracle():
    r = sl_forward(catalog_signal("gauss"), SLPoint(0.0, 0.0, 2.0), 1e-9)
    closed = SQRT_PI * math.exp(-1.0)
    oracle = simpson(lambda t: np.exp(-t * t) * np.cos(2.0 * t),
                     -8.0, 8.0, 2 ** 15)
    assert abs(r.value - closed) <= 1e-9
    assert abs(r.value - oracle) <= 1e-9


def test_fourier_rejects_non_integrable():
    # at x1 = x2 = 0 only decaying envelopes or a tail_cut certify f
    with pytest.raises(DivergenceError, match="tail_cut"):
        sl_forward(catalog_signal("one"), SLPoint(0.0, 0.0, 1.0), 1e-8)


def test_divergence_error_names_the_side():
    with pytest.raises(DivergenceError, match="positive"):
        sl_forward(catalog_signal("sign"), SLPoint(0.0, 1.0, 0.0), 1e-8)
    with pytest.raises(DivergenceError, match="negative"):
        sl_forward(catalog_signal("sign"), SLPoint(1.0, 0.0, 0.0), 1e-8)
    with pytest.raises(DivergenceError, match="positive"):
        sl_forward(catalog_signal("ode_rhs"), SLPoint(1.0, 1.0, 0.0), 1e-8)


def test_linearity_over_signal_combinations():
    rng = np.random.default_rng(3)
    p = SLPoint(1.5, 2.0, 0.7)
    f = catalog_signal("sign")
    g = catalog_signal("sincos")
    rf = sl_forward(f, p, 1e-9)
    rg = sl_forward(g, p, 1e-9)
    for _ in range(5):
        a, b = rng.standard_normal(2)
        combo = PiecewiseSignal(
            "combo",
            lambda t, a=a, b=b: a * f.pos(t) + b * g.pos(t),
            lambda t, a=a, b=b: a * f.neg(t) + b * g.neg(t),
            ExponentialOrderBound(abs(a) + abs(b), 0.0),
            ExponentialOrderBound(abs(a) + abs(b), 0.0),
            osc_hint=1.0)
        rc = sl_forward(combo, p, 1e-9)
        budget = rc.abs_error_estimate + abs(a) * rf.abs_error_estimate \
            + abs(b) * rg.abs_error_estimate
        assert abs(rc.value - (a * rf.value + b * rg.value)) <= budget + 1e-14


@pytest.mark.parametrize("name", ["sign", "one", "heaviside", "sincos",
                                  "cossin", "gauss"])
def test_conjugate_symmetry_for_real_signals(name):
    f = catalog_signal(name)
    tol = 1e-9
    for x1, x2 in ((1.0, 1.0), (2.0, 0.5)):
        for y in (0.5, 1.0, 3.0):
            plus = sl_forward(f, SLPoint(x1, x2, y), tol).value
            minus = sl_forward(f, SLPoint(x1, x2, -y), tol).value
            assert abs(minus - plus.conjugate()) <= 2 * tol


def test_laplace_reduction_on_one_sided_decay():
    # exp(-t) restricted to t >= 0 transforms to 1/(s+1)
    f = PiecewiseSignal(
        "expdecay", lambda t: np.exp(-t), lambda t: np.zeros_like(t),
        ExponentialOrderBound(1.0, -1.0), ExponentialOrderBound(1.0, 0.0))
    for s in (0.5 + 0j, 1.0 + 1j, 2.0 - 3j):
        r = sl_forward(f, SLPoint(s.real, s.real, s.imag), 1e-9)
        assert abs(r.value - 1.0 / (s + 1.0)) <= 1e-9


def test_example_closed_forms_on_grid():
    # the acceptance suite runs the full 5x5 grid; spot-check corners here
    sign = catalog_signal("sign")
    for x, y in ((0.5, 5.0), (8.0, -1.0)):
        num = sl_forward(sign, SLPoint(x, x, y), 1e-9).value
        closed = 1.0 / (x + 1j * y) + 1.0 / (-x + 1j * y)
        assert abs(num - closed) <= 1e-8


def closed_form(name, x1, x2, y, freq=1.0):
    """Transform of a catalog signal from the one-sided Laplace table:
    L[pos](x1 + iy) plus L[neg(-u)](x2 - iy)."""
    s1 = x1 + 1j * np.asarray(y, dtype=float)
    s2 = x2 - 1j * np.asarray(y, dtype=float)
    w2 = freq * freq
    if name == "sign":
        return 1 / s1 - 1 / s2
    if name == "one":
        return 1 / s1 + 1 / s2
    if name == "heaviside":
        return 1 / s1
    if name == "ramp":
        return 1 / s1 ** 2 - 1 / s2 ** 2
    if name == "sincos":
        return freq / (s1 ** 2 + w2) + s2 / (s2 ** 2 + w2)
    if name == "cossin":
        return s1 / (s1 ** 2 + w2) - freq / (s2 ** 2 + w2)
    if name == "ode_rhs":
        return 1 / (s1 - 1) + 1 / s2
    if name == "gauss":
        # integral of exp(-s*u - u^2) over u > 0 is sqrt(pi)/2 * w(i*s/2)
        # with w the Faddeeva function
        from scipy.special import wofz

        return SQRT_PI / 2 * (wofz(0.5j * s1) + wofz(0.5j * s2))
    raise ValueError(name)


def _sweep_grid(rng):
    """1 to 301 y values: a uniform grid, or a sorted, unsorted or
    repeating list of random values."""
    n = int(rng.integers(1, 302))
    ymax = float(rng.uniform(0.5, 60.0))
    kind = int(rng.integers(4))
    if kind == 0:
        return list(np.linspace(-ymax, ymax, n) if n > 1 else [ymax])
    ys = rng.uniform(-ymax, ymax, n)
    if kind == 1:
        ys.sort()
    elif kind == 2:
        ys[: n // 3] = ys[-1]
    return [float(y) for y in ys]


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_grid_sweep_meets_certificate(name, tol, refined_ys):
    rng = np.random.default_rng([20261018, CATALOG_NAMES.index(name),
                                 int(-math.log10(tol))])
    lo = 1.25 if name == "ode_rhs" else 0.25  # x1 must exceed a = 1
    draws = [(float(rng.uniform(lo, 4.0)), float(rng.uniform(0.25, 4.0)),
              float(rng.uniform(0.5, 3.0)), _sweep_grid(rng))
             for _ in range(2)]
    # and a row where the damping, 4 to 16, sets the panel width more
    # than |y| <= 1 does: the decay length capped that width once
    x1, x2, freq = rng.uniform([4.0, 4.0, 0.5], [16.0, 16.0, 3.0]).tolist()
    draws.append((x1, x2, freq, rng.uniform(-1.0, 1.0, 7).tolist()))
    for row, (x1, x2, freq, ys) in enumerate(draws):
        got, est = sl_forward_values(catalog_signal(name, freq), x1, x2,
                                     ys, tol)
        assert got.shape == est.shape == np.shape(ys)
        gap = np.abs(got - closed_form(name, x1, x2, ys, freq))
        assert np.all(gap <= est), (x1, x2, ys[int(np.argmax(gap - est))])
        if tol >= 1e-10 or row == 2:
            # at 1e-12 the rounding allowance alone may exceed tol where
            # |y| is large
            assert np.all(est <= tol)
        # the error-model panels resolve every y on the first pass
        assert refined_ys == []


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_decay_dominated_passes_meet_certificate(tol, refined_ys):
    # pieces whose decay turns faster than |y| <= 1, where the decay
    # length capped the panel width once: exp(-2|t|) under the envelope
    # exp(-2|t|) at dampings from -1.5 to 1, whose transform is
    # 1/(x + 2 + iy) + 1/(x + 2 - iy), and the Gaussian at x = 0, whose
    # tail cut sets T and its decay rate, with transform
    # sqrt(pi)*exp(-y^2/4)
    def piece(t):
        return np.exp(-2.0 * np.abs(t))

    bound = ExponentialOrderBound(1.0, -2.0)
    decay = PiecewiseSignal("decay", piece, piece, bound, bound)
    ys = np.linspace(-1.0, 1.0, 9)
    for x in (-1.5, 0.0, 1.0):
        got, est = sl_forward_values(decay, x, x, ys, tol)
        exact = 1.0 / (x + 2.0 + 1j * ys) + 1.0 / (x + 2.0 - 1j * ys)
        assert np.all(np.abs(got - exact) <= est) and np.all(est <= tol), x
    got, est = sl_forward_values(catalog_signal("gauss"), 0.0, 0.0, ys, tol)
    exact = SQRT_PI * np.exp(-ys * ys / 4.0)
    assert np.all(np.abs(got - exact) <= est) and np.all(est <= tol)
    assert refined_ys == []


def test_tight_tolerance_grid_needs_no_fallback(refined_ys):
    # panels half an oscillation wide sent 17 of these 201 points to
    # refinement
    ys = list(np.linspace(-59.0, 59.0, 201))
    got, est = sl_forward_values(catalog_signal("one"), 1.0, 1.0, ys, 1e-12)
    assert refined_ys == []
    assert np.all(np.abs(got - closed_form("one", 1.0, 1.0, ys)) <= est)


def _counted(f):
    """(f with both pieces counting their evaluations, the count)."""
    count = [0]

    def wrap(piece):
        def counted(u):
            count[0] += np.size(u)
            return piece(u)
        return counted

    return dataclasses.replace(f, pos=wrap(f.pos), neg=wrap(f.neg)), count


def test_y_beyond_the_panel_cap_takes_a_second_uniform_pass(refined_ys):
    # y = 1e4 needs more than 4096 model-width panels, so a second pass
    # sized for it serves it, with no bisection; 7/15 panels took
    # 1,142,130 evaluations, and the restart from quarter-period panels
    # they replaced 1,870,740
    f, count = _counted(catalog_signal("sign"))
    r = sl_forward(f, SLPoint(1.0, 1.0, 1e4), 1e-8)
    assert count[0] == 504432
    assert refined_ys == []
    closed = closed_form("sign", 1.0, 1.0, 1e4)
    assert abs(r.value - closed) <= r.abs_error_estimate <= 1e-8


@pytest.mark.parametrize("ys", [[1e5], [0.0, 2.0, 1e5]],
                         ids=["alone", "beside near y"])
def test_y_beyond_the_budget_raises_before_any_evaluation(ys):
    # y = 1e5 needs 380,669 panels a side, 5.7 million evaluations; the
    # restart spent about 900,000 a side before it raised.  The pass of
    # the far y runs first, so near y beside it cost nothing either
    f, count = _counted(catalog_signal("sign"))
    with pytest.raises(AccuracyError, match="budget cannot resolve"):
        sl_forward_values(f, 1.0, 1.0, ys, 1e-8)
    assert count[0] == 0


@pytest.mark.parametrize("name,x1,x2,tol,match", [
    ("sign", 1e-300, 1e-300, 1e-8, "budget cannot resolve"),
    ("sign", 5e-324, 1.0, 1e-8, "truncation point overflows"),
    ("ramp", 1e-200, 1e-200, 1e-200, "budget cannot resolve")])
def test_damping_past_float_range_raises_before_any_evaluation(name, x1, x2,
                                                               tol, match):
    # T was inf (OverflowError from the panel count) or tol*rate and
    # rate^2 underflowed to 0 (ZeroDivisionError); now an AccuracyError,
    # as at x1 = 1e-290, before any evaluation
    f, count = _counted(catalog_signal(name))
    with pytest.raises(AccuracyError, match=match):
        sl_forward_values(f, x1, x2, [1.0], tol)
    assert count[0] == 0


@pytest.mark.parametrize("x", [1e-320, 5e-324])
def test_a_tail_cut_wins_over_an_envelope_past_float_range(x):
    # the envelope's T overflows at this damping ("truncation point
    # overflows" before); the Gaussian's tail_cut certifies the tail as
    # it does at x = 0
    gauss = catalog_signal("gauss")
    at_zero = sl_forward(gauss, SLPoint(0.0, 0.0, 1.0), 1e-8)
    r = sl_forward(gauss, SLPoint(x, x, 1.0), 1e-8)
    assert abs(r.value - at_zero.value) <= r.abs_error_estimate <= 1e-8
    assert abs(r.value - SQRT_PI * math.exp(-0.25)) <= r.abs_error_estimate


@pytest.mark.parametrize("x", [1e-300, 1e-3, 0.01])
def test_a_winning_tail_cut_sizes_the_pass_by_its_own_mass(x):
    # where the Gaussian's tail_cut wins the truncation, the error model
    # takes the smaller of the envelope's mass M/x and the cut's M*T: the
    # least 4 panels a side.  The envelope's alone took 29,670, 240 and
    # 210 evaluations with 7/15 panels, and the cut's 180
    f, count = _counted(catalog_signal("gauss"))
    r = sl_forward(f, SLPoint(x, x, 1.0), 1e-8)
    assert count[0] == 248
    closed = complex(closed_form("gauss", x, x, 1.0))
    assert abs(r.value - closed) <= r.abs_error_estimate <= 1e-8


def test_negative_damping_past_float_range_raises_before_any_evaluation():
    # exp(-2|t|) under envelopes of growth rate -2 at x = -1.95: the rate
    # 0.05 puts T at 364.0, 456.1 and 548.2 at these tolerances, and
    # exp(-x*u) passes the largest float before T where -x*T > 709.78.
    # There f(u)*exp(-x*u) was 0*inf = nan, and the transform a bare
    # ValueError after numpy's overflow warnings
    def piece(t):
        return np.exp(-2.0 * np.abs(t))

    bound = ExponentialOrderBound(1.0, -2.0)
    f, count = _counted(PiecewiseSignal("decay", piece, piece, bound, bound))
    point = SLPoint(-1.95, -1.95, 0.0)
    r = sl_forward(f, point, 1e-6)  # -x*T = 709.7: still in range
    assert abs(r.value - 40.0) <= r.abs_error_estimate <= 1e-6
    for tol in (1e-8, 1e-10):
        count[0] = 0
        with pytest.raises(AccuracyError, match="past float range"):
            sl_forward(f, point, tol)
        assert count[0] == 0


def test_an_envelope_that_f_breaks_at_zero_is_refused():
    # M * t^50 puts T at 0 for x = 50, which returned 0j with an estimate
    # of 1.4e-22; the true value is 0.0392 (mpmath)
    b = ExponentialOrderBound(1.0, 0.0, 50)
    f = PiecewiseSignal("p", lambda t: np.exp(-np.abs(t)),
                        lambda t: np.exp(-np.abs(t)), b, b)
    with pytest.raises(ValueError, match=r"breaks the envelope "
                       r"ExponentialOrderBound\(M=1.0, a=0.0, degree=50\)"):
        sl_forward(f, SLPoint(50.0, 50.0, 0.5), 1e-8)


def test_a_grid_of_any_shape_keeps_its_shape_and_its_bits():
    # a 2-d grid raised a numpy broadcast error; it is its flat grid, the
    # values and estimates in its shape, as sl_inverse_split does for t
    sign = catalog_signal("sign")
    ys = np.array([[1.0, 2.0, -0.5], [30.0, 0.0, 300.0]])
    for shaped in (ys, ys[:1, :2], ys[1:, 1:].T):
        want = sl_forward_values(sign, 1.0, 0.5, shaped.ravel(), 1e-8)
        values, estimates = sl_forward_values(sign, 1.0, 0.5, shaped, 1e-8)
        assert values.shape == estimates.shape == shaped.shape
        assert values.ravel().tobytes() == want[0].tobytes()
        assert estimates.ravel().tobytes() == want[1].tobytes()
    values, estimates = sl_forward_values(sign, 1.0, 0.5, np.zeros((0, 3)),
                                          1e-8)
    assert values.shape == estimates.shape == (0, 3)


def test_near_y_keep_their_bits_beside_a_far_y():
    # the far y of a grid gets a pass of its own, so the near ones keep
    # the bits of the grid without it; 4096 model-width panels reach
    # |y| = 4747 here
    sign = catalog_signal("sign")
    near = list(np.linspace(-10.0, 10.0, 21))
    alone = sl_forward_values(sign, 1.0, 1.0, near, 1e-8)
    mixed = sl_forward_values(sign, 1.0, 1.0, near + [1e4], 1e-8)
    for a, b in zip(alone, mixed):
        assert a.tobytes() == b[:21].tobytes()
    gap = abs(mixed[0][21] - closed_form("sign", 1.0, 1.0, 1e4))
    assert gap <= mixed[1][21] <= 1e-8


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_large_y_meet_certificate_or_raise(name):
    # |y| from 200 to 3e4, beyond the draws of the grid sweep: a value
    # within its estimate and tol, or AccuracyError from a pass that
    # needs more than the evaluation budget
    rng = np.random.default_rng([20261019, CATALOG_NAMES.index(name)])
    for x in (0.5, 1.0, 2.0):
        if name == "ode_rhs" and x <= 1.0:
            continue  # x must exceed a = 1
        for tol in (1e-6, 1e-8):
            for y in np.exp(rng.uniform(math.log(200.0), math.log(3e4), 3)):
                try:
                    r = sl_forward(catalog_signal(name),
                                   SLPoint(x, x, float(y)), tol)
                except AccuracyError:
                    continue
                gap = abs(r.value - closed_form(name, x, x, float(y)))
                assert gap <= r.abs_error_estimate <= tol, (x, tol, y)


@pytest.mark.parametrize("x", [0.5, 2.0])
@pytest.mark.parametrize("name,side,image", [
    ("one", "pos", lambda s: 1.0 / s),
    ("one", "neg", lambda s: 1.0 / s),
    ("sign", "neg", lambda s: -1.0 / s),
    ("heaviside", "neg", lambda s: 0.0 * s)])
def test_one_sided_values_match_closed_forms(name, side, image, x):
    ys = np.linspace(-20.0, 20.0, 41)
    values, estimates = one_sided_values(catalog_signal(name), side, x, ys,
                                         1e-9)
    assert values.shape == estimates.shape == ys.shape
    assert np.all(np.abs(values - image(x + 1j * ys)) <= estimates)
    assert np.all(estimates <= 1e-9)


def test_one_sided_divergence_names_the_side():
    with pytest.raises(DivergenceError, match="positive"):
        one_sided_values(catalog_signal("ode_rhs"), "pos", 0.5, [0.0], 1e-8)
    with pytest.raises(DivergenceError, match="negative"):
        one_sided_values(catalog_signal("sign"), "neg", -0.5, [0.0], 1e-8)
    # the positive side of ode_rhs grows, its negative side does not
    values, _ = one_sided_values(catalog_signal("ode_rhs"), "neg", 0.5,
                                 [0.0], 1e-8)
    assert abs(values[0] - 2.0) <= 1e-8


def test_grid_agrees_with_single_points():
    f = catalog_signal("sincos", 2.0)
    ys = [-7.5, -1.0, 0.0, 0.25, 3.0, 12.0]
    got, est = sl_forward_values(f, 0.75, 1.5, ys, 1e-9)
    for y, g, e in zip(ys, got, est):
        one = sl_forward(f, SLPoint(0.75, 1.5, y), 1e-9)
        assert abs(g - one.value) <= e + one.abs_error_estimate


@pytest.mark.parametrize("ys,tol,evaluations", [
    ([-1.0, -0.5, 0.0, 0.5, 1.0], 1e-8, 8618),
    (list(np.linspace(-5.0, 5.0, 101)), 1e-10, 260152)],
    ids=["5 y", "101 y"])
def test_missed_oscillation_falls_back_to_refinement(ys, tol, evaluations,
                                                      refined_ys):
    # cos(40 t) without an osc_hint: panels sized for |y| <= 5 span
    # several periods, so every y misses its budget and its own panels
    # of the grid pass are bisected (7/15 panels took 15,210 and 478,470
    # evaluations; restarting each y from model-width 7/15 panels took
    # 16,710 and 567,975, from quarter-period panels 15,750 and 453,780)
    fast, count = _counted(PiecewiseSignal(
        "fast", lambda t: np.cos(40.0 * t), lambda t: np.zeros_like(t),
        ExponentialOrderBound(1.0, 0.0), ExponentialOrderBound(1.0, 0.0)))
    got, est = sl_forward_values(fast, 1.0, 2.0, ys, tol)
    assert refined_ys == ys
    assert count[0] == evaluations
    for y, g, e in zip(ys, got, est):
        s1 = 1.0 + 1j * y
        assert abs(g - s1 / (s1 ** 2 + 1600.0)) <= e <= tol


def test_refined_ys_refuses_a_refine_caller_it_cannot_classify(refined_ys):
    # numeric inversion passes unrecorded; any caller that is neither it
    # nor a forward row fails, so that renaming the closure variables
    # the fixture reads cannot make the refined_ys == [] tests vacuous
    from symlap.expr import parse_transform
    from symlap.inversion import sl_inverse_numeric

    sl_inverse_numeric(parse_transform("1/(s+1)"), 1.0, 1.0, 0.5, 50.0,
                       1e-6)
    assert refined_ys == []
    with pytest.raises(AssertionError, match="cannot classify"):
        quadrature._refine(lambda mids, halves: None, *[None] * 9)


def test_refinement_keeps_the_pass_panels_it_does_not_split(refined_ys):
    # e^-t + cos(40 t)*e^(-20 t): only the first of the 4 panels sees the
    # oscillation, so each y bisects it and then its left halves, three
    # rounds, and keeps the other 3 with the Kronrod values and phases of
    # the grid pass: 124 evaluations for the pass, 186 per y for the split
    # panels and 124 for the zero side (7/15 panels took 1665)
    mixed, count = _counted(PiecewiseSignal(
        "mixed", lambda t: np.exp(-t) + np.cos(40.0 * t) * np.exp(-20.0 * t),
        lambda t: np.zeros_like(t), ExponentialOrderBound(2.0, 0.0),
        ExponentialOrderBound(1.0, 0.0)))
    ys = list(np.linspace(-3.0, 3.0, 7))
    got, est = sl_forward_values(mixed, 1.0, 2.0, ys, 1e-8)
    assert refined_ys == ys
    assert count[0] == 1550
    for y, g, e in zip(ys, got, est):
        s1 = 1.0 + 1j * y
        closed = 1.0 / (s1 + 1.0) + (s1 + 20.0) / ((s1 + 20.0) ** 2 + 1600.0)
        assert abs(g - closed) <= e <= 1e-8


def test_refinement_gets_the_pass_panels_kronrod_moduli(monkeypatch):
    # the Kronrod sums of |v| a refined y's pass hands to _refine add up
    # to the integral of |v| = |f(u)|*exp(-u) over [0, T], by Simpson's
    # rule: each panel's is h times its weighted node sum
    f = PiecewiseSignal(
        "mixed", lambda t: np.exp(-t) + np.cos(40.0 * t) * np.exp(-20.0 * t),
        lambda t: np.zeros_like(t), ExponentialOrderBound(2.0, 0.0),
        ExponentialOrderBound(1.0, 0.0))
    handed = []
    refine = quadrature._refine

    def recorded(panels, lefts, rights, k, e, m, *args):
        handed.append((rights[-1], float(m.sum())))
        return refine(panels, lefts, rights, k, e, m, *args)

    monkeypatch.setattr(quadrature, "_refine", recorded)
    sl_forward_values(f, 1.0, 2.0, [1.0], 1e-8)
    (T, mass), = handed
    exact = simpson(lambda u: np.abs(f.pos(u)) * np.exp(-u), 0.0, T)
    assert abs(mass - exact.real) <= 0.01 * exact.real


def test_estimate_allows_for_rounding():
    # the tail bound is exact for f = 1, so rounding alone decides
    r = sl_forward(catalog_signal("one"), SLPoint(1.0, 1.0, 0.0), 1e-8)
    assert abs(r.value - 2.0) <= r.abs_error_estimate <= 1e-8


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
def test_rejects_bad_tolerance(tol):
    f = catalog_signal("sign")
    with pytest.raises(ValueError, match="tol"):
        sl_forward_values(f, 1.0, 1.0, [0.0, 1.0], tol)
    with pytest.raises(ValueError, match="tol"):
        sl_forward(f, SLPoint(1.0, 1.0, 0.0), tol)


@pytest.mark.parametrize("x1, x2, y", [(math.nan, 1.0, 0.0),
                                       (1.0, math.inf, 0.0),
                                       (1.0, 1.0, math.nan),
                                       (1.0, 1.0, -math.inf)])
def test_rejects_non_finite_point(x1, x2, y):
    f = catalog_signal("sign")
    with pytest.raises(ValueError, match="finite"):
        sl_forward_values(f, x1, x2, [0.5, y], 1e-8)
    with pytest.raises(ValueError, match="finite"):
        sl_forward(f, SLPoint(x1, x2, y), 1e-8)


# the caller's x1, x2, y and tol in turn, complex: a nonzero imaginary
# part is refused by name, a zero one is dropped, with no ComplexWarning
_REAL_ARGS = {"x1": 1.0, "x2": 1.0, "ys": np.array([2.0, 0.5]), "tol": 1e-8}


@pytest.mark.parametrize("name", list(_REAL_ARGS))
def test_complex_input_is_refused_unless_real(name):
    f = catalog_signal("sign")
    real = np.asarray(_REAL_ARGS[name])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = sl_forward_values(f, **_REAL_ARGS)
        got = sl_forward_values(f, **{**_REAL_ARGS, name: real + 0j})
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        with pytest.raises(ValueError, match=f"^{name} must be real, got"):
            sl_forward_values(f, **{**_REAL_ARGS, name: real + 1j})


@pytest.mark.parametrize("name, args", [
    ("x", (np.array([1.0 + 1e-3j]), [0.0, 2.0], 1e-8)),
    ("ys", (1.0, np.array([0.0, 2.0 + 1j]), 1e-8)),
    ("tol", (1.0, [0.0, 2.0], np.array([1e-8 + 1e-20j]))),
])
def test_one_sided_values_refuses_complex_input(name, args):
    f = catalog_signal("sign")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be real, got"):
            one_sided_values(f, "pos", *args)
        real = [np.asarray(a).real for a in args]
        want = one_sided_values(f, "pos", *real)
        got = one_sided_values(f, "pos", *(r + 0j for r in real))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_grid_divergence_names_the_side():
    with pytest.raises(DivergenceError, match="positive"):
        sl_forward_values(catalog_signal("ode_rhs"), 0.5, 1.0, [0.0, 2.0],
                          1e-8)
    with pytest.raises(DivergenceError, match="negative"):
        sl_forward_values(catalog_signal("sign"), 1.0, -0.5, [0.0, 2.0],
                          1e-8)


@pytest.mark.parametrize("tol,evaluations", [(1e-10, 553722),
                                             (1e-12, 655340)])
def test_y_beyond_the_panel_cap_need_no_adaptive_path(tol, evaluations,
                                                      refined_ys):
    # the ramp at x = 0.05: 4096 model-width panels reach |y| of about
    # 97 at tol 1e-10 and 73 at 1e-12, and the larger |y| share a
    # second pass.  At x = 0.25, where 7/15 panels reached 102 and 63,
    # these panels reach 597 and 442; restarting the far y from 7/15
    # panels took 5,505,420 and 21,520,500 evaluations there
    f, count = _counted(catalog_signal("ramp"))
    ys = list(np.linspace(-120.0, 120.0, 241))
    got, est = sl_forward_values(f, 0.05, 0.05, ys, tol)
    assert refined_ys == []
    assert count[0] == evaluations
    assert np.all(np.abs(got - closed_form("ramp", 0.05, 0.05, ys)) <= est)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the forward "
                   "rounding allowance passes tol/2 at large |y|*T")
def test_ramp_grid_beyond_the_panel_cap_meets_tol():
    # 164 of these 241 estimates are above tol, the largest 2.13e-10;
    # the draws of test_grid_sweep_meets_certificate miss this grid
    ys = np.linspace(-120.0, 120.0, 241)
    _, est = sl_forward_values(catalog_signal("ramp"), 0.25, 0.25, ys,
                               1e-10)
    assert np.all(est <= 1e-10)


_GRID_EVALUATIONS = {"gauss": 558, "ramp": 1364, "one": 3038}


@pytest.mark.parametrize("name,x1,x2,ymax,n,gk15", [
    ("gauss", 0.5, 0.5, 40.0, 101, 1230),
    ("ramp", 1.0, 2.0, 30.0, 151, 2955),
    ("one", 1.0, 1.0, 59.0, 201, 6870)])
def test_forward_evaluation_counts_are_pinned(name, x1, x2, ymax, n, gk15):
    # machine-independent cost of a grid at tol 1e-8 (_GRID_EVALUATIONS),
    # less than half of gk15, its cost with 7/15 panels; truncation at
    # the envelope alone (the x/2 envelope for the ramp) took 11220 and
    # 5340 with those for the gauss and ramp grids
    f, count = _counted(catalog_signal(name))
    ys = np.linspace(-ymax, ymax, n)
    got, est = sl_forward_values(f, x1, x2, ys, 1e-8)
    assert count[0] == _GRID_EVALUATIONS[name]
    assert 2 * count[0] < gk15
    assert np.all(np.abs(got - closed_form(name, x1, x2, ys)) <= est)


def _scattered(rng, name):
    """Points (x1, x2, y, tol), shuffled, from three to five rows of one
    to four y each: some rows share x1 at another tol, or tol at
    another x1."""
    lo = 1.25 if name == "ode_rhs" else 0.25  # x1 must exceed a = 1
    rows = []
    for _ in range(int(rng.integers(3, 6))):
        x1 = rows[-1][0] if rows and rng.random() < 0.3 else float(
            rng.uniform(lo, 4.0))
        tol = float(10.0 ** -rng.integers(6, 11))
        x2 = float(rng.uniform(0.25, 4.0))
        for y in rng.uniform(-20.0, 20.0, int(rng.integers(1, 5))):
            rows.append((x1, x2, float(y), tol))
    order = rng.permutation(len(rows))
    return [np.array(c) for c in zip(*(rows[i] for i in order))]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_a_multi_row_call_agrees_with_one_call_per_point(name, refined_ys):
    # each (x, tol) is a row with the panels its own call gives it: the
    # rows together cost what one call per row costs, and every value
    # agrees with the point's own call within the two estimates
    rng = np.random.default_rng([20261020, CATALOG_NAMES.index(name)])
    f, count = _counted(catalog_signal(name))
    for _ in range(2):
        x1, x2, ys, tol = _scattered(rng, name)
        count[0] = 0
        got, est = sl_forward_values(f, x1, x2, ys, tol)
        together = count[0]
        count[0] = 0
        for side, x, y in (("pos", x1, ys), ("neg", x2, -ys)):
            for key in set(zip(x, tol)):
                row = (x == key[0]) & (tol == key[1])
                one_sided_values(f, side, key[0], y[row], key[1] / 2.0)
        assert together == count[0]
        for i in range(ys.size):
            one = sl_forward(f, SLPoint(x1[i], x2[i], ys[i]), tol[i])
            assert abs(got[i] - one.value) <= est[i] + one.abs_error_estimate
            assert est[i] <= tol[i]
        gap = np.abs(got - closed_form(name, x1, x2, ys))
        assert np.all(gap <= est)
    assert refined_ys == []


def test_points_broadcast_in_any_shape_and_order():
    sign = catalog_signal("sign")
    # a scalar: 0-d arrays, the bits of a one-y grid
    v, e = sl_forward_values(sign, 1.0, 0.5, 2.0, 1e-8)
    assert v.shape == e.shape == ()
    want = sl_forward_values(sign, 1.0, 0.5, [2.0], 1e-8)
    assert v.tobytes() == want[0].tobytes()
    assert e.tobytes() == want[1].tobytes()
    # (X, 1) x (Y,): one row per x, every value within its estimate
    x = np.array([0.5, 2.0, 8.0])[:, None]
    ys = np.linspace(-5.0, 5.0, 7)
    v, e = sl_forward_values(sign, x, x, ys, 1e-9)
    assert v.shape == e.shape == (3, 7)
    assert np.all(np.abs(v - closed_form("sign", x, x, ys)) <= e)
    # a repeated x is one row, and points in any order come back in it
    x = np.array([1.0, 3.0, 1.0, 1.0, 3.0])
    ys = np.array([4.0, -2.0, 0.0, -4.0, 9.0])
    v, e = sl_forward_values(sign, x, 2.0, ys, 1e-8)
    order = np.argsort(ys)
    w, d = sl_forward_values(sign, x[order], 2.0, ys[order], 1e-8)
    assert v[order].tobytes() == w.tobytes()
    assert e[order].tobytes() == d.tobytes()
    assert np.all(np.abs(v - closed_form("sign", x, 2.0, ys)) <= e)


def test_a_refined_row_beside_plain_rows(refined_ys):
    # cos(40 t) without an osc_hint: at x = 1 the panels sized for
    # |y| <= 1 span several periods and every y is bisected; at x = 60
    # the damping enters the rate and the panels resolve the
    # oscillation.  Alone, the x = 1 row costs 8,618 evaluations, 124
    # of them on the zero negative side at x2 = 2, which here is one row
    # of all seven points, as in the call of the x = 60 row alone
    fast, count = _counted(PiecewiseSignal(
        "fast", lambda t: np.cos(40.0 * t), lambda t: np.zeros_like(t),
        ExponentialOrderBound(1.0, 0.0), ExponentialOrderBound(1.0, 0.0)))
    ys = [-1.0, -0.5, 0.0, 0.5, 1.0]
    x = np.array([60.0, 1.0, 60.0, 1.0, 1.0, 1.0, 1.0])
    y = np.array([0.0, -1.0, 3.0, -0.5, 0.0, 0.5, 1.0])
    count[0] = 0
    alone = sl_forward_values(fast, 60.0, 2.0, [0.0, 3.0], 1e-8)
    rest = count[0]
    count[0] = 0
    refined_ys.clear()
    got, est = sl_forward_values(fast, x, 2.0, y, 1e-8)
    assert refined_ys == ys
    assert count[0] == 8618 - 124 + rest
    s1 = x + 1j * y
    assert np.all(np.abs(got - s1 / (s1 ** 2 + 1600.0)) <= est)
    assert np.all(est <= 1e-8)
    assert np.all(np.abs(got[[0, 2]] - alone[0]) <= est[[0, 2]] + alone[1])


def test_a_far_row_beside_near_rows(refined_ys):
    # y = 1e4 takes a pass of its own beyond the panel cap on each side
    # (504,432 evaluations for the two, as at the point alone); the
    # near points cost what they cost alone
    f, count = _counted(catalog_signal("sign"))
    near = sl_forward_values(f, np.array([[2.0], [0.5]]), 1.0,
                             [0.0, 3.0], 1e-8)
    cost = count[0]
    count[0] = 0
    x = np.array([2.0, 1.0, 0.5, 2.0, 0.5])
    y = np.array([0.0, 1e4, 0.0, 3.0, 3.0])
    got, est = sl_forward_values(f, x, 1.0, y, 1e-8)
    assert refined_ys == []
    closed = closed_form("sign", x, 1.0, y)
    assert np.all(np.abs(got - closed) <= est)
    assert np.all(est <= 1e-8)
    far = sl_forward(catalog_signal("sign"), SLPoint(1.0, 1.0, 1e4), 1e-8)
    assert abs(got[1] - far.value) <= est[1] + far.abs_error_estimate
    assert count[0] == cost + 504432
    assert np.all(np.abs(got[[0, 3, 2, 4]] - near[0].ravel())
                  <= est[[0, 3, 2, 4]] + near[1].ravel())


def test_one_failing_row_raises_before_any_evaluation():
    f, count = _counted(catalog_signal("ode_rhs"))
    with pytest.raises(DivergenceError, match=r"positive.*x=0\.5"):
        sl_forward_values(f, [2.0, 0.5, 3.0], 1.0, [0.0, 1.0, 2.0], 1e-8)
    assert count[0] == 0

    def piece(t):
        return np.exp(-2.0 * np.abs(t))

    bound = ExponentialOrderBound(1.0, -2.0)
    decay, count = _counted(PiecewiseSignal("decay", piece, piece, bound,
                                            bound))
    # x = -1.95 passes float range at tol 1e-8, x = -1 does not
    with pytest.raises(AccuracyError, match="past float range"):
        sl_forward_values(decay, [-1.0, -1.95], -1.0, 0.0, 1e-8)
    assert count[0] == 0
    # a far pass beyond the budget in one row, near passes in the others
    sign, count = _counted(catalog_signal("sign"))
    with pytest.raises(AccuracyError, match="budget cannot resolve"):
        sl_forward_values(sign, [2.0, 1.0], 1.0, [0.0, 1e5], 1e-8)
    assert count[0] == 0


def test_a_multi_row_call_writes_the_same_bytes_at_any_thread_count():
    # rows of up to 4096 panels and hundreds of y: every product stays
    # below the sizes at which OpenBLAS splits work across threads
    code = (
        "import hashlib, numpy as np\n"
        "from symlap import catalog_signal, sl_forward_values\n"
        "x = np.array([0.05, 0.3, 1.0, 1.0, 4.0])[:, None]\n"
        "tol = np.array([1e-12, 1e-10, 1e-8, 1e-12, 1e-10])[:, None]\n"
        "ys = np.linspace(-80.0, 80.0, 301)\n"
        "v, e = sl_forward_values(catalog_signal('ramp'), x, x, ys, tol)\n"
        "print(hashlib.sha256(v.tobytes() + e.tobytes()).hexdigest())\n")
    root = Path(__file__).resolve().parents[1]
    out = []
    for threads in ("1", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(root / "src"))
        cp = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
        assert cp.returncode == 0, cp.stderr
        out.append(cp.stdout)
    assert out[0] == out[1]
