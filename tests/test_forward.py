import dataclasses
import math

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
    for _ in range(2):
        lo = 1.25 if name == "ode_rhs" else 0.25  # x1 must exceed a = 1
        x1, x2 = float(rng.uniform(lo, 4.0)), float(rng.uniform(0.25, 4.0))
        freq = float(rng.uniform(0.5, 3.0))
        ys = _sweep_grid(rng)
        got, est = sl_forward_values(catalog_signal(name, freq), x1, x2,
                                     ys, tol)
        assert got.shape == est.shape == np.shape(ys)
        gap = np.abs(got - closed_form(name, x1, x2, ys, freq))
        assert np.all(gap <= est), (x1, x2, ys[int(np.argmax(gap - est))])
        if tol >= 1e-10:
            # at 1e-12 the rounding allowance alone may exceed tol
            assert np.all(est <= tol)
        # the error-model panels resolve every y on the first pass
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
    # sized for it serves it, with no bisection; the restart from
    # quarter-period panels it replaced took 1,870,740 evaluations
    f, count = _counted(catalog_signal("sign"))
    r = sl_forward(f, SLPoint(1.0, 1.0, 1e4), 1e-8)
    assert count[0] == 1142130
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
    # the bits of the grid without it
    sign = catalog_signal("sign")
    near = list(np.linspace(-10.0, 10.0, 21))
    alone = sl_forward_values(sign, 1.0, 1.0, near, 1e-8)
    mixed = sl_forward_values(sign, 1.0, 1.0, near + [5e3], 1e-8)
    for a, b in zip(alone, mixed):
        assert a.tobytes() == b[:21].tobytes()
    gap = abs(mixed[0][21] - closed_form("sign", 1.0, 1.0, 5e3))
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
    ([-1.0, -0.5, 0.0, 0.5, 1.0], 1e-8, 15210),
    (list(np.linspace(-5.0, 5.0, 101)), 1e-10, 478470)],
    ids=["5 y", "101 y"])
def test_missed_oscillation_falls_back_to_refinement(ys, tol, evaluations,
                                                      refined_ys):
    # cos(40 t) without an osc_hint: panels sized for |y| <= 5 span
    # several periods, so every y misses its budget and its own panels
    # of the grid pass are bisected (restarting each y from model-width
    # panels took 16,710 and 567,975 evaluations, from quarter-period
    # panels 15,750 and 453,780)
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
    # e^-t + cos(40 t)*e^(-20 t): only the first of the 21 panels see the
    # oscillation, so each y splits 5 and keeps the other 16 with the
    # Kronrod values and phases of the grid pass: 315 evaluations for
    # the pass, 150 per y for the split panels and 300 for the zero side
    mixed, count = _counted(PiecewiseSignal(
        "mixed", lambda t: np.exp(-t) + np.cos(40.0 * t) * np.exp(-20.0 * t),
        lambda t: np.zeros_like(t), ExponentialOrderBound(2.0, 0.0),
        ExponentialOrderBound(1.0, 0.0)))
    ys = list(np.linspace(-3.0, 3.0, 7))
    got, est = sl_forward_values(mixed, 1.0, 2.0, ys, 1e-8)
    assert refined_ys == ys
    assert count[0] == 1665
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


def test_grid_divergence_names_the_side():
    with pytest.raises(DivergenceError, match="positive"):
        sl_forward_values(catalog_signal("ode_rhs"), 0.5, 1.0, [0.0, 2.0],
                          1e-8)
    with pytest.raises(DivergenceError, match="negative"):
        sl_forward_values(catalog_signal("sign"), 1.0, -0.5, [0.0, 2.0],
                          1e-8)


@pytest.mark.parametrize("tol,evaluations", [(1e-10, 267630),
                                             (1e-12, 354780)])
def test_y_beyond_the_panel_cap_need_no_adaptive_path(tol, evaluations,
                                                      refined_ys):
    # the ramp at x = 0.25: 4096 model-width panels reach |y| of about
    # 102 at tol 1e-10 and 63 at 1e-12, and the larger |y| share a
    # second pass; restarting them took 5,505,420 and 21,520,500
    # evaluations
    f, count = _counted(catalog_signal("ramp"))
    ys = list(np.linspace(-120.0, 120.0, 241))
    got, est = sl_forward_values(f, 0.25, 0.25, ys, tol)
    assert refined_ys == []
    assert count[0] == evaluations
    assert np.all(np.abs(got - closed_form("ramp", 0.25, 0.25, ys)) <= est)


@pytest.mark.parametrize("name,x1,x2,ymax,n,evaluations", [
    ("gauss", 0.5, 0.5, 40.0, 101, 1230),
    ("ramp", 1.0, 2.0, 30.0, 151, 2955),
    ("one", 1.0, 1.0, 59.0, 201, 6870)])
def test_forward_evaluation_counts_are_pinned(name, x1, x2, ymax, n,
                                              evaluations):
    # machine-independent cost of a grid at tol 1e-8; truncation at the
    # envelope alone (the x/2 envelope for the ramp) took 11220 and 5340
    # for the gauss and ramp grids
    f, count = _counted(catalog_signal(name))
    ys = np.linspace(-ymax, ymax, n)
    got, est = sl_forward_values(f, x1, x2, ys, 1e-8)
    assert count[0] == evaluations
    assert np.all(np.abs(got - closed_form(name, x1, x2, ys)) <= est)
