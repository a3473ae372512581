import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from _oracles import simpson
from symlap import quadrature
from symlap.core import CATALOG_NAMES, ExponentialOrderBound, catalog_signal
from symlap.errors import AccuracyError, DivergenceError
from symlap.expr import parse_transform
from symlap.inversion import _on_line
from symlap.quadrature import (
    _EPS,
    _PHI,
    _WG,
    _WGK,
    _XGK,
    _block_phased_sum,
    _tail_bound,
    finite_oscillatory_integral,
    half_line_integral,
    laplace_grid,
    truncation_point,
)

B10 = ExponentialOrderBound(1.0, 0.0)


def test_truncation_point_formula():
    T = truncation_point(B10, 1.0, 1e-10)
    assert T == pytest.approx(math.log(1e10), abs=1e-12)
    assert T == pytest.approx(23.026, abs=1e-3)


def test_truncation_point_clamps_at_zero():
    assert truncation_point(B10, 1.0, 1.0) == 0.0
    assert truncation_point(B10, 1.0, 5.0) == 0.0


@pytest.mark.parametrize("M,a,degree,x,tol", [
    (1.0, 0.0, 0, 1e-300, 2.5e-9), (1.0, 0.0, 0, 1e10, 1e-320),
    (1.0, 0.0, 1, 1e-200, 2.5e-201), (1e300, 0.0, 3, 1e-300, 1e-300),
    (1.0, 0.0, 107, 1.0, 1e-8), (1.0, 0.0, 120, 1.0, 1e-8),
    (1.0, 0.0, 171, 1.0, 1e-8), (1.0, 0.0, 200, 1.0, 1e-8)])
def test_truncation_point_goes_by_logarithms_out_of_float_range(M, a, degree,
                                                                x, tol):
    # M/(tol*rate) or M/tol overflowed, which gave T = inf (d = 0) or nan
    # (d > 0), and rate^(d+1) underflowed in the tail, a ZeroDivisionError;
    # from degree 107 on e_d(z), z^k or d! left float range, a bare
    # ValueError or OverflowError.  By mpmath the tail beyond T is tol,
    # and the rounded-up bound of it
    import mpmath

    bound = ExponentialOrderBound(M, a, degree)
    T = truncation_point(bound, x, tol)
    assert 0.0 < T < math.inf
    rate = x - a
    with mpmath.workdps(30):
        tail = (mpmath.mpf(M) * mpmath.gammainc(degree + 1, rate * T)
                / mpmath.mpf(rate) ** (degree + 1))
    assert float(tail) == pytest.approx(tol, rel=1e-9)
    assert _tail_bound(bound, x, T) == pytest.approx(tol, rel=1e-9)
    assert _tail_bound(bound, x, T) >= float(tail)


def test_truncation_point_keeps_its_bits_in_float_range():
    # the direct formula wherever its quotient is a float
    rng = np.random.default_rng(41)
    for M, x, tol in 10.0 ** rng.uniform([-3, -3, -14], [3, 3, -1],
                                         (50, 3)):
        want = max(0.0, math.log(M / (tol * x)) / x)
        got = truncation_point(ExponentialOrderBound(M, 0.0), x, tol)
        assert got == want


def test_truncation_point_beyond_the_largest_float_is_an_accuracy_error():
    # x - a = 5e-324: tol*rate underflowed to 0, a ZeroDivisionError
    with pytest.raises(AccuracyError, match="truncation point overflows"):
        truncation_point(B10, 5e-324, 2.5e-9)


@pytest.mark.parametrize("M,a,degree,x,tol", [
    (1.0, 0.0, 0, 1e-300, 1e-8), (1.0, 0.0, 0, 5e-324, 1e-8),
    (1.0, 0.0, 1, 1e-200, 1e-200), (1e300, 0.0, 3, 1e-300, 2e-300),
    (1.0, 0.0, 171, 1.0, 1e-8), (1.0, 0.0, 200, 1.0, 1e-8)])
def test_a_pass_past_float_range_raises_before_any_evaluation(M, a, degree,
                                                              x, tol):
    count = [0]

    def piece(u):
        count[0] += u.size
        return np.ones_like(u)

    with pytest.raises(AccuracyError,
                       match="budget cannot resolve|truncation point"):
        laplace_grid(piece, ExponentialOrderBound(M, a, degree), x, [1.0],
                     tol)
    assert count[0] == 0


def test_truncation_point_divergence():
    with pytest.raises(DivergenceError):
        truncation_point(ExponentialOrderBound(1.0, 2.0), 1.0, 1e-8)


def test_half_line_exponential():
    r = half_line_integral(lambda t: np.exp(-t), B10, 1.0, 1e-10)
    assert abs(r.value - 1.0) <= 1e-10
    assert r.abs_error_estimate >= abs(r.value - 1.0)
    assert r.evaluations > 0


def test_half_line_gamma_moment():
    # integral of t*exp(-2t) is Gamma(2)/2^2 = 1/4
    r = half_line_integral(lambda t: t * np.exp(-2.0 * t),
                           ExponentialOrderBound(1.0, 1.0), 2.0, 1e-10)
    assert abs(r.value - 0.25) <= 1e-10
    assert r.abs_error_estimate >= abs(r.value - 0.25)


def test_half_line_damped_sine_against_simpson_oracle():
    r = half_line_integral(lambda t: np.exp(-t) * np.sin(t), B10, 1.0, 1e-10)
    oracle = simpson(lambda t: np.exp(-t) * np.sin(t), 0.0, 60.0, 2 ** 17)
    assert abs(r.value - 0.5) <= 1e-10
    assert abs(r.value - oracle) <= 1e-10
    assert r.abs_error_estimate >= abs(r.value - 0.5)


def test_half_line_divergence_when_damping_too_small():
    with pytest.raises(DivergenceError):
        half_line_integral(lambda t: np.exp(t), ExponentialOrderBound(1.0, 1.0),
                           0.5, 1e-8)


def test_half_line_keeps_the_callers_errors_and_phase_allowance(
        monkeypatch):
    # half_line_integral runs laplace_grid's path on its integrand at
    # damping 0, but truncates on the caller's bound and x
    with pytest.raises(DivergenceError,
                       match=r"^damping x=0\.5 does not exceed growth rate "
                             r"a=1\.0$"):
        half_line_integral(lambda t: np.exp(0.5 * t),
                           ExponentialOrderBound(1.0, 1.0), 0.5, 1e-8)
    # the phases y*t inside exp(-(1 + i*y)*t) are bounded by osc*T, and
    # the estimate adds eps * mass * osc * T for them (mass M/(x-a) = 1)
    # to the grid path's
    grid = []

    def recorded(*args, **kwargs):
        grid.append(laplace_grid(*args, **kwargs))
        return grid[-1]

    monkeypatch.setattr(quadrature, "laplace_grid", recorded)
    y = 50.0
    r = half_line_integral(lambda t: np.exp(-(1.0 + 1j * y) * t), B10, 1.0,
                           1e-10, osc=y)
    (value,), (estimate,) = grid[0]
    assert r.value == value
    assert r.abs_error_estimate == estimate + _EPS * y * r.truncation_point
    assert abs(r.value - 1.0 / (1.0 + 1j * y)) <= r.abs_error_estimate
    assert r.abs_error_estimate <= 1e-10


def test_half_line_ignores_a_tail_cut_under_negative_damping():
    # exp(-t^2) <= exp(2.25 - 3t); at x = -2 the integrand exp(-t^2 + 2t)
    # is larger beyond the Gaussian's cut than the cut certifies, so
    # only the envelope, at rate x - a = 1, may truncate
    def cut(tol):
        return math.sqrt(math.log(1.0 / tol))

    r = half_line_integral(lambda t: np.exp(-t * t + 2.0 * t),
                           ExponentialOrderBound(math.exp(2.25), -3.0), -2.0,
                           1e-8, tail_cut=cut)
    exact = math.e * math.sqrt(math.pi) / 2.0 * (1.0 + math.erf(1.0))
    assert r.truncation_point > 20.0
    assert abs(r.value - exact) <= r.abs_error_estimate <= 1e-8


def test_half_line_degenerate_tolerance_returns_zero_estimate():
    # tail bound alone already satisfies a huge tolerance
    r = half_line_integral(lambda t: np.exp(-t), B10, 1.0, 10.0)
    assert r.value == 0j
    assert r.truncation_point == 0.0
    assert r.abs_error_estimate <= 5.0


def test_oscillatory_constant_t0():
    r = finite_oscillatory_integral(
        lambda y: np.ones_like(y, dtype=complex), 0.0, math.pi, 1e-10)
    assert abs(r.value - 1.0) <= 1e-12


def test_oscillatory_lorentzian_against_arctan():
    r = finite_oscillatory_integral(lambda y: 1.0 / (1.0 + y * y), 0.0,
                                    1000.0, 1e-6)
    oracle = math.atan(1000.0) / math.pi
    assert abs(r.value - oracle) <= r.abs_error_estimate + 1e-12
    assert abs(r.value - 0.5) <= 2e-3


def test_oscillatory_pure_kernel_closed_form():
    # (1/2pi) * integral of exp(i*pi*y) over [-1, 1] = sin(pi)/pi^2
    r = finite_oscillatory_integral(
        lambda y: np.ones_like(y, dtype=complex), math.pi, 1.0, 1e-10)
    assert abs(r.value - math.sin(math.pi) / math.pi ** 2) <= 1e-12


def test_linearity_of_half_line_integral():
    rng = np.random.default_rng(1)
    f = lambda t: np.exp(-t) * np.sin(t)
    g = lambda t: t * np.exp(-t)
    # t*exp(-t) <= (2/e)*exp(t/2)*exp(-t), so rate 1/2 gives an honest
    # envelope for any combination of the two integrands
    for _ in range(5):
        a, b = rng.standard_normal(2)
        m = abs(a) + 0.75 * abs(b) + 0.01
        combo = half_line_integral(lambda t: a * f(t) + b * g(t),
                                   ExponentialOrderBound(m, 0.5), 1.0, 1e-10)
        fa = half_line_integral(f, B10, 1.0, 1e-10)
        gb = half_line_integral(g, ExponentialOrderBound(1.0, 0.5), 1.0, 1e-10)
        lhs = combo.value
        rhs = a * fa.value + b * gb.value
        budget = combo.abs_error_estimate + abs(a) * fa.abs_error_estimate \
            + abs(b) * gb.abs_error_estimate
        assert abs(lhs - rhs) <= budget + 1e-14


def test_doubling_a_stays_within_estimates_for_fast_decay():
    F = lambda y: np.exp(-y * y / 8.0)
    r1 = finite_oscillatory_integral(F, 0.7, 20.0, 1e-10)
    r2 = finite_oscillatory_integral(F, 0.7, 40.0, 1e-10)
    assert abs(r2.value - r1.value) <= \
        r1.abs_error_estimate + r2.abs_error_estimate + 1e-14


def test_doubling_a_change_matches_added_mass_for_slow_decay():
    F = lambda y: 1.0 / (1.0 + y * y)
    r1 = finite_oscillatory_integral(F, 0.0, 500.0, 1e-8)
    r2 = finite_oscillatory_integral(F, 0.0, 1000.0, 1e-8)
    added = (math.atan(1000.0) - math.atan(500.0)) / math.pi
    assert abs(r2.value - r1.value) == pytest.approx(added, abs=1e-8)


def test_refinement_budget_exhaustion_raises_with_best_estimate(monkeypatch):
    # the payload is what a result would carry: the tail, the |K - G|
    # sum the message quotes and the rounding allowance
    sums = []
    refine = quadrature._refine

    def noting(panels, lefts, rights, k, e, m, tol, evals, cost, result):
        def payload(k, e, m, evals):
            sums.append(float(e.sum()))
            return result(k, e, m, evals)
        return refine(panels, lefts, rights, k, e, m, tol, evals, cost,
                      payload)

    monkeypatch.setattr(quadrature, "_refine", noting)
    chirp = lambda t: np.sin(200.0 * t * t) * np.exp(-t)
    with pytest.raises(AccuracyError, match="budget exhausted") as exc:
        half_line_integral(chirp, B10, 1.0, 1e-15)
    assert len(sums) == 1
    assert f"best estimate error {sums[0]:.3e}" in str(exc.value)
    assert exc.value.value is not None
    assert exc.value.abs_error_estimate > sums[0]


def test_oscillation_budget_guard_raises_upfront():
    with pytest.raises(AccuracyError):
        finite_oscillatory_integral(
            lambda y: np.ones_like(y, dtype=complex), 50.0, 1e5, 1e-6)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        half_line_integral(lambda t: np.exp(-t), B10, 1.0, -1e-8)
    with pytest.raises(ValueError):
        finite_oscillatory_integral(lambda y: y, 0.0, -1.0, 1e-8)
    with pytest.raises(ValueError):
        truncation_point(ExponentialOrderBound(0.0, 0.0), 1.0, 1e-8)


@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize("x,tol,name", [
    (math.nan, 1e-8, "x"), (math.inf, 1e-8, "x"), (-math.inf, 1e-8, "x"),
    (1.0, math.nan, "tol"), (1.0, math.inf, "tol"), (1.0, 0.0, "tol")])
def test_truncation_point_rejects_a_non_finite_x_or_tol(degree, x, tol, name):
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        truncation_point(ExponentialOrderBound(1.0, 0.0, degree), x, tol)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1e-8])
def test_non_finite_or_non_positive_tol_and_a_rejected(bad):
    with pytest.raises(ValueError, match="tol"):
        half_line_integral(lambda t: np.exp(-t), B10, 1.0, bad)
    with pytest.raises(ValueError, match="tol"):
        finite_oscillatory_integral(lambda y: 1.0 / (1.0 + y * y), 0.0,
                                    10.0, bad)
    with pytest.raises(ValueError, match="A"):
        finite_oscillatory_integral(lambda y: 1.0 / (1.0 + y * y), 0.0,
                                    bad, 1e-8)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_oscillation_hint_rejected(bad):
    with pytest.raises(ValueError, match="osc"):
        half_line_integral(lambda t: np.exp(-t), B10, 1.0, 1e-8, osc=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_damping_or_time_rejected(bad):
    with pytest.raises(ValueError, match="x"):
        half_line_integral(lambda t: np.exp(-t), B10, bad, 1e-8)
    with pytest.raises(ValueError, match="t"):
        finite_oscillatory_integral(lambda y: 1.0 / (1.0 + y * y), bad,
                                    10.0, 1e-8)


@pytest.mark.parametrize("t", [0.0, 0.7, -2.5])
@pytest.mark.parametrize("A", [3.0, 100.0, 1000.0])
def test_half_value_is_the_integral_over_half_the_range(t, A):
    # (1/2pi) * integral of exp(-|y|/4) * exp(i*y*t) over [-a, a], in
    # closed form: Re[(1 - exp(-a*(1/4 - i*t))) / (1/4 - i*t)] / pi
    def closed(a):
        z = 0.25 - 1j * t
        return ((1.0 - np.exp(-a * z)) / z).real / math.pi

    r = finite_oscillatory_integral(lambda y: np.exp(-np.abs(y) / 4.0), t,
                                    A, 1e-10)
    assert abs(r.value - closed(A)) <= r.abs_error_estimate
    assert abs(r.half_value - closed(A / 2.0)) <= r.abs_error_estimate
    assert r.abs_error_estimate <= 1e-10


@pytest.mark.parametrize("t,panels", [(0.0, 8), (3.0, 16)])
def test_panels_without_poles_take_the_widest_turn(t, panels):
    # 2 * ceil(A / (2 * w)) panels of 31 nodes for each of the two parts,
    # none of them refined, w = _THETA[-1] / pi * min(4, 2pi / (|t| + 1)):
    # the widest tabulated turn, 13.39, at the kernel's rate |t| + 1.  8
    # at the width cap of 17.05, 16 at t = 3; panels one oscillation wide
    # took 28 and 64 of 15 nodes
    r = finite_oscillatory_integral(lambda y: np.exp(-y * y / 8.0), t, 50.0,
                                    1e-8)
    width = quadrature._THETA[-1] / math.pi * min(
        4.0, 2.0 * math.pi / (abs(t) + 1.0))
    assert panels == 4 * math.ceil(50.0 / (2.0 * width))
    assert r.evaluations == 31 * panels


# transforms F(x1, x2, y) for y a numpy array or an mpmath number: the
# sign signal's, and a double pole on the right with a simple one on the
# left
def _jump(x1, x2, y):
    return 1.0 / (x1 + 1j * y) + 1.0 / (-x2 + 1j * y)


def _two_pole(x1, x2, y):
    return 1.0 / (x1 + 0.5 + 1j * y) ** 2 + 1.0 / (x2 + 1.0 - 1j * y)


_INVERSION_EVALUATIONS = {0.0: 3844, 2.0: 7192, 3.75: 11036}


@pytest.mark.parametrize("t,gk15", [(0.0, 7560), (2.0, 14400),
                                    (3.75, 22680)])
def test_inversion_evaluation_counts_are_pinned(t, gk15):
    # machine-independent cost of the pass for the sign signal at x = 1
    # (_INVERSION_EVALUATIONS), below gk15, its cost with 7/15 panels one
    # oscillation wide; half-oscillation 7/15 panels took 15000, 28680
    # and 45360
    r = finite_oscillatory_integral(lambda y: _jump(1.0, 1.0, y), t, 1000.0,
                                    1e-6)
    assert r.evaluations == _INVERSION_EVALUATIONS[t]
    assert r.evaluations < gk15


@pytest.mark.parametrize("t,evaluations", [(0.0, 279), (2.0, 2418),
                                           (3.75, 4433)])
def test_real_split_evaluation_counts_are_pinned(t, evaluations):
    # the sign signal's SplitTransform has real coefficients, so it is
    # hermitian, evaluated at y >= 0 only, and its poles at y = +-i size
    # the uniform panels and grade the first pass, all in one call of F.
    # 7/15 panels took 165, 4830 and 9000: at t = 0 the two uniform
    # panels are graded into 9 pieces of 31 nodes, where they were
    # graded into 11 of 15.  One oscillation per uniform 7/15 panel took
    # 3780, 7185 and 11355
    G, described = _on_line(parse_transform("1/s - 1/cs"), 1.0, 1.0)
    assert described["hermitian"]
    assert described["poles"] == ((1j, 1, 1.0), (-1j, 1, 1.0))
    sizes = []

    def counted(y):
        sizes.append(y.size)
        return G(y)

    r = finite_oscillatory_integral(counted, t, 1000.0, 1e-6, **described)
    assert r.evaluations == sum(sizes) == evaluations
    assert len(sizes) == 1


@pytest.mark.parametrize("t,panels", [(0.0, 2), (0.5, 80), (2.0, 320),
                                      (-2.0, 320)])
def test_split_uniform_panels_take_the_models_width(monkeypatch, t, panels):
    # the sign transform at x = 1, A = 4280, tol 1e-6: its poles at +-i
    # bound the integral of |F| by 2*asinh(4280) = 18.1, for which the
    # error model allows its widest turn, theta = 13.39, so the uniform
    # panels are 2*theta/|t| wide (A/2 at t = 0).  At A = 1000 they
    # number 2, 20, 76 and 76, where 7/15 panels numbered 2, 80, 320 and
    # 320 and one oscillation of the kernel took 250, 250 and 478
    counts = []
    graded = quadrature._graded
    monkeypatch.setattr(quadrature, "_graded",
                        lambda *args: counts.append(args[1]) or graded(*args))
    G, described = _on_line(parse_transform("1/s - 1/cs"), 1.0, 1.0)
    assert quadrature._pole_mass(described["poles"], 4280.0) == pytest.approx(
        2.0 * math.asinh(4280.0), rel=1e-15)
    finite_oscillatory_integral(G, t, 4280.0, 1e-6, **described)
    assert counts == [panels]
    theta = quadrature._THETA[-1]
    assert panels == (2 if t == 0.0 else
                      2 * math.ceil(4280.0 / (2.0 * 2.0 * theta / abs(t))))


@pytest.mark.parametrize("tol", [1e-200, 1e-300, 5e-324])
def test_grading_toward_a_budget_beyond_reach_is_dropped(tol):
    # reach^2 overflowed to inf for tol <= 1e-200, an OverflowError from
    # the panel index, and at 5e-324 the pole's share underflowed to 0, a
    # ZeroDivisionError; every piece would split, so the grading is
    # dropped and _refine exhausts the budget, a typed error
    G, described = _on_line(parse_transform("1/(s+1) + 1/(cs+2)"), 1.0, 1.0)
    n, A = 80, 250.0
    split, pieces = quadrature._graded(
        described["poles"], n, A / (2 * n), 0.5, tol * math.pi,
        quadrature.MAX_EVALUATIONS // 31)
    assert split == [] and pieces.shape == (4, 0)


def test_refinement_evaluates_each_round_in_one_call():
    # both halves of a round's split panels go to F together: 6 rounds of
    # 2 panels each after the initial pass of 6, 1116 evaluations.  7/15
    # panels took 780 and 6 rounds of 60, 1140 in all, and two calls per
    # round 13 calls for those
    sizes = []

    def F(y):
        sizes.append(y.size)
        return _jump(0.05, 0.05, y)

    r = finite_oscillatory_integral(F, 0.5, 100.0, 1e-8)
    assert sizes == [372] + [124] * 6
    assert r.evaluations == 1116


# SplitTransforms of the certificate sweep: two with real coefficients,
# which enter the kernel as hermitian, and two with complex ones,
# which are split into the transforms of Re f and Im f
_SPLITS = ("1/s - 1/cs", "1/(s+0.5)^2 + 1/(cs+1)",
           "(1+i)/(s+1) - 1/(cs+2)", "1/(s-i) + i/cs")


def _mp_split(text):
    """The SplitTransform of text as F(x1, x2, y) for mpmath numbers."""
    import mpmath

    st = parse_transform(text)

    def rational(r, z):
        def poly(p):
            return mpmath.polyval([mpmath.mpc(complex(c))
                                   for c in p.coef[::-1]], z)
        return poly(r.num) / poly(r.den)

    return lambda x1, x2, y: (rational(st.g1, x1 + 1j * y)
                              + rational(st.g2, x2 - 1j * y))


def _mp_values(F, x1, x2, t, A, n0):
    """(1/2pi) * the integral of F(x1, x2, y)*exp(i*t*y) over [-A, A] and
    over [-A/2, A/2], by mpmath at 30 digits on n0 equal parts, n0 a
    multiple of 4."""
    import mpmath

    edges = -A + (2.0 * A / n0) * np.arange(n0 + 1)
    with mpmath.workdps(30):
        X1, X2, T = mpmath.mpf(x1), mpmath.mpf(x2), mpmath.mpf(t)
        parts = [mpmath.quad(lambda y: F(X1, X2, y) * mpmath.expj(T * y),
                             [edges[k], edges[k + 1]],
                             method="gauss-legendre") for k in range(n0)]
        two_pi = 2 * mpmath.pi
        return (complex(mpmath.fsum(parts) / two_pi),
                complex(mpmath.fsum(parts[n0 // 4:3 * n0 // 4]) / two_pi))


def _one_oscillation_parts(t, A):
    """4 * ceil(A / (2 * min(4, 2pi / (|t| + 1)))): the parts of [-A, A]
    one oscillation of the kernel wide, A/2 an edge."""
    return 4 * math.ceil(A / (2.0 * min(4.0, 2.0 * math.pi / (abs(t) + 1.0))))


@pytest.mark.parametrize("case", range(16))
def test_certificate_holds_at_one_oscillation_per_panel(case):
    # seeded sweep against mpmath at 30 digits, split one oscillation of
    # the kernel apart; both the [-A, A] and the [-A/2, A/2] value.
    # Cases 0-9 are callables, whose uniform panels are one oscillation
    # wide; 10-15 SplitTransforms as sl_inverse_numeric_pair passes them
    # to the kernel, whose panels the error model widens
    rng = np.random.default_rng([31, case])
    x1, x2 = rng.uniform(0.05, 1.0, 2)
    t = float(rng.uniform(-4.0, 4.0))
    A = float(rng.uniform(10.0, 200.0))
    tol = 10.0 ** -int(rng.integers(6, 11))
    if case < 10:
        F = (_jump, _two_pole)[case % 2]
        integrand, described = (lambda y: F(x1, x2, y)), {}
    else:
        text = _SPLITS[case % 4]
        F = _mp_split(text)
        integrand, described = _on_line(parse_transform(text), x1, x2)
        assert described["hermitian"] == (case % 4 < 2)
    r = finite_oscillatory_integral(integrand, t, A, tol, **described)
    full, half = _mp_values(F, x1, x2, t, A, _one_oscillation_parts(t, A))
    assert abs(r.value - full) <= r.abs_error_estimate
    assert abs(r.half_value - half) <= r.abs_error_estimate


@pytest.mark.parametrize("case", range(8))
def test_certificate_holds_on_the_widest_first_pass(monkeypatch, case):
    # SplitTransforms at t = 0 (cases 0-3) and 0 < |t| <= 1, where the
    # error model widens the uniform panels most: at t = 0 the first
    # pass is 2 uniform panels, A/2 wide, and the pieces graded toward
    # the poles.  Against mpmath at 30 digits, split one oscillation of
    # the kernel apart, the [-A, A] and [-A/2, A/2] values lie within
    # the estimate, and the estimate within tol
    rng = np.random.default_rng([37, case])
    x1, x2 = rng.uniform(0.05, 1.0, 2)
    t = 0.0 if case < 4 else float(rng.uniform(-1.0, 1.0))
    A = float(rng.uniform(10.0, 200.0))
    tol = 10.0 ** -int(rng.integers(6, 11))
    text = _SPLITS[case % 4]
    counts = []
    graded = quadrature._graded
    monkeypatch.setattr(quadrature, "_graded",
                        lambda *args: counts.append(args[1]) or graded(*args))
    G, described = _on_line(parse_transform(text), x1, x2)
    r = finite_oscillatory_integral(G, t, A, tol, **described)
    parts = _one_oscillation_parts(t, A)
    assert counts[0] == 2 if t == 0.0 else counts[0] < parts // 2
    full, half = _mp_values(_mp_split(text), x1, x2, t, A, parts)
    assert abs(r.value - full) <= r.abs_error_estimate <= tol
    assert abs(r.half_value - half) <= r.abs_error_estimate



@pytest.mark.parametrize("t", [0.0, 0.5, -1.0])
@pytest.mark.parametrize("text", ["(s+2)/(s+1)^2", "s/(s+1)^2 - 1/(cs+1)"])
def test_certificate_holds_past_the_leading_laurent_term(text, t):
    # double poles with a 1/(s+1) term besides the leading one, which the
    # poles' estimate of the integral of |F| leaves out, so that it falls
    # short (with + 1/(cs+1) the tails cancel and it does not) and the
    # first pass is as wide as the model allows; against mpmath the
    # values still lie within the estimate, and it within tol
    x1, x2, A, tol = 0.3, 0.5, 150.0, 1e-8
    G, described = _on_line(parse_transform(text), x1, x2)
    y = np.linspace(0.0, A, 150_001)
    assert quadrature._pole_mass(described["poles"], A) < np.trapezoid(
        np.abs(G(y)), y)
    r = finite_oscillatory_integral(G, t, A, tol, **described)
    full, half = _mp_values(_mp_split(text), x1, x2, t, A,
                            _one_oscillation_parts(t, A))
    assert abs(r.value - full) <= r.abs_error_estimate <= tol
    assert abs(r.half_value - half) <= r.abs_error_estimate

# (text, x1, x2, t, A, tol) whose poles grade the first pass: complex
# poles at |Re y_p| = 0.7 and 3, away from y = 0, and at 1, 1 from the
# line over the middle of a uniform panel; poles at A/2 + 0.05 and
# A/2 - 0.05, 0.05 from the line, whose grading straddles the A/2 edge;
# a real pole 0.05 from the line; orders 1 to 4 0.1 from it; and complex
# coefficients, evaluated at +-y
_GRADED = (
    ("1/((s+0.4)^2+0.49) + 1/(cs+1)", 0.3, 0.5, 1.5, 12.0, 1e-8),
    ("1/((s+0.7)^2+1) + 1/(cs+1)", 0.3, 0.5, 0.5, 40.0, 1e-6),
    ("1/((s+0.2)^2+9) - 1/(cs+0.5)", 0.1, 0.4, -2.0, 12.0, 1e-8),
    ("1/((s-0.25)^2+36.6025) + 1/(cs+1)", 0.3, 0.5, 0.7, 12.0, 1e-8),
    ("1/((s-0.25)^2+35.4025) + 1/(cs+1)", 0.3, 0.5, -0.7, 12.0, 1e-8),
    ("1/s - 1/cs", 0.05, 0.05, 1.0, 12.0, 1e-8),
    ("1/(s+0.5) + 1/(cs+1)", -0.4, 0.5, 2.0, 12.0, 1e-8),
    ("1/(s+0.5)^2 + 1/(cs+1)", -0.4, 0.5, 2.0, 12.0, 1e-8),
    ("1/(s+0.5)^3 + 1/(cs+1)", -0.4, 0.5, -1.0, 12.0, 1e-8),
    ("1/(s+0.5)^4 + 1/(cs+1)", -0.4, 0.5, 0.5, 12.0, 1e-8),
    ("(1+i)/(s+0.3-0.7*i) + 1/(cs+1)", 0.1, 0.5, -1.2, 12.0, 1e-8),
)


@pytest.mark.parametrize("text,x1,x2,t,A,tol", _GRADED)
def test_graded_first_pass_meets_its_certificate(monkeypatch, text, x1, x2,
                                                 t, A, tol):
    # one call of F, against mpmath at 20 digits (30 took over 2 s) over
    # the same integral, cut at the poles' projections, at 0.05-wide steps
    # around them and every 4 in y; half_value against a standalone call
    # at A/2, each within its tolerance (the kernel's prefactor is 1),
    # and the pair's half value within 2*tol*exp(x*t) of a standalone
    # sl_inverse_numeric at A/2
    import mpmath

    from symlap.inversion import sl_inverse_numeric, sl_inverse_numeric_pair

    splits = []
    graded = quadrature._graded

    def recorded(*args):
        out = graded(*args)
        splits.append(len(out[0]))
        return out

    monkeypatch.setattr(quadrature, "_graded", recorded)
    st = parse_transform(text)
    integrand, described = _on_line(st, x1, x2)
    assert described["hermitian"] == st.is_real
    calls = []
    r = finite_oscillatory_integral(
        lambda y: calls.append(y.size) or integrand(y), t, A, tol,
        **described)
    assert splits[0] > 0 and len(calls) == 1
    F = _mp_split(text)
    cuts = {0.0, A}
    for y_p, _, _ in described["poles"]:
        loc = abs(y_p.real)
        cuts.update(min(max(loc + k * 0.05, 0.0), A) for k in range(-4, 5))
    cuts.update(np.arange(0.0, A, 4.0).tolist())
    cuts = sorted(cuts)
    with mpmath.workdps(20):
        X1, X2, T = mpmath.mpf(x1), mpmath.mpf(x2), mpmath.mpf(t)

        def integral(sign):
            return mpmath.quad(lambda y: F(X1, X2, sign * y)
                               * mpmath.expj(T * sign * y), cuts,
                               method="gauss-legendre")

        right = integral(1)
        full = (2 * mpmath.re(right) if st.is_real
                else right + integral(-1)) / (2 * mpmath.pi)
    assert abs(r.value - complex(full)) <= r.abs_error_estimate <= tol
    alone = finite_oscillatory_integral(integrand, t, A / 2.0, tol,
                                        **described)
    assert abs(r.half_value - alone.value) <= 2.0 * tol
    prefactor = math.exp(x1 * t if t >= 0 else -x2 * t)
    half = sl_inverse_numeric_pair(st, x1, x2, t, A, tol)[1]
    assert abs(half - sl_inverse_numeric(st, x1, x2, t, A / 2.0, tol)) <= (
        2.0 * tol * prefactor)


@pytest.mark.parametrize("P,block", [(3, 8), (5, 8), (37, 8), (40, 8),
                                     (37, 7), (1, 1), (225, 15), (4100, 64)])
def test_phase_table_matches_per_node_exponentials(P, block):
    # P < block, a ragged last block and whole blocks, against one exp
    # per (y, panel); the ragged block is padded with zero panels.  4100
    # panels in blocks of 64 take the block products in two slices
    rng = np.random.default_rng([7, P, block])
    half = 0.07
    nb = -(-P // block)
    ys = np.concatenate([[0.0, 59.0, -59.0], rng.uniform(-60.0, 60.0, 9)])
    terms = np.zeros((ys.size, nb * block), dtype=complex)
    terms[:, :P] = (rng.standard_normal((ys.size, P))
                    + 1j * rng.standard_normal((ys.size, P)))
    got = _block_phased_sum(terms, ys, half, block)
    mids = (2.0 * np.arange(P) + 1.0) * half
    for k, y in enumerate(ys):
        direct = sum(np.exp(-1j * y * c) * t for c, t in zip(mids, terms[k]))
        scale = np.abs(terms[k]).sum()
        # phase arguments up to |y| * 2 * nb * block * half; block - 1
        # additions inside a block and nb - 1 across blocks, in any order
        phase = abs(y) * 2.0 * (nb + 1) * block * half
        assert abs(got[k] - direct) <= 4 * np.finfo(float).eps * scale * (
            phase + block + nb + 4.0)


def test_phase_table_is_exact_at_zero_oscillation():
    # every phase is exactly 1, so the value is the plain sum in block
    # order, over 37 panels padded to 5 blocks of 8; whole-number terms
    # make that sum exact in whatever order the blocks are added
    rng = np.random.default_rng(8)
    terms = np.zeros((1, 40), dtype=complex)
    terms[0, :37] = (rng.integers(-2 ** 40, 2 ** 40, 37)
                     + 1j * rng.integers(-2 ** 40, 2 ** 40, 37))
    got = _block_phased_sum(terms, np.zeros(1), 0.3, 8)
    blocks = [sum(terms[0, 8 * a:8 * a + 8]) for a in range(5)]
    assert got[0] == sum(blocks)


@pytest.mark.parametrize("case", range(5))
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_tail_bound_against_mpmath(d, case):
    # seeded sweep of the envelope M * t^d * exp(-(x - a)*t): the
    # certified tail beyond T is at least the integral at 30 digits, and
    # T is within 1/(x - a) of the exact root of tail = tol
    import mpmath
    rng = np.random.default_rng([41, d, case])
    M = float(10.0 ** rng.uniform(-1.0, 1.0))
    a = float(rng.uniform(-1.0, 1.0))
    rate = float(np.exp(rng.uniform(math.log(0.05), math.log(8.0))))
    tol = float(10.0 ** rng.uniform(-14.0, -4.0))
    bound = ExponentialOrderBound(M, a, d)
    x = a + rate
    T = truncation_point(bound, x, tol)
    certified = _tail_bound(bound, x, T)
    with mpmath.workdps(30):
        r = mpmath.mpf(x) - mpmath.mpf(a)

        def tail(t0):
            return M * mpmath.gammainc(d + 1, r * t0) / r ** (d + 1)

        oracle = mpmath.quad(lambda t: M * t ** d * mpmath.exp(-r * t),
                             [T, T + 1 / r, mpmath.inf])
        root = mpmath.findroot(lambda t0: tail(t0) - tol, T)
        assert mpmath.almosteq(oracle, tail(T), rel_eps=1e-20)
    assert certified >= oracle
    assert certified <= tol * (1.0 + 1e-12)
    assert abs(T - float(root)) <= 1.0 / rate


def test_half_line_takes_the_shorter_tail_cut():
    # exp(-t^2) at x = 0.5: the envelope needs T = 41 for a tol/2 of
    # 2.5e-9, the Gaussian's own cut sqrt(log(1/2.5e-9)) = 4.45 certifies
    # the same tail
    def cut(tol):
        return math.sqrt(math.log(1.0 / tol))

    r = half_line_integral(lambda t: np.exp(-t * t - 0.5 * t), B10, 0.5,
                           5e-9, tail_cut=cut)
    assert r.truncation_point == pytest.approx(cut(2.5e-9))
    # sqrt(pi)/2 * erfcx(1/4), the integral of exp(-t^2 - t/2) over t > 0
    from scipy.special import erfcx
    exact = math.sqrt(math.pi) / 2.0 * erfcx(0.25)
    assert abs(r.value - exact) <= r.abs_error_estimate <= 5e-9


def _moment_gap(weights, k):
    """|rule - exact| for the rule with these left-half weights (digit
    strings) applied to x^k on [-1, 1], k even, in 40-digit decimal
    arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 40
        x = [Decimal(d) for d in quadrature._NODE_DIGITS]
        w = [Decimal(d) for d in weights]
        rule = (2 * sum(wj * xj ** k for wj, xj in zip(w[:15], x[:15]))
                + (w[15] if k == 0 else 0))
        return abs(rule - Decimal(2) / (k + 1))


@pytest.mark.parametrize("weights,exact,next_even", [
    (quadrature._KRONROD_DIGITS, 46, 48), (quadrature._GAUSS_HALF, 29, 30)],
    ids=["K31", "G15"])
def test_the_rule_integrates_monomials_exactly_to_its_degree(weights, exact,
                                                             next_even):
    # a mistyped digit of a node or weight breaks one of these moments;
    # odd powers vanish by the symmetry x_(30-j) = -x_j
    for k in range(0, exact + 1, 2):
        assert _moment_gap(weights, k) < Decimal("1e-31"), k
    assert _moment_gap(weights, next_even) > Decimal("1e-20")
    # the float tables are the digits, mirrored
    half = [float(d) for d in weights]
    w = _WGK if weights is quadrature._KRONROD_DIGITS else _WG
    assert w.tolist() == half + half[-2::-1]
    nodes = [float(d) for d in quadrature._NODE_DIGITS]
    assert _XGK.tolist() == nodes + [-v for v in nodes[-2::-1]]


def _gauss_kronrod_31(dps):
    """Nodes and Kronrod and Gauss weights of the 15/31 rule (Gauss
    weights 0 at the Kronrod-only nodes) to dps digits, from their
    definitions: the Gauss nodes are the roots of P_15, the others those
    of the Stieltjes polynomial E_16, monic, even and orthogonal to
    P_15(x)*x^k for k < 16, each polished by Newton's method from the
    float node; the Kronrod weights solve the even moment equations
    through x^30."""
    import mpmath
    from fractions import Fraction

    p = [[Fraction(1)], [Fraction(0), Fraction(1)]]  # ascending powers
    for n in range(1, 15):  # Bonnet: (n+1) P_(n+1) = (2n+1) x P_n - n P_(n-1)
        up = [Fraction(0)] + [(2 * n + 1) * c for c in p[n]]
        down = p[n - 1] + [Fraction(0)] * 2
        p.append([(a - n * b) / (n + 1) for a, b in zip(up, down)])
    p15 = p[15]

    def integral(coef):  # of the polynomial over [-1, 1]
        return sum(c * Fraction(2, k + 1) for k, c in enumerate(coef)
                   if k % 2 == 0)

    def times_power(coef, m):
        return [Fraction(0)] * m + coef

    rows = [[integral(times_power(p15, k + 2 * i)) for i in range(8)]
            for k in range(1, 16, 2)]
    rhs = [-integral(times_power(p15, k + 16)) for k in range(1, 16, 2)]
    with mpmath.workdps(dps + 20):
        def mp(q):
            return mpmath.mpf(q.numerator) / q.denominator

        c = mpmath.lu_solve(mpmath.matrix([[mp(q) for q in r] for r in rows]),
                            mpmath.matrix([mp(q) for q in rhs]))
        e16 = [c[i // 2] if i % 2 == 0 else 0 for i in range(16)] + [1]
        p15 = [mp(q) for q in p15]
        nodes = []
        for j, x0 in enumerate(_XGK.tolist()):
            coef = (p15 if j % 2 else e16)[::-1]
            x = mpmath.mpf(x0)
            for _ in range(8):
                value, slope = mpmath.polyval(coef, x, derivative=True)
                x -= value / slope
            nodes.append(x)
        nodes[15] = mpmath.mpf(0)
        moments = mpmath.matrix(
            [[2 * nodes[j] ** k if j < 15 else int(k == 0)
              for j in range(16)] for k in range(0, 31, 2)])
        kronrod = mpmath.lu_solve(moments, mpmath.matrix(
            [mpmath.mpf(2) / (k + 1) for k in range(0, 31, 2)]))
        kronrod = list(kronrod) + list(kronrod)[-2::-1]
        p15c = p15[::-1]
        gauss = [0] * 31
        for j in range(1, 31, 2):
            slope = mpmath.polyval(p15c, nodes[j], derivative=True)[1]
            gauss[j] = 2 / ((1 - nodes[j] ** 2) * slope ** 2)
    return nodes, kronrod, gauss


def test_error_model_table_matches_the_rule_in_high_precision():
    # phi(theta) = |sum (w^K - w^G) exp(i theta x_j)| / 2 from the rule
    # derived anew at 130 digits, whose rounding is far below phi(pi/256)
    # = 2.5e-99; a float sum stops at its cancellation, about 1e-17
    import mpmath

    nodes, kronrod, gauss = _gauss_kronrod_31(130)
    with mpmath.workdps(130):
        for j, d in enumerate(quadrature._NODE_DIGITS):
            assert abs(nodes[j] - mpmath.mpf(d)) < mpmath.mpf("1e-32")
        for j, d in enumerate(quadrature._KRONROD_DIGITS):
            assert abs(kronrod[j] - mpmath.mpf(d)) < mpmath.mpf("1e-32")
        for j, d in enumerate(quadrature._GAUSS_HALF):
            assert abs(gauss[j] - mpmath.mpf(d)) < mpmath.mpf("1e-32")
        diff = [k - g for k, g in zip(kronrod, gauss)]
        assert quadrature._THETA[0] <= math.pi / 256
        top = 0.0
        for theta, phi in zip(quadrature._THETA, _PHI):
            z = sum(d * mpmath.expj(mpmath.mpf(theta) * x)
                    for d, x in zip(diff, nodes))
            top = max(top, float(abs(z) / 2))
            assert phi == pytest.approx(top, rel=1e-6), theta


def test_error_model_table_is_nondecreasing():
    assert np.all(np.diff(_PHI) >= 0.0)
    end = quadrature._THETA[-1]
    at_end = 0.5 * abs(np.sum((_WGK - _WG) * np.exp(1j * end * _XGK)))
    assert _PHI[-1] == pytest.approx(at_end, rel=1e-6)
    assert 1e-9 < _PHI[-1] < 1e-8


@pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
def test_grid_panel_width_comes_from_the_error_model(tol):
    # theta is the largest k*pi/256 up to 13.39 whose running maximum of
    # |sum (w^K - w^G) exp(i theta x_j)|/2, times the mass bound M/(x-a)
    # = 1, is a quarter of the tol/2 panel budget; the panel count is
    # ceil(T * (max|y| + x) / (2 theta))
    thetas = math.pi * np.arange(1, 1092) / 256
    phi = np.maximum.accumulate(0.5 * np.abs(
        np.exp(1j * np.outer(thetas, _XGK)) @ (_WGK - _WG)))
    theta = thetas[phi <= 0.25 * tol / 2.0][-1]
    T = truncation_point(B10, 1.0, tol / 2.0)
    nodes = []

    def piece(u):
        nodes.append(u.size)
        return np.ones_like(u)

    ys = np.linspace(-59.0, 59.0, 201)
    values, est = laplace_grid(piece, B10, 1.0, ys, tol)
    assert sum(nodes) == 31 * math.ceil(T * 60.0 / (2.0 * theta))
    assert np.all(np.abs(values - 1.0 / (1.0 + 1j * ys)) <= est)


def test_grid_of_a_complex_piece():
    # exp((-1 + 2i)*u) has a complex value at every node, so the pair
    # sums and differences carry real and imaginary parts alike; its
    # transform at s = x + i*y is 1/(s + 1 - 2i)
    ys = np.linspace(-40.0, 40.0, 161)
    values, est = laplace_grid(lambda u: np.exp((-1.0 + 2.0j) * u),
                               ExponentialOrderBound(1.0, -1.0), 0.5, ys,
                               1e-10)
    exact = 1.0 / (0.5 + 1j * ys + 1.0 - 2.0j)
    assert np.all(np.abs(values - exact) <= est)
    assert np.all(est <= 1e-10)


def test_grid_without_damping_or_oscillation_uses_the_decay_length():
    # an envelope decaying at rate 1 needs no damping: x = 0, y = 0, a
    # pass of the least 4 panels
    values, est = laplace_grid(lambda u: np.exp(-u),
                               ExponentialOrderBound(1.0, -1.0), 0.0,
                               [0.0], 1e-10)
    assert abs(values[0] - 1.0) <= est[0] <= 1e-10


def test_grid_of_a_zero_envelope_under_tail_cut():
    # M = 0 leaves the error model no mass to scale by
    values, est = laplace_grid(np.zeros_like, ExponentialOrderBound(0.0, 0.0),
                               0.0, [0.0, 2.0], 1e-8, tail_cut=lambda tol: 1.0)
    assert np.all(values == 0.0) and np.all(est <= 1e-8)


@pytest.mark.parametrize("ys", [[0.7], np.linspace(-50.0, 50.0, 201)],
                         ids=["one-y", "201-y"])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_real_piece_gives_the_bits_of_its_complex_cast(name, ys):
    # a real piece is damped, paired and summed in real arithmetic; a
    # zero imaginary part changes no bit of values or estimates, y = 0
    # and the zero piece of heaviside's negative side included
    f = catalog_signal(name, 1.3)
    ys = np.concatenate([[0.0], ys])
    for side, x in (("pos", 1.5), ("neg", 0.75)):
        piece = f.pos if side == "pos" else (lambda u: f.neg(-u))
        args = (f.bound_for(side), x, ys, 1e-9)
        kw = {"osc": f.osc_hint, "tail_cut": f.tail_cut}
        real = laplace_grid(piece, *args, **kw)
        cast = laplace_grid(lambda u: piece(u).astype(complex), *args, **kw)
        for a, b in zip(real, cast):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("dtype", [float, complex])
def test_grid_rejects_a_non_finite_integrand_value(bad, dtype):
    # one node of the uniform pass returns bad; no value is returned
    def piece(u):
        out = np.exp(-u).astype(dtype)
        out[u.size // 2] = bad
        return out

    with pytest.raises(AccuracyError,
                       match="integrand returned a non-finite value"):
        laplace_grid(piece, B10, 1.0, [0.0, 3.0], 1e-8)


def test_truncation_memo_takes_numpy_scalars_and_zero_d_arrays():
    # the truncation is memoized on (bound, x, tol, tail_cut), as floats
    want = laplace_grid(lambda u: np.exp(-u), B10, 1.0, [0.5], 1e-8)
    for x, tol in ((np.array(1.0), np.array(1e-8)),
                   (np.float64(1.0), np.float64(1e-8))):
        got = laplace_grid(lambda u: np.exp(-u), B10, x, [0.5], tol)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        r = half_line_integral(lambda u: np.exp(-u), B10, x, tol)
        assert r == half_line_integral(lambda u: np.exp(-u), B10, 1.0, 1e-8)


@pytest.mark.parametrize("check, message", [
    (quadrature.require_finite, "finite"),
    (quadrature.require_positive, "positive and finite")])
def test_checkers_refuse_a_nonzero_imaginary_part_by_name(check, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (2.0 + 1j, np.complex128(2.0 + 1j), [3.0, 2.0 + 1j],
                      np.array([[3.0], [2.0 + 1j]])):
            with pytest.raises(ValueError, match=r"^v must be real, got"):
                check(u=1.0, v=value)
        check(v=np.array([3.0 + 0j, 2.0]), w=2.0 + 0j)
        for bad, got in ((np.array([3.0 + 0j, math.nan]), "nan"),
                         ([3.0, -math.inf], "-inf")):
            with pytest.raises(ValueError, match=f"^v must be {message}, "
                                                 f"got {got}$"):
                check(v=bad)


@pytest.mark.parametrize("name, point", [
    ("x", (np.array([1.0, 1.0 + 1e-3j]), 0.5, 1e-8)),
    ("ys", (1.0, np.array([0.5, 2.0 + 1j]), 1e-8)),
    ("tol", (1.0, 0.5, np.array([1e-8 + 1e-20j]))),
])
def test_grid_refuses_complex_input_unless_real(name, point):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be real, got"):
            laplace_grid(lambda u: np.exp(-u), B10, *point)
        real = [np.asarray(a).real for a in point]
        want = laplace_grid(lambda u: np.exp(-u), B10, *real)
        got = laplace_grid(lambda u: np.exp(-u), B10,
                           *(r + 0j for r in real))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("seed", range(4))
def test_batches_hold_passes_of_one_y_count_within_the_entry_bound(seed):
    # synthetic passes of 1 to 6 y and 4 to 6000 panels, some beyond
    # _MAX_PANELS; a batch of several passes runs with a row axis padded
    # to its widest pass, and a pass whose one-y node product is above
    # _SOLO_DGEMM takes the einsum path, which only one row may take
    rng = np.random.default_rng([43, seed])
    passes = [quadrature._Pass(1.0, 1e-8, 10.0, 0.0, int(n), None, int(c))
              for n, c in zip(rng.integers(4, 6001, 60),
                              rng.integers(1, 7, 60))]
    assert any(p.panels > quadrature._MAX_PANELS for p in passes)

    def width(panels):
        block = math.isqrt(panels - 1) + 1
        return -(-panels // block) * block

    batches = quadrature._batches(passes)
    assert sorted(id(p) for b in batches for p in b) == sorted(map(id, passes))
    for batch in batches:
        assert len({p.count for p in batch}) == 1
        if len(batch) > 1:
            widest = max(p.panels for p in batch)
            assert (len(batch) * width(widest) * (quadrature._N
                    + batch[0].count) <= quadrature._BATCH_ENTRIES)
        for p in batch:
            if 4 * quadrature._N * width(p.panels) > quadrature._SOLO_DGEMM:
                assert batch == [p]
