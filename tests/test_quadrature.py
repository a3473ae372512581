import math

import numpy as np
import pytest

from _oracles import simpson
from symlap.core import ExponentialOrderBound
from symlap.errors import AccuracyError, DivergenceError
from symlap.quadrature import (
    _PHI,
    _WG,
    _WGK,
    _XGK,
    _phased_sum,
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


def test_refinement_budget_exhaustion_raises_with_best_estimate():
    chirp = lambda t: np.sin(200.0 * t * t) * np.exp(-t)
    with pytest.raises(AccuracyError) as exc:
        half_line_integral(chirp, B10, 1.0, 1e-15)
    assert exc.value.value is not None
    assert exc.value.abs_error_estimate is not None


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


@pytest.mark.parametrize("t,panels", [(0.0, 28), (3.0, 64)])
def test_panels_are_one_oscillation_wide(t, panels):
    # 4 * ceil(A / (2 * min(4, 2pi / (|t| + 1)))) panels of 15 nodes, none
    # of them refined: 28 at the width cap of 4, 64 at t = 3
    r = finite_oscillatory_integral(lambda y: np.exp(-y * y / 8.0), t, 50.0,
                                    1e-8)
    assert r.evaluations == 15 * panels


# transforms F(x1, x2, y) for y a numpy array or an mpmath number: the
# sign signal's, and a double pole on the right with a simple one on the
# left
def _jump(x1, x2, y):
    return 1.0 / (x1 + 1j * y) + 1.0 / (-x2 + 1j * y)


def _two_pole(x1, x2, y):
    return 1.0 / (x1 + 0.5 + 1j * y) ** 2 + 1.0 / (x2 + 1.0 - 1j * y)


@pytest.mark.parametrize("t,evaluations", [(0.0, 7560), (2.0, 14400),
                                           (3.75, 22680)])
def test_inversion_evaluation_counts_are_pinned(t, evaluations):
    # machine-independent cost of the pass for the sign signal at x = 1;
    # half-oscillation panels took 15000, 28680 and 45360
    r = finite_oscillatory_integral(lambda y: _jump(1.0, 1.0, y), t, 1000.0,
                                    1e-6)
    assert r.evaluations == evaluations


@pytest.mark.parametrize("case", range(10))
def test_certificate_holds_at_one_oscillation_per_panel(case):
    # seeded sweep against mpmath at 30 digits, split at the initial
    # panel edges; both the [-A, A] and the [-A/2, A/2] value
    import mpmath
    rng = np.random.default_rng([31, case])
    x1, x2 = rng.uniform(0.05, 1.0, 2)
    t = float(rng.uniform(-4.0, 4.0))
    A = float(rng.uniform(10.0, 200.0))
    tol = 10.0 ** -int(rng.integers(6, 11))
    F = (_jump, _two_pole)[case % 2]
    r = finite_oscillatory_integral(lambda y: F(x1, x2, y), t, A, tol)
    n0 = 4 * math.ceil(A / (2.0 * min(4.0, 2.0 * math.pi / (abs(t) + 1.0))))
    edges = -A + (2.0 * A / n0) * np.arange(n0 + 1)
    with mpmath.workdps(30):
        X1, X2, T = mpmath.mpf(x1), mpmath.mpf(x2), mpmath.mpf(t)
        parts = [mpmath.quad(lambda y: F(X1, X2, y) * mpmath.expj(T * y),
                             [edges[k], edges[k + 1]],
                             method="gauss-legendre") for k in range(n0)]
        two_pi = 2 * mpmath.pi
        full = complex(mpmath.fsum(parts) / two_pi)
        half = complex(mpmath.fsum(parts[n0 // 4:3 * n0 // 4]) / two_pi)
    assert abs(r.value - full) <= r.abs_error_estimate
    assert abs(r.half_value - half) <= r.abs_error_estimate


@pytest.mark.parametrize("P,block", [(3, 8), (5, 8), (37, 8), (40, 8),
                                     (37, 7), (1, 1), (225, 15)])
def test_phase_table_matches_per_node_exponentials(P, block):
    # P < block, a ragged last block and whole blocks, against one exp
    # per (y, panel)
    rng = np.random.default_rng([7, P, block])
    half = 0.07
    ys = np.concatenate([[0.0, 59.0, -59.0], rng.uniform(-60.0, 60.0, 9)])
    terms = (rng.standard_normal((ys.size, P))
             + 1j * rng.standard_normal((ys.size, P)))
    got = _phased_sum(terms, ys, half, block)
    mids = (2.0 * np.arange(P) + 1.0) * half
    for k, y in enumerate(ys):
        direct = sum(np.exp(-1j * y * c) * t for c, t in zip(mids, terms[k]))
        scale = np.abs(terms[k]).sum()
        phase = abs(y) * 2.0 * (P + block) * half
        assert abs(got[k] - direct) <= 4 * np.finfo(float).eps * scale * (
            phase + math.log2(P) + 6.0)


def test_phase_table_is_exact_at_zero_oscillation():
    # every phase is exactly 1, so the sum is the plain panel sum
    terms = np.random.default_rng(8).standard_normal((1, 37)) + 0.5j
    got = _phased_sum(terms, np.zeros(1), 0.3, 8)
    assert got[0] == terms.sum(axis=1)[0]


def test_error_model_table_is_nondecreasing():
    assert np.all(np.diff(_PHI) >= 0.0)
    at_pi = 0.5 * abs(np.sum((_WGK - _WG) * np.exp(1j * math.pi * _XGK)))
    assert _PHI[-1] == pytest.approx(at_pi, rel=1e-6)
    assert 1e-9 < _PHI[-1] < 1e-8


@pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
def test_grid_panel_width_comes_from_the_error_model(tol):
    # theta is the largest k*pi/256 whose running maximum of
    # |sum (w^K - w^G) exp(i theta x_j)|/2, times the mass bound M/(x-a)
    # = 1, is a quarter of the tol/2 panel budget; the panel count is
    # ceil(T * (max|y| + x) / (2 theta))
    thetas = math.pi * np.arange(1, 257) / 256
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
    assert sum(nodes) == 15 * math.ceil(T * 60.0 / (2.0 * theta))
    assert np.all(np.abs(values - 1.0 / (1.0 + 1j * ys)) <= est)


def test_grid_without_damping_or_oscillation_uses_the_decay_length():
    # an envelope decaying at rate 1 needs no damping: x = 0, y = 0
    values, est = laplace_grid(lambda u: np.exp(-u),
                               ExponentialOrderBound(1.0, -1.0), 0.0,
                               [0.0], 1e-10)
    assert abs(values[0] - 1.0) <= est[0] <= 1e-10


def test_grid_of_a_zero_envelope_under_tail_cut():
    # M = 0 leaves the error model no mass to scale by
    values, est = laplace_grid(np.zeros_like, ExponentialOrderBound(0.0, 0.0),
                               0.0, [0.0, 2.0], 1e-8, tail_cut=lambda tol: 1.0)
    assert np.all(values == 0.0) and np.all(est <= 1e-8)
