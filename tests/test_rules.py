import dataclasses
import math

import numpy as np
import pytest

from symlap.core import ExponentialOrderBound, PiecewiseSignal, catalog_signal
from symlap.errors import AccuracyError
from symlap.rules import (
    BoundaryData,
    TransformPair,
    check_rule_consistency,
    derivative_rule,
    transform_pair_of,
)


def gauss_family():
    g = catalog_signal("gauss")
    b = ExponentialOrderBound
    d1 = PiecewiseSignal("gauss_prime",
                         lambda t: -2.0 * t * np.exp(-t * t),
                         lambda t: -2.0 * t * np.exp(-t * t),
                         b(0.9, 0.0), b(0.9, 0.0), tail_cut=g.tail_cut)
    d2 = PiecewiseSignal("gauss_second",
                         lambda t: (4.0 * t * t - 2.0) * np.exp(-t * t),
                         lambda t: (4.0 * t * t - 2.0) * np.exp(-t * t),
                         b(2.0, 0.0), b(2.0, 0.0), tail_cut=g.tail_cut)
    return g, d1, d2


RECIPROCAL_PAIR = TransformPair(pos=lambda s: 1.0 / s, neg=lambda cs: 1.0 / cs)


def sample_points(rng, n=10):
    return [complex(1.0 + 2.0 * rng.random(), -3.0 + 6.0 * rng.random())
            for _ in range(n)]


def test_first_order_rule_matches_displayed_form():
    # with continuous data the boundary terms cancel:
    # s*L(f)(s) - cs*Lm(f)(cs)
    bd = BoundaryData((0.8,), (0.8,))
    rule = derivative_rule(RECIPROCAL_PAIR, bd, 1)
    rng = np.random.default_rng(2)
    for s in sample_points(rng):
        cs = s.conjugate()
        direct = s * (1.0 / s) - cs * (1.0 / cs)
        assert abs(rule.combined(s) - direct) <= 1e-12


def test_second_order_rule_matches_displayed_form():
    f0 = 0.8
    bd = BoundaryData((f0, -0.3), (f0, -0.3))
    rule = derivative_rule(RECIPROCAL_PAIR, bd, 2)
    rng = np.random.default_rng(4)
    for s in sample_points(rng):
        cs = s.conjugate()
        direct = s * s * (1.0 / s) + cs * cs * (1.0 / cs) - f0 * (s + cs)
        assert abs(rule.combined(s) - direct) <= 1e-12


def test_composition_of_first_order_rules_equals_second_order():
    bd1 = BoundaryData((0.3 + 0.1j,), (0.2 - 0.4j,))
    bd2 = BoundaryData((-0.7,), (0.9,))
    bd12 = BoundaryData((0.3 + 0.1j, -0.7), (0.2 - 0.4j, 0.9))
    twice = derivative_rule(derivative_rule(RECIPROCAL_PAIR, bd1, 1), bd2, 1)
    direct = derivative_rule(RECIPROCAL_PAIR, bd12, 2)
    rng = np.random.default_rng(6)
    for s in sample_points(rng):
        assert abs(twice.combined(s) - direct.combined(s)) <= 1e-12


def test_gauss_first_derivative_consistency():
    g, d1, _ = gauss_family()
    assert check_rule_consistency(g, d1, 1, 1 + 1j, 1e-7) <= 1e-7


def test_gauss_second_derivative_consistency():
    g, _, d2 = gauss_family()
    bd = BoundaryData((1.0, 0.0), (1.0, 0.0))
    assert check_rule_consistency(g, d2, 2, 2.0 + 0j, 1e-7, bd=bd) <= 1e-7


def test_constant_signal_derivative_is_zero():
    one = catalog_signal("one")
    zero = PiecewiseSignal("zero",
                           lambda t: np.zeros_like(t),
                           lambda t: np.zeros_like(t),
                           ExponentialOrderBound(1e-300, 0.0),
                           ExponentialOrderBound(1e-300, 0.0))
    assert check_rule_consistency(one, zero, 1, 1.0 + 0j, 1e-7) <= 1e-7


def test_consistency_at_random_points_with_re_s_above_one():
    g, d1, d2 = gauss_family()
    rng = np.random.default_rng(20260811)
    bd2 = BoundaryData((1.0, 0.0), (1.0, 0.0))
    for _ in range(10):
        s = complex(1.0 + 2.0 * rng.random(), -2.0 + 4.0 * rng.random())
        assert check_rule_consistency(g, d1, 1, s, 1e-7) <= 1e-7
        assert check_rule_consistency(g, d2, 2, s, 1e-7, bd=bd2) <= 1e-7


def test_boundary_length_must_match_order():
    with pytest.raises(ValueError):
        derivative_rule(RECIPROCAL_PAIR, BoundaryData((1.0,), (1.0,)), 2)
    with pytest.raises(ValueError):
        BoundaryData((1.0,), (1.0, 2.0))


def test_default_boundary_data_only_for_first_order():
    g, _, d2 = gauss_family()
    with pytest.raises(ValueError):
        check_rule_consistency(g, d2, 2, 2.0 + 0j, 1e-7)


def test_quadrature_backed_pair_rejects_a_nan_oscillation():
    tp = transform_pair_of(catalog_signal("sign"), 1e-8)
    with pytest.raises(ValueError, match="osc"):
        tp.pos(complex(1.0, math.nan))
    with pytest.raises(ValueError, match="osc"):
        tp.neg(complex(1.0, math.nan))


def test_quadrature_backed_pair_matches_closed_form():
    one = catalog_signal("one")
    tp = transform_pair_of(one, 1e-10)
    for s in (1.0 + 0j, 2.0 + 1j):
        assert abs(tp.pos(s) - 1.0 / s) <= 1e-9
        assert abs(tp.neg(s.conjugate()) - 1.0 / s.conjugate()) <= 1e-9


def test_consistency_over_an_array_of_s_agrees_with_the_scalar_loop():
    # the ten s of one order in one call, each at its own quadrature
    # tolerance tol/(8*max(1, |s|)^n): the same panels as one call per
    # s, summed in other blocks, so far inside those tolerances
    g, d1, d2 = gauss_family()
    bd2 = BoundaryData((1.0, 0.0), (1.0, 0.0))
    rng = np.random.default_rng(20260811)
    s = np.array([complex(1.0 + 2.0 * rng.random(), -2.0 + 4.0 * rng.random())
                  for _ in range(10)])
    for n, f_nth, bd in ((1, d1, None), (2, d2, bd2)):
        together = check_rule_consistency(g, f_nth, n, s, 1e-7, bd=bd)
        assert together.shape == s.shape
        loop = [check_rule_consistency(g, f_nth, n, v, 1e-7, bd=bd)
                for v in s]
        assert all(isinstance(v, float) for v in loop)
        assert np.all(together <= 1e-7)
        assert np.all(np.abs(together - loop) <= 1e-12)


def test_quadrature_backed_images_take_arrays_of_s():
    one = catalog_signal("one")
    tp = transform_pair_of(one, 1e-10)
    s = np.array([[1.0 + 0j, 2.0 + 1j], [0.5 - 3j, 4.0 + 0j]])
    assert np.all(np.abs(tp.pos(s) - 1.0 / s) <= 1e-10)
    assert np.all(np.abs(tp.combined(s) - (1.0 / s + 1.0 / s.conjugate()))
                  <= 2e-10)
    # each s alone: the same panels, summed in other blocks
    assert all(abs(tp.pos(v) - p) <= 2e-10
               for v, p in zip(s.ravel(), tp.pos(s).ravel()))
    assert isinstance(tp.pos(2.0 + 1j), complex)


@pytest.mark.parametrize("s,part", [
    (complex(math.inf, 0.0), r"\(inf\+0j\): its damping"),
    (complex(1.0, -math.inf), r"\(1-infj\): its oscillation"),
    (np.array([1.0 + 1j, complex(math.nan, 1.0)]),
     r"\(nan\+1j\): its damping")])
def test_consistency_rejects_an_s_that_is_not_finite(s, part):
    # an infinite s made the quadrature tolerance 0 ("tol must be
    # positive and finite, got 0.0", though the caller passed 1e-7)
    g, d1, _ = gauss_family()
    with pytest.raises(ValueError, match="s must be finite, got " + part):
        check_rule_consistency(g, d1, 1, s, 1e-7)


@pytest.mark.parametrize("n,s,tol,match", [
    (2, 1e160, 1e-7, "past float range"),
    (1, 1e308, 1e-7, "past float range"),
    (2, np.array([1.0, 1e150 + 1j]), 1e-25, "underflows to 0")])
def test_consistency_refuses_an_amplification_past_float_range(n, s, tol,
                                                               match):
    # |s|^2 at s = 1e160 was a bare OverflowError from max(1, |s|) ** n;
    # tol/(8*|s|^2) at s = 1e150 and tol = 1e-25 underflows to 0.  Both
    # are refused, naming s and n, before any evaluation and without a
    # RuntimeWarning (an error under this suite's settings)
    count = [0]

    def counted(f):
        def wrap(piece):
            def evaluated(t):
                count[0] += np.size(t)
                return piece(t)
            return evaluated
        return dataclasses.replace(f, pos=wrap(f.pos), neg=wrap(f.neg))

    g, d1, d2 = (counted(f) for f in gauss_family())
    bd = BoundaryData((1.0,) * n, (1.0,) * n)
    with pytest.raises(AccuracyError, match=match) as exc:
        check_rule_consistency(g, (d1, d2)[n - 1], n, s, tol, bd=bd)
    assert f"n={n}" in str(exc.value) and "s=(1e+" in str(exc.value)
    assert count[0] == 0
