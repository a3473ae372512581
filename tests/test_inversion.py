import cmath
import math
import warnings

import numpy as np
import pytest

from symlap import inversion
from symlap.core import SLPoint, catalog_signal
from symlap.errors import (
    AccuracyError,
    ExpOverflowError,
    PropernessError,
    RootFindingError,
    SymLapError,
)
from symlap.expr import evaluate_rational, parse_transform
from symlap.forward import sl_forward
from symlap.inversion import (
    PartialFractionTerm,
    _reconstruction_gap,
    inverse_laplace_rational,
    partial_fractions,
    sl_inverse_numeric,
    sl_inverse_numeric_pair,
    sl_inverse_split,
)
from symlap.quadrature import MAX_EVALUATIONS


def by_pole(terms):
    return {(round(t.pole.real, 6), round(t.pole.imag, 6)): t for t in terms}


class TestPartialFractions:
    def test_imaginary_pole_pair_residues(self):
        terms = by_pole(partial_fractions(parse_transform("1/(s^2+1)").g1))
        assert terms[(0.0, 1.0)].order == 1
        assert terms[(0.0, 1.0)].coefficient == pytest.approx(-0.5j, abs=1e-12)
        assert terms[(0.0, -1.0)].coefficient == pytest.approx(0.5j, abs=1e-12)

    def test_cover_up_for_simple_real_poles(self):
        terms = by_pole(partial_fractions(
            parse_transform("(2*s+3)/((s+1)*(s+2))").g1))
        assert terms[(-1.0, 0.0)].coefficient == pytest.approx(1.0, abs=1e-12)
        assert terms[(-2.0, 0.0)].coefficient == pytest.approx(1.0, abs=1e-12)

    def test_single_double_pole_term(self):
        terms = partial_fractions(parse_transform("1/s^2").g1)
        assert len(terms) == 1
        assert terms[0] == PartialFractionTerm(0j, 2, 1 + 0j)

    def test_improper_raises(self):
        with pytest.raises(PropernessError):
            partial_fractions(parse_transform("s^2/(s+1)").g1)
        with pytest.raises(PropernessError):
            partial_fractions(parse_transform("3").g1)

    def test_reconstruction_on_random_points(self):
        rng = np.random.default_rng(9)
        texts = ["1/(s^2+1)", "(2*s+3)/((s+1)*(s+2))", "1/s^2",
                 "(s^2 - 2*s + 5)/((s+1)^2*(s^2+4))",
                 "1/2 * 1/(s-1) - 1/2 * s/(s^2+1) - 1/2 * 1/(s^2+1)"]
        for text in texts:
            r = parse_transform(text).g1
            terms = partial_fractions(r)
            for _ in range(20):
                z = complex(3.0 + rng.random(), rng.normal())
                direct = evaluate_rational(r, z)
                rebuilt = sum(t.coefficient / (z - t.pole) ** t.order
                              for t in terms)
                assert abs(rebuilt - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_removable_factor_disappears(self):
        # s/s^2 has only a simple pole once the common factor cancels
        terms = partial_fractions(parse_transform("s/s^2").g1)
        assert len(terms) == 1
        assert terms[0].order == 1
        assert terms[0].coefficient == pytest.approx(1.0, abs=1e-10)


class TestRationalTable:
    def test_exponential_term(self):
        v = inverse_laplace_rational([PartialFractionTerm(1 + 0j, 1, 1 + 0j)],
                                     1.0)
        assert v == pytest.approx(math.e, abs=1e-12)

    def test_double_pole_gives_ramp(self):
        v = inverse_laplace_rational([PartialFractionTerm(0j, 2, 1 + 0j)], 3.0)
        assert v == pytest.approx(3.0, abs=1e-12)

    def test_cosine_from_conjugate_pair(self):
        terms = partial_fractions(parse_transform("s/(s^2+1)").g1)
        v = inverse_laplace_rational(terms, math.pi)
        assert v.real == pytest.approx(-1.0, abs=1e-12)
        assert abs(v.imag) <= 1e-12

    def test_cosine_roundtrip_through_forward_quadrature(self):
        # invert s/(s^2+1), then transform the samples back via quadrature
        from symlap.core import ExponentialOrderBound, PiecewiseSignal
        terms = partial_fractions(parse_transform("s/(s^2+1)").g1)
        f = PiecewiseSignal(
            "rebuilt_cos",
            lambda t: np.array([inverse_laplace_rational(terms, float(u)).real
                                for u in np.atleast_1d(t)]),
            lambda t: np.zeros_like(t),
            ExponentialOrderBound(1.0, 0.0), ExponentialOrderBound(1.0, 0.0),
            osc_hint=1.0)
        r = sl_forward(f, SLPoint(2.0, 2.0, 0.0), 1e-8)
        assert abs(r.value - 2.0 / 5.0) <= 1e-8

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            inverse_laplace_rational([PartialFractionTerm(0j, 1, 1 + 0j)],
                                     -1.0)

    def test_overflow_guard(self):
        with pytest.raises(ExpOverflowError) as exc:
            inverse_laplace_rational([PartialFractionTerm(2.0 + 0j, 1, 1 + 0j)],
                                     400.0)
        assert isinstance(exc.value, SymLapError)
        assert isinstance(exc.value, OverflowError)

    def test_decaying_term_underflows_to_zero(self):
        # exp(-800) underflows; only a growing term can overflow
        v = inverse_laplace_rational([PartialFractionTerm(-1.0 + 0j, 2,
                                                          1 + 0j)], 800.0)
        assert v == 0j

    def test_decaying_term_with_an_overflowing_power_is_zero(self):
        # t^2 = 1e400 overflows a float, but exp(-1e200) wins
        v = inverse_laplace_rational([PartialFractionTerm(-1.0 + 0j, 3,
                                                          1 + 0j)], 1e200)
        assert v == 0j

    def test_growing_term_with_an_overflowing_power_raises(self):
        # exp(1e-100) is about 1, so t^2 / 2 = 5e399 overflows the term
        with pytest.raises(ExpOverflowError, match="overflows"):
            inverse_laplace_rational([PartialFractionTerm(1e-300 + 0j, 3,
                                                          1 + 0j)], 1e200)

    @pytest.mark.parametrize("text,t", [
        ("1/(s^64*s^64*s^43)", 100.0), ("1/(s^64*s^36)", 2000.0),
        ("1/((s+1)^64)^4", 0.0), ("1/((s+1)^64)^4", 1.0),
        ("1/((s+1)^64)^4", 300.0), ("1/((s-0.5)^64)^3", 500.0)])
    def test_the_factorial_counts_before_a_term_overflows(self, text, t):
        # t^(k-1) * exp(pole*t) passed exp(700), or (k-1)! was no float
        # (k > 171), where t^(k-1) * exp(pole*t) / (k-1)! is one:
        # ExpOverflowError or "int too large to convert to float".
        # Against mpmath at 40 digits; 1.1e-505 at t = 1 is 0.0
        import mpmath

        (term,) = parse_transform(text).g1_terms
        k = term.order
        with mpmath.workdps(40):
            want = complex(mpmath.mpc(term.coefficient)
                           * mpmath.mpf(t) ** (k - 1)
                           * mpmath.exp(mpmath.mpc(term.pole) * t)
                           / mpmath.factorial(k - 1))
        got = inverse_laplace_rational([term], t)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert sl_inverse_split(parse_transform(text), t) == got

    def test_the_table_keeps_its_bits_where_no_part_overflows(self):
        # t^(k-1) * exp(pole*t) / (k-1)!, as it was computed, for orders
        # up to 171, whose factorial is the largest that is a float
        ts = np.array([0.0, 0.5, 3.0, 40.0, 55.0])
        for k in (1, 2, 5, 20, 171):
            term = PartialFractionTerm(-0.5 + 2j, k, 0.3 - 1.1j)
            want = np.zeros(len(ts), dtype=complex) + (
                term.coefficient * ts ** (k - 1) * np.exp(term.pole * ts)
                / math.factorial(k - 1))
            got = inverse_laplace_rational([term], ts)
            assert got.tobytes() == want.tobytes()

    def test_a_term_that_overflows_past_its_factorial_raises(self):
        with pytest.raises(ExpOverflowError,
                           match=r"t\^255 \* exp\(1000000.0\) / 255! "
                                 r"overflows for pole \(1\+0j\)"):
            sl_inverse_split(parse_transform("1/((s-1)^64)^4"), 1e6)

    def test_the_table_against_mpmath_over_a_seeded_sweep(self):
        # orders 1-300, t in [0, 2000], Re(pole) and Im(pole) in [-5, 5]
        # and |c| from 1e-300 to 1e300: each value within rel 1e-12 of
        # mpmath at 40 digits, 0.0 where that is below the smallest
        # subnormal (a subnormal also within a few of its spacing), and
        # ExpOverflowError exactly where |value| passes the largest float
        import mpmath

        rng = np.random.default_rng(24)
        n = 1500
        orders = rng.integers(1, 301, n).tolist()
        ts = rng.uniform(0.0, 2000.0, n).tolist()
        poles = (rng.uniform(-5.0, 5.0, n)
                 + 1j * rng.uniform(-5.0, 5.0, n)).tolist()
        cs = (10.0 ** rng.uniform(-300.0, 300.0, n)
              * np.exp(1j * rng.uniform(-np.pi, np.pi, n))).tolist()
        largest = mpmath.mpf(np.finfo(float).max)
        spacing = 2.0 ** -1074  # of the subnormals
        seen = {"value": 0, "zero": 0, "overflow": 0}
        for k, t, p, c in zip(orders, ts, poles, cs):
            with mpmath.workdps(40):
                want = (mpmath.mpc(c) * mpmath.mpf(t) ** (k - 1)
                        * mpmath.exp(mpmath.mpc(p) * t)
                        / mpmath.factorial(k - 1))
                size = abs(want)
            term = PartialFractionTerm(p, k, c)
            if size > largest:
                seen["overflow"] += 1
                with pytest.raises(ExpOverflowError):
                    inverse_laplace_rational([term], t)
                continue
            got = inverse_laplace_rational([term], t)
            if size < mpmath.mpf(spacing) / 2:
                seen["zero"] += 1
                assert got == 0j, (k, t, p, c)
                continue
            seen["value"] += 1
            assert abs(got - complex(want)) <= (1e-12 * float(size)
                                                + 4 * spacing), (k, t, p, c)
        assert min(seen.values()) >= 100, seen

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        terms = parse_transform("1/s - 1/cs").g1_terms
        with pytest.raises(ValueError, match="t must be finite"):
            inverse_laplace_rational(terms, t)
        with pytest.raises(ValueError, match="t must be finite"):
            inverse_laplace_rational([PartialFractionTerm(-1.0 + 0j, 1,
                                                          1 + 0j)], t)

    def test_zero_at_time_zero_with_simple_pole(self):
        v = inverse_laplace_rational([PartialFractionTerm(-1.0 + 0j, 1,
                                                          1 + 0j)], 0.0)
        assert v == pytest.approx(1.0)


class TestSplitInversion:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            sl_inverse_split(parse_transform("1/s - 1/cs"), t)

    def test_negative_infinite_time_is_reported_as_given(self):
        with pytest.raises(ValueError, match=r"got -inf$"):
            sl_inverse_split(parse_transform("1/s - 1/cs"), -math.inf)

    def test_complex_time_is_refused_unless_real(self):
        # numpy's cast would read 1+5j as t = 1 with a ComplexWarning
        st = parse_transform("1/(s+1)")
        terms = st.g1_terms
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for invert in (lambda t: sl_inverse_split(st, t),
                           lambda t: inverse_laplace_rational(terms, t)):
                with pytest.raises(ValueError, match=r"^t must be real, got"):
                    invert(np.array([0.5, 1 + 5j]))
                assert np.array_equal(invert(np.array([0.5, 1 + 0j])),
                                      invert(np.array([0.5, 1.0])))

    @pytest.mark.parametrize("t", [2.0, -3.0, 1.0, -1.0, 0.25, -0.25])
    def test_identity_signal(self, t):
        st = parse_transform("1/s^2 - 1/cs^2")
        assert sl_inverse_split(st, t) == pytest.approx(t, abs=1e-12)

    @pytest.mark.parametrize("t", [5.0, -5.0])
    def test_constant_signal(self, t):
        st = parse_transform("1/s + 1/cs")
        assert sl_inverse_split(st, t) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t,expected", [(1.0, 1.0), (-1.0, -1.0)])
    def test_sign_signal(self, t, expected):
        st = parse_transform("1/s - 1/cs")
        assert sl_inverse_split(st, t) == pytest.approx(expected, abs=1e-12)

    def test_zero_time_uses_positive_side(self):
        st = parse_transform("1/s - 1/cs")
        assert sl_inverse_split(st, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_improper_side_rejected(self):
        with pytest.raises(PropernessError):
            sl_inverse_split(parse_transform("s + 1/cs"), 1.0)
        with pytest.raises(PropernessError):
            sl_inverse_split(parse_transform("2 + 1/s"), 1.0)

    def test_time_array_is_the_single_times_elementwise(self):
        st = parse_transform("1/2 * 1/(s-1) - 1/2 * s/(s^2+1) - 1/2 * "
                             "1/(s^2+1) + 1/cs - cs/(cs^2+1)")
        ts = np.linspace(-3.0, 3.0, 41)
        values = sl_inverse_split(st, ts)
        single = [sl_inverse_split(st, float(t)) for t in ts]
        assert values.tobytes() == np.array(single).tobytes()

    def test_time_array_keeps_its_shape(self):
        st = parse_transform("1/s^2 - 1/cs^2")
        ts = np.array([[-2.0, -0.5], [0.5, 2.0]])
        values = sl_inverse_split(st, ts)
        assert values.shape == (2, 2)
        assert np.allclose(values, ts, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("ts", [[-400.0, 0.0, 400.0],
                                    [400.0, 0.0, -400.0]])
    def test_overflow_names_the_first_time_at_fault(self, ts):
        st = parse_transform("1/(s-2) + 2/(cs-2)")
        with pytest.raises(ExpOverflowError) as exc:
            sl_inverse_split(st, ts)
        with pytest.raises(ExpOverflowError) as first:
            sl_inverse_split(st, ts[0])
        assert str(exc.value) == str(first.value)
        assert str(exc.value).endswith("at t=400.0")

    def test_roundtrip_against_forward_transform(self):
        # forward transform of the recovered signal matches the rational
        # transform it came from, at asymmetric points too
        cases = [("1/s^2 - 1/cs^2", "ramp"), ("1/s + 1/cs", "one"),
                 ("1/s - 1/cs", "sign")]
        rng = np.random.default_rng(31)
        for text, name in cases:
            st = parse_transform(text)
            f = catalog_signal(name)
            for _ in range(10):
                x1, x2 = 0.5 + 2 * rng.random(2)
                y = float(rng.normal())
                target = (evaluate_rational(st.g1, complex(x1, y))
                          + evaluate_rational(st.g2, complex(x2, -y)))
                got = sl_forward(f, SLPoint(x1, x2, y), 1e-8).value
                assert abs(got - target) <= 1e-6


class TestRepeatedPoles:
    """Poles of multiplicity 3 and up, which the root finder could not
    resolve while it saw only the expanded denominator."""

    @pytest.mark.parametrize("k", [3, 4, 20, 64])
    def test_power_of_a_linear_factor(self, k):
        st = parse_transform(f"1/(s+1)^{k}")
        [term] = st.g1_terms
        assert (term.pole, term.order) == (-1.0, k)
        assert term.coefficient == pytest.approx(1.0, rel=1e-15)
        ts = np.linspace(0.0, 3.0 * k, 61)
        want = np.exp((k - 1) * np.log(ts[1:]) - ts[1:]
                      - math.lgamma(k))
        got = sl_inverse_split(st, ts)
        assert got[0] == 0.0
        assert np.allclose(got[1:], want, rtol=1e-12, atol=0.0)

    def test_fourth_power_of_a_quadratic(self):
        # sympy.inverse_laplace_transform(1/(s**2 + 1)**4, s, t)
        def want(t):
            return (t ** 3 * np.cos(t) / 48 - t ** 2 * np.sin(t) / 8
                    - 5 * t * np.cos(t) / 16 + 5 * np.sin(t) / 16)

        st = parse_transform("1/(s^2+1)^4")
        assert sorted((t.order for t in st.g1_terms)) == [1, 1, 2, 2, 3, 3,
                                                          4, 4]
        ts = np.linspace(0.0, 20.0, 81)
        assert np.max(np.abs(sl_inverse_split(st, ts) - want(ts))) <= 1e-12

    def test_two_poles_of_order_20_are_rejected(self):
        # exactly, the terms are (-1)^j C(19+j, j) / (s+1)^(20-j) and
        # C(19+j, j) / (s+2)^(20-j), up to 3.5e10 in size.  They cancel
        # to about 1e-22 on the check circle, and their sum in doubles
        # misses f(1) = 1.1e-47 by 9.5e-7, so no decomposition is
        # accurate enough to return
        with pytest.raises(RootFindingError, match="failed validation"):
            partial_fractions(parse_transform("1/((s+1)^20*(s+2)^20)").g1)

    def test_straddled_cluster_is_rejected(self):
        # one expanded cubic factor: Aberth leaves its triple root spread
        # by about eps^(1/3), wider than the clustering window, and the
        # three simple poles it would give carry residues near 1e10
        with pytest.raises(RootFindingError, match="failed validation"):
            partial_fractions(parse_transform("1/(s^3+3*s^2+3*s+1)").g1)

    def test_shared_root_of_two_factors_merges(self):
        # (s+1) and s^2+2s+1 share the root -1: one pole of order 3
        [term] = parse_transform("1/((s+1)*(s^2+2*s+1))").g1_terms
        assert term.order == 3
        assert term.pole == pytest.approx(-1.0, abs=1e-8)
        assert term.coefficient == pytest.approx(1.0, rel=1e-8)


def closed_form_transform(name):
    if name == "sign":
        return lambda x1, x2, y: 1.0 / (x1 + 1j * y) + 1.0 / (-x2 + 1j * y)
    if name == "one":
        return lambda x1, x2, y: 1.0 / (x1 + 1j * y) + 1.0 / (x2 - 1j * y)
    if name == "heaviside":
        return lambda x1, x2, y: 1.0 / (x1 + 1j * y) + 0.0 * y
    raise KeyError(name)


def midpoint_value(name, t):
    f = catalog_signal(name)
    if t != 0:
        return complex(f(t))
    return (complex(f(1e-12)) + complex(f(-1e-12))) / 2.0


class TestNumericInversion:
    def test_midpoint_at_jump(self):
        v = sl_inverse_numeric(closed_form_transform("sign"), 1.0, 1.0, 0.0,
                               1000.0, 1e-6)
        assert abs(v) <= 5e-3
        v2 = sl_inverse_numeric(closed_form_transform("heaviside"), 1.0, 1.0,
                                0.0, 1000.0, 1e-6)
        assert abs(v2 - 0.5) <= 5e-3

    @pytest.mark.parametrize("t,expected", [(1.0, 1.0), (-1.0, -1.0)])
    def test_sign_at_unit_times(self, t, expected):
        v = sl_inverse_numeric(closed_form_transform("sign"), 1.0, 1.0, t,
                               1000.0, 1e-6)
        assert abs(v - expected) <= 1e-2

    def test_one_at_negative_time(self):
        v = sl_inverse_numeric(closed_form_transform("one"), 1.0, 1.0, -2.0,
                               1000.0, 1e-6)
        assert abs(v - 1.0) <= 1e-2

    @pytest.mark.parametrize("name", ["sign", "one", "heaviside"])
    @pytest.mark.parametrize("t", [2.0, -2.0, 0.5, -0.5])
    def test_roundtrip_and_error_shrinks_when_a_doubles(self, name, t):
        F = closed_form_transform(name)
        target = midpoint_value(name, t)
        v1 = sl_inverse_numeric(F, 1.0, 1.0, t, 1000.0, 1e-6)
        v2 = sl_inverse_numeric(F, 1.0, 1.0, t, 2000.0, 1e-6)
        e1, e2 = abs(v1 - target), abs(v2 - target)
        assert e1 <= 1e-2
        # truncation error envelope halves; allow estimate-level noise
        assert e2 <= e1 + 1e-6


def sign_truncated_at(t, A):
    """The sign's inversion at x1 = x2 = 1 and t > 0, truncated at A.

    Its transform is -2iy/(1 + y^2), so the value is 1 - exp(t) * (2/pi)
    * Im of the integral of g(y)*exp(i*t*y) over [A, inf), with g(y) =
    y/(1 + y^2) = (1/(y - i) + 1/(y + i))/2.  Integration by parts
    expands that integral as -exp(i*t*A) * sum_k (-1)^k g^(k)(A) /
    (i*t)^(k+1), whose terms shrink like k!/(A*t)^k.
    """
    series = sum(0.5 * math.factorial(k)
                 * ((A - 1j) ** (-k - 1) + (A + 1j) ** (-k - 1))
                 / (1j * t) ** (k + 1) for k in range(6))
    tail = -cmath.exp(1j * t * A) * series
    return 1.0 - math.exp(t) * 2.0 / math.pi * tail.imag


def counting(F):
    """F wrapped to count the y values it is evaluated at."""
    calls = []

    def wrapped(x1, x2, y):
        calls.append(np.size(y))
        return F(x1, x2, y)

    return wrapped, calls


def prefactor(x1, x2, t):
    return math.exp(x1 * t if t >= 0 else -x2 * t)


class TestNumericInversionPair:
    @pytest.mark.parametrize("name", ["sign", "one", "heaviside"])
    def test_half_value_matches_a_separate_run_at_half_a(self, name):
        rng = np.random.default_rng(404)
        F = closed_form_transform(name)
        tol = 1e-6
        for t in (0.0, 0.5, -0.5, 2.0, -2.0, 3.75, -3.75):
            for A in (250.0, 1000.0):
                x1, x2 = (float(v) for v in rng.uniform(0.3, 1.5, 2))
                full, half = sl_inverse_numeric_pair(F, x1, x2, t, A, tol)
                assert sl_inverse_numeric(F, x1, x2, t, A, tol) == full
                alone = sl_inverse_numeric(F, x1, x2, t, A / 2.0, tol)
                assert abs(half - alone) <= 2.0 * tol * prefactor(x1, x2, t)
                # truncation: |J|/(pi*A*|t|) + (x1 + x2)/(pi*A) at most,
                # times the prefactor, for a jump J of at most 2
                assert abs(full - midpoint_value(name, t)) \
                    <= 4.0 * prefactor(x1, x2, t) / A

    @pytest.mark.parametrize("t", [0.0, 0.5, -2.0, 2.0])
    def test_refined_panels_keep_the_half_range_edges(self, t):
        # poles at distance 0.05 from the real axis force bisection of
        # the panels around y = 0
        F, calls = counting(closed_form_transform("sign"))
        full, half = sl_inverse_numeric_pair(F, 0.05, 0.05, t, 1000.0, 1e-6)
        assert len(calls) > 1
        bound = 2.0 * 1e-6 * prefactor(0.05, 0.05, t)
        alone = sl_inverse_numeric(closed_form_transform("sign"), 0.05,
                                   0.05, t, 500.0, 1e-6)
        assert abs(half - alone) <= bound
        assert abs(full - midpoint_value("sign", t)) <= 2e-2

    def test_one_pass_costs_under_a_third_of_two_eighth_period_runs(self):
        # eighth-period panels took 114,600 evaluations at A and 57,300
        # at A/2 for this case
        F, calls = counting(closed_form_transform("sign"))
        sl_inverse_numeric_pair(F, 1.0, 1.0, 2.0, 1000.0, 1e-6)
        assert sum(calls) < 171_900 / 3

    @pytest.mark.parametrize("field,bad", [
        ("tol", math.nan), ("tol", math.inf), ("tol", 0.0), ("tol", -1e-6),
        ("A", math.nan), ("A", math.inf), ("A", 0.0), ("A", -10.0),
        ("t", math.nan), ("t", math.inf), ("x1", math.nan),
        ("x2", -math.inf)])
    def test_bad_arguments_raise_value_error(self, field, bad):
        args = {"x1": 1.0, "x2": 1.0, "t": 1.0, "A": 100.0, "tol": 1e-6}
        args[field] = bad
        F = closed_form_transform("sign")
        for fn in (sl_inverse_numeric, sl_inverse_numeric_pair):
            with pytest.raises(ValueError, match=field):
                fn(F, **args)

    @pytest.mark.parametrize("t", [25.0, 30.0])
    def test_failing_call_stays_inside_the_evaluation_budget(self, t):
        # tol / exp(x*t) lies below the rounding floor of the panel sums,
        # so refinement cannot succeed; the round that would overshoot
        # MAX_EVALUATIONS is never started.  Refined panels factor their
        # phase like the uniform pass, which took the floor of the |K - G|
        # sum from about 1e-12 to 4e-16, so t = 20 now converges
        F, calls = counting(closed_form_transform("sign"))
        with pytest.raises(AccuracyError, match="budget exhausted") as exc:
            sl_inverse_numeric(F, 1.0, 1.0, t, 1000.0, 1e-6)
        assert sum(calls) <= MAX_EVALUATIONS
        assert exc.value.value is not None
        assert math.isfinite(abs(exc.value.value))
        assert exc.value.abs_error_estimate > 0

    @pytest.mark.parametrize("F", [closed_form_transform("sign"),
                                   parse_transform("1/s - 1/cs")],
                             ids=["callable", "split"])
    def test_exhausted_budget_carries_the_signal_value(self, F):
        # the payload is the value at A and the estimate a result would
        # carry, both times exp(x*t): about -1.28e6 and 1.8 here, where
        # the panel sums alone read -1.1e-4 and 4.7e-16
        with pytest.raises(AccuracyError, match="budget exhausted") as exc:
            sl_inverse_numeric(F, 1.0, 1.0, 25.0, 1000.0, 1e-6)
        want = sign_truncated_at(25.0, 1000.0)
        assert want == pytest.approx(-1.28e6, rel=1e-2)
        estimate = exc.value.abs_error_estimate
        assert abs(exc.value.value - want) <= estimate <= 1e-5 * abs(want)

    def test_tol_over_the_prefactor_underflowing_is_an_accuracy_error(self):
        # tol/exp(x*t) = 5e-324/e^2 is 0, which the quadrature refused as
        # a tol that is not positive, naming 0.0 rather than the caller's
        st = parse_transform("1/(s+1) + 1/(cs+2)")
        with pytest.raises(AccuracyError, match="tol=5e-324 over the "
                                                "prefactor"):
            sl_inverse_numeric_pair(st, 1.0, 1.0, 2.0, 100.0, 5e-324)

    @pytest.mark.parametrize("x1,x2,t", [(1.0, 1.0, 1e3), (1.0, 2.0, -400.0)])
    def test_prefactor_overflow_is_an_accuracy_error(self, x1, x2, t):
        F = closed_form_transform("sign")
        with pytest.raises(AccuracyError, match=f"t={t}"):
            sl_inverse_numeric(F, x1, x2, t, 100.0, 1e-6)


@pytest.fixture
def split_sizes(monkeypatch):
    """The sizes of the y arrays every real SplitTransform integrand of
    numeric inversion is called on, in order, counted by wrapping the
    hermitian integrand _on_line builds."""
    sizes = []
    on_line = inversion._on_line

    def counted(F, x1, x2):
        G, described = on_line(F, x1, x2)
        assert described["hermitian"]
        return (lambda y: sizes.append(y.size) or G(y)), described

    monkeypatch.setattr(inversion, "_on_line", counted)
    return sizes


def test_split_transform_carries_its_poles():
    # y_p = Im p + i*(x1 - Re p) for a root p of g1, -Im q - i*(x2 - Re q)
    # for a root q of g2; order; modulus of the leading Laurent
    # coefficient, the numerator and the other factors at the root
    # ((-1+2)/(-1+3), (-3+2)/(-3+1), 2) or the derivative of a quadratic
    # factor (1/|2*0.7i|) and the scale (|1+i|)
    def poles(text, x1, x2):
        return sorted(((y.real, y.imag, m, c) for y, m, c
                       in inversion._poles(parse_transform(text), x1, x2)))

    assert poles("(s+2)/((s+1)*(s+3)) + 2/(cs+1)^3", 0.5, 0.25) == [
        (0.0, -1.25, 3, 2.0), (0.0, 1.5, 1, 0.5), (0.0, 3.5, 1, 0.5)]
    got = poles("1/((s+0.4)^2+0.49) + 1/(cs+1)", 0.3, 0.5)
    want = [(-0.7, 0.7, 1, 1 / 1.4), (0.0, -1.5, 1, 1.0),
            (0.7, 0.7, 1, 1 / 1.4)]
    assert [g[2] for g in got] == [w[2] for w in want]
    assert np.allclose([g[:2] + g[3:] for g in got],
                       [w[:2] + w[3:] for w in want], rtol=1e-14,
                       atol=1e-15)
    # the same factor squared: order 2, strength 1/|2*0.7i|^2
    got = poles("1/((s+0.4)^2+0.49)^2 + 1/(cs+1)", 0.3, 0.5)
    assert [g[2] for g in got] == [2, 1, 2]
    assert np.allclose([g[3] for g in got], [1 / 1.96, 1.0, 1 / 1.96],
                       rtol=1e-14)
    assert poles("(1+i)/(s+0.3-0.7*i) + i/cs", 0.1, 0.5) == pytest.approx(
        [(0.0, -0.5, 1, 1.0), (0.7, 0.4, 1, math.sqrt(2.0))], rel=1e-14)


@pytest.mark.parametrize("text", ["(s+1e200)^2/(s+1)^3 + 1/(cs+1)",
                                  "(s+2)/((s+1)*(s^2+3*s+2)) + 1/(cs+1)"])
def test_a_pole_of_no_finite_strength_is_left_out(text):
    # the numerator overflows at -1, or another factor vanishes there:
    # only the pole of g2 is kept, with no warning and no OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = inversion._poles(parse_transform(text), 0.5, 0.5)
    assert got == ((-1.5j, 1, 1.0),)


# The three transforms of the numeric-invert benchmark family (the sign
# signal, two simple real poles, a double pole beside a simple one)
# over x1 = x2 in (0.05, 0.45, 1), t in (0, 1.5, -3.75) and A in (250,
# 1000), A varying fastest, and the F calls sl_inverse_numeric_pair took
# per case before the poles graded its first pass
_CALL_FAMILIES = ("1/s - 1/cs", "1.5/(s+1) - 0.8/(cs+0.6)",
                  "0.8/(s+1.3)^2 - 1.2/(cs+0.7)")
_UNGRADED_CALLS = {
    1e-6: ((7, 7, 6, 6, 5, 5, 3, 4, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2),
           (3, 3, 2, 2, 1, 1, 2, 2, 2, 2, 1, 1, 2, 2, 1, 2, 1, 1),
           (3, 3, 2, 2, 1, 1, 2, 2, 2, 2, 1, 1, 1, 2, 1, 2, 1, 1)),
    1e-8: ((7, 7, 7, 7, 6, 6, 4, 4, 4, 4, 3, 3, 3, 3, 3, 3, 2, 2),
           (4, 4, 3, 3, 2, 2, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2),
           (3, 3, 3, 3, 2, 2, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2)),
    1e-10: ((8, 8, 7, 7, 6, 6, 5, 5, 4, 4, 4, 4, 3, 3, 3, 3, 3, 3),
            (4, 4, 4, 4, 2, 2, 3, 3, 3, 3, 2, 2, 3, 3, 3, 3, 2, 2),
            (4, 4, 4, 4, 2, 2, 3, 3, 3, 3, 2, 2, 3, 3, 3, 3, 2, 2)),
}
# evaluations over the 18 cases of each family, graded, with uniform
# panels as wide as the error model allows for the poles' integral of
# |F|; with 7/15 panels they were 50,865, 50,610 and 50,175 at 1e-6,
# 69,645, 72,825 and 69,690 at 1e-8, and 111,945, 111,705 and 111,240
# at 1e-10, and at one oscillation per uniform panel 79,965, 79,545 and
# 79,530 at 1e-6, 87,585, 90,810 and 88,590 at 1e-8, and 124,830,
# 124,575 and 124,110 at 1e-10; before the grading 80,670, 79,500 and
# 79,470 at 1e-6, 109,290, 112,080 and 96,540 at 1e-8, and 173,400,
# 172,200 and 168,660 at 1e-10
_GRADED_EVALUATIONS = {1e-6: (26846, 25978, 25854),
                       1e-8: (30659, 29698, 29388),
                       1e-10: (40982, 41137, 40331)}


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("family", range(3))
def test_graded_inversion_calls_F_once(split_sizes, family, tol):
    st = parse_transform(_CALL_FAMILIES[family])
    taken = []
    for x in (0.05, 0.45, 1.0):
        for t in (0.0, 1.5, -3.75):
            for A in (250.0, 1000.0):
                before = len(split_sizes)
                sl_inverse_numeric_pair(st, x, x, t, A, tol)
                taken.append(len(split_sizes) - before)
    assert taken == [1] * 18
    assert all(k <= was for k, was in zip(taken,
                                          _UNGRADED_CALLS[tol][family]))
    assert sum(split_sizes) == _GRADED_EVALUATIONS[tol][family]


@pytest.mark.parametrize("t", [25.0, 30.0])
def test_split_grading_stays_inside_the_evaluation_budget(split_sizes, t):
    # at t = 25 and 30 the poles ask for more pieces than the budget
    # allows (about 109,000 at t = 25), so the uniform pass goes first
    # and the refinement raises with its payload, as for a callable
    with pytest.raises(AccuracyError, match="budget exhausted") as exc:
        sl_inverse_numeric(parse_transform("1/s - 1/cs"), 1.0, 1.0, t,
                           1000.0, 1e-6)
    assert sum(split_sizes) <= MAX_EVALUATIONS
    assert exc.value.value is not None and exc.value.abs_error_estimate > 0


class TestNumericInversionNearRepeatedPoles:
    """1/(s+1)^k + 1/(cs+1) on lines x1 + iy that pass the pole of order
    k at -1 at a distance 1 + x1.  Evaluated from the expanded (s+1)^k,
    F lost its digits near the pole, the |K - G| sums stalled above
    their share and 5 of these 9 ran out of the 2^20 budget."""

    @staticmethod
    def counted(monkeypatch, st):
        """Evaluations of st.g1 in numeric inversion, as a list."""
        calls = []

        def evaluate(r, z):
            if r is st.g1:
                calls.append(np.size(z))
            return evaluate_rational(r, z)

        monkeypatch.setattr(inversion, "evaluate_rational", evaluate)
        return calls

    @pytest.mark.parametrize("x1, k", [
        (x1, k) for x1 in (-0.9, -0.8, -0.5) for k in (6, 10, 14)
        if (x1, k) != (-0.9, 14)])  # see test_closest_highest_order_raises
    def test_value_within_the_truncation_allowance(self, monkeypatch, x1,
                                                   k):
        st = parse_transform(f"1/(s+1)^{k} + 1/(cs+1)")
        calls = self.counted(monkeypatch, st)
        t, A = 2.0, 1000.0
        v = sl_inverse_numeric(st, x1, 0.5, t, A, 1e-6)
        assert sum(calls) < 10_000
        # truncation: |J|/(pi*A*|t|) + 4/(pi*A) times the prefactor, for
        # the jump J = -1 at t = 0
        allow = math.exp(x1 * t) * (1.0 / (math.pi * A * t)
                                    + 4.0 / (math.pi * A))
        assert abs(v - sl_inverse_split(st, t)) <= allow

    def test_closest_highest_order_raises(self, monkeypatch):
        # |F| reaches 1e14 on the line; the |K - G| sums still stall
        st = parse_transform("1/(s+1)^14 + 1/(cs+1)")
        calls = self.counted(monkeypatch, st)
        with pytest.raises(AccuracyError, match="budget exhausted"):
            sl_inverse_numeric(st, -0.9, 0.5, 2.0, 1000.0, 1e-6)
        assert sum(calls) <= MAX_EVALUATIONS


def _apart_terms(expr, s):
    """{(pole, order): coefficient} of sympy.apart over the Gaussian
    rationals, in exact arithmetic."""
    import sympy

    out = {}
    for term in sympy.Add.make_args(sympy.apart(expr, s, extension=sympy.I)):
        coef, rest = term.as_independent(s)
        base, power = rest.as_base_exp()
        b1, b0 = sympy.Poly(base, s).all_coeffs()
        out[(-b0 / b1, -int(power))] = coef / b1 ** -power
    return out


@pytest.mark.parametrize("seed, top", [(61, 3), (61, 8), (61, 14), (61, 20),
                                       (62, 20)])
def test_partial_fractions_agree_with_sympy_apart(seed, top):
    # num(s) / ((s - a)^top (s - b)^k ((s - al)^2 + be^2)^q), every number
    # a multiple of 1/2, so the text and sympy state the same function
    import sympy

    rng = np.random.default_rng([seed, top])
    s = sympy.Symbol("s")
    a, b = (sympy.Rational(int(v), 2)
            for v in rng.choice(np.arange(-4, 3), 2, replace=False))
    al = sympy.Rational(int(rng.integers(-3, 2)), 2)
    be = sympy.Rational(int(rng.integers(1, 5)), 2)
    k, q = (int(v) for v in rng.integers(1, 4, 2))
    num = [int(v) for v in rng.integers(-3, 4, 3)]
    quad = [al ** 2 + be ** 2, -2 * al]
    expr = (sum(c * s ** j for j, c in enumerate(num))
            / ((s - a) ** top * (s - b) ** k
               * (s ** 2 + quad[1] * s + quad[0]) ** q))
    text = (f"({num[0]} + {num[1]}*s + {num[2]}*s^2)/((s-({float(a)}))^{top}"
            f"*(s-({float(b)}))^{k}*(s^2+({float(quad[1])})*s"
            f"+{float(quad[0])})^{q})")
    exact = _apart_terms(expr, s)
    r = parse_transform(text).g1
    try:
        terms = partial_fractions(r)
    except RootFindingError:
        # a rejection must come from rounding the decomposition cannot
        # avoid: the exact terms, rounded to doubles, rebuild the
        # function no better than a tenth of the 1e-10 allowance
        rounded = [PartialFractionTerm(complex(p), order, complex(c))
                   for (p, order), c in exact.items()]
        assert _reconstruction_gap(r, rounded) > 1e-11
        return
    poles = {t.pole for t in terms}
    assert len(poles) == len({p for p, _ in exact}) == 4
    for pole in {p for p, _ in exact}:
        near = min(poles, key=lambda z: abs(z - complex(pole)))
        assert abs(near - complex(pole)) <= 1e-12 * (1 + abs(near))
        want = {order: complex(c) for (p, order), c in exact.items()
                if p == pole}
        got = {t.order: t.coefficient for t in terms if t.pole == near}
        size = max(abs(c) for c in want.values())
        for order in set(want) | set(got):
            assert abs(got.get(order, 0) - want.get(order, 0)) \
                <= 1e-10 * size, (pole, order)
