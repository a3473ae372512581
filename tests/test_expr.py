import cmath
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from symlap.errors import (
    ExprError,
    ParseError,
    PoleError,
    RootFindingError,
    SplitError,
)
from symlap.expr import (
    Polynomial,
    RationalFunction,
    eval_expression,
    evaluate_rational,
    parse_transform,
    polynomial_roots,
)


def rational_close(r, expected, points=(0.7 + 0.3j, 2.0 - 1j, -1.5 + 2j)):
    for z in points:
        assert evaluate_rational(r, z) == pytest.approx(expected(z), abs=1e-12)


class TestParsing:
    def test_inverse_square_difference_splits(self):
        st = parse_transform("1/s^2 - 1/cs^2")
        rational_close(st.g1, lambda z: 1.0 / z ** 2)
        rational_close(st.g2, lambda z: -1.0 / z ** 2)

    def test_sum_of_reciprocals(self):
        st = parse_transform("1/s + 1/cs")
        rational_close(st.g1, lambda z: 1.0 / z)
        rational_close(st.g2, lambda z: 1.0 / z)

    def test_mixed_product_is_split_error(self):
        with pytest.raises(SplitError):
            parse_transform("1/(s*cs)")

    def test_rational_normalization_expands_products(self):
        st = parse_transform("(2*s+3)/((s+1)*(s+2))")
        assert st.g2.is_zero
        assert np.allclose(st.g1.num.coef, [3.0, 2.0])
        assert np.allclose(st.g1.den.coef, [2.0, 3.0, 1.0])

    def test_constants_land_in_g1(self):
        st = parse_transform("5 + 1/cs")
        assert st.g1.is_constant
        assert st.g1.constant_value() == 5.0

    def test_conj_alias(self):
        st = parse_transform("conj(s)^2 + s")
        rational_close(st.g2, lambda z: z ** 2)
        rational_close(st.g1, lambda z: z)

    def test_imaginary_unit_and_decimals(self):
        st = parse_transform("(0.5 + 2*i)/s")
        rational_close(st.g1, lambda z: (0.5 + 2j) / z)

    def test_sum_inside_parens_separates(self):
        st = parse_transform("(s + cs)*2")
        rational_close(st.g1, lambda z: 2.0 * z)
        rational_close(st.g2, lambda z: 2.0 * z)

    def test_cs_polynomial_denominator(self):
        st = parse_transform("cs/(cs^2+1)")
        rational_close(st.g2, lambda z: z / (z * z + 1.0))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_transform("1/s + * 2")
        assert exc.value.position == 6

    def test_unknown_identifier_rejected(self):
        with pytest.raises(ParseError):
            parse_transform("1/x")

    def test_division_by_zero_polynomial(self):
        with pytest.raises(ExprError):
            parse_transform("1/(s-s)")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_transform("s^1.5")

    def test_huge_exponent_rejected(self):
        with pytest.raises(ExprError):
            parse_transform("s^100")


class TestRoundTrip:
    EXPRS = [
        "1/s^2 - 1/cs^2",
        "(2*s+3)/((s+1)*(s+2))",
        "1/2 * 1/(s-1) - 1/2 * s/(s^2+1) - 1/2 * 1/(s^2+1)",
        "(0.25 + i)/(s^3 + 2*s + 7) + cs/(cs^2+1)",
    ]

    @pytest.mark.parametrize("text", EXPRS)
    def test_pretty_print_reparses_to_same_function(self, text):
        st = parse_transform(text)
        st2 = parse_transform(st.pretty())
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = complex(rng.normal(), rng.normal()) + 3.0  # dodge poles
            a = evaluate_rational(st.g1, z) + evaluate_rational(st.g2, z)
            b = evaluate_rational(st2.g1, z) + evaluate_rational(st2.g2, z)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_classification_is_total(self):
        # g1(s) + g2(conj(s)) must reproduce the raw expression
        rng = np.random.default_rng(5)
        for text in self.EXPRS:
            st = parse_transform(text)
            for _ in range(10):
                z = complex(2.0 + rng.random(), rng.normal())
                direct = eval_expression(text, z, z.conjugate())
                split = (evaluate_rational(st.g1, z)
                         + evaluate_rational(st.g2, z.conjugate()))
                assert abs(direct - split) <= 1e-10 * max(1.0, abs(direct))


class TestRoots:
    def test_quadratic_with_imaginary_pair(self):
        roots = polynomial_roots(Polynomial([1, 0, 1]))
        assert roots == [(-1j, 1), (1j, 1)]

    def test_double_root_at_zero(self):
        assert polynomial_roots(Polynomial([0, 0, 1])) == [(0j, 2)]

    def test_real_quadratic_against_formula(self):
        # s^2 + 3s + 2: roots (-3 +- 1)/2
        roots = polynomial_roots(Polynomial([2, 3, 1]))
        expected = sorted([(-3 - 1) / 2, (-3 + 1) / 2])
        assert [r for r, _ in roots] == pytest.approx(expected)
        assert [m for _, m in roots] == [1, 1]

    def test_shifted_double_root(self):
        roots = polynomial_roots(Polynomial([1, 2, 1]))
        assert len(roots) == 1
        assert roots[0][0] == pytest.approx(-1.0, abs=1e-12)
        assert roots[0][1] == 2

    def test_multiplicities_sum_to_degree(self):
        rng = np.random.default_rng(17)
        for deg in range(1, 8):
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            roots = polynomial_roots(Polynomial(c))
            assert sum(m for _, m in roots) == deg

    def test_reconstruction_property(self):
        rng = np.random.default_rng(23)
        for deg in range(1, 7):
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            p = Polynomial(c)
            roots = polynomial_roots(p)
            zs = rng.normal(size=20) + 1j * rng.normal(size=20)
            rec = np.ones(20, dtype=complex)
            for r, m in roots:
                rec *= (zs - r) ** m
            monic = np.polynomial.polynomial.polyval(zs, p.coef / p.coef[-1])
            assert np.max(np.abs(rec - monic)
                          / np.maximum(1.0, np.abs(monic))) <= 1e-9

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            polynomial_roots(Polynomial([3.0]))

    @pytest.mark.parametrize("power", [35, 40, 64])
    def test_high_degree_pole_raises_typed_error(self, power):
        # (s+1)^40 has coefficients up to C(40, 20) ~ 1.4e11: the
        # iterates overflow, which must neither warn nor escape untyped
        den = parse_transform(f"1/(s+1)^{power}").g1.den
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RootFindingError):
                polynomial_roots(den)


def _random_coef(rng, degree):
    return rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestNumpyFreeCore:
    """The polynomial core agrees bit for bit with numpy.polynomial."""

    @pytest.mark.parametrize("seed", range(4))
    def test_arithmetic_matches_numpy_polynomial(self, seed):
        rng = np.random.default_rng([41, seed])
        for d1 in range(21):
            d2 = int(rng.integers(0, 21))
            c1, c2 = _random_coef(rng, d1), _random_coef(rng, d2)
            if d1 % 5 == 0:
                c1 = c1.real + 0j  # real coefficients stored as complex
            p, q = Polynomial(c1), Polynomial(c2)
            assert _same_bits((p * q).coef, npoly.polymul(c1, c2))
            assert _same_bits((p + q).coef, npoly.polyadd(c1, c2))
            assert _same_bits((p - q).coef, npoly.polysub(c1, c2))
            assert _same_bits((q - p).coef, npoly.polysub(c2, c1))
            assert _same_bits(p.deriv().coef, npoly.polyder(c1))

    @pytest.mark.parametrize("seed", range(4))
    def test_horner_matches_polyval(self, seed):
        rng = np.random.default_rng([43, seed])
        points = [complex(rng.standard_normal(), rng.standard_normal()),
                  float(rng.standard_normal()),
                  rng.standard_normal(17) + 1j * rng.standard_normal(17),
                  3.0 * rng.standard_normal(9),
                  rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))]
        for degree in range(21):
            c = _random_coef(rng, degree)
            for z in points:
                assert _same_bits(Polynomial(c)(z), npoly.polyval(z, c))

    # the expression shapes of the split-invert and numeric-invert
    # benchmark workloads
    WORKLOAD_TEXTS = [
        "1/s^2 - 1/cs^2",
        "1/s - 1/cs",
        "1/s + 1/cs",
        "1/2 * 1/(s-1) - 1/2 * s/(s^2+1) - 1/2 * 1/(s^2+1) + 1/cs"
        " - cs/(cs^2+1)",
        "1.16/(s+0.1) + -1.93/(s+2.45) + 0.93/(cs+0.55)",
        "(0.51*(s+0.6)+-1.67*2.5)/((s+0.6)^2+2.5^2) + 1.97/(cs+1.0)^2",
        "0.96/(s+1.0) + -1.67/((s+1.0)*(s-0.5)) + -0.68/(cs+0.5)"
        " + 1.56/(cs+0.5) + 0.7/(cs+2.0)",
        "(1.05+-1.01*i)/(s-(-0.65+1.0*i)) + 1.18/(cs+1.15)",
        "1.92/(s+2.35) + 1.7/(s+2.0) + 1.58/(s+0.35) + 1.43/(s-0.1)"
        " + (1.35*(s+0.15)+-1.77*1.5)/((s+0.15)^2+1.5^2) + 0.93/(cs+0.3)"
        " + 1.03/(cs+2.05) + 1.17/(cs+0.75)",
        "1/(s+1)^3",
        "1/(s^2+1)^4",
        "1.0/(s-0.0) + -1.0/(cs-0.0)",
        "0.57/(s+1.85) + 1.81/(cs+1.0)",
        "0.78/(s+1.75)^2 + -1.13/(cs+0.65)",
    ]

    def test_parse_coefficients_match_the_numpy_core(self, monkeypatch):
        def coefficients():
            out = []
            for text in self.WORKLOAD_TEXTS:
                st = parse_transform(text)
                out.append([p.coef.tobytes() for p in
                            (st.g1.num, st.g1.den, st.g2.num, st.g2.den)])
            return out

        lean = coefficients()

        def mul(a, b):
            if isinstance(b, Polynomial):
                return Polynomial(npoly.polymul(a.coef, b.coef))
            return Polynomial(a.coef * complex(b))

        # numpy.polynomial arithmetic, and sums that always go through
        # the common denominator even when one side is zero
        for name, fn in [
                ("__add__", lambda a, b: Polynomial(
                    npoly.polyadd(a.coef, b.coef))),
                ("__sub__", lambda a, b: Polynomial(
                    npoly.polysub(a.coef, b.coef))),
                ("__mul__", mul), ("__rmul__", mul)]:
            monkeypatch.setattr(Polynomial, name, fn)
        monkeypatch.setattr(RationalFunction, "__add__", lambda a, b:
                            RationalFunction(a.num * b.den + b.num * a.den,
                                             a.den * b.den))
        monkeypatch.setattr(RationalFunction, "__sub__", lambda a, b:
                            RationalFunction(a.num * b.den - b.num * a.den,
                                             a.den * b.den))
        assert coefficients() == lean


class TestEvaluation:
    def test_reciprocal(self):
        assert evaluate_rational(parse_transform("1/s").g1, 2.0) == 0.5

    def test_inverse_square_at_i(self):
        v = evaluate_rational(parse_transform("1/s^2").g1, 1j)
        assert v == pytest.approx(-1.0)

    def test_product_denominator_at_zero(self):
        r = parse_transform("(2*s+3)/((s+1)*(s+2))").g1
        assert evaluate_rational(r, 0.0) == pytest.approx(1.5)

    def test_pole_guard(self):
        with pytest.raises(PoleError):
            evaluate_rational(parse_transform("1/s").g1, 0.0)

    def test_array_evaluation(self):
        r = parse_transform("1/s").g1
        z = np.array([1.0, 2.0, 4.0], dtype=complex)
        assert np.allclose(evaluate_rational(r, z), 1.0 / z)


def test_polynomial_taylor_shift():
    p = Polynomial([0, 0, 1])  # z^2 around 3: 9 + 6u + u^2
    assert np.allclose(p.shifted(3.0), [9.0, 6.0, 1.0])


def test_rational_function_requires_nonzero_denominator():
    with pytest.raises(ExprError):
        RationalFunction(Polynomial([1.0]), Polynomial([0.0]))


def test_monic_normalization():
    r = RationalFunction(Polynomial([2.0]), Polynomial([0.0, 4.0]))
    assert np.allclose(r.den.coef, [0.0, 1.0])
    assert np.allclose(r.num.coef, [0.5])


def test_eval_expression_matches_cmath():
    z = 1.3 - 0.4j
    v = eval_expression("(s^2 + 1)/(s - 2) + i*cs", z, z.conjugate())
    expected = (z ** 2 + 1) / (z - 2) + 1j * z.conjugate()
    assert cmath.isclose(v, expected, rel_tol=1e-14)
