import cmath
import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from symlap import expr
from symlap.errors import (
    ExprError,
    ParseError,
    PoleError,
    RootFindingError,
    SplitError,
)
from symlap.expr import (
    RationalFunction,
    _add,
    _derivative,
    _horner,
    _sub,
    _times,
    eval_expression,
    evaluate_rational,
    parse_transform,
    polynomial_roots,
)
from symlap.inversion import _shifted


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

    def test_sums_go_over_the_least_common_multiple(self):
        # the ODE transform: (s^2+1) is not squared, and the numerators
        # cancel down to constants
        st = parse_transform("1/2 * 1/(s-1) - 1/2 * s/(s^2+1) - 1/2 * "
                             "1/(s^2+1) + 1/cs - cs/(cs^2+1)")
        assert (st.g1.num.degree, st.g1.den.degree) == (0, 3)
        assert (st.g2.num.degree, st.g2.den.degree) == (0, 3)
        rational_close(st.g1, lambda z: 1.0 / ((z - 1.0) * (z * z + 1.0)))
        # terms over a shared factor: the denominator of each side is the
        # product of its distinct factors
        st = parse_transform("0.96/(s+1.0) + -1.67/((s+1.0)*(s-0.5))"
                             " + -0.68/(cs+0.5) + 1.56/(cs+0.5)"
                             " + 0.7/(cs+2.0)")
        assert st.g1.den.degree == 2
        assert st.g2.den.degree == 2

    def test_factors_carry_multiplicities(self):
        r = parse_transform("(s+1)^2/((s+1)^5*(s^2+1)^3*(s^2+1))").g1
        assert sorted((len(f) - 1, m) for f, m in r.denf.items()) == [
            (1, 3), (2, 4)]
        assert r.numf == {}
        assert r.den.degree == 11

    def test_signed_zeros_do_not_split_a_factor(self):
        # s - 0.0 and s + 0.0 are one factor: its zero is made positive,
        # so they cancel and their multiplicities add
        assert parse_transform("1/(s-0.0) - 1/(s+0.0)").g1.is_zero
        r = parse_transform("(s-0.0)/(s+0.0)^2").g1
        assert r.numf == {}
        assert list(r.denf.values()) == [1]
        [f] = r.denf
        assert f == (0j, 1 + 0j) and math.copysign(1.0, f[0].real) == 1.0

    def test_constants_land_in_g1(self):
        st = parse_transform("5 + 1/cs")
        assert st.g1.is_constant
        assert st.g1.scale == 5.0

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
        roots = polynomial_roots([1, 0, 1])
        assert roots == [(-1j, 1), (1j, 1)]

    def test_double_root_at_zero(self):
        assert polynomial_roots([0, 0, 1]) == [(0j, 2)]

    def test_real_quadratic_against_formula(self):
        # s^2 + 3s + 2: roots (-3 +- 1)/2
        roots = polynomial_roots([2, 3, 1])
        expected = sorted([(-3 - 1) / 2, (-3 + 1) / 2])
        assert [r for r, _ in roots] == pytest.approx(expected)
        assert [m for _, m in roots] == [1, 1]

    def test_shifted_double_root(self):
        roots = polynomial_roots([1, 2, 1, 0.0])
        assert len(roots) == 1
        assert roots[0][0] == pytest.approx(-1.0, abs=1e-12)
        assert roots[0][1] == 2

    def test_multiplicities_sum_to_degree(self):
        rng = np.random.default_rng(17)
        for deg in range(1, 8):
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            roots = polynomial_roots(c)
            assert sum(m for _, m in roots) == deg

    def test_reconstruction_property(self):
        rng = np.random.default_rng(23)
        for deg in range(1, 7):
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            roots = polynomial_roots(c)
            zs = rng.normal(size=20) + 1j * rng.normal(size=20)
            rec = np.ones(20, dtype=complex)
            for r, m in roots:
                rec *= (zs - r) ** m
            monic = np.polynomial.polynomial.polyval(zs, c / c[-1])
            assert np.max(np.abs(rec - monic)
                          / np.maximum(1.0, np.abs(monic))) <= 1e-9

    @pytest.mark.parametrize("coef", [[2.0, 1.0], [-0.5, 4.0], [0.0, 1.0],
                                      [3 + 1j, 2 - 1j], [1e-300, 1.0]])
    def test_linear_root_without_iteration(self, coef):
        # -c0/c1 directly, with no iteration
        [(root, mult)] = polynomial_roots(coef)
        assert mult == 1
        assert root == 0.0 - coef[0] / coef[1]

    def test_linear_root_has_the_bits_of_numpys_quotient(self):
        rng = np.random.default_rng(29)
        scales = 10.0 ** rng.uniform(-150, 150, size=(2000, 4))
        parts = rng.standard_normal((2000, 4)) * scales
        parts[::3, 1::2] = 0.0  # real coefficients too
        for c0r, c0i, c1r, c1i in parts:
            coef = np.array([complex(c0r, c0i), complex(c1r, c1i)])
            [(root, _)] = polynomial_roots(coef)
            assert _same_bits(root, 0.0 - (coef / coef[1])[0])

    @pytest.mark.parametrize("coef", [[1e300, 1e-300], [-1e200, 1e-200j],
                                      [1.0, 1e-320]])
    def test_overflowing_linear_root_raises_typed_error(self, coef):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RootFindingError):
                polynomial_roots(coef)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            polynomial_roots([3.0])
        with pytest.raises(ValueError):
            polynomial_roots([3.0, 0.0, 0.0])

    @pytest.mark.parametrize("power", [35, 40, 64])
    def test_high_degree_pole_raises_typed_error(self, power):
        # (s+1)^40 has coefficients up to C(40, 20) ~ 1.4e11: the
        # iterates overflow, which must neither warn nor escape untyped
        den = parse_transform(f"1/(s+1)^{power}").g1.den
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RootFindingError):
                polynomial_roots(den.coef)


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
            a, b = c1.tolist(), c2.tolist()
            assert _same_bits(_times(c1, tuple(b)), npoly.polymul(c1, c2))
            assert _same_bits(np.array(_add(a, b)), npoly.polyadd(c1, c2))
            assert _same_bits(np.array(_sub(a, b)), npoly.polysub(c1, c2))
            assert _same_bits(np.array(_sub(b, a)), npoly.polysub(c2, c1))
            assert _same_bits(_derivative(c1), npoly.polyder(c1))

    def test_monic_factor_has_the_bits_of_numpys_quotient(self):
        # the factor is c / lead by _quotient, every zero made positive:
        # numpy's array quotient plus 0.0, bit for bit
        rng = np.random.default_rng(31)
        for _ in range(3000):
            n = int(rng.integers(2, 6))
            parts = (rng.standard_normal((n, 2))
                     * 10.0 ** rng.uniform(-100, 100, size=(n, 2)))
            parts[rng.random((n, 2)) < 0.2] = -0.0
            c = (parts[:, 0] + 1j * parts[:, 1]).tolist()
            if c[-1] == 0:
                continue
            [f] = expr._factored(c)[1]
            assert _same_bits(np.array(f), np.array(c) / c[-1] + 0.0)

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
                assert _same_bits(_horner(c, z), npoly.polyval(z, c))
                assert _same_bits(_horner(tuple(c.tolist()), z),
                                  npoly.polyval(z, c))

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

        def times(a, b):
            return a * b if isinstance(b, complex) else npoly.polymul(a, b)

        # the same factored algebra on numpy.polynomial arithmetic
        for name, fn in [
                ("_add", lambda a, b: npoly.polyadd(a, b).tolist()),
                ("_sub", lambda a, b: npoly.polysub(a, b).tolist()),
                ("_times", times)]:
            monkeypatch.setattr(expr, name, fn)
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

    def test_constant_takes_the_shape_of_z(self):
        r = parse_transform("2 - i").g1
        assert evaluate_rational(r, 0.5) == 2 - 1j
        assert type(evaluate_rational(r, 0.5)) is complex
        out = evaluate_rational(r, np.zeros((2, 3)))
        assert out.shape == (2, 3) and (out == 2 - 1j).all()

    def test_an_empty_array_gives_an_empty_array(self):
        # the pole guard took the minimum of no denominator values
        for text in ("1/(s+1)^2", "s + 2", "3"):
            r = parse_transform(text).g1
            assert evaluate_rational(r, np.array([])).shape == (0,)
            assert evaluate_rational(r, np.zeros((2, 0))).shape == (2, 0)

    def test_pole_guard_applies_to_the_factored_denominator(self):
        # (1e-8)^40 = 1e-320 lies below the 1e-280 guard
        r = parse_transform("1/(s+1)^40").g1
        with pytest.raises(PoleError):
            evaluate_rational(r, np.array([0.0, -1.0 + 1e-8]))

    @pytest.mark.parametrize("text, exact, poles", [
        ("1/(s+1)^5", lambda s: 1 / (s + 1) ** 5, [-1.0]),
        ("1/(s+1)^20", lambda s: 1 / (s + 1) ** 20, [-1.0]),
        ("1/(s+1)^40", lambda s: 1 / (s + 1) ** 40, [-1.0]),
        ("1/(s^2+1)^4", lambda s: 1 / (s ** 2 + 1) ** 4, [1j, -1j]),
        ("(s-2)^3*(s^2+s+1)/((s+1)^7*(s^2+1)^2)",
         lambda s: (s - 2) ** 3 * (s ** 2 + s + 1) / ((s + 1) ** 7
                                                       * (s ** 2 + 1) ** 2),
         [-1.0, 1j, -1j])])
    def test_repeated_poles_keep_their_digits(self, text, exact, poles):
        # against mpmath at 30 digits, at most 0.054 from a pole and far
        # from every pole.  Horner on the expanded denominator errs like
        # sum |c_k||z|^k / |den(z)|: it was off by 1.5e-9 for the fifth
        # power at -0.95 + 0.02i and by 1.0 for the 20th
        import mpmath

        r = parse_transform(text).g1
        near = [p + d for p in poles
                for d in (0.05 + 0.02j, 0.03 + 0.02j, -0.04 + 0.01j, 0.02j,
                          -0.025 - 0.035j)]
        far = [2.0 + 3.0j, -5.0 + 1.0j, 0.5 - 7.0j, 40.0]
        points = np.array(near + far)
        with mpmath.workdps(30):
            want = np.array([complex(exact(mpmath.mpc(z))) for z in points])
        for got in (evaluate_rational(r, points),
                    [evaluate_rational(r, complex(z)) for z in points]):
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14

    def test_a_scalar_gets_the_bits_of_the_same_z_in_an_array(self):
        # numpy squares an array by np.square and fuses its complex
        # products, a complex scalar by neither: at -0.97 + 0.02i the
        # scalar once read ...661.05151 and the array ...661.051506
        r = parse_transform("(s-2)^3*(s^2+s+1)/((s+1)^7*(s^2+1)^2)").g1
        z = -0.97 + 0.02j
        assert evaluate_rational(r, z) == evaluate_rational(r, np.array(
            [z, 1.0]))[0]
        rng = np.random.default_rng(20261019)
        zs = rng.uniform(-3.0, 3.0, 2000) + 1j * rng.uniform(-3.0, 3.0, 2000)
        whole = evaluate_rational(r, zs)
        one_by_one = np.array([evaluate_rational(r, complex(z)) for z in zs])
        assert whole.tobytes() == one_by_one.tobytes()


def test_polynomial_taylor_shift():
    # z^2 around 3: 9 + 6u + u^2
    assert np.allclose(_shifted((0j, 0j, 1 + 0j), 3.0), [9.0, 6.0, 1.0])


def test_rational_function_requires_nonzero_denominator():
    with pytest.raises(ExprError):
        RationalFunction(1.0, {}, {}) / RationalFunction(0.0, {}, {})
    with pytest.raises(ExprError):
        RationalFunction(1.0, {}, {(0j, 1 + 0j): 1}) / RationalFunction(
            0.0, {(1 + 0j, 1 + 0j): 2}, {})


@pytest.mark.parametrize("text,real", [
    ("1/s - 1/cs", True), ("0.57/(s+1.85) + 1.81/(cs+1.0)^2", True),
    ("(1+i)*(1-i)/(s+2)", True), ("i*i/s", True), ("0", True),
    ("(1+i)/(s+1) - 1/(cs+2)", False), ("1/(s-i)", False),
    ("1/s + i/cs", False)])
def test_real_coefficients_are_read_off_both_sides(text, real):
    assert parse_transform(text).is_real is real


def test_monic_normalization():
    # 2/(4s): the constant 4 leaves the factor s monic
    r = RationalFunction(2.0, {}, {}) / (
        RationalFunction(4.0, {}, {}) * RationalFunction(
            1.0, {(0j, 1 + 0j): 1}, {}))
    assert (r.scale, r.numf, r.denf) == (0.5, {}, {(0j, 1 + 0j): 1})
    assert np.allclose(r.den.coef, [0.0, 1.0])
    assert np.allclose(r.num.coef, [0.5])
    # a sum's numerator is one factor over its lead: (2s + 4)/s
    r = RationalFunction(2.0, {}, {}) + RationalFunction(
        4.0, {}, {(0j, 1 + 0j): 1})
    assert (r.scale, r.numf) == (2.0, {(2 + 0j, 1 + 0j): 1})
    assert np.allclose(r.num.coef, [4.0, 2.0])


def test_eval_expression_matches_cmath():
    z = 1.3 - 0.4j
    v = eval_expression("(s^2 + 1)/(s - 2) + i*cs", z, z.conjugate())
    expected = (z ** 2 + 1) / (z - 2) + 1j * z.conjugate()
    assert cmath.isclose(v, expected, rel_tol=1e-14)


@pytest.mark.parametrize("text,error", [
    ("s^100", ExprError), ("1/s + * 2", ParseError), ("s^1.5", ParseError),
    ("1/x", ParseError), ("(s + 1", ParseError), ("s cs", ParseError)])
def test_eval_expression_reads_the_parse_transform_grammar(text, error):
    # one grammar for both algebras: the same error types, positions and
    # exponent cap
    with pytest.raises(error) as split_exc:
        parse_transform(text)
    with pytest.raises(error) as eval_exc:
        eval_expression(text, 1.0 + 1j, 1.0 - 1j)
    assert str(eval_exc.value) == str(split_exc.value)
    assert eval_exc.value.position == split_exc.value.position


def test_eval_expression_is_not_a_top_level_export():
    import symlap

    assert "eval_expression" not in symlap.__all__
    assert not hasattr(symlap, "eval_expression")


@pytest.mark.parametrize("text, error, position, message", [
    ("1.2.3", ParseError, 0, "malformed number '1.2.3'"),
    (".5.", ParseError, 0, "malformed number '.5.'"),
    ("s + x", ParseError, 4, "unknown identifier 'x'"),
    ("2e", ParseError, 1, "unknown identifier 'e'"),
    ("s @ 1", ParseError, 2, "unexpected character '@'"),
    ("s^1.5", ParseError, 2, "exponent must be a nonnegative integer"),
    ("s^-1", ParseError, 2, "exponent must be a nonnegative integer"),
    ("s^65", ExprError, 1, "exponent 65 too large (max 64)"),
    ("(s+1", ParseError, 4, "expected ')', found ''"),
    ("conj(x)", ParseError, 5, "unknown identifier 'x'"),
    ("conj(s", ParseError, 6, "expected ')', found ''"),
    ("s)", ParseError, 1, "unexpected trailing input ')'"),
    ("", ParseError, 0, "unexpected end of input"),
    ("1/(s*cs)", SplitError, 4,
     "product couples s with cs and cannot be separated"),
    ("(s+cs)/s", SplitError, 6,
     "quotient couples s with cs and cannot be separated"),
    ("1/(s+cs)", SplitError, 1, "denominator mixes s and cs"),
    ("1/(s-s)", ExprError, 1, "division by an identically zero expression"),
    ("s/(0*s)", ExprError, 1, "division by an identically zero expression"),
    ("1/s + * 2", ParseError, 6, "expected a value, found '*'"),
])
def test_parse_errors_are_pinned(text, error, position, message):
    # type, position and message of each error: a leaner lexer, parser
    # or split algebra must keep all three
    with pytest.raises(ExprError) as exc:
        parse_transform(text)
    assert type(exc.value) is error
    assert exc.value.position == position
    assert str(exc.value) == f"{message} (at position {position})"


def _same_split(a, b):
    """Two SplitTransforms whose sides agree, to the bit, at a few z."""
    z = np.array([0.7 + 0.3j, 2.0 - 1.0j, -1.5 + 2.0j])
    return all(evaluate_rational(getattr(a, g), z).tobytes()
               == evaluate_rational(getattr(b, g), z).tobytes()
               for g in ("g1", "g2"))


@pytest.mark.parametrize("parse", [
    parse_transform, lambda text: eval_expression(text, 2.0, 3.0)],
    ids=["parse_transform", "eval_expression"])
def test_deep_nesting_is_a_parse_error_at_the_cap(parse):
    # each parenthesis took four stack frames and each unary sign one, so
    # 248 parentheses or 988 signs raised RecursionError.  A parenthesis
    # past the cap is a ParseError at its position, in both algebras
    cap = expr._MAX_NESTING
    for depth in (cap + 1, 300, 2000):
        with pytest.raises(ParseError) as exc:
            parse("(" * depth + "s" + ")" * depth)
        assert exc.value.position == cap
        assert str(exc.value) == (f"parentheses nested deeper than {cap} "
                                  f"(at position {cap})")
    with pytest.raises(ParseError) as exc:
        parse("1/(s+1) + " + "-(" * (cap + 1) + "s" + ")" * (cap + 1))
    assert exc.value.position == len("1/(s+1) + ") + 2 * cap + 1


def test_nesting_to_the_cap_and_long_sign_runs_parse_to_the_same_value():
    # cap - 1 parentheses around 1/(s+2) nest it cap deep and parse; one
    # more does not.  A run of signs negates once per '-'
    cap = expr._MAX_NESTING
    inner = "1/(s+2) - 3/cs^2"
    assert _same_split(parse_transform("(" * (cap - 1) + inner
                                       + ")" * (cap - 1)),
                       parse_transform(inner))
    with pytest.raises(ParseError):
        parse_transform("(" * cap + inner + ")" * cap)
    assert eval_expression("(" * (cap - 1) + inner + ")" * (cap - 1),
                           2.0, 3.0) == eval_expression(inner, 2.0, 3.0)
    for signs, negated in (("-" * 2000, False), ("-" * 2001, True),
                           ("+-" * 1500, False), ("-+" * 1501, True)):
        text = f"{signs}({inner})"
        want = f"-({inner})" if negated else inner
        assert eval_expression(text, 2.0, 3.0) == eval_expression(
            want, 2.0, 3.0)
        assert _same_split(parse_transform(text), parse_transform(want))
