import math

import numpy as np
import pytest

from _oracles import simpson
from symlap.applications import (
    _erf_over,
    erf,
    heat_residual,
    heat_solution,
    heat_transform_identity,
    heat_transform_pair,
    ode_boundary_values,
    ode_derivative1,
    ode_derivative2,
    ode_residual,
    ode_solution,
    ode_transform_check,
)
from symlap.errors import DivergenceError
from symlap.verify import HEAT_IDENTITY_SAMPLES

HEAT_POINTS = ((0.7, 0.3), (-0.7, 0.3), (1.2, 0.5), (-1.2, 0.5),
               (0.5, 0.25), (1.0, 0.5))


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_odd(self):
        assert erf(-0.7) == -erf(0.7)

    def test_value_at_one_against_quadrature_oracle(self):
        oracle = 2.0 / math.sqrt(math.pi) * simpson(
            lambda u: np.exp(-u * u), 0.0, 1.0, 2 ** 12).real
        assert abs(erf(1.0) - oracle) <= 1e-12
        assert erf(1.0) == pytest.approx(0.8427007929497149, abs=1e-12)

    def test_saturates(self):
        assert erf(10.0) == 1.0
        assert erf(-10.0) == -1.0

    def test_is_the_stdlib_erf(self):
        import symlap

        assert symlap.erf is erf is math.erf


class TestHeatSolution:
    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_boundary_condition_is_exact(self, t):
        assert heat_solution(0.0, t) == 0.0

    def test_saturated_region_matches_initial_data(self):
        assert heat_solution(10.0, 0.25) == pytest.approx(1.0, abs=1e-12)

    def test_odd_in_x(self):
        assert heat_solution(-0.7, 0.3) == -heat_solution(0.7, 0.3)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            heat_solution(1.0, 0.0)
        with pytest.raises(ValueError):
            heat_solution(1.0, -0.5)
        with pytest.raises(ValueError, match="positive"):
            heat_solution(1.0, math.nan)

    def test_far_field_matches_initial_data(self):
        # |u - sign(x)| below 1e-6 once |x| >= 7*sqrt(t)
        for t in (0.1, 0.5, 2.0):
            x = 7.0 * math.sqrt(t)
            assert abs(heat_solution(x, t) - 1.0) <= 1e-6
            assert abs(heat_solution(-x, t) + 1.0) <= 1e-6


class TestHeatResidual:
    @pytest.mark.parametrize("x,t", [(0.7, 0.3), (-1.2, 0.5)])
    def test_small_at_reference_step(self, x, t):
        assert heat_residual(x, t, 1e-3) <= 1e-5

    def test_second_order_in_step(self):
        r1 = heat_residual(0.7, 0.3, 1e-3)
        r2 = heat_residual(0.7, 0.3, 5e-4)
        assert r1 / r2 == pytest.approx(4.0, abs=0.5)

    @pytest.mark.parametrize("x,t", HEAT_POINTS)
    def test_sample_points_meet_acceptance_bounds(self, x, t):
        r1 = heat_residual(x, t, 1e-3)
        r2 = heat_residual(x, t, 5e-4)
        assert r1 <= 1e-5
        assert 3.5 <= r1 / r2 <= 4.5

    def test_guards(self):
        with pytest.raises(ValueError):
            heat_residual(0.0, 0.3, 1e-3)
        with pytest.raises(ValueError):
            heat_residual(0.7, 0.3, -1e-3)
        with pytest.raises(ValueError):
            heat_residual(0.7, 1e-4, 1e-3)


class TestHeatTransform:
    def test_identity_at_real_point(self):
        assert heat_transform_identity(1.0 + 0j, 0.5, 1e-4) <= 1e-4

    def test_identity_at_complex_point(self):
        assert heat_transform_identity(2.0 + 1j, 0.25, 1e-4) <= 1e-4

    @pytest.mark.parametrize("s", [1.0 + 0j, 2.0 + 1j])
    def test_initial_condition_recovered_as_t_vanishes(self, s):
        g, gm = heat_transform_pair(s, 1e-4, 1e-9)
        target = 1.0 / s - 1.0 / s.conjugate()
        assert abs(g + gm - target) <= 1e-3

    def test_needs_positive_real_part(self):
        with pytest.raises(DivergenceError):
            heat_transform_pair(-1.0 + 0j, 0.5, 1e-8)

    @pytest.mark.parametrize("t", [0.0, -0.5, math.nan])
    def test_rejects_time_that_is_not_positive(self, t):
        with pytest.raises(ValueError, match="positive"):
            heat_transform_pair(1.0 + 0j, t, 1e-6)

    def test_rejects_nan_oscillation(self):
        with pytest.raises(ValueError, match="osc"):
            heat_transform_pair(complex(1.0, math.nan), 1.0, 1e-6)

    def test_rejects_an_infinite_s_by_name(self):
        # it said "x must be finite, got inf", a name the caller never used
        with pytest.raises(ValueError, match=r"s must be finite, got \(inf"):
            heat_transform_pair(complex(math.inf, 0.0), 0.5, 1e-8)

    @pytest.mark.parametrize("s,t", HEAT_IDENTITY_SAMPLES)
    def test_each_criterion_sample_measures_a_gap(self, s, t):
        # at a real s the identity is 0.0 to the bit (the solution is
        # odd, so Gm = -G) and checks nothing; every sample of the heat
        # criterion measures discretization instead
        assert 0.0 < heat_transform_identity(s, t, 1e-4) <= 1e-4
        assert heat_transform_identity(s.real + 0j, t, 1e-4) == 0.0

    @pytest.mark.parametrize("t", [0.25, 0.5, 0.5 + 3e-4, 0.25 - 3e-4, 1e-4])
    def test_piece_has_the_bits_of_a_vectorized_erf(self, t):
        # the heat piece erf(v / 2sqrt(t)) against np.vectorize of
        # math.erf, bit for bit: +-0, the verify suite's times, seeded
        # values with |v| up to 1e3 and both signs
        rng = np.random.default_rng([29, int(t * 1e6)])
        v = np.concatenate([[0.0, -0.0, 1e3, -1e3, 5e-324, -5e-324],
                            rng.uniform(-1e3, 1e3, 2000),
                            rng.standard_normal(2000),
                            rng.uniform(-8.0, 8.0, 2000)])
        root = 2.0 * math.sqrt(t)
        want = np.vectorize(lambda a: math.erf(a / root), otypes=[float])(v)
        got = _erf_over(v, root)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestOdeSolution:
    def test_initial_condition(self):
        assert ode_solution(0.0) == 0.0

    def test_negative_branch_at_minus_pi(self):
        assert ode_solution(-math.pi) == pytest.approx(2.0, abs=1e-15)

    def test_positive_branch_at_half_pi(self):
        expected = (math.exp(math.pi / 2.0) - 1.0) / 2.0
        assert ode_solution(math.pi / 2.0) == pytest.approx(expected,
                                                            abs=1e-15)

    def test_residual_vanishes_on_grid(self):
        for t in np.linspace(-10.0, 10.0, 201):
            assert ode_residual(float(t)) <= 1e-12

    def test_residual_spot_values(self):
        assert ode_residual(1.0) <= 1e-12
        assert ode_residual(-2.0) <= 1e-12

    def test_one_sided_limits_agree_and_vanish(self):
        (y0p, yp0p), (y0m, yp0m) = ode_boundary_values()
        assert y0p == y0m == 0.0
        assert yp0p == yp0m == 0.0

    def test_c1_but_derivatives_from_both_branches(self):
        # second derivative is continuous too for this forcing
        assert ode_derivative2(0.0) == pytest.approx(1.0)
        assert ode_derivative1(1.0) == pytest.approx(
            (math.exp(1) + math.sin(1) - math.cos(1)) / 2.0)


class TestOdeTransform:
    def test_closed_forms_at_real_point(self):
        assert ode_transform_check(2.0 + 0j, 1e-7) <= 1e-7

    def test_closed_forms_at_complex_point(self):
        assert ode_transform_check(3.0 + 1j, 1e-7) <= 1e-7

    def test_divergence_at_unit_real_part(self):
        with pytest.raises(DivergenceError):
            ode_transform_check(1.0 + 0j, 1e-7)

    def test_rejects_nan_oscillation(self):
        with pytest.raises(ValueError, match="osc"):
            ode_transform_check(complex(2.0, math.nan), 1e-7)

    @pytest.mark.parametrize("s", [complex(math.inf, 0.0),
                                   np.array([2.0, complex(math.inf, 1.0)])])
    def test_rejects_an_infinite_s_by_name(self, s):
        # it said "x must be finite, got inf"
        with pytest.raises(ValueError, match=r"s must be finite, got \(inf"):
            ode_transform_check(s, 1e-7)

    def test_an_array_of_s_agrees_with_one_call_per_s(self):
        s = np.array([2.0 + 0j, 3.0 + 1j, 1.5 - 2j])
        gaps = ode_transform_check(s, 1e-7)
        assert gaps.shape == s.shape and np.all(gaps <= 1e-7)
        loop = [ode_transform_check(v, 1e-7) for v in s]
        assert all(isinstance(v, float) for v in loop)
        assert np.all(np.abs(gaps - loop) <= 1e-9)
