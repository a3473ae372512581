import math

import numpy as np
import pytest

from symlap.core import (
    CATALOG_NAMES,
    ExponentialOrderBound,
    PiecewiseSignal,
    SLPoint,
    TransformSample,
    catalog_signal,
)
from symlap.errors import CatalogError


def test_sign_values_and_bounds():
    f = catalog_signal("sign")
    t = np.array([0.0, 0.5, 3.0])
    assert np.allclose(f.pos(t), 1.0)
    assert np.allclose(f.neg(-t[1:]), -1.0)
    assert f.bound_pos == ExponentialOrderBound(1.0, 0.0)
    assert f.bound_neg == ExponentialOrderBound(1.0, 0.0)


def test_one_is_constant_both_sides():
    f = catalog_signal("one")
    assert f(2.5) == 1.0 and f(-2.5) == 1.0


def test_unknown_name_lists_valid_ones():
    with pytest.raises(CatalogError) as exc:
        catalog_signal("nosuch")
    msg = str(exc.value)
    for name in CATALOG_NAMES:
        assert name in msg


def test_zero_belongs_to_positive_piece():
    # H(0) = 1 convention
    assert catalog_signal("heaviside")(0.0) == 1.0
    assert catalog_signal("sign")(0.0) == 1.0
    assert catalog_signal("ode_rhs")(0.0) == 1.0


def test_call_is_piecewise_and_shape_preserving():
    f = catalog_signal("sign")
    t = np.array([-2.0, -0.1, 0.0, 0.1, 2.0])
    out = f(t)
    assert out.shape == t.shape
    assert np.allclose(out, [-1, -1, 1, 1, 1])
    assert isinstance(f(1.0), complex)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_envelopes_hold_on_dyadic_grid(name):
    f = catalog_signal(name)
    ts = [2.0 ** k for k in range(-5, 6)]
    ts = ts + [-t for t in ts]
    for t in ts:
        val = abs(f(t))
        side = "pos" if t >= 0 else "neg"
        envelope = float(f.bound_for(side).envelope(t))
        assert val <= envelope * (1.0 + 1e-12), (name, t, val, envelope)


def test_bound_rejects_negative_envelope_constant():
    with pytest.raises(ValueError):
        ExponentialOrderBound(-1.0, 0.0)


def test_transform_sample_rejects_non_finite_and_negative_error():
    p = SLPoint(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        TransformSample(p, complex("nan"), 0.0)
    with pytest.raises(ValueError):
        TransformSample(p, 1.0 + 0j, -1e-3)


def test_ramp_bound_is_sharp():
    # |t| itself on both sides: degree 1, M = 1, no exponential growth
    f = catalog_signal("ramp")
    assert f.bound_pos == f.bound_neg == ExponentialOrderBound(1.0, 0.0, 1)
    ts = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    for side in ("pos", "neg"):
        b = f.bound_for(side)
        assert b == ExponentialOrderBound(1.0, 0.0, 1)
        assert np.array_equal(b.envelope(ts), np.abs(ts))


@pytest.mark.parametrize("degree", [-1, 0.5, math.nan, math.inf])
def test_bound_rejects_a_degree_that_is_not_a_whole_number(degree):
    with pytest.raises(ValueError, match="degree"):
        ExponentialOrderBound(1.0, 0.0, degree)


def test_custom_signal_roundtrips_through_call():
    f = PiecewiseSignal(
        "expdecay", lambda t: np.exp(-t), lambda t: np.zeros_like(t),
        ExponentialOrderBound(1.0, -1.0), ExponentialOrderBound(1.0, 0.0))
    assert f(1.0) == pytest.approx(math.exp(-1))
    assert f(-1.0) == 0.0
