"""Domain types and the built-in signal catalog.

A signal is a function on the whole real line given as two half-line
pieces.  The value at t = 0 belongs to the positive piece (H(0) = 1
convention).  Each piece carries an exponential-order envelope
|f(t)| <= M * |t|^d * exp(a*|t|) that the quadrature engine uses to
place its truncation point.

Signals are represented behaviorally, as evaluable mappings over numpy
arrays.  All types in this module are immutable values and safe to share
between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CatalogError


@dataclass(frozen=True)
class ExponentialOrderBound:
    """Envelope |f(t)| <= M * |t|^degree * exp(a*|t|) on one half-line."""

    M: float
    a: float
    degree: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.M) and math.isfinite(self.a)):
            raise ValueError("bound components must be finite")
        if self.M < 0:
            raise ValueError(f"envelope constant M must be >= 0, got {self.M}")
        if not (math.isfinite(self.degree) and self.degree >= 0
                and self.degree == int(self.degree)):
            raise ValueError(
                f"envelope degree must be a whole number >= 0, got "
                f"{self.degree}")

    def envelope(self, t):
        t = np.abs(t)
        return self.M * t ** self.degree * np.exp(self.a * t)


@dataclass(frozen=True)
class SLPoint:
    """Transform-domain evaluation point (x1, x2, y).

    x1 damps the positive half-line, x2 the negative one, y is the
    oscillation.  Convergence requires x1 and x2 to exceed the growth
    rates of the respective signal pieces; the operations enforce that.
    """

    x1: float
    x2: float
    y: float


@dataclass(frozen=True)
class TransformSample:
    """One (point, value) pair with the integrator's error estimate."""

    point: SLPoint
    value: complex
    abs_error_estimate: float

    def __post_init__(self):
        v = complex(self.value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError("transform value must be finite")
        if not (self.abs_error_estimate >= 0):
            raise ValueError("abs_error_estimate must be >= 0")


@dataclass(frozen=True)
class PiecewiseSignal:
    """Function on the real line split at t = 0; t = 0 belongs to pos.

    pos and neg must accept numpy float arrays and return arrays (complex
    or real).  Both pieces must be evaluable anywhere; only pos(t>=0) and
    neg(t<0) are ever used for results.

    bound_pos and bound_neg are the envelopes of the two pieces.  A
    polynomially growing piece gives its bound a degree d > 0, as the
    ramp does with ExponentialOrderBound(1.0, 0.0, 1); the quadrature
    then certifies the exact tail of M * |t|^d * exp(a*|t|), a Gamma
    function (quadrature.truncation_point), so any damping x > a
    converges at the full rate x - a.

    tail_cut, when present, maps a tolerance to a truncation point T with
    integral of |f| over [T, inf) below that tolerance.  It certifies
    absolute integrability for signals (like a Gaussian) that decay
    faster than any exponential envelope records.

    Each piece must be smooth on its half-line.  The error estimate
    compares two Gauss-Kronrod rules on each panel, and a jump or kink
    inside a panel, such as the pulse t < 1 or |t - 1|, can leave the
    error orders of magnitude above the estimate.
    """

    name: str
    pos: Callable
    neg: Callable
    bound_pos: ExponentialOrderBound
    bound_neg: ExponentialOrderBound
    osc_hint: float = 0.0
    tail_cut: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if not math.isfinite(self.osc_hint):
            raise ValueError(f"osc_hint must be finite, got {self.osc_hint}")

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        t_flat = np.atleast_1d(t_arr)
        out = np.empty(t_flat.shape, dtype=complex)
        m = t_flat >= 0
        if m.any():
            out[m] = np.asarray(self.pos(t_flat[m]), dtype=complex)
        if (~m).any():
            out[~m] = np.asarray(self.neg(t_flat[~m]), dtype=complex)
        return complex(out[0]) if scalar else out

    def bound_for(self, side: str) -> ExponentialOrderBound:
        """Envelope of the given half-line ("pos" or "neg")."""
        return self.bound_pos if side == "pos" else self.bound_neg


def _gauss_tail_cut(tol: float) -> float:
    # exp(-T^2)/(2T) <= tol at T = sqrt(log(1/tol)) already; keep T >= 1.
    return max(1.0, math.sqrt(max(math.log(1.0 / tol), 1.0)))


CATALOG_NAMES = (
    "sign",
    "one",
    "heaviside",
    "ramp",
    "sincos",
    "cossin",
    "ode_rhs",
    "gauss",
)


def catalog_signal(name: str, freq: float = 1.0) -> PiecewiseSignal:
    """Look up a built-in signal by name.

    Names are the stable identifiers used by the command line tool:

    ==========  =====================================================
    sign        1 for t >= 0, -1 for t < 0
    one         constant 1
    heaviside   1 for t >= 0, 0 for t < 0
    ramp        f(t) = t on the whole line
    sincos      sin(freq*t) for t >= 0, cos(freq*t) for t < 0
    cossin      cos(freq*t) for t >= 0, sin(freq*t) for t < 0
    ode_rhs     exp(t) for t >= 0, 1 for t < 0
    gauss       exp(-t^2)
    ==========  =====================================================

    freq only affects sincos and cossin.
    """
    b1 = ExponentialOrderBound(1.0, 0.0)
    if name == "sign":
        return PiecewiseSignal("sign", lambda t: np.ones_like(t),
                               lambda t: -np.ones_like(t), b1, b1)
    if name == "one":
        return PiecewiseSignal("one", lambda t: np.ones_like(t),
                               lambda t: np.ones_like(t), b1, b1)
    if name == "heaviside":
        return PiecewiseSignal("heaviside", lambda t: np.ones_like(t),
                               lambda t: np.zeros_like(t), b1, b1)
    if name == "ramp":
        ramp = ExponentialOrderBound(1.0, 0.0, 1)
        return PiecewiseSignal("ramp", lambda t: t, lambda t: t, ramp, ramp)
    if name == "sincos":
        w = float(freq)
        return PiecewiseSignal(f"sincos(freq={w})",
                               lambda t: np.sin(w * t),
                               lambda t: np.cos(w * t),
                               b1, b1, osc_hint=abs(w))
    if name == "cossin":
        w = float(freq)
        return PiecewiseSignal(f"cossin(freq={w})",
                               lambda t: np.cos(w * t),
                               lambda t: np.sin(w * t),
                               b1, b1, osc_hint=abs(w))
    if name == "ode_rhs":
        return PiecewiseSignal("ode_rhs", lambda t: np.exp(t),
                               lambda t: np.ones_like(t),
                               ExponentialOrderBound(1.0, 1.0), b1)
    if name == "gauss":
        return PiecewiseSignal("gauss", lambda t: np.exp(-t * t),
                               lambda t: np.exp(-t * t), b1, b1,
                               tail_cut=_gauss_tail_cut)
    raise CatalogError(
        f"unknown signal {name!r}; valid names: {', '.join(CATALOG_NAMES)}")
