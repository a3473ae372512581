"""Forward symmetric Laplace transform.

The transform of a signal f at the point (x1, x2, y) is

    integral over R of exp((-x1*H(t) + x2*H(-t) - i*y)*t) * f(t) dt

which splits into two one-sided Laplace integrals: the positive piece at
s1 = x1 + i*y and (after t -> -t) the reflected negative piece at
conj(s2) = x2 - i*y.  The requested tolerance is split evenly between
them.  The classical transforms are points of this one: the Fourier
transform is SLPoint(0, 0, y), and the Laplace transform at s of an f
that vanishes on t < 0 is SLPoint(Re s, Re s, Im s).

Along a line of fixed damping (x1, x2) the oscillation y is the Fourier
direction, so a whole y-grid is evaluated at once: each half-line takes
one factored pass of Gauss-Kronrod 15/31 panels, uniform and shared by
its y, and a second for the y beyond 4096 such panels
(quadrature.laplace_grid); only a y whose panel certificate misses
its budget has its own panels bisected.
Scattered points, each at its own damping and tolerance, are served
the same way: the points that share a damping and a tolerance form a
row with its own panels, and the rows of a call run together, so a set
of points takes one call per piece side.  one_sided_values is that
call for one half-line, and the one path by which the package takes a
one-sided transform: the derivative rules and the heat and ODE checks
call it too.  sl_forward_values returns the values and estimates of
points (x1, x2, y) broadcast together as arrays, which `symlap forward`
writes as they are, and sl_forward is its one-point case as a
TransformSample.
"""

from __future__ import annotations

import numpy as np

from .core import PiecewiseSignal, SLPoint, TransformSample
from .errors import DivergenceError
from .quadrature import (
    laplace_grid,
    real_array,
    require_finite,
    require_positive,
)


def one_sided_values(f: PiecewiseSignal, side: str, x, ys, tol):
    """Values and error estimates of the one-sided Laplace transform of
    one half-line of f at s = x + i*y for every point of x, ys and tol
    broadcast together, each to absolute tolerance its tol: two complex
    and real arrays in their broadcast shape, from one laplace_grid call
    whose rows are the points of equal x and tol.

    side "pos" integrates f(u) * exp(-s*u) over u >= 0, side "neg" the
    reflected piece f(-u) * exp(-s*u).  Raises ValueError for a
    non-finite or non-positive tol, a non-finite x or y, or a complex
    x, y or tol with a nonzero imaginary part, and DivergenceError
    naming the half-line and the damping when an x does not dominate
    the growth rate of its piece (quadrature._truncate's rule), before
    any evaluation.
    """
    ys = real_array("ys", ys)
    require_positive(tol=tol)
    require_finite(x=x)
    if np.count_nonzero(np.isfinite(ys)) < ys.size:
        raise ValueError("every oscillation y must be finite")
    piece = f.pos if side == "pos" else lambda u: f.neg(-u)
    try:
        return laplace_grid(piece, f.bound_for(side), x, ys, tol,
                            osc=f.osc_hint, tail_cut=f.tail_cut)
    except DivergenceError as exc:  # quadrature's rule, named by side
        label = "positive" if side == "pos" else "negative"
        raise DivergenceError(
            f"{label} half-line diverges: {exc}; a tail_cut certifies the "
            "side at any x >= 0") from None


def sl_forward_values(f: PiecewiseSignal, x1, x2, ys, tol):
    """Values and error estimates of the transform of f at (x1, x2, y)
    for every point of x1, x2, ys and tol broadcast together, each to
    absolute tolerance its tol: two complex and real arrays in their
    broadcast shape.  The positive half-line at (x1, y) and the negative
    one at (x2, -y) take tol/2 each, one one_sided_values call a side.

    Raises ValueError for a non-finite or non-positive tol, a
    non-finite x1, x2 or y, or a complex x1, x2, y or tol with a nonzero
    imaginary part, and DivergenceError naming the offending
    half-line when x1 or x2 does not dominate the growth rate of its
    piece.
    """
    # name the caller's tol, x1 and x2, before any pass
    require_positive(tol=tol)
    require_finite(x1=x1, x2=x2)
    ys = real_array("ys", ys)
    if not isinstance(tol, (float, int)):  # a sequence halves as an array
        tol = real_array("tol", tol)
    value, estimate = 0j, 0.0
    for side, x, y in (("pos", x1, ys), ("neg", x2, -ys)):
        v, e = one_sided_values(f, side, x, y, tol / 2.0)
        value, estimate = value + v, estimate + e
    if np.count_nonzero(np.isfinite(value)) < value.size:
        raise ValueError("transform value must be finite")
    return value, estimate


def sl_forward(f: PiecewiseSignal, p: SLPoint, tol: float) -> TransformSample:
    """Evaluate the transform of f at p to absolute tolerance tol: the
    one-point case of sl_forward_values, with the same errors."""
    value, estimate = sl_forward_values(f, p.x1, p.x2, [p.y], tol)
    return TransformSample(p, complex(value[0]), float(estimate[0]))
