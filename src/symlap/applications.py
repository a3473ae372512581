"""Two worked problems with closed-form solutions and residual checks.

Heat problem: u_xx = u_t on the real line with u(x, 0) = sign(x) and
u(0, t) = 0.  The solution is u(x, t) = erf(x / (2*sqrt(t))) (written
piecewise as erf / -erf of the mirrored argument; both branches agree
because erf is odd).  Checks: the finite-difference residual of the PDE
vanishes at second order in the step, and the transformed equation
s^2*G + cs^2*Gm = G_t + Gm_t holds for the half-line transforms of the
solution, with G + Gm -> 1/s - 1/cs as t -> 0+.

ODE problem: y'' + y = f where f(t) = exp(t) for t >= 0 and 1 for
t < 0, with y(0) = 0.  The solution is (exp(t) - cos t - sin t)/2 on
t >= 0 and 1 - cos t on t < 0; it is C^1 at zero and satisfies the
equation exactly on both branches.
"""

from __future__ import annotations

import functools
import math
from math import erf  # re-exported as symlap.erf

import numpy as np

from .core import ExponentialOrderBound, PiecewiseSignal
from .rules import finite_points, transform_pair_of


def heat_solution(x: float, t: float) -> float:
    """The closed-form solution erf(x / (2*sqrt(t))), written per branch.

    Raises ValueError unless t > 0 (a NaN t included).
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    arg = x / (2.0 * math.sqrt(t))
    if x >= 0:
        return erf(arg)
    return -erf(-arg)


def heat_residual(x: float, t: float, h: float) -> float:
    """|centered u_xx - centered u_t| at step h; O(h^2) for the true
    solution.  Needs x != 0 (the formula is smooth off the t-axis) and
    t > h so the time stencil stays in the domain."""
    if h <= 0:
        raise ValueError("h must be positive")
    if x == 0:
        raise ValueError("residual stencil needs x != 0")
    if t <= h:
        raise ValueError("need t > h for the time stencil")
    u_xx = (heat_solution(x + h, t) - 2.0 * heat_solution(x, t)
            + heat_solution(x - h, t)) / (h * h)
    u_t = (heat_solution(x, t + h) - heat_solution(x, t - h)) / (2.0 * h)
    return abs(u_xx - u_t)


def heat_transform_pair(s: complex, t: float, tol: float):
    """Half-line transforms (G, Gm) of the solution at time t.

    G(s, t) transforms x -> u(x, t) on x >= 0 at s; Gm transforms
    x -> u(-x, t) on x >= 0 at conj(s).

    Raises ValueError when s is not finite or unless t > 0, and
    DivergenceError for Re s <= 0, where the envelope |u| <= 1 does not
    decay.
    """
    s = finite_points(s)
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    root = 2.0 * math.sqrt(t)
    # u is odd in x, so one formula serves both half-lines
    u = functools.partial(_erf_over, root=root)
    bound = ExponentialOrderBound(1.0, 0.0)
    tp = transform_pair_of(PiecewiseSignal("heat", u, u, bound, bound), tol)
    return tp.pos(s), tp.neg(s.conjugate())


def _erf_over(v, root):
    """erf(v / root) for a 1-d float array v: one math.erf per value on
    Python floats, the bits np.vectorize gives without its per-call
    work."""
    return np.array([erf(a) for a in (v / root).tolist()])


_HEAT_STEP = 3e-4


def heat_transform_identity(s: complex, t: float, tol: float) -> float:
    """|s^2*G + cs^2*Gm - (G_t + Gm_t)| with time derivatives by central
    difference at step _HEAT_STEP in t.  The identity is exact for the
    solution, so the returned value reflects only discretization."""
    s = complex(s)
    quad_tol = min(tol / 50.0, 1e-9)
    g, gm = heat_transform_pair(s, t, quad_tol)
    gp, gmp = heat_transform_pair(s, t + _HEAT_STEP, quad_tol)
    gq, gmq = heat_transform_pair(s, t - _HEAT_STEP, quad_tol)
    g_dot = (gp - gq) / (2.0 * _HEAT_STEP)
    gm_dot = (gmp - gmq) / (2.0 * _HEAT_STEP)
    cs = s.conjugate()
    return abs(s * s * g + cs * cs * gm - g_dot - gm_dot)


def _ode_terms_right(t: float):
    e, c, s = math.exp(t), math.cos(t), math.sin(t)
    y = (0.5 * e, -0.5 * c, -0.5 * s)
    yp = (0.5 * e, 0.5 * s, -0.5 * c)
    ypp = (0.5 * e, 0.5 * c, 0.5 * s)
    return y, yp, ypp, e


def _ode_terms_left(t: float):
    c, s = math.cos(t), math.sin(t)
    y = (1.0, -c)
    yp = (s,)
    ypp = (c,)
    return y, yp, ypp, 1.0


def ode_solution(t: float) -> float:
    """(exp(t) - cos t - sin t)/2 for t >= 0, 1 - cos t for t < 0."""
    terms = _ode_terms_right(t)[0] if t >= 0 else _ode_terms_left(t)[0]
    return math.fsum(terms)


def ode_derivative1(t: float) -> float:
    terms = _ode_terms_right(t)[1] if t >= 0 else _ode_terms_left(t)[1]
    return math.fsum(terms)


def ode_derivative2(t: float) -> float:
    terms = _ode_terms_right(t)[2] if t >= 0 else _ode_terms_left(t)[2]
    return math.fsum(terms)


def ode_boundary_values():
    """One-sided limits (y(0+), y'(0+)), (y(0-), y'(0-)) from the two
    branch formulas."""
    yr, ypr, _, _ = _ode_terms_right(0.0)
    yl, ypl, _, _ = _ode_terms_left(0.0)
    return ((math.fsum(yr), math.fsum(ypr)),
            (math.fsum(yl), math.fsum(ypl)))


def ode_residual(t: float) -> float:
    """|y''(t) + y(t) - f(t)| from the analytic branch formulas.

    The constituent terms are summed exactly (math.fsum), so the result
    reports the algebraic identity itself rather than the cancellation
    noise of adding two large halves of exp(t)."""
    y, _, ypp, f = _ode_terms_right(t) if t >= 0 else _ode_terms_left(t)
    return abs(math.fsum([*ypp, *y, -f]))


def ode_transform_check(s, tol: float):
    """Worst gap between the quadrature transforms of the solution and
    the closed forms 1/(2(s-1)) - s/(2(s^2+1)) - 1/(2(s^2+1)) on the
    positive side and 1/cs - cs/(cs^2+1) on the negative side: a float
    for one complex s, an array for an array of s, whose transforms take
    one call a side.  Raises ValueError for an s that is not finite and
    DivergenceError for Re s <= 1, where the exp(t) branch's envelope
    does not decay."""
    s = finite_points(s)
    quad_tol = min(tol / 10.0, 1e-9)
    cs = s.conjugate()
    # y(t) on both branches; the negative piece is read at t < 0
    solution = PiecewiseSignal(
        "ode_solution", lambda t: (np.exp(t) - np.cos(t) - np.sin(t)) / 2.0,
        lambda t: 1.0 - np.cos(t), ExponentialOrderBound(1.5, 1.0),
        ExponentialOrderBound(2.0, 0.0), osc_hint=1.0)
    tp = transform_pair_of(solution, quad_tol)
    pos, neg = tp.pos(s), tp.neg(cs)
    closed_pos = (0.5 / (s - 1.0) - 0.5 * s / (s * s + 1.0)
                  - 0.5 / (s * s + 1.0))
    closed_neg = 1.0 / cs - cs / (cs * cs + 1.0)
    gap = np.maximum(abs(pos - closed_pos), abs(neg - closed_neg))
    return gap if gap.ndim else float(gap)
