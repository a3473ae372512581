"""Semi-infinite and finite oscillatory integration with certified truncation.

The workhorse is an adaptive Gauss-Kronrod 7/15 scheme over a panel list.
Each panel is estimated with the 15-point Kronrod rule; the difference
against the embedded 7-point Gauss rule serves as the local error
estimate.  Panels whose error exceeds their fair share of the budget are
bisected until the error sum fits, or a hard evaluation budget (2^20
integrand evaluations) runs out, in which case an AccuracyError carrying
the best estimate is raised rather than returning a silently degraded
value.

Half-line integrals split the tolerance evenly: the analytic tail bound
M * exp(-(x-a)*T) / (x-a) gets half, panel refinement on [0, T] gets the
other half.

laplace_grid evaluates the one-sided Laplace transform of a piece at
s = x + i*y for a whole grid of y in one factored pass.  T depends on x
and the tolerance only, so every y shares the uniform panels of [0, T]
with midpoints c_p and half-width h, and with u_pj = c_p + h*x_j

    K_p(y) = h * exp(-i*y*c_p) * sum_j w_j * v(u_pj) * exp(-i*y*h*x_j),

v(u) = f(u)*exp(-x*u).  The 15 x Y matrix exp(-i*y*h*x_j) is shared by
all panels, so the integrand is evaluated once per node rather than once
per node and y.  The same product with the weights w^K - w^G gives each
panel's |K_p - G_p| (the panel phase drops out of the modulus), so every
y carries the certificate the adaptive path would report for these
panels.  Any y whose panel sum misses its budget is re-integrated by the
adaptive path.  The reported estimate adds a rounding allowance for the
sums and phases; refinement never tests against it.

finite_oscillatory_integral, the Fourier integral behind numeric
inversion, is factored the same way in t: one uniform pass at half an
oscillation per panel, after which over-budget panels are bisected in
place by the same refinement loop the adaptive path uses.

Integrands must accept a 1-d numpy float array and return an array of
values (complex or real).  Panels are kept in ascending position order
and summed in that order, so results are reproducible bit for bit no
matter how the work would be scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ExponentialOrderBound
from .errors import AccuracyError, DivergenceError

# 15-point Kronrod nodes on [-1, 1] and weights, with the embedded
# 7-point Gauss weights aligned on the same nodes (zeros at the
# Kronrod-only positions).  Values are the classical QUADPACK constants.
_XGK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG7 = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])
_WG = np.zeros(15)
_WG[1::2] = _WG7

MAX_EVALUATIONS = 2 ** 20


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with its certified-estimate bookkeeping."""

    value: complex
    abs_error_estimate: float
    truncation_point: float
    evaluations: int

    def __post_init__(self):
        if not (self.abs_error_estimate >= 0):
            raise ValueError("abs_error_estimate must be >= 0")
        if self.evaluations <= 0:
            raise ValueError("evaluations must be positive")


@dataclass(frozen=True)
class OscillatoryResult(QuadratureResult):
    """finite_oscillatory_integral over [-A, A] (value, estimate and
    cost) together with half_value, the integral over [-A/2, A/2] read
    off the same panels."""

    half_value: complex


def require_positive(**values):
    """Raise ValueError unless every keyword value is finite and > 0."""
    for name, v in values.items():
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive and finite, got {v}")


def require_finite(**values):
    """Raise ValueError unless every keyword value is finite."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


def _finite(vals):
    vals = np.asarray(vals, dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise AccuracyError("integrand returned a non-finite value")
    return vals


def _panel_estimates(f, lefts, rights):
    """Kronrod values, |K - G| error estimates and Kronrod sums of |f|
    (the scale of their rounding), vectorized over panels."""
    half = (rights - lefts) / 2.0
    mid = (lefts + rights) / 2.0
    nodes = mid[:, None] + half[:, None] * _XGK[None, :]
    vals = _finite(f(nodes.ravel())).reshape(len(lefts), 15)
    # einsum, unlike @, never hands the product to threaded BLAS
    k = np.einsum("pj,j->p", vals, _WGK) * half
    g = np.einsum("pj,j->p", vals, _WG) * half
    return k, np.abs(k - g), np.einsum("pj,j->p", np.abs(vals), _WGK) * half


def _adaptive(f, a, b, n0, tol):
    """Adaptively integrate f over [a, b] to absolute tolerance tol,
    starting from n0 equal panels.

    Returns (value, error_sum, rounding allowance, evaluations).
    """
    grid = np.linspace(a, b, n0 + 1)
    lefts, rights = grid[:-1], grid[1:]
    k, e, m = _panel_estimates(f, lefts, rights)
    _, _, k, e, m, evals = _refine(f, lefts, rights, k, e, m, tol, 15 * n0)
    return (complex(k.sum()), float(e.sum()), _rounding(evals, m.sum()),
            evals)


def _rounding(nodes, magnitude, phase=0.0):
    """Rounding allowance for a GK15 sum over nodes nodes whose Kronrod
    sum of |integrand| is magnitude: pairwise summation, phases
    exp(i*phi) with |phi| up to phase, and the final scaling."""
    return (np.finfo(float).eps * magnitude
            * (math.ceil(math.log2(nodes)) + phase + 2.0))


def _refine(f, lefts, rights, k, e, m, tol, evals):
    """Bisect panels until their |K - G| sum is at most tol.

    lefts, rights, k, e and m describe the panels (Kronrod values, error
    estimates and Kronrod sums of |f|) and evals counts the evaluations
    spent on them so far.  Returns the refined (lefts, rights, k, e, m,
    evals).  Refinement never tests against rounding.  Panels stay
    sorted by position and a split panel is replaced in place by its two
    halves, so existing panel edges survive; each round bisects every
    panel above its fair share of the budget, so the process is
    deterministic.
    """
    while e.sum() > tol:
        if evals >= MAX_EVALUATIONS:
            raise AccuracyError(
                f"refinement budget exhausted ({evals} evaluations); "
                f"best estimate error {e.sum():.3e} > tol {tol:.3e}",
                value=complex(k.sum()), abs_error_estimate=float(e.sum()))
        mask = e > tol / len(e)
        if not mask.any():
            mask = e == e.max()
        mids = (lefts[mask] + rights[mask]) / 2.0
        kl, el, ml = _panel_estimates(f, lefts[mask], mids)
        kr, er, mr = _panel_estimates(f, mids, rights[mask])
        evals += 30 * int(mask.sum())
        # rebuild the panel list in position order, split panels in place
        counts = np.where(mask, 2, 1)
        pos = np.cumsum(counts) - counts
        n_new = int(counts.sum())
        L = np.empty(n_new)
        R = np.empty(n_new)
        K = np.empty(n_new, dtype=complex)
        E = np.empty(n_new)
        M = np.empty(n_new)
        L[pos], R[pos], K[pos], E[pos], M[pos] = lefts, rights, k, e, m
        sp = pos[mask]
        R[sp], K[sp], E[sp], M[sp] = mids, kl, el, ml
        L[sp + 1], R[sp + 1] = mids, rights[mask]
        K[sp + 1], E[sp + 1], M[sp + 1] = kr, er, mr
        lefts, rights, k, e, m = L, R, K, E, M
    return lefts, rights, k, e, m, evals


def truncation_point(bound: ExponentialOrderBound, x: float,
                     tol: float) -> float:
    """Truncation T with tail integral of M*exp(-(x-a)*t) over [T, inf)
    at most tol, i.e. T = log(M / (tol*(x-a))) / (x-a), clamped at 0."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if bound.M <= 0:
        raise ValueError("bound.M must be positive")
    if x <= bound.a:
        raise DivergenceError(
            f"damping x={x} does not exceed growth rate a={bound.a}")
    rate = x - bound.a
    return max(0.0, math.log(bound.M / (tol * rate)) / rate)


def _tail_bound(bound, x, T):
    rate = x - bound.a
    return bound.M * math.exp(-rate * T) / rate


def _truncate(bound, x, tol, tail_cut):
    """Truncation point T for a half-line integral to tolerance tol, the
    certified tail beyond T (at most tol/2), and the decay length that
    caps the panel width."""
    if x > bound.a:
        T = truncation_point(bound, x, tol / 2.0)
        return T, _tail_bound(bound, x, T), 1.0 / (x - bound.a)
    if tail_cut is not None:
        return float(tail_cut(tol / 2.0)), tol / 2.0, 1.0
    raise DivergenceError(
        f"damping x={x} does not exceed growth rate a={bound.a}")


def _panel_count(T, width):
    """Initial number of panels on [0, T], between 4 and 4096."""
    return int(min(max(math.ceil(T / width), 4), 4096))


def _osc_width(osc):
    """A quarter period of the oscillation osc: the per-point panel width."""
    return math.pi / (4.0 * (abs(osc) + 1.0))


def half_line_integral(integrand, bound: ExponentialOrderBound, x: float,
                       tol: float, *, osc: float = 0.0,
                       tail_cut=None) -> QuadratureResult:
    """Integrate integrand over [0, inf) to absolute tolerance tol.

    bound is the exponential envelope of the undamped factor and x the
    damping applied to it, so |integrand(t)| <= M * exp((a - x)*t) and
    the tail beyond the truncation point is certified analytically.

    osc hints at the dominant oscillation frequency of the integrand so
    initial panels resolve it; adaptivity catches whatever the hint
    misses.  tail_cut, when given, supplies a truncation point for
    integrands decaying faster than the envelope describes (used when
    x <= a would otherwise reject the integral).  Raises ValueError for
    a non-finite or non-positive tol or a non-finite x.
    """
    require_positive(tol=tol)
    require_finite(x=x)
    T, tail, scale = _truncate(bound, x, tol, tail_cut)
    if T <= 0.0:
        # tail bound alone already meets the tolerance
        _finite(integrand(np.zeros(1)))
        return QuadratureResult(0j, tail, 0.0, 1)
    n0 = _panel_count(T, min(_osc_width(osc), scale))
    value, disc, rounding, evals = _adaptive(integrand, 0.0, T, n0,
                                             tol / 2.0)
    return QuadratureResult(value, tail + disc + rounding, T, evals)


def laplace_grid(piece, bound: ExponentialOrderBound, x: float, ys,
                 tol: float, *, osc: float = 0.0, tail_cut=None):
    """Integral of piece(u) * exp(-(x + i*y)*u) over [0, inf) for every y.

    Returns (values, estimates), arrays over ys, each value to absolute
    tolerance tol.  bound, osc and tail_cut mean what they mean for
    half_line_integral, with osc the oscillation of piece itself.

    One uniform GK15 pass at half an oscillation of max|y| + osc per
    panel (capped at 4096 panels) serves every y; a y whose panel
    |K - G| sum exceeds tol/2 is re-integrated by the adaptive path from
    the panel count half_line_integral would start with.  Estimates are
    tail bound + panel |K - G| sum + rounding allowance.
    """
    ys = np.asarray(ys, dtype=float)
    T, tail, scale = _truncate(bound, x, tol, tail_cut)
    if T <= 0.0 or ys.size == 0:
        _finite(piece(np.zeros(1)))
        return np.zeros(ys.shape, dtype=complex), np.full(ys.shape, tail)
    omega = float(np.max(np.abs(ys))) + abs(osc)
    P = _panel_count(T, min(math.pi / (omega + 1.0), scale))
    half = T / (2.0 * P)
    mids = (2.0 * np.arange(P) + 1.0) * half
    nodes = mids[:, None] + half * _XGK
    v = _finite(piece(nodes.ravel())).reshape(P, 15) * np.exp(-x * nodes)
    vk = v * _WGK
    # Kronrod rows then Kronrod-minus-Gauss rows, 2P x 15, transposed so
    # that the sums over panels run along contiguous rows
    weighted = np.concatenate([vk, v * (_WGK - _WG)]).T
    values = np.empty(ys.shape, dtype=complex)
    disc = np.empty(ys.shape)
    step = max(1, 2 ** 14 // P)  # keeps each Y x 2P block near 0.5 MB
    for lo in range(0, ys.size, step):
        y = ys[lo:lo + step]
        sums = np.exp(-1j * half * np.outer(y, _XGK)) @ weighted
        phase = np.exp(-1j * np.outer(y, mids))
        values[lo:lo + step] = half * (phase * sums[:, :P]).sum(axis=1)
        disc[lo:lo + step] = half * np.abs(sums[:, P:]).sum(axis=1)
    for k in np.flatnonzero(disc > tol / 2.0):
        s = x + 1j * ys[k]

        def integrand(u, s=s):
            return np.exp(-s * u) * np.asarray(piece(u), dtype=complex)

        n0 = _panel_count(T, min(_osc_width(abs(ys[k]) + abs(osc)), scale))
        values[k], disc[k], _, _ = _adaptive(integrand, 0.0, T, n0,
                                             tol / 2.0)
    rounding = _rounding(15 * P, half * float(np.abs(vk).sum()),
                         np.abs(ys) * T)
    return values, tail + disc + rounding


def finite_oscillatory_integral(F, t: float, A: float,
                                tol: float) -> OscillatoryResult:
    """(1/2pi) * integral of F(y)*exp(i*y*t) over [-A, A], and over
    [-A/2, A/2] from the same panels.

    One uniform GK15 pass over panels half an oscillation of the kernel
    wide, min(2, pi/(|t|+1)), their number a multiple of 4 so that
    +-A/2 are panel edges.  With panel midpoints c_p and half-width h,
    exp(i*t*y) = exp(i*t*c_p) * exp(i*t*h*x_j) at the nodes, so one
    15-vector w_j * exp(i*t*h*x_j) is contracted against the panel
    values of F; the Kronrod-minus-Gauss weights give each panel's
    |K - G| the same way (the panel phase drops out of the modulus).
    Panels over their share of the budget, typically near poles of F
    close to the real axis, are bisected in place, which keeps +-A/2 as
    edges: half_value is the sum over the inner panels, and their
    |K - G| sum is part of abs_error_estimate.

    The error estimate covers discretization and rounding only;
    truncation in A is the caller's concern.  Raises ValueError for a
    non-finite t or a non-finite or non-positive A or tol.
    """
    require_positive(A=A, tol=tol)
    require_finite(t=t)

    def g(y):
        return np.asarray(F(y), dtype=complex) * np.exp(1j * t * y)

    width = min(2.0, math.pi / (abs(t) + 1.0))
    n0 = 4 * math.ceil(A / (2.0 * width))
    if 15 * n0 > MAX_EVALUATIONS:
        raise AccuracyError(
            f"budget cannot resolve the oscillation: {n0} initial panels "
            f"need {15 * n0} evaluations (> {MAX_EVALUATIONS})")
    half = A / n0
    edges = -A + 2.0 * half * np.arange(n0 + 1)
    lefts, rights = edges[:-1], edges[1:]
    mids = lefts + half
    vals = _finite(F((mids[:, None] + half * _XGK).ravel())).reshape(n0, 15)
    kernel = np.exp(1j * t * half * _XGK)
    k = half * np.exp(1j * t * mids) * np.einsum(
        "pj,j->p", vals, _WGK * kernel)
    e = half * np.abs(np.einsum("pj,j->p", vals, (_WGK - _WG) * kernel))
    m = half * np.einsum("pj,j->p", np.abs(vals), _WGK)
    two_pi = 2.0 * math.pi
    lefts, rights, k, e, m, evals = _refine(g, lefts, rights, k, e, m,
                                            tol * two_pi, 15 * n0)
    inner = (lefts >= edges[n0 // 4]) & (rights <= edges[3 * n0 // 4])
    estimate = e.sum() + _rounding(evals, m.sum(), abs(t) * A)
    return OscillatoryResult(complex(k.sum()) / two_pi,
                             float(estimate) / two_pi, A, evals,
                             complex(k[inner].sum()) / two_pi)
