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
per node and y.  The panel phases exp(-i*y*c_p) come from a two-level
table: with p = a*B + b and B about sqrt(P), each is the product of a
factor from a Y x ceil(P/B) table and one from a Y x B table, so a pass
takes Y*(P/B + B) complex exps, not Y*P.  The same product with the
weights w^K - w^G gives each panel's |K_p - G_p| (the panel phase drops
out of the modulus), so every y carries the certificate the adaptive
path would report for these panels.

The panel width comes from the GK15 error model: on a panel where the
integrand turns by theta radians per half-width, sum_p |K_p - G_p| is
about phi(theta) * integral of |v|, with phi(theta) = |sum_j (w^K_j -
w^G_j) * exp(i*theta*x_j)| / 2 tabulated once.  The pass takes the
widest panels whose predicted sum is a quarter of its budget, at most
4096 of them.  A y those cannot resolve, or whose panel sum misses its
budget, is re-integrated by the adaptive path.  The reported estimate
adds a rounding allowance for the sums and phases; refinement never
tests against it.

finite_oscillatory_integral, the Fourier integral behind numeric
inversion, is factored the same way in t: one uniform pass at one
oscillation per panel, where the model predicts phi(pi) ~ 8e-9 of the
panel's integral of |F|, after which over-budget panels are bisected in
place by the same refinement loop the adaptive path uses.

Integrands must accept a 1-d numpy float array and return an array of
values (complex or real).  Panels are kept in ascending position order
and summed in that order, so results are reproducible bit for bit no
matter how the work would be scheduled.
"""

from __future__ import annotations

import bisect
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
_EPS = float(np.finfo(float).eps)
_MAX_PANELS = 4096

# GK15 error model on a panel of half-width h whose integrand turns at
# theta = omega*h radians per unit: phi(theta) = |sum_j (w^K_j - w^G_j) *
# exp(i*theta*x_j)| / 2, so that sum_p |K_p - G_p| ~ phi(theta) * integral
# of |v|.  Tabulated on (0, pi] and made nondecreasing by its running
# maximum, so every smaller theta predicts no more.
_THETA = tuple((math.pi * np.arange(1, 257) / 256).tolist())
_PHI = tuple(np.maximum.accumulate(0.5 * np.abs(
    np.exp(1j * np.outer(_THETA, _XGK)) @ (_WGK - _WG))).tolist())
# share of the panel budget the model may predict for the uniform pass
_MODEL_SHARE = 0.25


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


def _adaptive(f, a, b, n0, tol, phase=0.0):
    """Adaptively integrate f over [a, b] to absolute tolerance tol,
    starting from n0 equal panels; phase bounds the arguments of the
    phases inside f (see _rounding).

    Returns (value, error_sum, rounding allowance, evaluations).
    """
    grid = np.linspace(a, b, n0 + 1)
    lefts, rights = grid[:-1], grid[1:]
    k, e, m = _panel_estimates(f, lefts, rights)
    _, _, k, e, m, evals = _refine(f, lefts, rights, k, e, m, tol, 15 * n0)
    return (complex(k.sum()), float(e.sum()),
            _rounding(evals, m.sum(), phase), evals)


def _rounding(nodes, magnitude, phase=0.0):
    """Rounding allowance for a GK15 sum over nodes nodes whose Kronrod
    sum of |integrand| is magnitude: pairwise summation, phases
    exp(i*phi) with |phi| up to phase, and the final scaling."""
    return (_EPS * magnitude
            * (math.ceil(math.log2(nodes)) + phase + 2.0))


def _refine(f, lefts, rights, k, e, m, tol, evals):
    """Bisect panels until their |K - G| sum is at most tol.

    lefts, rights, k, e and m describe the panels (Kronrod values, error
    estimates and Kronrod sums of |f|) and evals counts the evaluations
    spent on them so far.  Returns the refined (lefts, rights, k, e, m,
    evals).  A round that would take evals past MAX_EVALUATIONS is not
    started: AccuracyError carries the best value and estimate instead.
    Refinement never tests against rounding.  Panels stay
    sorted by position and a split panel is replaced in place by its two
    halves, so existing panel edges survive; each round bisects every
    panel above its fair share of the budget, so the process is
    deterministic.
    """
    while e.sum() > tol:
        mask = e > tol / len(e)
        if not mask.any():
            mask = e == e.max()
        if evals + 30 * int(mask.sum()) > MAX_EVALUATIONS:
            raise AccuracyError(
                f"refinement budget exhausted ({evals} evaluations, the "
                f"next round needs {30 * int(mask.sum())} more); best "
                f"estimate error {e.sum():.3e} > tol {tol:.3e}",
                value=complex(k.sum()), abs_error_estimate=float(e.sum()))
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
    """Initial number of panels on [0, T], between 4 and _MAX_PANELS."""
    return int(min(max(math.ceil(T / width), 4), _MAX_PANELS))


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


def _phased_sum(terms, y, half, block):
    """For each row k, the sum over p of exp(-i*y_k*c_p) * terms[k, p]
    with c_p = (2p + 1)*half.

    Two-level phase table: with p = a*block + b, c_p = 2*block*half*a +
    (2b + 1)*half, so each phase is the product of an outer factor from
    a Y x ceil(P/block) table and an inner one from a Y x block table.
    That takes Y*(P/block + block) complex exps instead of Y*P.  The
    table product covers ceil(P/block) whole blocks and is cut to P.
    """
    Y, P = terms.shape
    arg = -1j * half * y[:, None, None]
    outer = np.exp(arg * (2.0 * block * np.arange(-(-P // block))[:, None]))
    inner = np.exp(arg * (2.0 * np.arange(block) + 1.0))
    phase = (outer * inner).reshape(Y, -1)[:, :P]
    return (phase * terms).sum(axis=1)


def laplace_grid(piece, bound: ExponentialOrderBound, x: float, ys,
                 tol: float, *, osc: float = 0.0, tail_cut=None):
    """Integral of piece(u) * exp(-(x + i*y)*u) over [0, inf) for every y.

    Returns (values, estimates), arrays over ys, each value to absolute
    tolerance tol.  bound, osc and tail_cut mean what they mean for
    half_line_integral, with osc the oscillation of piece itself.

    One uniform GK15 pass over [0, T] serves every y.  Its panel width
    comes from the GK15 error model (_PHI): a panel of half-width h on
    which the integrand turns at rate omega has theta = omega*h, and the
    pass's |K - G| sum is about phi(theta) times the integral of |v| over
    [0, T], at most M/(x - a) (M*T under tail_cut).  theta is the
    largest value up to pi whose prediction is a quarter of the tol/2
    panel budget.  omega bounds the rate of the damped kernel,
    |y| + |osc| + |x|, plus, for a piece with a tail_cut, the mean decay
    rate that certifies, log(2/tol)/tail_cut(tol/2).  The width is
    min(2*theta/max omega, decay length).

    A y that 4096 panels of that kind cannot resolve goes straight to
    the adaptive path, and so does a y whose panel |K - G| sum exceeds
    tol/2, each from the panel count half_line_integral would start
    with.  The panel phases come from a two-level table (_phased_sum).
    Estimates are tail bound + panel |K - G| sum + rounding allowance.
    """
    ys = np.asarray(ys, dtype=float)
    T, tail, scale = _truncate(bound, x, tol, tail_cut)
    if T <= 0.0 or ys.size == 0:
        _finite(piece(np.zeros(1)))
        return np.zeros(ys.shape, dtype=complex), np.full(ys.shape, tail)
    mass = bound.M / (x - bound.a) if x > bound.a else bound.M * T
    # the largest tabulated theta within the share, else the smallest
    share = _MODEL_SHARE * tol / (2.0 * mass) if mass > 0 else math.inf
    theta = _THETA[max(bisect.bisect_right(_PHI, share) - 1, 0)]
    omega = np.abs(ys) + (abs(osc) + abs(x))
    if tail_cut is not None:
        # the mean decay rate of a piece that falls below tol/2 by its cut
        omega += (abs(math.log(2.0 / tol))
                  / max(float(tail_cut(tol / 2.0)), _EPS))
    served = omega <= 2.0 * theta * _MAX_PANELS / T
    values = np.empty(ys.shape, dtype=complex)
    disc = np.full(ys.shape, np.inf)  # a y the pass skips is refined
    rounding = np.empty(ys.shape)
    if served.any():
        top = float(omega[served].max())
        P = _panel_count(T, min(2.0 * theta / top, scale) if top else scale)
        half = T / (2.0 * P)
        block = math.isqrt(P - 1) + 1
        nodes = (2.0 * np.arange(P) + 1.0)[:, None] * half + half * _XGK
        v = _finite(piece(nodes.ravel())).reshape(P, 15) * np.exp(-x * nodes)
        vk = v * _WGK
        # Kronrod rows then Kronrod-minus-Gauss rows, 2P x 15, transposed
        # so that the sums over panels run along contiguous rows
        weighted = np.concatenate([vk, v * (_WGK - _WG)]).T
        idx = np.flatnonzero(served)
        step = max(1, 2 ** 14 // P)  # keeps each Y x 2P block near 0.5 MB
        for lo in range(0, idx.size, step):
            k = idx[lo:lo + step]
            sums = np.exp(-1j * half * np.outer(ys[k], _XGK)) @ weighted
            values[k] = half * _phased_sum(sums[:, :P], ys[k], half, block)
            disc[k] = half * np.abs(sums[:, P:]).sum(axis=1)
        # phase arguments: at most |y|*T for the outer table factor and
        # |y|*2*block*half for the inner one and the nodes together; 3
        # for the product of the two factors
        rounding[served] = _rounding(
            15 * P, half * float(np.abs(vk).sum()),
            np.abs(ys[served]) * (T + 2.0 * block * half) + 3.0)
    for k in np.flatnonzero(disc > tol / 2.0):
        s = x + 1j * ys[k]

        def integrand(u, s=s):
            return np.exp(-s * u) * np.asarray(piece(u), dtype=complex)

        n0 = _panel_count(T, min(_osc_width(abs(ys[k]) + abs(osc)), scale))
        values[k], disc[k], rounding[k], _ = _adaptive(
            integrand, 0.0, T, n0, tol / 2.0, abs(ys[k]) * T)
    return values, tail + disc + rounding


def finite_oscillatory_integral(F, t: float, A: float,
                                tol: float) -> OscillatoryResult:
    """(1/2pi) * integral of F(y)*exp(i*y*t) over [-A, A], and over
    [-A/2, A/2] from the same panels.

    One uniform GK15 pass over panels one oscillation of the kernel
    wide, min(4, 2pi/(|t|+1)), their number a multiple of 4 so that
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

    width = min(4.0, 2.0 * math.pi / (abs(t) + 1.0))
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
