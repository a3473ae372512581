"""Semi-infinite and finite oscillatory integration with certified truncation.

Both directions use one Gauss-Kronrod 7/15 scheme: a uniform pass of
panels, each estimated with the 15-point Kronrod rule, the difference
against the embedded 7-point Gauss rule serving as the local error
estimate, and one refinement loop (_refine) that bisects the panels
whose error exceeds their fair share of the budget until the error sum
fits, or a hard evaluation budget (2^20 integrand evaluations) runs
out.  Then an AccuracyError carrying the value and estimate the panels
would have given is raised rather than a silently degraded value
returned.

Half-line integrals split the tolerance evenly: the certified tail
beyond T gets half, panel refinement on [0, T] gets the other half.
_truncate is the one place that places T.  An envelope |f(t)| <=
M * t^d * exp(a*t) certifies the tail M * Gamma(d+1, (x-a)*T) / (x-a)^(d+1)
when x > a; a signal's tail_cut certifies the integral of |f| beyond its
cut when x >= 0; the shorter cut wins.

laplace_grid evaluates the one-sided Laplace transform of a piece at
s = x + i*y for a whole grid of y in one factored pass.  Every one-sided
transform of the package goes through it (forward.one_sided_values):
the forward grid, the derivative-rule images and the heat and ODE
checks, a single point being a one-y grid.  T depends on x and the
tolerance only, so every y shares the uniform panels of [0, T] with
midpoints c_p and half-width h, and with u_pj = c_p + h*x_j

    K_p(y) = h * exp(-i*y*c_p) * sum_j w_j * v(u_pj) * exp(-i*y*h*x_j),

v(u) = f(u)*exp(-x*u), real for a real f: its damping, pair sums and
moduli stay in real arithmetic, to the bits of its complex cast.  The
node phases are shared by all panels, so the integrand is evaluated
once per node rather than once per node and y.
The nodes come in pairs x_(14-j) = -x_j, so with t_j = y*h*x_j a pair
adds w_j*(v_j + v_(14-j))*cos(t_j) - i*w_j*(v_j - v_(14-j))*sin(t_j).
A real Y x 15 table of weighted cosines and sines and the centre weight
meets the 15 x P complex rows of pair sums, -i times pair differences
and centre values, read as 15 x 2P reals, and one real BLAS product of
inner dimension 15 gives the Y x P node sums, read back as complex.  The
panel phases factor in blocks: with p = a*B + b and B about sqrt(P),
exp(-i*y*c_p) is an outer factor exp(-2i*y*B*h*a) times an inner one
exp(-i*y*(2b+1)*h), both from one exp per y over one vector of steps
2Ba and 2b+1.  A batched product contracts each y's node sums, viewed
as ceil(P/B) blocks of B, with its B inner phases, and the block sums
are dotted with the outer phases: Y*(P/B + B) complex exps and no
Y x P phase table.  The same node product with the weights w^K - w^G
gives each panel's |K_p - G_p| (the panel phase drops out of the
modulus), so every y carries the certificate of its panels.  Every
product of a pass of at most 4096 panels has an inner dimension of at
most 64 and is cut, in rows or blocks, below the size at which
OpenBLAS hands it to helper threads (_SOLO_DGEMM, _SOLO_ZGEMV): a
helper thread spins between calls, which doubles the CPU time of a
forward grid for no gain in wall time.  A larger pass, whose one-y node
product alone is above that size, takes its node products through
einsum, which never calls BLAS.  On one thread the sums do not depend
on OPENBLAS_NUM_THREADS, so `symlap forward` writes the same bytes
under any setting.

The panel width comes from the GK15 error model: on a panel where the
integrand turns by theta radians per half-width, sum_p |K_p - G_p| is
about phi(theta) * integral of |v|, with phi(theta) = |sum_j (w^K_j -
w^G_j) * exp(i*theta*x_j)| / 2 tabulated once.  A pass takes the widest
panels whose predicted sum is a quarter of its budget (_model_theta).
The y that 4096 such panels resolve share one pass; the others share a
second, sized for the fastest of them and refused with AccuracyError,
before any evaluation, when it needs more than 2^20 evaluations.  A y
whose panel sum misses its budget has its own panels of the pass handed
to _refine: their Kronrod values with the panel phase, their |K - G|
and their Kronrod sums of |v| come from the pass's node sums, so no
node is evaluated twice, and the halves are evaluated by _phased_panels
with the kernel exp(-i*y*u), as numeric inversion evaluates its panels.
half_line_integral is the one-y case of the same code: its integrand,
damped already, is a piece at y = 0.  The reported estimate adds a
rounding allowance for the sums and phases; refinement never tests
against it.

finite_oscillatory_integral, the Fourier integral behind numeric
inversion, is factored the same way in t and runs on [0, A] only.  Its
integrand F is one callable of y, and two keywords carry what is known
of it.  hermitian=True declares F(-y) = conj F(y), the transform of a
real signal: the integral over [-A, A] is then 2*Re of the integral
over [0, A], and F is evaluated at y >= 0 only.  Any other F is split
into two such parts (_symmetric_parts).  poles, (y_p, order, strength)
triples, give F's poles: the first pass then has uniform panels as wide
as the error model allows for the integral of |F| they estimate
(_pole_mass) by the rule of the forward pass (_model_theta), never
narrower than the one oscillation of the kernel it has without them,
and is graded toward those poles (_graded) in one call of F.  The
panels still over budget are bisected by the refinement loop and
phase-factored panels (_phased_panels) of a forward y.

Integrands must accept a 1-d numpy float array and return an array of
values (complex or real).  Panels are kept in a fixed order (ascending
position, a graded first pass's pieces after its uniform panels) and
summed in that order, so results are reproducible bit for bit no matter
how the work would be scheduled.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from decimal import Decimal

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
_MAX_PANELS = 4096  # laplace_grid's first pass; farther y take a second
# exp(x) is a normal float for |x| below this (about 708.4 and 709.8)
_LOG_NORMAL = 708.0

# GK15 error model on a panel of half-width h whose integrand turns at
# theta = omega*h radians per unit: phi(theta) = |sum_j (w^K_j - w^G_j) *
# exp(i*theta*x_j)| / 2, so that sum_p |K_p - G_p| ~ phi(theta) * integral
# of |v|.  Tabulated on (0, pi] and made nondecreasing by its running
# maximum, so every smaller theta predicts no more.
_THETA = tuple((math.pi * np.arange(1, 257) / 256).tolist())
_PHI = tuple(np.maximum.accumulate(0.5 * np.abs(
    np.exp(1j * np.outer(_THETA, _XGK)) @ (_WGK - _WG))).tolist())
# share of the panel budget a model may predict: for laplace_grid's
# uniform pass, and for the poles' own terms of a graded inversion pass
_MODEL_SHARE = 0.25
# Pole distances, in panel half-widths, of the GK15 error model for an
# order-m pole (_pole_model): 1/16 to 16 in steps of 2^(1/4)
_DELTA = tuple((2.0 ** (np.arange(-16, 17) / 4.0)).tolist())
_NO_PIECES = np.empty((4, 0))  # _graded's rows of no pieces
# Sizes under which OpenBLAS runs a product on the calling thread:
# multiply-adds of a real matrix product (it splits them from about
# 2^20 on) and entries of a complex matrix-vector product (from 2^12 on),
# measured with OpenBLAS 0.3.31 on a 2-core x86-64 host by the CPU time
# of its helper threads.  A complex matrix product splits from 2^16
# multiply-adds on, so laplace_grid uses a real one.
_SOLO_DGEMM = 2 ** 19
_SOLO_ZGEMV = 2 ** 12
# Kronrod and Kronrod-minus-Gauss weights of laplace_grid's paired node
# rows [cos(t_0), sin(t_0), ..., cos(t_6), sin(t_6), 1], and i*x_j for
# the t_j = y*h*x_j of the first 8 nodes
_PAIRED = np.array([np.repeat(w[:8], 2)[:15] for w in (_WGK, _WGK - _WG)])
_IXGK8 = 1j * _XGK[:8]
_ODD = np.arange(1.0, 2.0 * _MAX_PANELS, 2.0)  # panel midpoints over h
# Kronrod and Kronrod-minus-Gauss weights as a real 30 x 4 matrix: the
# real and imaginary parts of 15 complex node values in, the real and
# imaginary parts of K and K - G out
_KG_REAL = np.zeros((30, 4))
_KG_REAL[0::2, 0] = _KG_REAL[1::2, 1] = _WGK
_KG_REAL[0::2, 2] = _KG_REAL[1::2, 3] = _WGK - _WG


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
    vals = np.asarray(vals)
    flat = vals.ravel().view(vals.real.dtype)  # pairs of reals test faster
    if np.count_nonzero(np.isfinite(flat)) < flat.size:
        raise AccuracyError("integrand returned a non-finite value")
    return vals


def _rounding(depth, magnitude, phase=0.0):
    """Rounding allowance for a GK15 sum whose Kronrod sum of
    |integrand| is magnitude: at most depth additions on any term's path
    (ceil(log2(nodes)) for a pairwise sum), phases exp(i*phi) with |phi|
    up to phase, and the final scaling."""
    return _EPS * magnitude * (depth + phase + 2.0)


def _refine(panels, lefts, rights, k, e, m, tol, evals, cost, result):
    """Bisect panels until their |K - G| sum is at most tol.

    lefts, rights, k, e and m describe the panels (Kronrod values, error
    estimates and Kronrod sums of |f|) and evals counts the evaluations
    spent on them so far.  panels(mids, halves) returns k, e and m of
    new panels, given by their midpoints and half-widths, at cost
    evaluations each.  Returns the refined (lefts, rights, k, e, m,
    evals).  A round that would take evals past MAX_EVALUATIONS is not
    started: AccuracyError carries result(k, e, m, evals), the caller's
    value and estimate for the panels refined so far, instead.
    Refinement never tests against rounding.  Panels keep their given
    order and a split panel is replaced in place by its two halves, so
    existing panel edges survive; each round bisects every panel above
    its fair share of the budget, so the process is deterministic.
    """
    while e.sum() > tol:
        mask = e > tol / len(e)
        if not mask.any():
            mask = e == e.max()
        n = int(mask.sum())
        if evals + 2 * cost * n > MAX_EVALUATIONS:
            value, estimate = result(k, e, m, evals)
            raise AccuracyError(
                f"refinement budget exhausted ({evals} evaluations, the "
                f"next round needs {2 * cost * n} more); best "
                f"estimate error {e.sum():.3e} > tol {tol:.3e}",
                value=value, abs_error_estimate=estimate)
        mids = (lefts[mask] + rights[mask]) / 2.0
        # both halves of every split panel in one call: left halves first
        lo = np.concatenate([lefts[mask], mids])
        hi = np.concatenate([mids, rights[mask]])
        kh, eh, mh = panels((lo + hi) / 2.0, (hi - lo) / 2.0)
        evals += 2 * cost * n
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
        R[sp], K[sp], E[sp], M[sp] = mids, kh[:n], eh[:n], mh[:n]
        L[sp + 1], R[sp + 1] = mids, rights[mask]
        K[sp + 1], E[sp + 1], M[sp + 1] = kh[n:], eh[n:], mh[n:]
        lefts, rights, k, e, m = L, R, K, E, M
    return lefts, rights, k, e, m, evals


def truncation_point(bound: ExponentialOrderBound, x: float,
                     tol: float) -> float:
    """Truncation T at which the envelope's tail, the integral of
    M * t^d * exp(-(x-a)*t) over [T, inf), is tol, clamped at 0.

    With r = x - a the tail is M * Gamma(d+1, r*T) / r^(d+1), that is
    M * d! * exp(-z) * e_d(z) / r^(d+1) at z = r*T, where e_d(z) is the
    sum of z^k/k! for k <= d.  For d = 0, T = log(M / (tol*r)) / r.  For
    d > 0 the log of tail/tol is concave and decreasing in z, so Newton's
    method started at z = max(log(M*d!/(tol*r^(d+1))), d) steps past the
    root at most once and then descends to it from above.  A quotient
    M/(tol*r) or M/tol that leaves float range is taken as a difference
    of logarithms (_log_ratio), and so is a Newton step whose e_d(z), d!
    or z^d does (_exp_sum); a T beyond the largest float raises
    AccuracyError.
    """
    require_positive(tol=tol)
    require_finite(x=x)
    if bound.M <= 0:
        raise ValueError("bound.M must be positive")
    if x <= bound.a:
        raise DivergenceError(
            f"damping x={x} does not exceed growth rate a={bound.a}")
    rate = x - bound.a
    d = int(bound.degree)
    if d == 0:
        T = max(0.0, _log_ratio(bound.M, tol, rate) / rate)
    else:
        # log of the tail at T = 0 over tol
        excess = (_log_ratio(bound.M, tol) + math.lgamma(d + 1)
                  - (d + 1) * math.log(rate))
        if excess <= 0.0:
            return 0.0
        z = max(excess, float(d))
        for _ in range(100):
            e_d, log_e = _exp_sum(z, d)
            gap = log_e - z + excess
            try:
                step = gap * e_d * math.factorial(d) / z ** d
            except OverflowError:  # d! or z^d past float range
                step = math.nan
            if not abs(step) < math.inf:
                step = gap * math.exp(log_e + math.lgamma(d + 1)
                                      - d * math.log(z))
            z += step
            if abs(step) <= 4.0 * _EPS * z:
                break
        T = z / rate
    if T == math.inf:
        raise AccuracyError(
            f"truncation point overflows: the tail falls below tol={tol} "
            f"only beyond the largest float at decay rate x - a = {rate}")
    return T


def _log_ratio(M, *factors):
    """log(M / the product of factors): directly while that quotient is
    a finite positive float, else as a difference of logarithms."""
    q = math.prod(factors)
    ratio = M / q if q else 0.0
    if 0.0 < ratio < math.inf:
        return math.log(ratio)
    return math.log(M) - math.fsum(math.log(f) for f in factors)


def _exp_sum(z, d):
    """e_d(z), the sum of z^k/k! for k <= d, and its logarithm: the sum
    directly where every term and the sum are floats, else inf and the
    logarithm taken about the largest term."""
    try:
        e_d = math.fsum(z ** k / math.factorial(k) for k in range(d + 1))
    except (OverflowError, ValueError):  # a term or the sum past range
        e_d = math.inf if z else 1.0  # at z = 0 only z^0/0! = 1 is not 0
    if e_d < math.inf:
        return e_d, math.log(e_d)
    logs = [k * math.log(z) - math.lgamma(k + 1) for k in range(d + 1)]
    top = max(logs)
    return e_d, top + math.log(math.fsum(math.exp(a - top) for a in logs))


def _direct_or_logs(direct, logs):
    """The float product direct() takes, of factors whose logarithms are
    logs in the order it takes them: directly where every factor and
    partial product is a normal float (their logarithms, logs and its
    running sums, are below _LOG_NORMAL in size), else exp of the sum of
    logs, with each term's rounding (a few ulps) added to that sum, and
    inf where that sum reaches _LOG_NORMAL."""
    if max(map(abs, (*logs, *itertools.accumulate(logs)))) < _LOG_NORMAL:
        return direct()
    total = math.fsum(logs) + 4.0 * _EPS * sum(map(abs, logs))
    return math.exp(total) if total < _LOG_NORMAL else math.inf


def _tail_bound(bound, x, T):
    """The envelope's tail beyond T (see truncation_point), rounded up."""
    rate = x - bound.a
    d = int(bound.degree)
    z = rate * T
    e_d, log_e = _exp_sum(z, d)
    tail = _direct_or_logs(
        lambda: (bound.M * math.factorial(d) * math.exp(-z) * e_d
                 / rate ** (d + 1)),
        (math.log(bound.M), math.lgamma(d + 1), -z, log_e,
         -(d + 1) * math.log(rate)))
    return tail * (1.0 + 4.0 * (d + 3) * _EPS)


@functools.lru_cache(maxsize=64)  # passes repeat bounds, x and tol
def _truncate(bound, x, tol, tail_cut):
    """Truncation of a half-line integral to tolerance tol: returns T,
    the certified tail beyond T (at most tol/2), the decay length that
    caps the panel width, and the envelope's mass on [0, T], the
    integral of |integrand| the error model scales by.

    The envelope certifies a tail when x > a, and a tail_cut (the
    integral of |f| beyond its cut) when x >= 0, since the damping then
    only shrinks |f|; the shorter of the two cuts wins, and the cut
    alone where the envelope's T is past float range.
    """
    M, d = bound.M, int(bound.degree)
    cut = tail_cut is not None and x >= 0.0
    if x > bound.a:
        rate = x - bound.a
        try:
            T = truncation_point(bound, x, tol / 2.0)
        except AccuracyError:  # T overflows
            if not cut:
                raise
        else:
            tail = _tail_bound(bound, x, T)
            if cut:
                T_cut = float(tail_cut(tol / 2.0))
                if T_cut < T:
                    T, tail = T_cut, tol / 2.0
            return T, tail, 1.0 / rate, _direct_or_logs(
                lambda: M * math.factorial(d) / rate ** (d + 1),
                (math.log(M), math.lgamma(d + 1), -(d + 1) * math.log(rate)))
    if cut:
        T = float(tail_cut(tol / 2.0))
        return T, tol / 2.0, 1.0, (_direct_or_logs(
            lambda: M * T ** (d + 1) / (d + 1),
            (math.log(M), (d + 1) * math.log(T), -math.log(d + 1)))
            if min(M, T) > 0.0 else 0.0)
    raise DivergenceError(
        f"damping x={x} does not exceed growth rate a={bound.a}")


def _affordable(panels, cost):
    """Raise AccuracyError, before any evaluation, unless panels initial
    panels of cost evaluations each fit in MAX_EVALUATIONS."""
    if cost * panels > MAX_EVALUATIONS:
        raise AccuracyError(
            f"budget cannot resolve the oscillation: {Decimal(panels):.3g} "
            f"initial panels need {Decimal(cost * panels):.3g} evaluations "
            f"(> {MAX_EVALUATIONS})")


def _model_theta(budget, mass):
    """The largest tabulated theta (_THETA) whose model sum, phi(theta)
    times mass, the integral of |integrand|, is within _MODEL_SHARE of
    budget; the smallest when none is."""
    share = _MODEL_SHARE * budget / mass if mass > 0 else math.inf
    return _THETA[max(bisect.bisect_right(_PHI, share) - 1, 0)]


def _pole_mass(poles, A):
    """An estimate of the integral of |F| over [0, A] from F's poles:
    for a pole of strength c, d = |Im y_p| from the line and
    a = min(|Re y_p|, A) along it, c*(asinh((A - a)/d) + asinh(a/d)) for
    order 1 and the integral over the line, c*d^(1-m)*sqrt(pi)*
    Gamma((m-1)/2)/Gamma(m/2), for order m; inf when that overflows.

    It bounds that integral when F is strictly proper, its poles simple
    and all listed.  Of a repeated pole it counts the leading Laurent
    term only, and it counts nothing of a polynomial part or of a pole
    left out.  An estimate too small widens the first pass, to at most
    one oscillation of the kernel per panel; the |K - G| sums and
    _refine still decide the result."""
    mass = 0.0
    for y_p, order, strength in poles:
        a, d = min(abs(y_p.real), A), abs(y_p.imag)
        if order == 1:
            mass += strength * (math.asinh((A - a) / d) + math.asinh(a / d))
            continue
        try:
            mass += strength * d ** (1 - order) * math.exp(
                0.5 * math.log(math.pi) + math.lgamma(0.5 * (order - 1))
                - math.lgamma(0.5 * order))
        except OverflowError:
            return math.inf
    return mass


def _panel_count(T, theta, scale, rate):
    """Number of model-width panels on [0, T], at least 4, for an
    integrand turning at rate: min(2*theta/rate, decay length) wide."""
    return max(math.ceil(T / (min(2.0 * theta / rate, scale) if rate
                              else scale)), 4)


def half_line_integral(integrand, bound: ExponentialOrderBound, x: float,
                       tol: float, *, osc: float = 0.0,
                       tail_cut=None) -> QuadratureResult:
    """Integrate integrand over [0, inf) to absolute tolerance tol.

    bound is the envelope of the undamped factor and x the damping
    applied to it, so |integrand(t)| <= M * t^d * exp((a - x)*t) and the
    tail beyond the truncation point is certified analytically.

    This is laplace_grid's path at one y: the integrand, damped already,
    is a piece at y = 0 and damping 0 under the envelope shifted by x.
    The rate is x - a either way, so T, the tail and the mass are those
    _truncate gives for the caller's bound and x, and so are its errors.
    osc is the integrand's oscillation rate, which sizes the panels; it
    also bounds the phases inside the integrand, so the estimate adds
    eps * mass * |osc| * T for them.  tail_cut, when given, supplies a
    truncation point for integrands decaying faster than the envelope
    describes; for x >= 0 it is used whenever it cuts shorter than the
    envelope (_truncate).  Raises ValueError for a non-finite or
    non-positive tol or a non-finite x or osc, and AccuracyError when
    the evaluation budget cannot meet tol.
    """
    require_positive(tol=tol)
    require_finite(x=x, osc=osc)
    x = float(x)
    T, _, _, mass = _truncate(bound, x, float(tol), tail_cut)
    evaluations = [0]

    def counted(u):
        evaluations[0] += u.size
        return integrand(u)

    # a tail_cut bounds the integral of |f| only where x >= 0 damps it
    values, estimates = laplace_grid(
        counted, ExponentialOrderBound(bound.M, bound.a - x, bound.degree),
        0.0, [0.0], tol, osc=osc, tail_cut=tail_cut if x >= 0.0 else None)
    return QuadratureResult(complex(values[0]), float(estimates[0])
                            + _EPS * mass * abs(osc) * T, T, evaluations[0])


@functools.lru_cache(maxsize=64)  # shared by the passes of one P
def _phase_steps(block, nb):
    """i times _block_phased_sum's steps 2*block*a and 2b + 1, real part +0."""
    return 1j * np.concatenate([np.arange(nb) * (2.0 * block), _ODD[:block]])


def _block_phased_sum(terms, y, half, block):
    """For each row k, the sum over p of exp(-i*y_k*c_p) * terms[k, p]
    with c_p = (2p + 1)*half, for terms of whole blocks of block panels
    (a ragged last block padded with zeros).

    With p = a*block + b, c_p = 2*block*half*a + (2b + 1)*half, so the
    phase is an outer factor times an inner one, both from one exp over
    the nb + block steps of _phase_steps: one batched product contracts
    each row's nb x block view with its block inner phases, and a second
    dots the nb block sums with the outer phases.  That takes
    Y*(nb + block) complex exps and no Y x P table.
    """
    Y, P = terms.shape
    nb = P // block
    # -half*y times i*step is -1j*half*y*step to the bit
    phases = np.exp((-half * y)[:, None] * _phase_steps(block, nb))
    inner = phases[:, nb:, None]
    terms = terms.reshape(Y, nb, block)
    sums = np.empty((Y, nb, 1), dtype=complex)
    step = (_SOLO_ZGEMV - 1) // block  # blocks per product
    for a in range(0, nb, step):
        np.matmul(terms[:, a:a + step], inner, out=sums[:, a:a + step])
    return (phases[:, None, :nb] @ sums)[:, 0, 0]


def _grid_pass(piece, x, ys, ay, omega, T, tail, tol, theta, scale):
    """laplace_grid's uniform pass for every y of ys (ay = |ys|, omega
    the rates): values and estimates, tail + panel |K - G| sum +
    rounding allowance.  A y whose |K - G| sum exceeds tol/2 has its own
    panels of this pass bisected by _refine."""
    P = _panel_count(T, theta, scale, float(omega.max()))
    _affordable(P, 15)
    half = T / (2.0 * P)
    block = math.isqrt(P - 1) + 1
    nb = -(-P // block)
    # node j of panel p in row j, column p; a real piece stays real,
    # the same bits as on its complex cast
    odd = _ODD[:P] if P <= _MAX_PANELS else np.arange(1.0, 2.0 * P, 2.0)
    nodes = (half * _XGK)[:, None] + odd * half
    v = _finite(piece(nodes.ravel())).reshape(15, P) * np.exp(-x * nodes)
    # rows [sum_0, -i*difference_0, ..., -i*difference_6, centre] of
    # the node pairs j, 14 - j, each real and imaginary part a column
    # of its own, meet real phase rows w*[cos(t_0), sin(t_0), ...,
    # sin(t_6), 1] (exp(i*t) read as reals; t_7 = 0 gives exactly 1);
    # zero panels pad the last block, as -i*0 in the difference rows
    pairs = np.zeros((15, nb * block), dtype=complex)
    pairs[:14:2, :P] = v[:7] + v[:7:-1]
    pairs[1:14:2, :P] = (v[:7] - v[:7:-1]) * -1j
    pairs[1:14:2, P:] = 0j * -1j
    pairs[14, :P] = v[7]
    pairs = pairs.view(float)
    step = max(1, _SOLO_DGEMM // (2 * pairs.size))
    # a one-y product above _SOLO_DGEMM, only ever in a pass beyond
    # _MAX_PANELS, goes to einsum, which never hands it to threaded BLAS
    dot = (np.matmul if 2 * pairs.size <= _SOLO_DGEMM
           else functools.partial(np.einsum, "ij,j...->i..."))
    # a term passes a pair sum, 15 products summed in whatever order
    # BLAS or einsum takes, block panels and nb blocks: at most 1 + 14 +
    # (block - 1) + (nb - 1) additions.  The real and imaginary parts
    # are separate real sums, each over at most sqrt(2) times the
    # pair's sum of moduli: the sqrt(2).  Phase arguments: at most
    # |y|*T for the outer factor and |y|*2*block*half for the inner
    # one and the nodes together; 3 for the three phase products
    mass = dot(np.abs(v.T, order="C"), _WGK)  # sum_j w_j*|v_pj| by panel
    rounding = _rounding(block + nb + 13,
                         math.sqrt(2.0) * half * float(mass.sum()),
                         ay * (T + 2.0 * block * half) + 3.0)
    values, estimates = np.empty(ys.shape, dtype=complex), np.empty(ys.shape)
    for lo in range(0, ys.size, step):
        chunk = slice(lo, lo + step)
        y = ys[chunk]
        trig = np.exp((half * y)[:, None] * _IXGK8).view(float)
        # Kronrod rows, then Kronrod-minus-Gauss rows
        sums = dot((_PAIRED[:, None] * trig[:, :15]).reshape(-1, 15),
                   pairs).view(complex)
        values[chunk] = half * _block_phased_sum(sums[:y.size], y, half,
                                                 block)
        disc = half * np.abs(sums[y.size:]).sum(axis=1)
        estimates[chunk] = tail + disc + rounding[chunk]
        for i in (disc > tol / 2.0).nonzero()[0]:
            t = -float(y[i])  # the kernel exp(i*t*u) of _phased_panels

            def panels(mids, halves):
                k, e, m = _phased_panels(
                    lambda u: _finite(piece(u)) * np.exp(-x * u), t, mids,
                    halves, 0)
                return k[0], e, m

            def result(k, e, m, evals):
                return complex(k.sum()), tail + float(e.sum()) + _rounding(
                    math.ceil(math.log2(evals)), float(m.sum()), abs(t) * T)

            # this y's panels: K_p with its panel phase, |K_p - G_p| and
            # the Kronrod sums of |v|
            edges = 2.0 * half * np.arange(P + 1)
            values[lo + i], estimates[lo + i] = result(*_refine(
                panels, edges[:-1], edges[1:],
                half * np.exp(1j * t * (odd * half)) * sums[i, :P],
                half * np.abs(sums[y.size + i, :P]), half * mass, tol / 2.0,
                15 * P, 15, result)[2:])
    return values, estimates


def laplace_grid(piece, bound: ExponentialOrderBound, x: float, ys,
                 tol: float, *, osc: float = 0.0, tail_cut=None):
    """Integral of piece(u) * exp(-(x + i*y)*u) over [0, inf) for every y.

    Returns (values, estimates), arrays in the shape of ys (a grid of
    any shape is served as its flat grid), each value to absolute
    tolerance tol.  bound, osc and tail_cut mean what they mean for
    half_line_integral, with osc the oscillation of piece itself; T, the
    tail and the mass of |v| come from _truncate.

    Uniform GK15 passes over [0, T] serve the y, many to a pass.  The
    panel width comes from the GK15 error model (_PHI): a panel of
    half-width h on which the integrand turns at rate omega has
    theta = omega*h, and the pass's |K - G| sum is about phi(theta)
    times the integral of |v| over [0, T], at most the envelope's mass
    M*d!/(x - a)^(d+1) (M*T^(d+1)/(d+1) under a tail_cut that alone
    certifies the tail).
    theta is the largest value up to pi whose prediction is a quarter
    of the tol/2 panel budget (_model_theta).  omega bounds the rate of
    the damped kernel, |y| + |osc| + |x|, plus, for a piece with a
    tail_cut, the mean decay rate that certifies, log(2/tol)/
    tail_cut(tol/2).  The width is min(2*theta/max omega, decay length).

    The y that _MAX_PANELS (4096) such panels reach share one pass.
    The others share a second one, sized the same way for the largest of
    their rates; when it would need more than MAX_EVALUATIONS
    evaluations, AccuracyError is raised before any evaluation.  A y
    whose panel |K - G| sum exceeds tol/2 has its own panels of the pass
    bisected by _refine, and its rounding allowance is that of the
    refined panels' sum with the phase bound |y|*T; when the budget runs
    out, the AccuracyError carries that y's value and estimate.  The
    node pairs x_j, -x_j, real for a real piece, meet their weighted
    cosines and sines in real BLAS products of inner dimension 15, in
    chunks of y kept on the calling thread; the panel phases come by
    block from one exp per y over one step vector (_block_phased_sum).
    Estimates are tail bound + panel |K - G| sum + rounding allowance.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 1:  # a scalar or a grid of any shape, by its flat grid
        values, estimates = laplace_grid(piece, bound, x, ys.ravel(), tol,
                                         osc=osc, tail_cut=tail_cut)
        return values.reshape(ys.shape), estimates.reshape(ys.shape)
    T, tail, scale, mass = _truncate(bound, float(x), float(tol), tail_cut)
    if T <= 0.0 or ys.size == 0:
        f0 = float(np.abs(_finite(piece(np.zeros(1)))).max())
        if f0 > bound.envelope(0.0):  # T = 0 trusted an envelope f breaks
            raise ValueError(f"|f(0)| = {f0} breaks the envelope {bound}")
        return np.zeros(ys.shape, dtype=complex), np.full(ys.shape, tail)
    theta = _model_theta(tol / 2.0, mass)
    ay = np.abs(ys)
    omega = ay + (abs(osc) + abs(x))
    if tail_cut is not None:
        # the mean decay rate of a piece that falls below tol/2 by its cut
        omega += (abs(math.log(2.0 / tol))
                  / max(float(tail_cut(tol / 2.0)), _EPS))
    near = omega <= 2.0 * theta * _MAX_PANELS / T
    if near.all():  # the usual case: no gather or scatter
        return _grid_pass(piece, x, ys, ay, omega, T, tail, tol, theta,
                          scale)
    values, estimates = np.empty(ys.shape, dtype=complex), np.empty(ys.shape)
    # the far pass first, so that one over budget evaluates nothing
    for part in (~near, near):
        if part.any():
            values[part], estimates[part] = _grid_pass(
                piece, x, ys[part], ay[part], omega[part], T, tail, tol,
                theta, scale)
    return values, estimates


def _symmetric_parts(F, hermitian):
    """F as conjugate-symmetric parts on y >= 0: a function of y
    returning one row per part, and the evaluations of F per node.

    A hermitian F (F(-y) = conj F(y)) is its own part, evaluated at
    y >= 0 only.  Any other F is split into
    H1 = (F(y) + conj F(-y))/2 and H2 = (F(y) - conj F(-y))/(2i), the
    transforms of the real and imaginary parts of the signal, so that
    F = H1 + i*H2; both come from one call of F on the nodes and their
    mirror images.
    """
    if hermitian:
        return (lambda y: _finite(F(y))[None]), 1

    def parts(y):
        v = _finite(F(np.concatenate([y, -y])))
        right, left = v[:y.size], np.conj(v[y.size:])
        return np.stack([(right + left) / 2.0, (right - left) * -0.5j])

    return parts, 2


def _phased_panels(parts, t, mids, half, shared):
    """GK15 panels for the integrals of H_k(u)*exp(i*t*u), with parts(u)
    giving the H_k at the nodes, one row per part (a flat array for one).
    The panels are centred at mids, of half-widths half (one per panel);
    the nodes of all of them go to parts in one call.

    Returns each part's Kronrod values (one row per part), the panels'
    |K - G| and their Kronrod sums of |H_k|, the scale of the rounding,
    both summed over the parts, panels in the given order.  The phase
    factors as exp(i*t*u) = exp(i*t*c) * exp(i*t*h*x_j) at the nodes of a
    panel with midpoint c and half-width h, and the panel phase drops out
    of |K - G|; the first shared panels have one half-width and share its
    15 node phases, every other panel has its own.
    """
    # row 0 of off: the shared node offsets; from row own on: the others'
    own = min(shared, 1)
    off = np.multiply.outer(half[shared - own:], _XGK)
    nodes = np.empty((mids.size, 15))
    np.add(mids[:shared, None], off[0], out=nodes[:shared])
    np.add(mids[shared:, None], off[own:], out=nodes[shared:])
    vals = parts(nodes.ravel()).reshape(-1, mids.size, 15)
    del nodes  # freed before the products
    # node values times phases, as rows read as reals that meet the
    # Kronrod and Kronrod-minus-Gauss weights in real products of inner
    # dimension 30, each below OpenBLAS's helper-thread size
    phase = np.exp(1j * t * off)
    rows = np.empty(vals.shape, dtype=complex)
    np.multiply(vals[:, :shared], phase[0], out=rows[:, :shared])
    np.multiply(vals[:, shared:], phase[own:], out=rows[:, shared:])
    rows = rows.reshape(-1, 15).view(float)
    step = _SOLO_DGEMM // _KG_REAL.size
    sums = np.concatenate([rows[i:i + step] @ _KG_REAL
                           for i in range(0, len(rows), step)])
    sums = sums.view(complex).reshape(-1, mids.size, 2)
    k = (half * np.exp(1j * t * mids)) * sums[..., 0]
    e = half * np.abs(sums[..., 1]).sum(axis=0)
    m = half * np.einsum("qpj,j->p", np.abs(vals), _WGK)
    return k, e, m


@functools.lru_cache(maxsize=64)  # one pair of rows per pole order
def _pole_model(order):
    """-log of the GK15 |K - G| on [-1, 1] of (u - z)^-order for a pole z
    delta (in _DELTA) from an end, straight across from it, z = -1 +
    i*delta, and delta over the middle, z = i*delta; each row made
    nondecreasing by its running maximum from the far end, so that every
    larger delta predicts no more.

    These are the worst places: among poles delta or more from the
    nearest end and beyond it the error peaks straight across from the
    end, and the ellipse with foci -1 and 1 through i*delta lies within
    delta of the panel, so every pole at height delta or more is on or
    outside it, where the Gauss-Kronrod error is smaller.
    """
    rows = []
    for end in (-1.0, 0.0):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            err = np.abs((_XGK - end - 1j * np.array(_DELTA)[:, None])
                         ** -order @ (_WGK - _WG))
            err[~np.isfinite(err)] = np.inf
            rows.append(tuple((-np.log(np.maximum.accumulate(
                err[::-1])[::-1])).tolist()))
    return tuple(rows)


def _graded(poles, n, half, t, budget, most):
    """Pieces of the n uniform panels of half-width half, graded toward
    known poles of F for the integral of F(y)*exp(i*t*y).

    A pole y_p of order m and strength c is at |Re y_p| on [0, A] and at
    d = |Im y_p| from the line.  On a piece of half-width h the model
    predicts two |K - G| terms.  The pole's own is c*exp(-t*Im y_p)*
    h^(1-m) (the kernel scales the coefficient by |exp(i*t*y_p)|) times
    the model error (_pole_model) at r/h beyond the nearest end, r the
    distance from it, or at d/h over the piece that holds |Re y_p|
    inside it.  The kernel's turn gives phi(|t|*h) (_PHI) times the
    piece's integral of |F|, at most 2*h*c/r^m.  A piece is bisected,
    and its halves checked again, when the pole's own term is above the
    pole's share of the budget, _MODEL_SHARE over the number of poles,
    or the kernel's is above the fair share of a uniform panel, budget
    over n, which every panel far from the poles takes, so the widths
    double away from the pole.  Once the pole's term asks for more than
    the table's 16 half-widths, 16 serve.  Returns the indices of the
    uniform panels split and the pieces that replace them, as rows of
    lefts, rights, midpoints and half-widths; none when there are no
    poles, the shares of the budget underflow to 0 or the pieces would
    number more than most.
    """
    fair = budget / n
    own = _MODEL_SHARE * budget / len(poles) if poles else 0.0
    if not (fair and own):  # no poles, or shares that underflow to 0
        return [], _NO_PIECES
    levels = []  # level j: the pieces of width 2*half/2^j split
    count = n  # pieces so far
    top = len(_DELTA) - 1
    for y_p, order, strength in poles:
        loc, d = abs(y_p.real), abs(y_p.imag)
        beyond, over = _pole_model(order)
        # -log of the pole's share over its kernel-scaled coefficient;
        # the kernel term's factor; the kernel's turn per unit
        # half-width in steps of the _PHI table
        weight = math.log(strength / own) - t * y_p.imag
        kernel = 2.0 * strength / fair
        turn = abs(t) / _THETA[0]
        lo, hi, w, j = 0, n - 1, 2.0 * half, 0
        while w > _EPS * (loc + half):
            h = 0.5 * w
            level = (weight - (order - 1) * math.log(h) if order > 1
                     else weight)
            reach = h * _DELTA[bisect.bisect_left(beyond, level, 0, top)]
            if turn:  # until the kernel's term, falling faster, is below
                r = _PHI[min(math.ceil(turn * h), len(_PHI)) - 1] * kernel * h
                if order > 1:
                    r **= 1.0 / order
                if r > reach:
                    reach = r
                else:
                    turn = 0.0
            if reach > d:
                # the pieces closer than reach: |Re y - loc| < s on them;
                # beyond loc + A every piece is, and reach^2 may overflow
                s = min(loc + 2.0 * half * n,
                        math.sqrt(reach * reach - d * d))
                lo = max(lo, math.floor((loc - s) / w))
                hi = min(hi, math.ceil((loc + s) / w) - 1)
            else:
                # only a piece holding loc inside it may still need it
                k = math.floor(loc / w)
                if (k * w == loc or d >= h * _DELTA[
                        bisect.bisect_left(over, level, 0, top)]):
                    break
                lo, hi = max(lo, k), min(hi, k)
            if lo > hi:
                break
            if j == len(levels):
                levels.append(set())
            before = len(levels[j])
            levels[j].update(range(lo, hi + 1))
            count += len(levels[j]) - before  # each split adds one piece
            if count > most:
                return [], _NO_PIECES
            lo, hi, w, j = 2 * lo, 2 * hi + 1, h, j + 1
    if not levels:
        return [], _NO_PIECES
    pieces = []
    w = 2.0 * half
    for j, split in enumerate(levels, 1):
        w *= 0.5  # (i*2^j)*w is the uniform edge 2*half*i, to the bit
        finer = levels[j] if j < len(levels) else ()
        for k in sorted(split):  # its halves c not split again
            for c in (2 * k, 2 * k + 1):
                if c not in finer:
                    pieces += (c * w, (c + 1) * w, (c + 0.5) * w, 0.5 * w)
    return sorted(levels[0]), np.array(pieces).reshape(-1, 4).T


def finite_oscillatory_integral(F, t: float, A: float, tol: float, *,
                                hermitian: bool = False,
                                poles=()) -> OscillatoryResult:
    """(1/2pi) * integral of F(y)*exp(i*y*t) over [-A, A], and over
    [-A/2, A/2] from the same panels.

    F is a callable on a 1-d numpy float array.  hermitian declares
    F(-y) = conj F(y), the transform of a real signal: F is then
    evaluated at y >= 0 only.  Any other F is evaluated at +-y and split
    into the parts H1 and H2 with F = H1 + i*H2 (_symmetric_parts).  One
    pass over [0, A] serves both: the value is 2*Re(I1) + 2i*Re(I2), I_k
    the integral of H_k(y)*exp(i*y*t) over [0, A].

    poles, when known, are (y_p, order, strength) triples: a pole at the
    complex y_p of that order whose leading Laurent coefficient has
    modulus strength.  They should be all of F's poles.

    The pass is GK15 over [0, A] with uniform panels, their number even
    so that A/2 is a panel edge, one oscillation of the kernel wide,
    min(4, 2pi/(|t|+1)), unless poles are given.  Then they estimate the
    integral of |F| over [0, A] (_pole_mass), theta is the largest
    tabulated turn whose error model phi(theta) times that estimate is
    within a quarter of tol*pi (_model_theta, as laplace_grid sizes its
    panels), and the panels are 2*theta/|t| wide (A/2 at t = 0), but
    never narrower than one oscillation.  The uniform panels on which
    the model predicts more than their share are split into pieces
    graded toward the poles (_graded), every uniform edge staying an
    edge; the pieces and the uniform panels go to F in one call.  A
    grading that would take more than MAX_EVALUATIONS evaluations is
    dropped.  Panels still over their share of the budget are bisected
    in place by _refine, which keeps A/2 as an edge: half_value is the
    sum over the panels below it, and their |K - G| sum is part of
    abs_error_estimate.  The estimate is 2 * sum |K - G| over [0, A]
    plus the rounding allowance, over 2pi, so refinement runs to a sum
    of tol*pi.

    The error estimate covers discretization and rounding only;
    truncation in A is the caller's concern.  Raises ValueError for a
    non-finite t or a non-finite or non-positive A or tol, and
    AccuracyError when the evaluation budget runs out, carrying the
    value and estimate of the panels refined so far.
    """
    require_positive(A=A, tol=tol)
    require_finite(t=t)
    parts, per_node = _symmetric_parts(F, hermitian)
    budget = tol * math.pi  # of the |K - G| sum over [0, A]
    width = min(4.0, 2.0 * math.pi / (abs(t) + 1.0))
    if poles:  # as wide as the model allows, never narrower
        width = max(width, 2.0 * _model_theta(
            budget, _pole_mass(poles, A)) / abs(t) if t else 0.5 * A)
    n = 2 * math.ceil(A / (2.0 * width))
    cost = 15 * per_node  # evaluations of F per panel
    half = A / (2 * n)
    _affordable(n, cost)
    # a grading beyond the budget leaves the uniform pass to _refine
    split, pieces = _graded(poles, n, half, t, budget,
                            MAX_EVALUATIONS // cost)
    edges = 2.0 * half * np.arange(n + 1)
    two_pi = 2.0 * math.pi

    def panels(mids, halves, shared):
        """The panels (_phased_panels) and their mirror images, which
        add 2*Re(K_1) + 2i*Re(K_2): half those sums, their |K - G|
        summed over the parts and half the pair's Kronrod sums of
        |H_k|; result doubles the sums, which doubles every term."""
        k, e, m = _phased_panels(parts, t, mids, halves, shared)
        value = k[0].real.astype(complex)
        if len(k) == 2:
            value.imag = k[1].real
        return value, e, m

    def result(k, e, m, evals):
        """The value and estimate the panels give, also the payload of
        an AccuracyError from _refine."""
        estimate = 2.0 * e.sum() + _rounding(math.ceil(math.log2(evals)),
                                             2.0 * m.sum(), abs(t) * A)
        value = k.sum()
        return complex(value + value) / two_pi, float(estimate) / two_pi

    # the uniform panels the grading keeps (runs between split ones),
    # sharing their node phases, then the graded pieces, in one call of F
    uniform = np.array([edges[:-1], edges[1:], edges[:-1] + half,
                        np.full(n, half)])
    lefts, rights, mids, halves = np.concatenate(
        [uniform[:, a:b] for a, b in zip([0] + [i + 1 for i in split],
                                         split + [n])] + [pieces], axis=1)
    k, e, m = panels(mids, halves, n - len(split))
    lefts, rights, k, e, m, evals = _refine(
        lambda mids, halves: panels(mids, halves, 0), lefts, rights, k, e, m,
        budget, cost * len(k), cost, result)
    inner = k[rights <= edges[n // 2]].sum()
    return OscillatoryResult(*result(k, e, m, evals), A, evals,
                             complex(inner + inner) / two_pi)
