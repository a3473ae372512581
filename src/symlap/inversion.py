"""Both inversion paths for the transform.

Split inversion handles rational transforms separated into an s-part g1
and a cs-part g2: partial fractions of each side feed the classical
table c/(s-a)^k  ->  c * t^(k-1) * exp(a*t) / (k-1)!, with g1 recovering
the signal on t >= 0 and g2 (evaluated at -t) recovering it on t < 0.

Numeric inversion evaluates the Fourier-integral form

    exp((x1*H(t) - x2*H(-t))*t) * (1/2pi) *
        integral over [-A, A] of F(x1, x2, y) * exp(i*y*t) dy

which converges to the jump midpoint (f(t+) + f(t-))/2 as A grows.  A is
a caller-supplied truncation; transforms of jump signals decay only like
1/y, so no absolute certificate at fixed A is possible and callers judge
truncation by comparing the values at A and A/2, which
sl_inverse_numeric_pair reads off one set of quadrature panels on
[0, A].  _on_line hands the quadrature F on the line as one callable
of y, with two keywords that describe it.  A SplitTransform gives its
poles in y, and one with real coefficients, the transform of a real
signal, is hermitian: F(x1, x2, -y) = conj F(x1, x2, y), so it is
evaluated at y >= 0 only and reconstructs with an imaginary part of
exactly 0.0.  Any other input is evaluated at +-y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AccuracyError,
    ExpOverflowError,
    PropernessError,
    RootFindingError,
)
from .expr import (
    _CLUSTER_TOL,
    RationalFunction,
    SplitTransform,
    _cluster,
    _factors_at,
    evaluate_rational,
    polynomial_roots,
)
from .quadrature import (
    finite_oscillatory_integral,
    require_finite,
    require_positive,
)

_EXP_GUARD = 700.0
_FACTORIAL_MAX = 171  # the largest order whose (order-1)! is a float
_TINY = float(np.finfo(float).tiny)  # the smallest normal float


def _padded(a, m):
    if len(a) >= m:
        return a
    return np.concatenate([a, np.zeros(m - len(a), dtype=complex)])


@dataclass(frozen=True)
class PartialFractionTerm:
    """One term coefficient / (s - pole)^order."""

    pole: complex
    order: int
    coefficient: complex

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")


@np.errstate(all="ignore")  # an overflow fails the validation, unwarned
def partial_fractions(r: RationalFunction):
    """Decompose a strictly proper rational function into simple terms.

    Poles come from polynomial_roots of each distinct denominator
    factor, and a root's multiplicity is its factor's.  Roots of
    different factors closer than 1e-8 merge into one pole, their
    multiplicities adding.  Coefficients are read off a Taylor-series
    division of the numerator by the deflated denominator around each
    pole, both expanded factor by factor, which stays stable for
    repeated poles.  Terms with negligible coefficients (relative to the
    largest one at that pole) are dropped, so removable factors shared
    by numerator and denominator disappear on their own.

    The decomposition is validated by reconstruction at sample points,
    where the function is evaluated from its factors.
    """
    if not r.is_proper:
        raise PropernessError(
            f"a rational function of {r.degrees} is not strictly "
            "proper; no inverse in the rational table")
    if r.is_zero:
        return []
    roots = [(z, k, f) for f in r.denf for z, k in polynomial_roots(f)]
    roots.sort(key=lambda root: (root[0].real, root[0].imag))
    terms = []
    for group in _cluster([z for z, _, _ in roots], _CLUSTER_TOL):
        # roots of each factor at this pole, counted within the factor
        at_pole = {}
        for i in group:
            z, k, f = roots[i]
            at_pole[f] = at_pole.get(f, 0) + k
        m = sum(k * r.denf[f] for f, k in at_pole.items())
        pole = (roots[group[0]][0] if len(group) == 1 else
                sum(roots[i][0] * roots[i][1] * r.denf[roots[i][2]]
                    for i in group) / m)
        # den(p+u) = u^m * q(u) and num(p+u) = n(u), to order u^(m-1)
        q = _taylor(r.denf, pole, m, at_pole)
        n = r.scale * _taylor(r.numf, pole, m, {})
        t = np.zeros(m, dtype=complex)
        t[0] = n[0] / q[0]
        for j in range(1, m):
            acc = n[j]
            for k in range(1, j + 1):
                acc -= q[k] * t[j - k]
            t[j] = acc / q[0]
        scale = float(np.max(np.abs(t))) if m > 1 else 0.0
        for j in range(m):
            c = t[j]
            if abs(c) <= 1e-13 * scale:
                continue
            terms.append(PartialFractionTerm(pole, m - j, complex(c)))
    gap = _reconstruction_gap(r, terms)
    if not gap <= 1e-10:
        raise RootFindingError(
            f"partial fractions of a rational function of {r.degrees} "
            f"failed validation (reconstruction gap {gap:.3e})")
    return terms


def _taylor(factors, p, m, at_pole):
    """The first m Taylor coefficients at p of the product of the
    factors, each factor's expansion stripped first of its at_pole[f]
    leading coefficients: the roots at p, whose values there are
    root-finding residue."""
    out = _padded(np.ones(1, dtype=complex), m)
    for f, mult in factors.items():
        c = _padded(_shifted(f, p)[at_pole.get(f, 0):][:m], m)
        for _ in range(mult):
            out = np.convolve(out, c)[:m]
    return out


def _shifted(f, p):
    """The coefficients of f(p + u) in powers of u (Taylor shift), f the
    coefficients in ascending degree, by repeated synthetic division by
    (z - p)."""
    b = np.array(f[::-1], dtype=complex)  # descending order
    n = len(b)
    out = np.empty(n, dtype=complex)
    for k in range(n):
        for i in range(1, n - k):
            b[i] += p * b[i - 1]
        out[k] = b[n - 1 - k]
    return out


def _reconstruction_gap(r, terms):
    """Largest gap between the function and its terms on a circle around
    the poles, relative to max(1, |value|)."""
    radius = 1.0 + 2.0 * max([abs(t.pole) for t in terms], default=0.0)
    z = radius * np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8.0)
    direct = evaluate_rational(r, z)
    rebuilt = np.zeros_like(z)
    for t in terms:
        rebuilt += t.coefficient / (z - t.pole) ** t.order
    return float(np.max(np.abs(rebuilt - direct)
                        / np.maximum(1.0, np.abs(direct))))


def _times(t):
    """t flattened to a one-dimensional float array; ValueError names the
    first non-finite t."""
    ts = np.asarray(t, dtype=float).ravel()
    if np.count_nonzero(np.isfinite(ts)) < ts.size:
        require_finite(t=float(ts[~np.isfinite(ts)][0]))
    return ts


def _shaped(values, t):
    """The values at the flattened times, as a complex for a float t and
    in the shape of t otherwise."""
    if np.ndim(t) == 0:
        return complex(values[0])
    return values.reshape(np.shape(t))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def inverse_laplace_rational(terms, t):
    """Sum of the classical table applied to each term at time t >= 0,
    for a float t or elementwise for an array of them.

    A term is taken directly, c * t^(order-1) * exp(pole*t) / (order-1)!,
    where every factor and partial product of that is a normal float,
    and by logarithms elsewhere (_table), so that no value in float
    range is lost to an overflow or underflow on the way.  Raises
    ValueError for a non-finite or negative t, and ExpOverflowError (an
    OverflowError, exit code 5 of `symlap invert`) where the modulus of
    a term or of the sum passes the largest float, naming the first
    such t and the first term at fault there."""
    ts = _times(t)
    if np.count_nonzero(ts < 0):
        raise ValueError("the one-sided table needs t >= 0")
    total = sum((_table(term, ts) for term in terms),
                np.zeros(len(ts), dtype=complex))
    over = ~(np.abs(total) < math.inf)  # past float range, or nan
    if np.count_nonzero(over):
        at = float(ts[np.argmax(over)])
        for term in terms:
            if not abs(_table(term, np.array([at]))[0]) < math.inf:
                raise ExpOverflowError(_overflow_message(term, at))
        raise ExpOverflowError(f"the sum of the terms overflows at t={at}")
    return _shaped(total, t)


def _table(term, ts):
    """The term's table value at each of the times ts: directly where
    every factor and partial product of it is a normal float, and
    elsewhere, or at every t where (order-1)! is no float (order above
    171), by logarithms: exp(log|c| - lgamma(order) + (order-1)*log(t) +
    pole*t) times the phase of c.  log|c| sits in the exponent, so that
    a large coefficient cannot overflow first and a small one cannot
    underflow first; a zero coefficient stays 0."""
    k, c, p = term.order, term.coefficient, term.pole
    # a factorial past float range as nan sends every t to logarithms
    fact = math.factorial(k - 1) if k <= _FACTORIAL_MAX else math.nan
    power, grow = ts ** (k - 1), np.exp(p * ts)
    head = c * power
    value = head * grow / fact
    size = np.abs(value)  # inf or nan where anything overflowed
    least = np.minimum(np.minimum(power, np.abs(grow)), np.abs(head))
    logged = ~((np.minimum(least, size) >= _TINY) & (size < math.inf))
    if np.count_nonzero(logged):
        log_power = (k - 1) * np.log(ts[logged]) if k > 1 else 0.0
        value[logged] = np.exp(np.log(abs(c)) - math.lgamma(k) + log_power
                               + p * ts[logged]) * np.exp(1j * np.angle(c))
    return value


def _overflow_message(term, t):
    growth = f"exp({term.pole.real * t:.1f})"
    if term.order > 1:
        growth = f"t^{term.order - 1} * {growth} / {term.order - 1}!"
    return (f"{abs(term.coefficient):.3g} * {growth} overflows for pole "
            f"{term.pole} at t={t}")


def sl_inverse_split(st: SplitTransform, t):
    """Invert a split rational transform at time t, a float or an array
    of them.

    Both sides must be strictly proper (the zero function counts).  The
    positive side g1 is inverted at t for t >= 0; the cs side g2 is
    inverted at -t for t < 0, in one table evaluation per side.  Each
    side is decomposed once per SplitTransform and the terms are reused
    at every later t.

    Raises ValueError for a non-finite t, PropernessError for a side
    that is not strictly proper and ExpOverflowError when a table term
    overflows at some t, naming the first such t.
    """
    ts = _times(t)
    for label, g in (("g1", st.g1), ("g2", st.g2)):
        if not g.is_proper:
            raise PropernessError(
                f"{label}, of {g.degrees}, is not strictly proper; the "
                "split transform has no classical inverse")
    out = np.zeros(len(ts), dtype=complex)
    neg = ts < 0
    sides = [(~neg, "g1_terms", 1.0), (neg, "g2_terms", -1.0)]
    if ts.size and neg[0]:  # the side of the first t first, for its errors
        sides.reverse()
    for mask, terms, sign in sides:
        if np.count_nonzero(mask):
            out[mask] = inverse_laplace_rational(getattr(st, terms),
                                                 sign * ts[mask])
    return _shaped(out, t)


def _on_line(F, x1: float, x2: float):
    """F(x1, x2, y) as the integrand G(y) of finite_oscillatory_integral,
    with the keywords that describe it: (G, {"hermitian": ..., "poles":
    ...}).  This is the one place that describes an integrand.

    A SplitTransform evaluates g1(x1 + i*y) + g2(x2 - i*y) and gives its
    poles in y (_poles).  When all its coefficients are real it is the
    transform of a real signal, its values at -y the conjugates of those
    at y, so it is hermitian and evaluated at y >= 0 only; any other
    SplitTransform is evaluated at +-y.  A callable is described by
    nothing: it is evaluated at +-y on uniform panels.
    """
    if not isinstance(F, SplitTransform):
        return (lambda y: F(x1, x2, y)), {}

    def on_line(y):
        iy = 1j * y
        # a value that overflows is inf, for quadrature._finite to reject
        with np.errstate(over="ignore", invalid="ignore"):
            g = evaluate_rational(F.g1, x1 + iy)  # arrays of their own, reused
            g += evaluate_rational(F.g2, np.subtract(x2, iy, out=iy))
        return g

    return on_line, {"hermitian": F.is_real, "poles": _poles(F, x1, x2)}


@np.errstate(all="ignore")  # a huge power makes a strength inf or 0
def _poles(F: SplitTransform, x1: float, x2: float):
    """The poles of F(x1, x2, y) in y, as (y_p, order, strength) triples.

    A root p of g1 is a pole at y_p = Im p + i*(x1 - Re p) and a root q
    of g2 one at -Im q - i*(x2 - Re q), the roots from polynomial_roots.
    Since x1 + i*y - p = i*(y - y_p) and x2 - i*y - q = -i*(y - y_q), the
    strength, the modulus of the leading Laurent coefficient, is the
    side's: its scale times the numerator over the root's own factor's
    leading Taylor coefficient, the product of its differences from that
    factor's other roots, and over the other factors, all at the root.
    Poles on the line, or of no finite nonzero strength, are left out,
    and so are the roots of a factor polynomial_roots cannot resolve.
    """
    poles = []
    for g, x, sign in ((F.g1, x1, 1.0), (F.g2, x2, -1.0)):
        for f, mult in g.denf.items():
            try:
                roots = polynomial_roots(f)
            except RootFindingError:
                continue
            rest = ({h: n for h, n in g.denf.items() if h is not f}
                    if len(g.denf) > 1 else {})
            for z, r in roots:
                if z.real == x:
                    continue
                # at a numpy scalar, which overflows to inf where a
                # Python complex power raises
                at = np.complex128(z) if g.numf or rest else z
                num, den = _factors_at(g.numf, at), _factors_at(rest, at)
                lead = math.prod(np.abs(z - w) ** (q * mult)
                                 for w, q in roots if w != z)
                strength = (abs(g.scale) * (1.0 if num is None else abs(num))
                            / lead)
                if den is not None:
                    strength /= abs(den)
                if 0.0 < strength < math.inf:
                    poles.append((sign * complex(z.imag, x - z.real),
                                  r * mult, float(strength)))
    return tuple(poles)


def sl_inverse_numeric_pair(F, x1: float, x2: float, t: float, A: float,
                            tol: float) -> tuple[complex, complex]:
    """Fourier-integral reconstruction of the signal behind F at time t,
    truncated at A and at A/2.

    F is a SplitTransform, or a callable that accepts (x1, x2, y) with y
    a numpy array and returns the transform values on that grid.  Both
    values approximate the jump midpoint (f(t+) + f(t-))/2 and come from
    one set of quadrature panels on [0, A]; the discretization error of
    each is held below tol while truncation in A remains the caller's
    concern (their difference gauges it).  _on_line describes F to
    finite_oscillatory_integral by its hermitian and poles keywords: a
    SplitTransform with real coefficients is hermitian, evaluated at
    y >= 0 only, and its values are real, their imaginary part exactly
    0.0; any other F is evaluated at +-y (quadrature._symmetric_parts).

    Raises ValueError for a non-finite or non-positive tol or A, or a
    non-finite x1, x2 or t, and AccuracyError when the prefactor
    exp(x*t) overflows, tol over it underflows to 0 or the refinement
    budget runs out; the latter
    carries the value at A and its estimate, both times exp(x*t).
    """
    require_positive(tol=tol, A=A)
    require_finite(x1=x1, x2=x2, t=t)
    x = x1 if t >= 0 else -x2
    if x * t > _EXP_GUARD:
        raise AccuracyError(
            f"prefactor exp(x*t) overflows at x={x}, t={t}")
    prefactor = math.exp(x * t)
    inner_tol = tol / max(prefactor, 1.0)
    if not inner_tol:
        raise AccuracyError(
            f"tol={tol} over the prefactor exp(x*t) underflows to 0")
    try:
        G, described = _on_line(F, x1, x2)
        res = finite_oscillatory_integral(G, t, A, inner_tol, **described)
    except AccuracyError as exc:
        if exc.value is not None:
            exc.value *= prefactor
            exc.abs_error_estimate *= prefactor
        raise
    return prefactor * res.value, prefactor * res.half_value


def sl_inverse_numeric(F, x1: float, x2: float, t: float, A: float,
                       tol: float) -> complex:
    """The truncation-A value of sl_inverse_numeric_pair, with the same
    arguments and errors."""
    return sl_inverse_numeric_pair(F, x1, x2, t, A, tol)[0]
