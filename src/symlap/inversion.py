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
sl_inverse_numeric_pair reads off one set of quadrature panels.
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
from .expr import RationalFunction, SplitTransform, polynomial_roots
from .quadrature import (
    finite_oscillatory_integral,
    require_finite,
    require_positive,
)

_EXP_GUARD = 700.0


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


def partial_fractions(r: RationalFunction):
    """Decompose a strictly proper rational function into simple terms.

    Poles come from polynomial_roots of the denominator.  Coefficients
    are read off a Taylor-series division of the numerator by the
    deflated denominator around each pole, which stays stable for
    repeated poles.  Terms with negligible coefficients (relative to the
    largest one at that pole) are dropped, so removable factors shared
    by numerator and denominator disappear on their own.

    The decomposition is validated by reconstruction at sample points.
    A repeated pole whose computed roots straddle the default clustering
    window shows up there as a huge spurious residue pair, in which case
    the clustering is widened and the decomposition redone.
    """
    if not r.is_proper:
        raise PropernessError(
            f"{r} is not strictly proper (numerator degree "
            f"{r.num.degree} >= denominator degree {r.den.degree}); "
            "no inverse in the rational table")
    if r.is_zero:
        return []
    last_gap = None
    for widen in (1.0, 32.0, 1024.0):
        terms = _decompose(r, cluster_tol=1e-8 * widen)
        last_gap = _reconstruction_gap(r, terms)
        if last_gap <= 1e-10:
            return terms
    raise RootFindingError(
        f"partial fractions of {r} failed validation "
        f"(reconstruction gap {last_gap:.3e})")


def _decompose(r, cluster_tol):
    terms = []
    for pole, m in polynomial_roots(r.den, cluster_tol=cluster_tol):
        dshift = r.den.shifted(pole)
        nshift = r.num.shifted(pole)
        # den(p+u) = u^m * q(u); discard the first m coefficients, which
        # are root-cluster residue at drop-off level
        q = _padded(dshift[m: 2 * m], m)
        n = _padded(nshift[:m], m)
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
    return terms


def _reconstruction_gap(r, terms):
    radius = 1.0 + 2.0 * max([abs(t.pole) for t in terms], default=0.0)
    z = radius * np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8.0)
    direct = r.num(z) / r.den(z)
    rebuilt = np.zeros_like(z)
    for t in terms:
        rebuilt += t.coefficient / (z - t.pole) ** t.order
    return float(np.max(np.abs(rebuilt - direct)
                        / np.maximum(1.0, np.abs(direct))))


def inverse_laplace_rational(terms, t: float) -> complex:
    """Sum of the classical table applied to each term at time t >= 0.

    Raises ValueError for a non-finite or negative t, and
    ExpOverflowError (an OverflowError) when exp(pole*t) or
    t^(order-1) * exp(pole*t) of some term overflows; a decaying term
    underflows harmlessly towards 0."""
    require_finite(t=t)
    if t < 0:
        raise ValueError("the one-sided table needs t >= 0")
    total = 0j
    for term in terms:
        if term.pole.real * t > _EXP_GUARD:
            raise ExpOverflowError(
                f"exp({term.pole.real * t:.1f}) overflows for pole "
                f"{term.pole} at t={t}")
        k = term.order
        try:
            power = t ** (k - 1)
        except OverflowError:
            total += _huge_power_term(term, t)
            continue
        total += (term.coefficient * power
                  * np.exp(term.pole * t) / math.factorial(k - 1))
    return complex(total)


def _huge_power_term(term, t):
    """The table term at a t whose power t^(order-1) alone overflows a
    float, from the logarithm of t^(order-1) * exp(pole*t): 0 when the
    exponential underflows it, ExpOverflowError when the product
    overflows."""
    k = term.order
    log_power = (k - 1) * math.log(t)
    if log_power + term.pole.real * t > _EXP_GUARD:
        raise ExpOverflowError(
            f"t^{k - 1} * exp({term.pole.real * t:.1f}) overflows for pole "
            f"{term.pole} at t={t}")
    return (term.coefficient * np.exp(log_power + term.pole * t)
            / math.factorial(k - 1))


def sl_inverse_split(st: SplitTransform, t: float) -> complex:
    """Invert a split rational transform at time t.

    Both sides must be strictly proper (the zero function counts).  The
    positive side g1 is inverted at t for t >= 0; the cs side g2 is
    inverted at -t for t < 0.  Each side is decomposed once per
    SplitTransform and the terms are reused at every later t.

    Raises ValueError for a non-finite t, PropernessError for a side
    that is not strictly proper and ExpOverflowError when a table term
    overflows at t.
    """
    require_finite(t=t)
    for label, g in (("g1", st.g1), ("g2", st.g2)):
        if not g.is_proper:
            raise PropernessError(
                f"{label} = {g} is not strictly proper; the split "
                "transform has no classical inverse")
    if t >= 0:
        return inverse_laplace_rational(st.g1_terms, t)
    return inverse_laplace_rational(st.g2_terms, -t)


def sl_inverse_numeric_pair(F, x1: float, x2: float, t: float, A: float,
                            tol: float) -> tuple[complex, complex]:
    """Fourier-integral reconstruction of the signal behind F at time t,
    truncated at A and at A/2.

    F must accept (x1, x2, y) with y a numpy array and return the
    transform values on that grid.  Both values approximate the jump
    midpoint (f(t+) + f(t-))/2 and come from one set of quadrature
    panels; the discretization error of each is held below tol while
    truncation in A remains the caller's concern (their difference
    gauges it).

    Raises ValueError for a non-finite or non-positive tol or A, or a
    non-finite x1, x2 or t, and AccuracyError when the prefactor
    exp(x*t) overflows.
    """
    require_positive(tol=tol, A=A)
    require_finite(x1=x1, x2=x2, t=t)
    x = x1 if t >= 0 else -x2
    if x * t > _EXP_GUARD:
        raise AccuracyError(
            f"prefactor exp(x*t) overflows at x={x}, t={t}")
    prefactor = math.exp(x * t)
    inner_tol = tol / max(prefactor, 1.0)
    res = finite_oscillatory_integral(lambda y: F(x1, x2, y), t, A,
                                      inner_tol)
    return prefactor * res.value, prefactor * res.half_value


def sl_inverse_numeric(F, x1: float, x2: float, t: float, A: float,
                       tol: float) -> complex:
    """The truncation-A value of sl_inverse_numeric_pair, with the same
    arguments and errors."""
    return sl_inverse_numeric_pair(F, x1, x2, t, A, tol)[0]
