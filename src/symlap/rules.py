"""Operational calculus: transform-domain images of derivatives.

The n-th derivative of a signal maps to

    s^n * L(f)(s)        - s^(n-1)*f(0+)    - ... - f^(n-1)(0+)
  + (-cs)^n * Lm(f)(cs)  + (-cs)^(n-1)*f(0-) + ... + f^(n-1)(0-)

where L is the one-sided transform of f(t) and Lm the one-sided
transform of f(-t).  The rules are combinators over TransformPair
mappings, so they compose with closed-form transforms and with
quadrature-backed ones alike.  One-sided limits at zero are caller
inputs, never estimated numerically.

Every image takes one complex s or an array of them, so a set of
points is one call per piece side: a quadrature-backed image is one
forward.one_sided_values call for all its s, and check_rule_consistency
checks an array of s, each at its own quadrature tolerance, with one
such call per side of each transform it compares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import PiecewiseSignal
from .errors import AccuracyError
from .forward import one_sided_values, sl_forward_values
from .quadrature import require_positive


def _points(s):
    """s as a Python complex, or an array of s as a complex array."""
    if isinstance(s, (complex, float, int)) or np.ndim(s) == 0:
        return complex(s)
    return np.asarray(s, dtype=complex)


def finite_points(s):
    """_points(s), or ValueError naming the first s that is not finite
    and whether its damping Re s or its oscillation Im s is not."""
    s = _points(s)
    if isinstance(s, complex):
        first = None if math.isfinite(s.real + s.imag) else s
    else:
        bad = ~np.isfinite(s)
        first = complex(s[bad][0]) if bad.any() else None
    if first is not None:
        part = ("damping Re s" if not math.isfinite(first.real)
                else "oscillation Im s")
        raise ValueError(f"s must be finite, got {first}: its {part} is not")
    return s


@dataclass(frozen=True)
class BoundaryData:
    """One-sided limits f^(k)(0+) and f^(k)(0-), k = 0 .. n-1."""

    right_values: Sequence[complex]
    left_values: Sequence[complex]

    def __post_init__(self):
        if len(self.right_values) != len(self.left_values):
            raise ValueError("right and left sequences must have equal length")

    def __len__(self):
        return len(self.right_values)


@dataclass(frozen=True)
class TransformPair:
    """Images of the two one-sided transforms.

    pos(s) is L(f(t))(s), neg(cs) is L(f(-t))(cs), each of one complex
    point or elementwise over an array of them.  The full transform at
    equal damping is pos(s) + neg(conj(s)).  Regions of convergence are
    the caller's bookkeeping.
    """

    pos: Callable[[complex], complex]
    neg: Callable[[complex], complex]

    def combined(self, s):
        s = _points(s)
        return self.pos(s) + self.neg(s.conjugate())


def transform_pair_of(f: PiecewiseSignal, tol) -> TransformPair:
    """Quadrature-backed TransformPair of a signal.  An image of one s
    returns a complex, of an array of s an array; tol, one value or one
    per s, is the quadrature tolerance.  Each image call is one
    one_sided_values call for all its s."""

    def side(name):
        def image(s):
            s = finite_points(s)
            values = one_sided_values(f, name, s.real, s.imag, tol)[0]
            return values if values.ndim else complex(values)
        return image

    return TransformPair(side("pos"), side("neg"))


def derivative_rule(tp: TransformPair, bd: BoundaryData,
                    n: int) -> TransformPair:
    """Image of the n-th derivative given the image of the signal.

    bd must carry exactly n one-sided limits per side.  The n = 1 and
    n = 2 specializations with continuous data reduce to
    s*L - cs*Lm and s^2*L + cs^2*Lm - f(0)*(s + cs) respectively.
    """
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    if len(bd) != n:
        raise ValueError(
            f"need {n} one-sided limits per side, got {len(bd)}")
    right = [complex(v) for v in bd.right_values]
    left = [complex(v) for v in bd.left_values]

    def pos(s):
        s = _points(s)
        out = s ** n * tp.pos(s)
        for k in range(n):
            out -= s ** (n - 1 - k) * right[k]
        return out

    def neg(cs):
        cs = _points(cs)
        out = (-cs) ** n * tp.neg(cs)
        for k in range(n):
            out += (-cs) ** (n - 1 - k) * left[k]
        return out

    return TransformPair(pos, neg)


def check_rule_consistency(f: PiecewiseSignal, f_nth: PiecewiseSignal,
                           n: int, s, tol: float,
                           bd: BoundaryData | None = None):
    """|direct transform of the n-th derivative - rule-applied image|,
    a float for one complex s and an array for an array of s.

    f_nth must be the analytic n-th derivative of f, with f through
    f^(n-1) continuous as the rules require.  bd supplies the one-sided
    limits; for n = 1 it defaults to evaluating f at zero from both
    sides (valid exactly because continuity is assumed).  The returned
    discrepancy should sit within tol when both the rule and the
    quadrature hold up; the quadrature itself runs at
    tol/(8*max(1, |s|)^n), each s at its own, to leave room for the
    |s|^n amplification inside the rule.  Every transform side takes
    one one_sided_values call for all the s.

    Raises ValueError for an s that is not finite or a tol that is not
    positive and finite, and AccuracyError naming s and n, before any
    evaluation, where |s|^n passes float range or the quadrature
    tolerance underflows to 0.
    """
    s = finite_points(s)
    require_positive(tol=tol)
    if bd is None:
        if n != 1:
            raise ValueError(
                "boundary data defaults only for n=1; pass bd explicitly")
        zero = np.zeros(1)
        f0_plus = complex(np.asarray(f.pos(zero), dtype=complex)[0])
        f0_minus = complex(np.asarray(f.neg(zero), dtype=complex)[0])
        bd = BoundaryData((f0_plus,), (f0_minus,))
    with np.errstate(over="ignore"):  # past float range: refused below
        amplification = 8.0 * np.maximum(1.0, np.abs(s)) ** n
    quad_tol = tol / amplification
    # a half-line of a side gets a quarter of quad_tol (_truncate)
    lost = np.ravel(~(quad_tol / 4.0 > 0.0))
    if lost.any():
        i = int(np.argmax(lost))
        what = ("|s|^n is past float range"
                if np.ravel(amplification)[i] == math.inf
                else "the quadrature tolerance underflows to 0")
        raise AccuracyError(
            f"{what} at s={complex(np.ravel(s)[i])}, n={n}: the rule's "
            f"amplification 8*max(1, |s|)^n leaves tol={tol} nothing")
    lhs = sl_forward_values(f_nth, s.real, s.real, s.imag, quad_tol)[0]
    rule = derivative_rule(transform_pair_of(f, quad_tol / 2.0), bd, n)
    gap = np.abs(lhs - rule.combined(s))
    return gap if gap.ndim else float(gap)
