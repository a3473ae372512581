"""Operational calculus: transform-domain images of derivatives.

The n-th derivative of a signal maps to

    s^n * L(f)(s)        - s^(n-1)*f(0+)    - ... - f^(n-1)(0+)
  + (-cs)^n * Lm(f)(cs)  + (-cs)^(n-1)*f(0-) + ... + f^(n-1)(0-)

where L is the one-sided transform of f(t) and Lm the one-sided
transform of f(-t).  The rules are combinators over TransformPair
mappings, so they compose with closed-form transforms and with
quadrature-backed ones alike.  One-sided limits at zero are caller
inputs, never estimated numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import PiecewiseSignal
from .forward import one_sided_values, sl_forward_symmetric


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

    pos(s) is L(f(t))(s), neg(cs) is L(f(-t))(cs).  The full transform
    at equal damping is pos(s) + neg(conj(s)).  Regions of convergence
    are the caller's bookkeeping.
    """

    pos: Callable[[complex], complex]
    neg: Callable[[complex], complex]

    def combined(self, s: complex) -> complex:
        return self.pos(s) + self.neg(complex(s).conjugate())


def transform_pair_of(f: PiecewiseSignal, tol: float) -> TransformPair:
    """Quadrature-backed TransformPair of a signal.  Each call runs one
    one-sided grid pass, at one y, at the requested tolerance."""

    def side(name):
        def image(s: complex) -> complex:
            s = complex(s)
            return complex(one_sided_values(f, name, s.real, [s.imag],
                                            tol)[0][0])
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

    def pos(s: complex) -> complex:
        s = complex(s)
        out = s ** n * tp.pos(s)
        for k in range(n):
            out -= s ** (n - 1 - k) * right[k]
        return out

    def neg(cs: complex) -> complex:
        cs = complex(cs)
        out = (-cs) ** n * tp.neg(cs)
        for k in range(n):
            out += (-cs) ** (n - 1 - k) * left[k]
        return out

    return TransformPair(pos, neg)


def check_rule_consistency(f: PiecewiseSignal, f_nth: PiecewiseSignal,
                           n: int, s: complex, tol: float,
                           bd: BoundaryData | None = None) -> float:
    """|direct transform of the n-th derivative - rule-applied image|.

    f_nth must be the analytic n-th derivative of f, with f through
    f^(n-1) continuous as the rules require.  bd supplies the one-sided
    limits; for n = 1 it defaults to evaluating f at zero from both
    sides (valid exactly because continuity is assumed).  The returned
    discrepancy should sit within tol when both the rule and the
    quadrature hold up; the quadrature itself runs tighter than tol to
    leave room for the |s|^n amplification inside the rule.
    """
    s = complex(s)
    if bd is None:
        if n != 1:
            raise ValueError(
                "boundary data defaults only for n=1; pass bd explicitly")
        zero = np.zeros(1)
        f0_plus = complex(np.asarray(f.pos(zero), dtype=complex)[0])
        f0_minus = complex(np.asarray(f.neg(zero), dtype=complex)[0])
        bd = BoundaryData((f0_plus,), (f0_minus,))
    quad_tol = tol / (8.0 * max(1.0, abs(s)) ** n)
    lhs = sl_forward_symmetric(f_nth, s, quad_tol).value
    rule = derivative_rule(transform_pair_of(f, quad_tol / 2.0), bd, n)
    return abs(lhs - rule.combined(s))
