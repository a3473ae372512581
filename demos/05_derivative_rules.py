"""Derivative images in the transform domain.

Differentiating a signal multiplies its one-sided transforms by powers
of s (positive side) and -cs (negative side), minus boundary terms from
the one-sided limits at zero.  The rules compose: applying the
first-order rule twice is the second-order rule.
"""

import numpy as np

from symlap import (
    BoundaryData,
    ExponentialOrderBound,
    PiecewiseSignal,
    TransformPair,
    catalog_signal,
    check_rule_consistency,
    derivative_rule,
)

print("Closed-form check on L = 1/s, Lm = 1/cs with continuous data:")
tp = TransformPair(pos=lambda s: 1.0 / s, neg=lambda cs: 1.0 / cs)
rule1 = derivative_rule(tp, BoundaryData((0.8,), (0.8,)), 1)
for s in (1 + 1j, 2.0 + 0j):
    direct = s * (1.0 / s) - s.conjugate() * (1.0 / s.conjugate())
    print(f"  s={s}: rule {rule1.combined(s):.12f}  direct {direct:.12f}")

print()
print("Gaussian: the rule applied to the transform of exp(-t^2) matches")
print("the direct transform of its derivative -2t exp(-t^2):")
gauss = catalog_signal("gauss")
gauss_prime = PiecewiseSignal(
    "gauss_prime",
    lambda t: -2.0 * t * np.exp(-t * t),
    lambda t: -2.0 * t * np.exp(-t * t),
    ExponentialOrderBound(0.9, 0.0), ExponentialOrderBound(0.9, 0.0),
    tail_cut=gauss.tail_cut)
# an array of s is checked in one call, each s at its own quadrature
# tolerance
points = np.array([1 + 1j, 2.5 - 0.5j])
gaps = check_rule_consistency(gauss, gauss_prime, 1, points, 1e-7)
for s, gap in zip(points, gaps):
    print(f"  s={s}: discrepancy {gap:.2e}")

print()
print("Composing two first-order rules equals the second-order rule:")
bd1 = BoundaryData((0.5,), (0.5,))
bd2 = BoundaryData((-0.25,), (-0.25,))
bd12 = BoundaryData((0.5, -0.25), (0.5, -0.25))
twice = derivative_rule(derivative_rule(tp, bd1, 1), bd2, 1)
once = derivative_rule(tp, bd12, 2)
s = 1.7 + 0.9j
print(f"  at s={s}: gap {abs(twice.combined(s) - once.combined(s)):.2e}")
