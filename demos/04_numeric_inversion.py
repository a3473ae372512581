"""Numeric inversion through the Fourier-integral form.

Given transform values F(x1, x2, y) along a line of constant damping,
the signal is recovered as

    exp((x1*H(t) - x2*H(-t))*t) * (1/2pi) *
        integral over [-A, A] of F * exp(i*y*t) dy

At a jump the reconstruction converges to the midpoint of the two
one-sided limits.  For jump signals F decays only like 1/y, so the
truncation A matters; comparing the values at A and A/2 gauges it, and
sl_inverse_numeric_pair reads both off one set of quadrature panels.
"""

import numpy as np

from symlap import sl_inverse_numeric, sl_inverse_numeric_pair


def sign_transform(x1, x2, y):
    y = np.asarray(y)
    return 1.0 / (x1 + 1j * y) + 1.0 / (-x2 + 1j * y)


print("Reconstructing sign(t) from its closed-form transform at x1=x2=1:")
for t in (-2.0, -0.5, 0.5, 2.0):
    v = sl_inverse_numeric(sign_transform, 1.0, 1.0, t, 1000.0, 1e-6)
    print(f"  t={t:+.1f}: {v.real:+.6f}")

print()
print("At the jump the theorem gives the midpoint (f(0+) + f(0-))/2 = 0:")
v0 = sl_inverse_numeric(sign_transform, 1.0, 1.0, 0.0, 1000.0, 1e-6)
print(f"  t=0: {v0.real:+.2e}")

print()
print("Truncation study at t = 2 (true value 1), each A with its A/2:")
for A in (250.0, 500.0, 1000.0, 2000.0):
    v, v_half = sl_inverse_numeric_pair(sign_transform, 1.0, 1.0, 2.0, A,
                                        1e-6)
    print(f"  A={A:6.0f}: error {abs(v - 1.0):.3e}"
          f"  |value(A) - value(A/2)| {abs(v - v_half):.2e}")
