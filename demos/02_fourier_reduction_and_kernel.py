"""Fourier reduction at zero damping, and why real arguments lose
invertibility.

At x1 = x2 = 0, the point SLPoint(0, 0, y), the transform is the plain
Fourier transform, defined whenever the signal is absolutely
integrable.  Restricting the
transform to real arguments instead of complex ones collapses its
kernel: f(t) = t transforms to exactly zero for every real s, so two
different signals can share a transform there.
"""

import math

from symlap import SLPoint, catalog_signal, sl_forward

gauss = catalog_signal("gauss")
print("Gaussian Fourier pair: exp(-t^2) -> sqrt(pi) * exp(-y^2/4)")
for y in (0.0, 1.0, 2.0, 4.0):
    got = sl_forward(gauss, SLPoint(0.0, 0.0, y), 1e-10).value
    closed = math.sqrt(math.pi) * math.exp(-y * y / 4.0)
    print(f"  y={y}: {got.real:.12f}  closed {closed:.12f}")

print()
print("Signals without decay are rejected (not absolutely integrable):")
try:
    sl_forward(catalog_signal("one"), SLPoint(0.0, 0.0, 1.0), 1e-8)
except Exception as exc:
    print(f"  one: {type(exc).__name__}: {exc}")

print()
print("Kernel witness: the ramp f(t) = t maps to zero for every real s,")
print("so evaluation on the real axis alone cannot be inverted.")
ramp = catalog_signal("ramp")
for x in (0.5, 1.0, 2.0):
    got = sl_forward(ramp, SLPoint(x, x, 0.0), 1e-10).value
    print(f"  x={x}: |SL(ramp)| = {abs(got):.2e}")
print("Off the real axis the transform separates points again:")
got = sl_forward(ramp, SLPoint(1.0, 1.0, 1.0), 1e-10).value
print(f"  (1, 1, 1): SL(ramp) = {got:.9f}  (nonzero)")
