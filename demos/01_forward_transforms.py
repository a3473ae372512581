"""Forward transforms of the signal catalog, checked against closed forms.

The transform damps the two half-lines independently (x1 on t >= 0, x2
on t < 0) and oscillates with y.  For two-sided signals like sign(t),
neither the Fourier nor the one-sided Laplace transform applies, but
this one does.
"""

from symlap import SLPoint, catalog_signal, sl_forward

sign = catalog_signal("sign")

print("Transform of sign(t) at a grid of points, vs 1/(x1+iy) + 1/(-x2+iy):")
for x1, x2, y in [(1.0, 1.0, 1.0), (2.0, 3.0, 0.5), (0.5, 0.5, 5.0)]:
    got = sl_forward(sign, SLPoint(x1, x2, y), 1e-9)
    closed = 1.0 / (x1 + 1j * y) + 1.0 / (-x2 + 1j * y)
    print(f"  ({x1}, {x2}, {y}): {got.value:.9f}  "
          f"closed {closed:.9f}  |gap| {abs(got.value - closed):.2e}")

print()
print("Equal damping x1 = x2 = Re(s), y = Im(s) gives the s-form; for")
print("sign(t) that is 1/s - 1/conj(s):")
for s in (1 + 1j, 2 - 0.5j):
    got = sl_forward(sign, SLPoint(s.real, s.real, s.imag), 1e-9).value
    closed = 1.0 / s - 1.0 / s.conjugate()
    print(f"  s={s}: {got:.9f}  vs  {closed:.9f}")

print()
print("A signal that vanishes for t < 0 reduces to the classical Laplace")
print("transform at the point SLPoint(Re s, Re s, Im s): heaviside -> 1/s.")
h = catalog_signal("heaviside")
for s in (2.0 + 0j, 1 + 1j):
    got = sl_forward(h, SLPoint(s.real, s.real, s.imag), 1e-9).value
    print(f"  s={s}: {got:.9f}  vs  {1.0 / s:.9f}")

print()
print("Error estimates are certified: tail bound plus panel-refinement")
print("budget.  Tightening tol tightens both.")
for tol in (1e-6, 1e-9, 1e-12):
    got = sl_forward(sign, SLPoint(1.0, 1.0, 1.0), tol)
    true_err = abs(got.value - (-1j))
    print(f"  tol {tol:.0e}: estimate {got.abs_error_estimate:.2e}, "
          f"true error {true_err:.2e}")
