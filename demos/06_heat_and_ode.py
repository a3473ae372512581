"""Two boundary-value problems solved through the transform, verified.

Heat: u_xx = u_t with u(x,0) = sign(x) and u(0,t) = 0.  The solution is
erf(x/(2*sqrt(t))).  The finite-difference residual of the PDE shrinks
at second order in the stencil step, and the transformed equation
s^2 G + cs^2 Gm = G_t + Gm_t holds numerically.

ODE: y'' + y = f with f = exp(t) on t >= 0 and 1 on t < 0, y(0) = 0.
Splitting the transformed equation by variable yields rational
transforms whose split inversion is the closed-form solution.
"""

import numpy as np

from symlap import (
    heat_residual,
    heat_solution,
    heat_transform_identity,
    ode_residual,
    ode_solution,
    ode_transform_check,
    parse_transform,
    sl_inverse_split,
)

print("Heat solution profile at t = 0.25 (odd, saturating to +-1):")
for x in (-4.0, -1.0, -0.2, 0.0, 0.2, 1.0, 4.0):
    print(f"  u({x:+.1f}) = {heat_solution(x, 0.25):+.6f}")

print()
print("PDE residual, second order in the step:")
for h in (2e-3, 1e-3, 5e-4):
    print(f"  h={h:.0e}: residual {heat_residual(0.7, 0.3, h):.3e}")

print()
print("Transformed-equation identity |s^2 G + cs^2 Gm - G_t - Gm_t|:")
for s, t in ((1.0 + 0j, 0.5), (2.0 + 1j, 0.25)):
    print(f"  s={s}, t={t}: {heat_transform_identity(s, t, 1e-4):.2e}")

print()
print("ODE solution and residual:")
for t in (-3.0, -1.0, 0.0, 1.0, 3.0):
    print(f"  y({t:+.1f}) = {ode_solution(t):+.9f}   "
          f"|y'' + y - f| = {ode_residual(t):.1e}")

print()
print("Transform-domain closed forms vs quadrature:")
for s in (2.0 + 0j, 3.0 + 1j):
    print(f"  s={s}: gap {ode_transform_check(s, 1e-7):.2e}")

print()
print("End to end: invert the displayed rational transforms and compare")
print("with the closed-form solution:")
st = parse_transform("1/2 * 1/(s-1) - 1/2 * s/(s^2+1) - 1/2 * 1/(s^2+1) "
                     "+ 1/cs - cs/(cs^2+1)")
ts = np.linspace(-4.0, 4.0, 17)
worst = max(abs(v - ode_solution(t))
            for v, t in zip(sl_inverse_split(st, ts), ts))
print(f"  worst gap on [-4, 4]: {worst:.2e}")
