"""One-shot verification suite behind `symlap verify` and the acceptance
tests.

Each criterion measures worst-case discrepancies against pinned
tolerances.  A criterion with several parts reports the part with the
largest measured/tolerance ratio.  The 5x5 damping/oscillation grids of
Examples 1-3 and the Laplace reduction take one sl_forward_values pass
per damping row x1 = x2 = x, which serves all five y of the row at
once.  Everything here is deterministic: random sample points come from
a fixed seed and reruns serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .applications import (
    heat_residual,
    heat_solution,
    heat_transform_identity,
    heat_transform_pair,
    ode_boundary_values,
    ode_residual,
    ode_solution,
    ode_transform_check,
)
from .core import ExponentialOrderBound, PiecewiseSignal, SLPoint, catalog_signal
from .expr import parse_transform
from .forward import sl_forward, sl_forward_values
from .inversion import (
    sl_inverse_numeric,
    sl_inverse_numeric_pair,
    sl_inverse_split,
)
from .rules import BoundaryData, TransformPair, check_rule_consistency, derivative_rule

_SEED = 20260811
_GRID_X = (0.5, 1.0, 2.0, 4.0, 8.0)
_GRID_Y = np.array([0.0, 1.0, -1.0, 5.0, -5.0])

ODE_TRANSFORM_TEXT = ("1/2 * 1/(s-1) - 1/2 * s/(s^2+1) - 1/2 * 1/(s^2+1) "
                      "+ 1/cs - cs/(cs^2+1)")


@dataclass(frozen=True)
class Part:
    label: str
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance

    @property
    def ratio(self) -> float:
        if self.tolerance > 0:
            return self.measured / self.tolerance
        return 0.0 if self.measured == 0 else math.inf


@dataclass(frozen=True)
class CriterionResult:
    id: str
    passed: bool
    measured: float
    tolerance: float
    worst_part: str

    def as_entry(self) -> dict:
        return {
            "id": self.id,
            "status": "pass" if self.passed else "fail",
            "measured": self.measured,
            "tolerance": self.tolerance,
        }


def _finish(cid: str, parts) -> CriterionResult:
    worst = max(parts, key=lambda p: p.ratio)
    return CriterionResult(cid, all(p.passed for p in parts),
                           worst.measured, worst.tolerance, worst.label)


def _worst_row_gap(f, closed) -> float:
    """Worst |transform of f - closed(s1, s2c)| over the 5x5 grid, with
    s1 = x + iy and s2c = x - iy.  Each damping row x1 = x2 = x is one
    sl_forward_values pass over every y of the grid, each point to 1e-9,
    and closed is evaluated on the row's y as an array."""
    worst = 0.0
    for x in _GRID_X:
        num, _ = sl_forward_values(f, x, x, _GRID_Y, 1e-9)
        gap = np.abs(num - closed(x + 1j * _GRID_Y, x - 1j * _GRID_Y))
        worst = max(worst, float(gap.max()))
    return worst


def criterion_example1_grid() -> CriterionResult:
    """Transform of the sign signal matches 1/(x+iy) + 1/(-x+iy) on the
    5x5 damping/oscillation grid, one grid pass per damping row."""
    worst = _worst_row_gap(catalog_signal("sign"),
                           lambda s1, s2c: 1.0 / s1 + 1.0 / -s2c)
    return _finish("example1_grid", [Part("sign grid", worst, 1e-8)])


def criterion_examples_2_3_grid() -> CriterionResult:
    """Constant and trig signals match their closed forms on the same
    grid, one grid pass per damping row; the trig pair runs at
    frequencies 1 and 2."""
    parts = [Part("one grid",
                  _worst_row_gap(catalog_signal("one"),
                                 lambda s1, s2c: 1.0 / s1 + 1.0 / s2c),
                  1e-8)]
    for w in (1.0, 2.0):
        worst_sc = _worst_row_gap(
            catalog_signal("sincos", freq=w),
            lambda s1, s2c: w / (s1 * s1 + w * w) + s2c / (s2c * s2c + w * w))
        worst_cs = _worst_row_gap(
            catalog_signal("cossin", freq=w),
            lambda s1, s2c: s1 / (s1 * s1 + w * w) - w / (s2c * s2c + w * w))
        parts.append(Part(f"sincos freq={w}", worst_sc, 1e-8))
        parts.append(Part(f"cossin freq={w}", worst_cs, 1e-8))
    return _finish("examples_2_3_grid", parts)


def criterion_reductions() -> CriterionResult:
    """Laplace reduction on the heaviside signal (1/s), one grid pass per
    damping row, and Fourier reduction on the Gaussian
    (sqrt(pi) * exp(-y^2/4)) at x1 = x2 = 0, point by point."""
    worst_l = _worst_row_gap(catalog_signal("heaviside"),
                             lambda s1, s2c: 1.0 / s1)
    g = catalog_signal("gauss")
    worst_f = 0.0
    for y in (0.0, 1.0, 2.0):
        num = sl_forward(g, SLPoint(0.0, 0.0, y), 1e-9).value
        closed = math.sqrt(math.pi) * math.exp(-y * y / 4.0)
        worst_f = max(worst_f, abs(num - closed))
    return _finish("reductions", [Part("heaviside vs 1/s", worst_l, 1e-8),
                                  Part("gauss Fourier pair", worst_f, 1e-8)])


def criterion_kernel_witness() -> CriterionResult:
    """The ramp signal transforms to zero for real s, the witness that
    real-argument evaluation is not invertible."""
    ramp = catalog_signal("ramp")
    worst = 0.0
    for x in (0.5, 1.0, 2.0):
        worst = max(worst,
                    abs(sl_forward(ramp, SLPoint(x, x, 0.0), 1e-10).value))
    return _finish("kernel_witness", [Part("|SL(ramp)(x,x,0)|", worst, 1e-9)])


def criterion_split_inversion() -> CriterionResult:
    """The three rational transforms with known originals invert exactly
    through the split path."""
    ts = (3.0, -3.0, 1.0, -1.0, 0.25, -0.25)
    cases = [
        ("1/s^2 - 1/cs^2", lambda t: t),
        ("1/s + 1/cs", lambda t: 1.0),
        ("1/s - 1/cs", lambda t: math.copysign(1.0, t)),
    ]
    parts = []
    for text, f in cases:
        values = sl_inverse_split(parse_transform(text), ts)
        worst = max(abs(v - f(t)) for v, t in zip(values.tolist(), ts))
        parts.append(Part(text, worst, 1e-12))
    return _finish("split_inversion", parts)


def _sign_transform(x1, x2, y):
    return 1.0 / (x1 + 1j * y) + 1.0 / (-x2 + 1j * y)


def criterion_numeric_inversion() -> CriterionResult:
    """Fourier-integral reconstruction of the sign signal: pointwise
    accuracy at A=1000, the jump midpoint at t=0, and a shrinking error
    trend over A = 250, 500, 1000.

    The A-truncation error oscillates like cos(A*t)/(A*t), so adjacent
    doublings may not shrink strictly; the trend is asserted against the
    A=250 baseline, and adjacent steps get the |res(A) - res(A/2)|
    truncation-proxy allowance."""
    parts = []
    mid = sl_inverse_numeric(_sign_transform, 1.0, 1.0, 0.0, 1000.0, 1e-6)
    parts.append(Part("midpoint at t=0", abs(mid), 5e-3))
    for t in (0.5, -0.5, 2.0, -2.0):
        target = math.copysign(1.0, t)
        full, half = sl_inverse_numeric_pair(_sign_transform, 1.0, 1.0, t,
                                             1000.0, 1e-6)
        res = {250.0: sl_inverse_numeric(_sign_transform, 1.0, 1.0, t,
                                         250.0, 1e-6),
               500.0: half, 1000.0: full}
        err = {A: abs(v - target) for A, v in res.items()}
        parts.append(Part(f"error at t={t}, A=1000", err[1000.0], 1e-2))
        parts.append(Part(f"trend 500 vs 250 at t={t}",
                          err[500.0], err[250.0]))
        parts.append(Part(f"trend 1000 vs 250 at t={t}",
                          err[1000.0], err[250.0]))
        sens = abs(res[1000.0] - res[500.0])
        parts.append(Part(f"trend 1000 vs 500 (+proxy) at t={t}",
                          err[1000.0], err[500.0] + sens))
    return _finish("numeric_inversion", parts)


def _gauss_derivatives():
    g = catalog_signal("gauss")
    b = ExponentialOrderBound
    d1 = PiecewiseSignal("gauss_prime",
                         lambda t: -2.0 * t * np.exp(-t * t),
                         lambda t: -2.0 * t * np.exp(-t * t),
                         b(0.9, 0.0), b(0.9, 0.0), tail_cut=g.tail_cut)
    d2 = PiecewiseSignal("gauss_second",
                         lambda t: (4.0 * t * t - 2.0) * np.exp(-t * t),
                         lambda t: (4.0 * t * t - 2.0) * np.exp(-t * t),
                         b(2.0, 0.0), b(2.0, 0.0), tail_cut=g.tail_cut)
    return g, d1, d2


def criterion_derivative_rules() -> CriterionResult:
    """First and second derivative images agree with direct transforms
    of the Gaussian's derivatives; composing two first-order rules
    equals the second-order rule."""
    rng = np.random.default_rng(_SEED)
    g, d1, d2 = _gauss_derivatives()
    bd2 = BoundaryData((1.0, 0.0), (1.0, 0.0))
    worst1 = worst2 = 0.0
    for _ in range(10):
        s = complex(1.0 + 2.0 * rng.random(), -2.0 + 4.0 * rng.random())
        worst1 = max(worst1, check_rule_consistency(g, d1, 1, s, 1e-7))
        worst2 = max(worst2, check_rule_consistency(g, d2, 2, s, 1e-7,
                                                    bd=bd2))
    tp = TransformPair(pos=lambda s: 1.0 / s, neg=lambda cs: 1.0 / cs)
    bda = BoundaryData((0.3 + 0.1j,), (0.2 - 0.4j,))
    bdb = BoundaryData((-0.7,), (0.9,))
    bdab = BoundaryData((0.3 + 0.1j, -0.7), (0.2 - 0.4j, 0.9))
    twice = derivative_rule(derivative_rule(tp, bda, 1), bdb, 1)
    direct = derivative_rule(tp, bdab, 2)
    worst_c = 0.0
    for _ in range(10):
        s = complex(1.0 + 2.0 * rng.random(), -3.0 + 6.0 * rng.random())
        worst_c = max(worst_c, abs(twice.combined(s) - direct.combined(s)))
    return _finish("derivative_rules", [
        Part("n=1 vs quadrature", worst1, 1e-7),
        Part("n=2 vs quadrature", worst2, 1e-7),
        Part("compose(1,1) vs 2", worst_c, 1e-12),
    ])


HEAT_SAMPLE_POINTS = ((0.7, 0.3), (-0.7, 0.3), (1.2, 0.5), (-1.2, 0.5),
                      (0.5, 0.25), (1.0, 0.5))


def criterion_heat_application() -> CriterionResult:
    """Boundary value, finite-difference residual with second-order
    step dependence, and the transformed-equation identity."""
    parts = [Part("u(0,t)=0",
                  max(abs(heat_solution(0.0, t)) for t in (0.1, 1.0)), 0.0)]
    worst_res = 0.0
    worst_ratio_gap = 0.0
    for x, t in HEAT_SAMPLE_POINTS:
        r1 = heat_residual(x, t, 1e-3)
        r2 = heat_residual(x, t, 5e-4)
        worst_res = max(worst_res, r1)
        worst_ratio_gap = max(worst_ratio_gap, abs(r1 / r2 - 4.0))
    parts.append(Part("PDE residual at h=1e-3", worst_res, 1e-5))
    parts.append(Part("refinement ratio near 4", worst_ratio_gap, 0.5))
    worst_id = max(heat_transform_identity(1.0 + 0j, 0.5, 1e-4),
                   heat_transform_identity(2.0 + 1j, 0.25, 1e-4))
    parts.append(Part("transform identity", worst_id, 1e-4))
    return _finish("heat_application", parts)


def criterion_ode_application() -> CriterionResult:
    """Exact residual on a 201-point grid, continuity of y and y' at
    zero, transform-domain closed forms, and the end-to-end split
    inversion of the displayed rational transform."""
    grid = np.linspace(-10.0, 10.0, 201)
    worst_res = max(ode_residual(float(t)) for t in grid)
    (y0p, yp0p), (y0m, yp0m) = ode_boundary_values()
    cont = max(abs(y0p - y0m), abs(yp0p - yp0m), abs(y0p))
    worst_tr = max(ode_transform_check(2.0 + 0j, 1e-7),
                   ode_transform_check(3.0 + 1j, 1e-7))
    ts = (0.5, -0.5, 1.0, -1.0, 3.0, -3.0)
    values = sl_inverse_split(parse_transform(ODE_TRANSFORM_TEXT), ts)
    worst_inv = max(abs(v - ode_solution(t))
                    for v, t in zip(values.tolist(), ts))
    return _finish("ode_application", [
        Part("residual on [-10,10]", worst_res, 1e-12),
        Part("continuity at 0", cont, 1e-12),
        Part("transform closed forms", worst_tr, 1e-7),
        Part("end-to-end split inversion", worst_inv, 1e-9),
    ])


def criterion_determinism() -> CriterionResult:
    """The CSV-producing commands serialize to identical bytes when run
    twice.  (Cross-process and cross-thread-count checks live in the
    acceptance test suite, which reruns the whole verify command.)"""
    from . import cli

    mismatches = 0
    runs = [
        lambda: cli.forward_csv("sign", 1.0, 1.0,
                                cli.grid_points(-1.0, 1.0, 2), 1e-8),
        lambda: cli.invert_csv("1/s^2 - 1/cs^2",
                               cli.grid_points(-3.0, 3.0, 6)),
        lambda: cli.invert_numeric_csv("1/s - 1/cs", 1.0, 1.0, 1.0,
                                       1000.0, 1e-6),
    ]
    for make in runs:
        if make() != make():
            mismatches += 1
    return _finish("determinism",
                   [Part("byte-identical reruns", float(mismatches), 0.0)])


CRITERIA = (
    criterion_example1_grid,
    criterion_examples_2_3_grid,
    criterion_reductions,
    criterion_kernel_witness,
    criterion_split_inversion,
    criterion_numeric_inversion,
    criterion_derivative_rules,
    criterion_heat_application,
    criterion_ode_application,
    criterion_determinism,
)


def run_all():
    return [fn() for fn in CRITERIA]


def report_json(results=None) -> str:
    if results is None:
        results = run_all()
    doc = {
        "criteria": [r.as_entry() for r in results],
        "all_pass": all(r.passed for r in results),
    }
    return json.dumps(doc, indent=2) + "\n"
