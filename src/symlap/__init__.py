"""symlap: numerics for the symmetric Laplace transform.

The transform generalizes the Fourier and Laplace transforms by damping
the two half-lines independently:

    SL(f)(x1, x2, y) = integral over R of
        exp((-x1*H(t) + x2*H(-t) - i*y)*t) * f(t) dt

It reduces to the one-sided Laplace transform when f vanishes on t < 0
and to the Fourier transform at x1 = x2 = 0.  The package provides the
forward transform over a signal catalog, numeric Fourier-integral
inversion, exact split inversion of rational transforms, the
derivative-image rules, and two fully verified worked problems (a heat
equation on the line and a second-order ODE with two-sided forcing).

Everything is pure and deterministic: immutable value types, seedless
code paths, fixed summation order in the quadrature engine.
"""

from .applications import (
    erf,
    heat_residual,
    heat_solution,
    heat_transform_identity,
    heat_transform_pair,
    ode_boundary_values,
    ode_derivative1,
    ode_derivative2,
    ode_residual,
    ode_solution,
    ode_transform_check,
)
from .core import (
    CATALOG_NAMES,
    ExponentialOrderBound,
    PiecewiseSignal,
    SLPoint,
    TransformSample,
    catalog_signal,
)
from .errors import (
    AccuracyError,
    CatalogError,
    DivergenceError,
    ExpOverflowError,
    ExprError,
    ParseError,
    PoleError,
    PropernessError,
    RootFindingError,
    SplitError,
    SymLapError,
)
from .expr import (
    Polynomial,
    RationalFunction,
    SplitTransform,
    evaluate_rational,
    parse_transform,
    polynomial_roots,
)
from .forward import (
    fourier_reduction,
    sl_forward,
    sl_forward_grid,
    sl_forward_symmetric,
    sl_forward_values,
)
from .inversion import (
    PartialFractionTerm,
    inverse_laplace_rational,
    partial_fractions,
    sl_inverse_numeric,
    sl_inverse_numeric_pair,
    sl_inverse_split,
)
from .quadrature import (
    QuadratureResult,
    finite_oscillatory_integral,
    truncation_point,
)
from .rules import (
    BoundaryData,
    TransformPair,
    check_rule_consistency,
    derivative_rule,
    transform_pair_of,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BoundaryData",
    "CATALOG_NAMES",
    "CatalogError",
    "DivergenceError",
    "ExpOverflowError",
    "ExponentialOrderBound",
    "ExprError",
    "ParseError",
    "PartialFractionTerm",
    "PiecewiseSignal",
    "PoleError",
    "Polynomial",
    "PropernessError",
    "QuadratureResult",
    "RationalFunction",
    "RootFindingError",
    "SLPoint",
    "SplitError",
    "SplitTransform",
    "SymLapError",
    "TransformPair",
    "TransformSample",
    "catalog_signal",
    "check_rule_consistency",
    "derivative_rule",
    "erf",
    "evaluate_rational",
    "finite_oscillatory_integral",
    "fourier_reduction",
    "heat_residual",
    "heat_solution",
    "heat_transform_identity",
    "heat_transform_pair",
    "inverse_laplace_rational",
    "ode_boundary_values",
    "ode_derivative1",
    "ode_derivative2",
    "ode_residual",
    "ode_solution",
    "ode_transform_check",
    "parse_transform",
    "partial_fractions",
    "polynomial_roots",
    "sl_forward",
    "sl_forward_grid",
    "sl_forward_symmetric",
    "sl_forward_values",
    "sl_inverse_numeric",
    "sl_inverse_numeric_pair",
    "sl_inverse_split",
    "transform_pair_of",
    "truncation_point",
]
