"""Exception types shared across the package."""


class SymLapError(Exception):
    """Base class for every error raised by symlap."""


class CatalogError(SymLapError, ValueError):
    """Unknown signal name requested from the catalog."""


class DivergenceError(SymLapError):
    """A half-line integral does not converge at the requested damping."""


class AccuracyError(SymLapError):
    """The refinement budget ran out before the tolerance was met.

    Carries the best estimate so callers can inspect how far the
    integrator got instead of silently receiving a degraded value.
    """

    def __init__(self, message, value=None, abs_error_estimate=None):
        super().__init__(message)
        self.value = value
        self.abs_error_estimate = abs_error_estimate


class ExprError(SymLapError, ValueError):
    """Problem with a transform-domain expression.

    ``position`` is the 0-based offset into the source text, or None
    when the problem is not tied to a single location.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ParseError(ExprError):
    """Source text does not conform to the expression grammar."""


class SplitError(ExprError):
    """Expression mixes s and cs in a way that cannot be separated."""


class PropernessError(SymLapError, ValueError):
    """Rational function is not strictly proper, so the inverse-transform
    table does not apply."""


class PoleError(SymLapError, ZeroDivisionError):
    """Rational function evaluated at (or numerically on top of) a pole."""


class ExpOverflowError(SymLapError, OverflowError):
    """A table term exp(pole*t) would overflow at the requested time."""


class RootFindingError(SymLapError):
    """Simultaneous root iteration failed to converge."""
