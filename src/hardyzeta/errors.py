"""Exception types shared across the numerics modules."""


class NumericsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(NumericsError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class PoleError(DomainError):
    """Evaluation was requested exactly at (or too close to) a pole."""


class EvaluationError(NumericsError):
    """A callback failed or returned a value that is not a finite
    number; carries the offending point."""

    def __init__(self, message: str, point: float | complex | None = None):
        super().__init__(message)
        self.point = point


class DependenceError(NumericsError):
    """Orthogonalization hit a numerically dependent function."""

    def __init__(self, index: int, residual: float, tol: float):
        super().__init__(
            f"function #{index} is numerically dependent on its predecessors "
            f"(relative residual {residual:.3e} < tol {tol:.3e})"
        )
        self.index = index
        self.residual = residual
        self.tol = tol


class BracketError(NumericsError):
    """A root bracket does not (or no longer does) straddle a sign change."""


class ContourError(NumericsError):
    """A zero-counting contour passes too close to a zero of the integrand."""
