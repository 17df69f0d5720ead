"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class GridError(ValueError):
    """Invalid grid parameters, or objects from mismatched grids combined."""


class KernelEvaluationError(RuntimeError):
    """Kernel evaluation produced a non-finite value; carries the offending point."""

    def __init__(self, message, s=None, t=None):
        super().__init__(message)
        self.s = s
        self.t = t


class EigenSolverError(RuntimeError):
    """An eigenvalue or singular-value solve failed, or was given a matrix it
    cannot take (not square, not symmetric)."""


class QuadratureError(RuntimeError):
    """Quadrature did not reach the requested accuracy; carries the error estimate."""

    def __init__(self, message, error_estimate=None):
        super().__init__(message)
        self.error_estimate = error_estimate


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 2)."""
