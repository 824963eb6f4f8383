"""Exception types shared across the package."""


class ElspecError(Exception):
    """Base class for every package-specific error."""


class InputError(ElspecError, ValueError):
    """Malformed user input: series files, plans, argument combinations."""


class InvalidModelError(ElspecError, ValueError):
    """Parameter vector violates stationarity/invertibility, or sigma2 is not
    positive and finite."""


class DegenerateInputError(ElspecError, ValueError):
    """Input carries no usable variation (e.g. a zero-variance psi column)."""


class NoSolutionError(ElspecError, RuntimeError):
    """The EL inner problem has no solution: zero lies outside the convex
    hull of the estimating-function rows, so no weight vector satisfies the
    moment constraint."""


class ConvergenceError(ElspecError, RuntimeError):
    """An iterative solve stopped before reaching its tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class SingularMatrixError(ElspecError, RuntimeError):
    """A matrix required to be invertible is numerically singular."""

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond
