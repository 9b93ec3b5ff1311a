"""Exception types shared across the package."""


class DomainError(ValueError):
    """Parameter or argument for which an operation is not defined."""


class SolverError(RuntimeError):
    """A numerical stage failed (eigensolve, linear solve, root finding, quadrature)."""

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage


class TruncationError(RuntimeError):
    """Requested noise level would need more eigenpairs than are available."""
