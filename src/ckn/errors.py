"""Exception types shared across the solver modules."""


class CknError(Exception):
    """Base class for solver-specific failures."""


class NonConvergenceError(CknError):
    """An iterative solve exhausted its budget without meeting tolerance."""


class NormalizationError(CknError):
    """An input potential missed its required unit q-norm."""


class MonotonicityError(CknError):
    """The fixed-point eigenvalue history rose or broke its lower bound."""


class PositivityError(CknError):
    """A computed ground state violated sign-definiteness."""


class SymmetricFallbackError(CknError):
    """The branch start returned to the symmetric solution (mu0 <= mu_FS)."""


class StepFailureError(CknError):
    """Branch continuation could not advance even at the minimum step.

    `branch` holds the points collected before the stall.
    """

    def __init__(self, message, branch):
        super().__init__(message)
        self.branch = branch


class AmbiguousCrossingError(CknError):
    """Curve intersection was not unique; all candidates are attached."""

    def __init__(self, message, crossings):
        super().__init__(message)
        self.crossings = crossings


class ConfigError(CknError):
    """Invalid run configuration."""


class CheckpointError(CknError):
    """A field checkpoint was missing, corrupt, or mismatched."""
