"""Exception types shared across the package.

Every numerical routine that can fail in a structured way raises one of
these instead of returning sentinel values, so callers (and the CLI) can
map failures onto exit codes deterministically.
"""


class BergprojError(Exception):
    """Base class for all package-specific errors."""


class NonConvergence(BergprojError):
    """A root-finding or iterative step failed to meet its residual target.

    Carries the offending input so the failure is reproducible.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PoleProximity(BergprojError):
    """A kernel was evaluated too close to its singular set."""


class OverflowInIntegrand(BergprojError):
    """An integrand produced non-finite values at quadrature nodes."""


class QuadratureNotConverged(BergprojError):
    """A reported integral changed too much under rule refinement."""

    def __init__(self, message, value=None, refined=None):
        super().__init__(message)
        self.value = value
        self.refined = refined


class NonIntegrable(BergprojError):
    """A weight average diverged under grid refinement."""


class EmptyRegion(BergprojError):
    """A parameter combination produced an empty integration region."""


class AmbiguousFit(BergprojError):
    """Model selection could not separate the top two candidate fits."""


class InterpolationInconsistent(BergprojError):
    """An exactly interpolated polynomial failed its out-of-sample checks."""


class InvalidRule(BergprojError):
    """A quadrature rule broke an invariant when it was built: a node that
    is not finite or lies outside the closed unit disc, or a weight that
    is not positive."""
