"""Exception types shared across the package."""


class ZerocorrError(Exception):
    """Base class for all numeric failures raised by this package."""


class NotPositiveDefinite(ZerocorrError):
    """A matrix required to be Hermitian positive definite is not."""


class NearSingular(ZerocorrError):
    """A linear system is too ill-conditioned to solve reliably.

    For correlation queries this typically means two evaluation points are
    nearly coincident.
    """


class SizeLimitExceeded(ZerocorrError):
    """An exact combinatorial evaluation was requested above its size cap."""


class DomainError(ZerocorrError, ValueError):
    """Arguments are outside the domain where a formula is defined."""


class MissingSubset(ZerocorrError):
    """A correlation value for a required point subset was not supplied."""


class RootFindingFailed(ZerocorrError):
    """Polishing of polynomial roots did not converge."""


class WindowTooLarge(ZerocorrError):
    """The requested scaled observation window exceeds its validity range."""


class InsufficientDegree(ZerocorrError):
    """The polynomial degree is too small for the requested window."""
