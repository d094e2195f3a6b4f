"""Exception types shared across the package."""


class EigenboundError(Exception):
    """Base class for all library errors."""


class ConfigError(EigenboundError):
    """Invalid run configuration or potential definition file."""


class DivergentWeightedNorm(EigenboundError):
    """The e^{eps|x|} weight defeats the potential's decay; B(eps) diverges."""


class QuadratureNotConverged(EigenboundError):
    """Adaptive refinement stalled above the requested tolerance."""


class HypothesisViolated(EigenboundError):
    """Declared decay envelope fails at a sample point."""

    def __init__(self, message, point=None, ratio=None):
        super().__init__(message)
        self.point = point
        self.ratio = ratio


class WrongDecayClass(EigenboundError):
    """Operation requires the other decay class."""


class ModeMismatch(EigenboundError):
    """Bound mode does not match the potential's decay class."""


class DegenerateK(EigenboundError):
    """Kernel bound diverges at k = 0."""


class InadmissibleT(EigenboundError):
    """Vertical shift T violates the theorem's lower threshold."""


class InadmissibleRho(EigenboundError):
    """Jensen radius rho outside [sqrt(T^2+R), T + eps/4]."""


class DivergentB(EigenboundError):
    """Weighted L1 norm is infinite; bound requires B < infinity."""


class NegativeLogArgument(EigenboundError):
    """2 - f(...) <= 0; only reachable when admissibility checks were bypassed."""


class CoincidentPoints(EigenboundError):
    """Free resolvent kernel evaluated at x = y."""


class NonpositiveImK(EigenboundError):
    """Operation requires Im k > 0."""


class ContinuationOutOfStrip(EigenboundError):
    """k = 0, below the continuation strip Im k > -eps/4, or where the kernel leaves the double range."""


class TooManyTerms(EigenboundError):
    """Fredholm series term order above the supported limit."""


class ZeroOnContour(EigenboundError):
    """Function modulus fell below the safety floor on a winding contour."""


class NonConvergent(EigenboundError):
    """An iteration exceeded its limit or met a non-finite value: phase
    tracking refinement, or an extended-precision series' term budget."""


class CenterIsZero(EigenboundError):
    """Jensen center value vanishes; the formula needs fn(center) != 0."""


class StiffIntegration(EigenboundError):
    """Radial ODE integrator failed step control."""


class ChannelTruncationUnsafe(EigenboundError):
    """Requested l_max drops channels the skip criterion cannot exclude."""
