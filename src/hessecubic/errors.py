"""Exception hierarchy shared by all modules."""


class HesseCubicError(Exception):
    """Base class for every error raised by this package."""


class NonconvergentSeries(HesseCubicError):
    """The theta series cannot converge (Im tau <= 0) or needs too many terms."""


class ThetaOverflow(HesseCubicError):
    """A theta series overflows double precision; `order` is the lowest such order."""

    def __init__(self, message: str, order: int = 0):
        super().__init__(message)
        self.order = order


class OrderTooHigh(HesseCubicError):
    """Requested derivative order exceeds the double-precision guard (12)."""


class DegenerateProbe(HesseCubicError):
    """No probe point for the modulus has |th0*th1*th2| / max|th_i|^3 above the cut."""


class InconsistentPsi(HesseCubicError):
    """The modulus disagrees across probe points (wrong theta basis)."""


class SingularCurve(HesseCubicError, ValueError):
    """The modulus satisfies psi^3 = 1: the Hesse cubic is singular."""


class AllZero(HesseCubicError):
    """All three homogeneous coordinates are zero."""


class DenominatorZero(HesseCubicError):
    """A construction divided by a vanishing coordinate (point in E[3])."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class NotSquare(HesseCubicError):
    """Determinant fit of non-square matrices."""


class SizeMismatch(HesseCubicError):
    """Matrix factorization partners of incompatible shape."""


class ZeroReference(HesseCubicError):
    """Scalar fit against a reference that vanishes at every sample."""


class CalibrationFailed(HesseCubicError):
    """Per-offset scalars could not be fitted below tolerance."""


class DegenerateOrbit(HesseCubicError):
    """Two points (-2)^l a and (-2)^m a (l < m) of the doubling orbit coincide."""

    def __init__(self, message: str, l: int, m: int):
        super().__init__(message)
        self.l = l
        self.m = m


class IllConditioned(HesseCubicError):
    """A least-squares system lost rank."""


class SamplingFailed(HesseCubicError):
    """Rejection sampling found too few acceptable points within its draw budget."""
