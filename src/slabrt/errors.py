"""Exception types shared across the solver."""


class SlabRTError(Exception):
    """Base class for all solver errors."""


class GridTooSmall(SlabRTError):
    """Collocation grid needs at least 16 nodes."""


class NonPositiveDensity(SlabRTError):
    """Steady density must be strictly positive on [0, 1]."""


class ZeroFrequency(SlabRTError):
    """Quadratic forms are only defined for nonzero horizontal frequency."""


class EigensolveFailure(SlabRTError):
    """Matrix pencil could not be reduced or solved."""


class ConvergenceFailure(SlabRTError):
    """A root finder exceeded its iteration cap."""


class NoRTPoint(SlabRTError):
    """Density derivative is nowhere positive; no destabilizing test function."""


class NoSignChange(UserWarning):
    """Gm is not positive definite, so the threshold rate frak_S is infinite."""


class EmptyBand(SlabRTError):
    """No lattice frequency falls inside the admissible band."""


class SingularStep(SlabRTError):
    """Implicit time-step matrix is numerically singular."""


class InsufficientGrowth(SlabRTError):
    """Amplitude history does not span an e-fold of change."""


class NonPositiveHorizon(SlabRTError):
    """Escape-time logarithm argument is at or below 1."""
