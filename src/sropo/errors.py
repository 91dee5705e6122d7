"""Exception types used throughout the package."""


class SropoError(Exception):
    """Base class for all package-specific errors."""


class OutOfRangeError(SropoError):
    """Frequency outside the validity range of a dispersion model."""


class NoSignChangeError(SropoError):
    """Phase mismatch does not change sign on the supplied bracket."""


class DegenerateDispersionError(SropoError):
    """Phase mismatch vanishes over the whole bracket; the split is non-unique."""


class NonConvergenceError(SropoError):
    """An adaptive numerical procedure cannot reach its target accuracy."""


class DegenerateGroupVelocityError(SropoError):
    """Signal and idler group velocities coincide (zero transit-time difference)."""


class GridTooCoarseError(SropoError):
    """Requested sampling grid cannot resolve the structure being computed."""


class ResolutionTooFineError(SropoError):
    """Detector resolution too close to the intrinsic peak width for averaging."""


class ScenarioParseError(SropoError):
    """Scenario file is not well-formed."""


class ScenarioValidationError(SropoError, ValueError):
    """A scenario field or an argument out of its range; names the field or flag."""
