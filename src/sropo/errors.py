"""Exception types used throughout the package."""


class SropoError(Exception):
    """Base class of the package's errors; ``exit_code`` is sropo's exit status."""
    exit_code = 2


class OutOfRangeError(SropoError, ValueError):
    """Frequency outside a dispersion model's validity range, or where it gives no index."""


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
    """Scenario file cannot be read or is not well-formed JSON."""
    exit_code = 1


class ScenarioValidationError(SropoError, ValueError):
    """A scenario field or an argument out of its range; names the field or flag."""
    exit_code = 1
