"""Exception types used throughout the package."""


class SropoError(Exception):
    """Base class of the package's errors; ``exit_code`` is sropo's exit status.
    ``sources``, scenario field paths and library argument names, fill ``text`` at
    ``{}`` (``str``): a derived value's inputs or, if ``own``, the one argument or
    field refused for its own value or absence.  Only ``cli`` spells their flags."""
    exit_code = 2

    def __init__(self, text: str = "", sources=(), own: bool = False):
        self.text, self.sources, self.own = text, tuple(sources), own
        super().__init__(text.replace("{}", ", ".join(self.sources), 1) if sources else text)


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
    """A scenario field or an argument out of its range; names the field or argument."""
    exit_code = 1

    @classmethod
    def of(cls, where: str, rule: str, sources=()) -> "ScenarioValidationError":
        """``where`` (argument or field) refused by ``rule``, or ``sources: where rule``."""
        return (cls(f"{{}}: {where} {rule}", sources) if sources
                else cls(f"{{}} {rule}", (where,), own=True))
