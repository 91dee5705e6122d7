"""Names the scalar path shares with the array modules, free of numpy: the
output normalisations, the G2 tiers, the scenario fields each derived scale
comes from, the 17-digit float and header-value formats, the clipped form of a
value in a refusal (``shown``), the immutable record every value type is built
on, and the two rules, ``as_count`` and ``as_real``, that check each count and
real value where it enters the library or the scenario, and each real value the
library derives: a refusal is a ScenarioValidationError naming the argument and
its flag (``m_max (--m-max) must be at least 0, got -1``), the scenario field,
or the ``inputs`` a derived value comes from (``...: derived fsr must be ...``).
"""

import math
import operator
import sys
from enum import Enum

from .errors import ScenarioValidationError


class Normalization(str, Enum):
    PEAK_UNITY = "peak_unity"
    UNIT_INTEGRAL = "unit_integral"
    UNIT_AT_ZERO = "unit_at_zero"


class G2Tier(str, Enum):
    EXACT = "exact"
    SERIES = "series"
    COMPACT = "compact"
    AVERAGED = "averaged"


# output.normalization: the two a spectrum supports (no other command reads it)
OUTPUT_NORMALIZATIONS = (Normalization.PEAK_UNITY.value, Normalization.UNIT_INTEGRAL.value)
# The scenario fields each derived value comes from; fsr = 2*pi/T comes from T's.
_TAU0 = ("crystal.length_l", "crystal.dispersion_signal", "crystal.dispersion_idler")
FIELDS = {
    "tau0": _TAU0,
    "T": ("crystal.length_l", "crystal.dispersion_signal", "cavity.resonator_length_Lr"),
    "gamma": ("cavity.loss_rate_gamma",),
    "kappa": ("crystal.chi", "crystal.cross_section_A", "pump.field_amplitude_EP", *_TAU0),
    "M": (*_TAU0, "cavity.resonator_length_Lr"),  # a default mode count: tau0's and T's
    "mode_number": ("crystal.length_l", "crystal.dispersion_signal", "frequencies.omega_S"),
}
# The regime ratios, in ``cavity.check_regime``'s order, and the scales of each.
REGIME_RATIOS = {"kappa/gamma": ("kappa", "gamma"), "gamma/fsr": ("gamma", "T"),
                 "fsr*|tau0|": ("tau0", "T")}


def inputs(*names) -> str:
    """The fields of each scale in ``names`` (a ``FIELDS`` key), else the name
    itself (a flag), each once, in first-seen order, the fields first."""
    ordered = sorted(names, key=lambda name: name.startswith("-"))
    return ", ".join(dict.fromkeys(f for name in ordered for f in FIELDS.get(name, (name,))))


def format_float(value: float) -> str:
    """17-significant-digit decimal form; round-trips any float64 exactly."""
    return format(float(value), ".17g")


def format_value(value) -> str:
    """A header or summary value as text: a float by ``format_float``, else ``str``."""
    return format_float(value) if isinstance(value, float) else str(value)


SHOWN_CHARACTERS = 100  # the most of a value's repr that a refusal prints


def shown(value) -> str:
    """``repr(value)`` as a refusal prints it: cut after ``SHOWN_CHARACTERS``
    characters, with its full length named."""
    text = repr(value)
    if len(text) <= SHOWN_CHARACTERS:
        return text
    return f"{text[:SHOWN_CHARACTERS]}... ({len(text)} characters)"


def as_count(value, where: str, minimum: int) -> int:
    """``value`` as a Python int of at least ``minimum``.  A bool, a non-integer
    (``operator.index`` fails) or an integer past the double range is refused."""
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ScenarioValidationError(f"{where} must be an integer, got {shown(value)}") from None
    if abs(count) > sys.float_info.max:  # shown by size: repr fails past 4300 digits
        raise ScenarioValidationError(
            f"{where} must be within the double range, got a {count.bit_length()}-bit integer")
    if count < minimum:
        raise ScenarioValidationError(f"{where} must be at least {minimum}, got {count}")
    return count


def as_real(value, where: str, low: float, strict: bool = False) -> float:
    """``value`` as a finite Python float of at least ``low`` (above it when
    ``strict``).  A bool, a string or a non-number is refused; a numpy scalar
    counts by its dtype, so ``numpy.True_`` is refused and ``float32`` kept."""
    kind = getattr(getattr(value, "dtype", None), "kind", "f")
    try:
        if isinstance(value, (bool, str, bytes)) or kind not in ("i", "u", "f"):
            raise TypeError
        number = float(value)
    except (TypeError, ValueError):
        raise ScenarioValidationError(
            f"{where} must be a real number, got {shown(value)}") from None
    except OverflowError:
        raise ScenarioValidationError(
            f"{where} must be finite, got an integer past the double range") from None
    if not math.isfinite(number):
        raise ScenarioValidationError(f"{where} must be finite, got {number!r}")
    if not (number > low if strict else number >= low):
        bound = "above" if strict else "at least"
        raise ScenarioValidationError(f"{where} must be {bound} {low:g}, got {number!r}")
    return number


class Record:
    """Immutable value type: its fields are its class annotations, in order (as
    in ``vars(record)``), and a class attribute of a field's name is its default.
    The constructor takes fields by position or keyword, then runs
    ``__post_init__``, which may convert a field with ``object.__setattr__``.
    Records compare and hash by value; a class declared ``eq=False`` (one
    holding arrays) by identity.  Nothing is generated per class at import.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        names = self._fields
        given = {**dict(zip(names, args)), **kwargs}  # short: too many, or one twice
        values = {**self._defaults, **given}
        if len(given) != len(args) + len(kwargs) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes the fields ({', '.join(names)}), "
                            f"each once; got {len(args)} positional and keywords {sorted(kwargs)}")
        self.__dict__.update((name, values[name]) for name in names)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with ``changes`` to some fields, validated as a new record."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})
