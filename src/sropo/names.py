"""Names the scalar path shares with the array modules, free of numpy: the
output normalisations, the G2 tiers, the 17-digit float and header-value
formats, the integer check of a mode count and the immutable record every
value type is built on.
"""

import operator
from enum import Enum


class Normalization(str, Enum):
    PEAK_UNITY = "peak_unity"
    UNIT_INTEGRAL = "unit_integral"
    UNIT_AT_ZERO = "unit_at_zero"


class G2Tier(str, Enum):
    EXACT = "exact"
    SERIES = "series"
    COMPACT = "compact"
    AVERAGED = "averaged"


def format_float(value: float) -> str:
    """17-significant-digit decimal form; round-trips any float64 exactly."""
    return format(float(value), ".17g")


def format_value(value) -> str:
    """A header or summary value as text: a float by ``format_float``, else ``str``."""
    return format_float(value) if isinstance(value, float) else str(value)


def as_integer(value, name: str) -> int:
    """``value`` as a Python int; a bool or a non-integer (``operator.index``
    fails) is a ValueError naming the argument ``name``."""
    try:
        if not isinstance(value, bool):
            return int(operator.index(value))
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
