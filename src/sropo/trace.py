"""Sampled result traces and their on-disk CSV/JSON round-trip format.

Files carry ``#``-prefixed header comment lines followed by a column-name row
and comma-separated numeric rows.  Values are printed with 17 significant
digits so a re-read reproduces every float bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .names import Normalization
from .numerics import ensure_uniform_axis


class TraceKind(str, Enum):
    SIGNAL_SPECTRUM = "signal_spectrum"
    IDLER_SPECTRUM = "idler_spectrum"
    G1 = "g1"
    G2 = "g2"


@dataclass(frozen=True)
class TraceMeta:
    kind: TraceKind
    normalization: Normalization
    extra: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class Trace:
    """Function of one variable on a uniform grid.

    Real values must be non-negative; complex values may have any phase.
    """

    axis: np.ndarray
    values: np.ndarray
    meta: TraceMeta
    axis_checked: InitVar[bool] = False  # True: axis has passed ensure_uniform_axis

    def __post_init__(self, axis_checked):
        axis = np.asarray(self.axis, dtype=float)
        is_complex = np.iscomplexobj(self.values)
        values = np.asarray(self.values, dtype=complex if is_complex else float)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "values", values)
        if not axis_checked:
            ensure_uniform_axis(axis, "trace axis")
        if values.shape != axis.shape:
            raise ValueError("values must have the same shape as axis")
        if not np.all(np.isfinite(values)):
            raise ValueError("trace values must be finite")
        if not is_complex and np.any(values < 0):
            raise ValueError("trace values must be non-negative")

    @property
    def spacing(self) -> float:
        return float(self.axis[-1] - self.axis[0]) / (self.axis.size - 1)


def write_table_csv(
    path: str | Path,
    comments: Sequence[str],
    column_names: Sequence[str],
    columns: Sequence[np.ndarray],
) -> None:
    if len(column_names) != len(columns):
        raise ValueError("one name per column required")
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(column_names))
    # "%.17g" formats a float exactly as names.format_float does.
    row_format = ",".join(["%.17g"] * len(columns))
    rows = np.column_stack(columns).tolist()
    lines.extend(row_format % tuple(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def write_table_json(
    path: str | Path,
    meta: Mapping[str, object],
    column_names: Sequence[str],
    columns: Sequence[np.ndarray],
) -> None:
    payload = {
        "meta": dict(meta),
        "columns": list(column_names),
        "data": [[float(col[i]) for col in columns] for i in range(len(columns[0]))],
    }
    text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="ascii")
