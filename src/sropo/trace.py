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


ROW_CHUNK = 4096  # rows a writer formats at a time: its memory stays O(ROW_CHUNK)


def _row_chunks(columns: Sequence[np.ndarray]):
    """The table's rows, ``ROW_CHUNK`` at a time, as 2-d arrays; columns of
    unequal length are refused at the call, before any file is opened."""
    size = len(columns[0])
    if any(len(col) != size for col in columns):
        raise ValueError("columns must have the same length")
    return (np.column_stack([col[start : start + ROW_CHUNK] for col in columns])
            for start in range(0, size, ROW_CHUNK))


def write_table_csv(
    path: str | Path,
    comments: Sequence[str],
    column_names: Sequence[str],
    columns: Sequence[np.ndarray],
) -> None:
    if len(column_names) != len(columns):
        raise ValueError("one name per column required")
    # "%.17g" formats a float exactly as names.format_float does.
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    chunks = _row_chunks(columns)
    with open(path, "w", encoding="ascii") as out:
        out.writelines(f"# {c}\n" for c in comments)
        out.write(",".join(column_names) + "\n")
        for rows in chunks:
            out.write("".join(row_format % tuple(row) for row in rows.tolist()))


def write_table_json(
    path: str | Path,
    meta: Mapping[str, object],
    column_names: Sequence[str],
    columns: Sequence[np.ndarray],
) -> None:
    """The table as {"columns", "data", "meta"}, as ``json.dumps(indent=1,
    sort_keys=True)`` writes it: the rows are dumped a chunk at a time, one
    indent level deeper, into the ``"data"`` array of the dumped header.  A
    non-finite value is refused before the file is opened."""
    payload = {"meta": dict(meta), "columns": list(column_names), "data": []}
    head, tail = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False).split(
        '\n "data": []')
    if not all(np.isfinite(rows).all() for rows in _row_chunks(columns)):
        raise ValueError("Out of range float values are not JSON compliant")
    with open(path, "w", encoding="ascii") as out:
        out.write(head + '\n "data": [')
        sep, close = "\n", "]"
        for rows in _row_chunks(columns):
            text = json.dumps(rows.astype(float, copy=False).tolist(), indent=1)
            # text is "[\n [\n  1.0, ...\n ]\n]": write its rows without the
            # outer brackets, one space deeper.
            out.write(sep + " " + text[2:-2].replace("\n", "\n "))
            sep, close = ",\n", "\n ]"
        out.write(close + tail + "\n")
