"""Sampled result traces and their on-disk CSV/JSON round-trip format.

A trace is written as the table ``trace_table`` makes of it.  Both writers
take a table's header mapping: CSV tables carry it as ``# key = value`` lines
(JSON tables as ``meta``), then a column-name row and comma-separated rows of
17-significant-digit values, so a re-read reproduces every float bit-exactly.
``_format_rows`` prints the rows of every format, CSV, JSON and the SVG
polyline, from a printf row template.
"""

from __future__ import annotations

import json
import tempfile
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .names import Normalization, Record, format_value
from .numerics import ensure_uniform_axis


class TraceKind(str, Enum):
    SIGNAL_SPECTRUM = "signal_spectrum"
    IDLER_SPECTRUM = "idler_spectrum"
    G1 = "g1"
    G2 = "g2"


class TraceMeta(Record):
    kind: TraceKind
    normalization: Normalization
    extra: Mapping[str, object] | None = None  # None: a new empty dict

    def __post_init__(self):
        if self.extra is None:
            object.__setattr__(self, "extra", {})


class Trace(Record, eq=False):
    """Function of one variable on a uniform grid.

    Real values must be non-negative; complex values may have any phase.
    """

    axis: np.ndarray
    values: np.ndarray
    meta: TraceMeta

    def __init__(self, axis, values, meta, axis_checked: bool = False):
        """``axis_checked``: True when ``axis`` has passed ensure_uniform_axis."""
        axis = np.asarray(axis, dtype=float)
        is_complex = np.iscomplexobj(values)
        values = np.asarray(values, dtype=complex if is_complex else float)
        super().__init__(axis, values, meta)
        if not axis_checked:
            ensure_uniform_axis(axis, "trace axis")
        if values.shape != axis.shape:
            raise ValueError("values must have the same shape as axis")
        if not np.all(np.isfinite(values)):
            raise ValueError("trace values must be finite")
        if not is_complex and np.any(values < 0):
            raise ValueError("trace values must be non-negative")


def trace_table(trace: Trace):
    """The ``(meta, names, columns)`` table of ``trace``: the header keys kind,
    normalization and the meta's extra; the axis column (``tau_seconds`` for g1
    and G2, ``detuning_rad_per_s`` for a spectrum), then ``value``
    (``g2_value`` for G2), or ``re_value`` and ``im_value`` when complex."""
    meta = {"kind": trace.meta.kind.value, "normalization": trace.meta.normalization.value,
            **trace.meta.extra}
    delay = trace.meta.kind in (TraceKind.G1, TraceKind.G2)
    axis_name = "tau_seconds" if delay else "detuning_rad_per_s"
    if trace.values.dtype.kind == "c":
        return meta, [axis_name, "re_value", "im_value"], [
            trace.axis, trace.values.real, trace.values.imag]
    value = "g2_value" if trace.meta.kind is TraceKind.G2 else "value"
    return meta, [axis_name, value], [trace.axis, trace.values]


def _check_header(meta: Mapping[str, object]) -> None:
    """Refuse a header value that is not a Python int, float, str or bool (a
    numpy scalar, say), naming its key: both writers then write it alike."""
    for key, value in meta.items():
        if type(value) not in (int, float, str, bool):
            raise ValueError(f"header value {key} = {value!r} is a {type(value).__name__}, "
                             "not an int, float, str or bool")


ROW_CHUNK = 4096  # rows a writer formats at a time: its memory stays O(ROW_CHUNK)


def _format_rows(columns: Sequence[np.ndarray], row: str, sep: str, convert=None):
    """The rows as text, ``ROW_CHUNK`` at a time: the printf template ``row``
    (one field per column) repeated, joined by ``sep`` and filled by one ``%``
    per chunk from its values as floats, mapped first by ``convert`` (if given;
    it may drop rows).  Unequal columns are refused at the call, before a file is opened."""
    size = len(columns[0])
    if any(len(col) != size for col in columns):
        raise ValueError("columns must have the same length")

    def chunks():
        lead = ""  # sep, once a row is out
        for start in range(0, size, ROW_CHUNK):
            cols = [col[start : start + ROW_CHUNK] for col in columns]
            values = np.stack(convert(*cols) if convert else cols, axis=1, dtype=float)
            if len(values):
                yield lead + sep.join([row] * len(values)) % tuple(values.ravel().tolist())
                lead = sep

    return chunks()


_SIGN, _INF = np.uint64(1 << 63), np.uint64(0x7FF << 52)  # the bits of -0.0 and inf


def _mirror_rows(columns: Sequence[np.ndarray]) -> int:
    """h = n//2 if rows 0 … h-1 are rows n-1 … n-h bit for bit, but for the
    first field's sign bit, set below and clear above, where the field is no
    NaN: then a lower row's text is "-" and its upper row's.  Else 0."""
    bits = [np.asarray(col, dtype=float).view(np.uint64) for col in columns]
    n, h = len(bits[0]), len(bits[0]) // 2
    for start in range(0, h, ROW_CHUNK):  # memory stays O(ROW_CHUNK)
        stop = min(start + ROW_CHUNK, h)
        low = [bits[0][start:stop] ^ _SIGN] + [b[start:stop] for b in bits[1:]]
        high = [b[n - stop : n - start][::-1] for b in bits]
        if not (high[0].max() <= _INF and all(map(np.array_equal, low, high))):
            return 0
    return h


def _table_rows(path: str | Path, column_names: Sequence[str], columns: Sequence[np.ndarray],
                head: str, fields: str, tail: str, sep: str):
    """``_format_rows`` of the row ``head + fields + tail``; a name count other
    than the column count is refused first.  Of a table mirrored about 0
    (h = ``_mirror_rows`` > 0), the upper h rows are formatted once, into an
    unnamed scratch file beside ``path``; read back from the last chunk, their
    rows reversed and given "-", they make the lower half."""
    if len(column_names) != len(columns):
        raise ValueError("one name per column required")
    row, gap = head + fields + tail, tail + sep + head  # gap: one row's end to the next's
    rows = _format_rows(columns, row, sep)  # refuses unequal columns, before _mirror_rows
    n, h = len(columns[0]), _mirror_rows(columns)

    def chunks():
        with tempfile.TemporaryFile(dir=Path(path).parent) as scratch:
            sizes = [scratch.write(text.encode("ascii"))
                     for text in _format_rows([col[n - h :] for col in columns], row, sep)]
            for size in reversed(sizes):  # each chunk but the first opens with sep
                scratch.seek(-size, 1)
                text = scratch.read(size).decode("ascii").removeprefix(sep)
                scratch.seek(-size, 1)
                lower = text[len(head) : len(text) - len(tail)].split(gap)[::-1]
                yield head + "-" + (gap + "-").join(lower) + tail + sep
            if n % 2:
                yield row % tuple(float(col[h]) for col in columns) + sep
            yield from (scratch.read(size).decode("ascii") for size in sizes)

    return chunks() if h else rows


def write_table_csv(
    path: str | Path,
    meta: Mapping[str, object],
    column_names: Sequence[str],
    columns: Sequence[np.ndarray],
) -> None:
    """The table as one ``# key = value`` line per ``meta`` item (the value as
    ``names.format_value`` writes it), the column names and the rows."""
    _check_header(meta)
    # "%.17g" formats a float exactly as names.format_float does.
    rows = _table_rows(path, column_names, columns, "", ",".join(["%.17g"] * len(columns)),
                       "\n", "")
    with open(path, "w", encoding="ascii") as out:
        out.writelines(f"# {key} = {format_value(v)}\n" for key, v in meta.items())
        out.write(",".join(column_names) + "\n")
        out.writelines(rows)


def write_table_json(
    path: str | Path,
    meta: Mapping[str, object],
    column_names: Sequence[str],
    columns: Sequence[np.ndarray],
) -> None:
    """The table as {"columns", "data", "meta"}, as ``json.dumps(indent=1,
    sort_keys=True)`` writes it: the rows, each value as ``%r`` (which is how
    json prints a float), go into the ``"data"`` array of the dumped header.
    A non-finite value is refused before the file is opened."""
    _check_header(meta)
    payload = {"meta": dict(meta), "columns": list(column_names), "data": []}
    head, tail = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False).split(
        '\n "data": []')
    rows = _table_rows(path, column_names, columns, "\n  [\n   ",
                       ",\n   ".join(["%r"] * len(columns)), "\n  ]", ",")
    if not all(np.isfinite(col).all() for col in columns):
        raise ValueError("Out of range float values are not JSON compliant")
    with open(path, "w", encoding="ascii") as out:
        out.write(head + '\n "data": [')
        out.writelines(rows)
        out.write(("\n ]" if len(columns[0]) else "]") + tail + "\n")
