"""Test-only utilities: reading CLI tables back, mode frequencies, norms, extrema,
and hashlib's scenario digest."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from sropo.biphoton import BiphotonAmplitudeGrid
from sropo.dispersion import FrequencyTriple


def read_table_csv(path: str | Path):
    """Inverse of ``sropo.trace.write_table_csv``: (comments, names, columns)."""
    comments: list[str] = []
    names: list[str] | None = None
    rows: list[list[float]] = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif names is None:
            names = line.split(",")
        else:
            rows.append([float(tok) for tok in line.split(",")])
    if names is None:
        raise ValueError(f"{path}: no column header found")
    data = np.array(rows, dtype=float)
    columns = [data[:, i] for i in range(len(names))]
    return comments, names, columns


def mode_frequency(freqs: FrequencyTriple, fsr: float, m: int) -> float:
    """Frequency of longitudinal mode m, with mode 0 at the signal centre."""
    return freqs.omega_s + m * fsr


def norm_squared(grid: BiphotonAmplitudeGrid) -> float:
    """Trapezoidal norm of the amplitudes over the stored grid."""
    density = np.abs(grid.amplitudes) ** 2
    return float(np.sum(np.trapezoid(density, grid.detuning, axis=1)))


def local_maxima(values) -> np.ndarray:
    """Indices of strict interior local maxima."""
    v = np.asarray(values, dtype=float)
    idx = np.nonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]))[0] + 1
    return idx


def minimum_between(values, i_left: int, i_right: int) -> tuple[int, float]:
    """Index and value of the minimum strictly between two sample indices."""
    if i_right <= i_left + 1:
        raise ValueError("no interior samples between the given indices")
    v = np.asarray(values, dtype=float)
    segment = v[i_left + 1 : i_right]
    k = int(np.argmin(segment)) + i_left + 1
    return k, float(v[k])


def hashlib_digest(config) -> str:
    """``config``'s scenario hash as ``hashlib.sha256`` computes it."""
    from sropo.scenario import _physical_fingerprint

    fingerprint = _physical_fingerprint(config.crystal, config.cavity, config.pump, config.freqs)
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:16]
