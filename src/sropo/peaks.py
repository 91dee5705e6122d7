"""Peak measurement on sampled traces.

Peak centres are reported as the midpoint of the two half-height crossings
rather than the sample of maximum value: flat-topped or rippled peaks have an
ill-defined argmax, while the half-crossing midpoint is stable for boxcars,
Lorentzians, and Gaussians alike.
"""

from __future__ import annotations

import numpy as np

from .names import Record


class PeakMeasurement(Record):
    center: float
    height: float
    fwhm: float
    argmax: float


def _cross(x0: float, v0: float, x1: float, v1: float, level: float) -> float:
    if v1 == v0:
        return x0
    return x0 + (level - v0) * (x1 - x0) / (v1 - v0)


def measure_peaks(axis, values, floor: float = 0.05) -> list[PeakMeasurement]:
    """Measure every peak rising above ``floor`` times the global maximum.

    The trace is split into contiguous regions above the floor; each region
    yields one measurement with the height taken as the region maximum and
    the width from linearly interpolated half-height crossings.
    """
    axis = np.asarray(axis, dtype=float)
    values = np.asarray(values, dtype=float)
    top = values.max()
    if top <= 0:
        return []
    above = values > floor * top
    peaks: list[PeakMeasurement] = []
    i = 0
    n = values.size
    while i < n:
        if not above[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and above[j + 1]:
            j += 1
        seg = values[i : j + 1]
        k = i + int(np.argmax(seg))
        height = values[k]
        half = 0.5 * height
        left = axis[i]
        for p in range(k, i - 1, -1):
            if values[p] < half:
                left = _cross(axis[p], values[p], axis[p + 1], values[p + 1], half)
                break
        right = axis[j]
        for p in range(k, j + 1):
            if values[p] < half:
                right = _cross(axis[p - 1], values[p - 1], axis[p], values[p], half)
                break
        peaks.append(
            PeakMeasurement(
                center=0.5 * (left + right),
                height=float(height),
                fwhm=float(right - left),
                argmax=float(axis[k]),
            )
        )
        i = j + 1
    return peaks


def nearest_peak(peaks: list[PeakMeasurement], center: float) -> PeakMeasurement:
    if not peaks:
        raise ValueError("no peaks to search")
    return min(peaks, key=lambda p: abs(p.center - center))
