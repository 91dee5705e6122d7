"""Minimal static SVG line plots; deterministic output, no plotting stack.  The
polyline's pixels are computed in numpy and printed by ``trace._format_rows``:
M4 (Jugel et al., PVLDB 7(10), 2014) keeps of each run of rows in one 1-px
column (floor of x in px) the first, the last, and the first least and greatest y."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .trace import _format_rows

_WIDTH, _HEIGHT = 800, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50
_N_TICKS = 5


def _axis_range(values: np.ndarray) -> tuple[float, float, float]:
    """Smallest and largest value, each times the scale, and the scale: 1, or
    1/2 where high - low overflows (halving is exact).  A constant series gets
    the range [v, v + 1], or, where v + 1 rounds back to v (|v| >= 2**53), v
    and its next float."""
    low, high = float(values.min()), float(values.max())
    if high == low:
        high = low + 1.0
    if high == low:
        high = math.nextafter(low, math.inf)
        if math.isinf(high):  # low is the largest double
            low, high = math.nextafter(low, -math.inf), low
    scale = 1.0 if math.isfinite(high - low) else 0.5
    return low * scale, high * scale, scale


def write_svg_plot(
    path: str | Path,
    x: np.ndarray,
    y: np.ndarray,
    title: str,
    x_label: str,
) -> None:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    size, seen, carry = len(x), 0, (x[:0], y[:0])  # of pixels: rows seen, the open run
    x0, x1, xs = _axis_range(x)
    y0, y1, ys = _axis_range(y)
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black"/>',
    ]
    for i in range(_N_TICKS):
        frac = i / (_N_TICKS - 1)
        # min(): at frac = 1 the sum can round past x1, and past a double
        xv = min(x0 + frac * (x1 - x0), x1) / xs
        yv = min(y0 + frac * (y1 - y0), y1) / ys
        xp = _MARGIN_L + frac * plot_w
        yp = _MARGIN_T + plot_h - frac * plot_h
        lines += [
            f'<line x1="{xp:.2f}" y1="{_MARGIN_T + plot_h}" x2="{xp:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>',
            f'<text x="{xp:.2f}" y="{_MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.6g}</text>',
            f'<line x1="{_MARGIN_L - 5}" y1="{yp:.2f}" x2="{_MARGIN_L}" '
            f'y2="{yp:.2f}" stroke="black"/>',
            f'<text x="{_MARGIN_L - 8}" y="{yp + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.6g}</text>',
        ]
    lines += [
        f'<text x="{_MARGIN_L + plot_w // 2}" y="{_HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>',
        f'<text x="16" y="{_MARGIN_T + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h // 2})">value</text>',
        '<polyline points="',
    ]

    def pixels(xc, yc):  # M4 vertices in px of the chunk after the run carried in
        nonlocal seen, carry
        seen += len(xc)
        px = np.r_[carry[0], _MARGIN_L + (xc * xs - x0) / (x1 - x0) * plot_w]
        py = np.r_[carry[1], _MARGIN_T + plot_h - (yc * ys - y0) / (y1 - y0) * plot_h]
        starts = np.flatnonzero(np.r_[True, np.diff(np.floor(px)) != 0])  # of each run
        keep = np.zeros(px.size, dtype=bool)
        keep[starts] = keep[starts - 1] = True  # each run's first and last
        for extreme in (np.fmin, np.fmax):  # NaN only where all of a run is NaN
            top = np.repeat(extreme.reduceat(py, starts), np.diff(np.r_[starts, px.size]))
            hits = np.flatnonzero((py == top) | (top != top))
            keep[hits[np.searchsorted(hits, starts)]] = True  # the first of each run
        kept = np.flatnonzero(keep)  # the last run stays open until the last chunk
        cut = kept.size if seen == size else np.searchsorted(kept, starts[-1])
        carry = px[kept[cut:]], py[kept[cut:]]
        return px[kept[:cut]], py[kept[:cut]]

    points = _format_rows([x, y], "%.2f,%.2f", " ", pixels)
    with open(path, "w", encoding="ascii") as out:
        out.write("\n".join(lines))
        out.writelines(points)
        out.write('" fill="none" stroke="#1f4e79" stroke-width="1.2"/>\n</svg>\n')
