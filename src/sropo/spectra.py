"""Output spectra and first-order coherence of the emitted fields.

Both spectra are a comb of Lorentzians of halfwidth gamma at detunings
-m*fsr from the respective centre frequency, weighted by the
sinc^2(m*fsr*tau0/2) phase-matching envelope.  The first-order correlation
g1 is the Fourier partner of the same comb; its mode integral is evaluated
in closed form (each Lorentzian line contributes exp(-gamma*|tau|/2)), and
its mode sum is a cosine series evaluated by the chirp-z transform.  The
spectrum's comb keeps the same truncation |m| <= M: the lines next to a point
are summed directly, and the rest come from a Chebyshev table per free
spectral range, re-expanded into a short series on each half of it and
summed along each half's run of grid points, within about 1e-14 of the
per-mode sum.  Both are even, in detuning and in delay: on the default grids,
exact mirrors about 0, each kernel runs on the non-negative half (``_even``).

Spectra are tabulated against detuning from the centre frequency, and g1 is
returned in the rotating frame of the centre frequency (the optical carrier
exp(-i*w_c*tau) is removed).  A Fourier transform of g1 therefore lands
directly on the detuning axis of ``spectrum``.
"""

from __future__ import annotations

import functools
import math
import sys
from enum import Enum

import numpy as np

from .cavity import DerivedScales
from .dispersion import FrequencyTriple
from .errors import DegenerateGroupVelocityError
from .names import OUTPUT_NORMALIZATIONS, as_count, as_real
from .numerics import (
    POINTS_PER_GAMMA_MIN, _cos_series, check_linewidth, ensure_uniform_axis, grid_points,
    mirror_count, require_points, symmetric_grid,
)
from .trace import Normalization, Trace, TraceKind, TraceMeta

_DEFAULT_POINTS_PER_GAMMA = 24.0
_DEFAULT_WINDOW_GAMMAS = 10.0  # g1 delay half-width, in units of 1/gamma
_ENVELOPE_REACH = 5.0  # default mode coverage, in units of the first-zero mode
_NEAR = 1  # lines within this many fsr of a point's cell: summed directly
_CHEB_NODES = 18  # Chebyshev points per fsr cell for the other lines
_HALF_TERMS = 14  # Chebyshev terms per half cell, re-expanded from those points
_BLOCK = 1 << 13  # most grid points per block of _lorentzian_comb (64 KB arrays)


class FieldName(str, Enum):
    SIGNAL = "signal"
    IDLER = "idler"


def envelope_zero_mode(scales: DerivedScales) -> int:
    """Mode index at the first zero of the sinc^2 envelope; at tau0 = 0 there is none."""
    if scales.tau0 == 0.0:
        raise DegenerateGroupVelocityError("tau0 = 0: the envelope has no zero")
    product = scales.fsr_delta_omega * abs(scales.tau0)
    ratio = 2.0 * math.pi / product if product else math.inf
    return math.ceil(as_real(ratio, "derived 2*pi/(fsr*|tau0|)", 0.0, "tau0", "T", strict=True))


def _envelope_default(scales: DerivedScales, argument: str) -> int:
    """``envelope_zero_mode`` as ``argument``'s default; at tau0 = 0, a refusal asking for it."""
    if scales.tau0 == 0.0:
        raise DegenerateGroupVelocityError("tau0 = 0: the envelope has no zero; pass {}",
                                           (argument,), own=True)
    return envelope_zero_mode(scales)


def _auto_mode_count(scales: DerivedScales, m_max: int | None) -> int:
    return (int(_ENVELOPE_REACH * _envelope_default(scales, "m_max")) if m_max is None
            else as_count(m_max, "m_max", 0))


def _mode_weights(m_count: int, scales: DerivedScales) -> np.ndarray:
    """sinc^2 envelope at modes -M..M; its callers count the 2M+1 weights
    against the budget (``numerics.grid_points``) first."""
    m = np.arange(-m_count, m_count + 1, dtype=float)
    z = 0.5 * m * scales.fsr_delta_omega * scales.tau0
    w = np.sinc(z / np.pi)
    return w * w


def _chebyshev_fit(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The q Chebyshev points x_i = cos(pi*(i + 1/2)/q) of [-1, 1], and the
    matrix from the values there to the q coefficients of the interpolant."""
    theta = np.pi * (np.arange(q) + 0.5) / q
    to_coef = np.cos(np.outer(np.arange(q), theta)) * (2.0 / q)
    to_coef[0] *= 0.5
    return np.cos(theta), to_coef


@functools.lru_cache(maxsize=None)
def _half_cell_coefficients(q: int, terms: int) -> np.ndarray:
    """(2, terms, q): from a cell's values at its q Chebyshev points to the
    ``terms`` Chebyshev coefficients of the interpolant's re-expansion on the
    left (0) and right (1) half of the cell, interpolated at ``terms``
    Chebyshev points of each half.  Built on first use: a BLAS product at
    import cost every process importing this module about 1 MiB of memory."""
    _, to_coef = _chebyshev_fit(q)
    y, to_half = _chebyshev_fit(terms)
    x = 0.5 * (y + np.array([[-1.0], [1.0]]))  # the half's points, in cell units
    return to_half @ np.cos(np.arccos(x)[..., None] * np.arange(q)) @ to_coef


def _lorentzian_comb(detuning, weights, m_count, fsr, half_gamma_sq) -> np.ndarray:
    """sum_{m=-M}^{M} weights[m + M] / (half_gamma_sq + (detuning + m*fsr)^2)
    on an increasing grid, in O(N + q*cells*M) for N points over ``cells`` fsr.

    Cell n spans [n - 1/2, n + 1/2]*fsr.  The lines with |n + m| <= _NEAR are
    summed directly, as the mode loop sums them.  The others have no pole
    within 1.5 fsr of the cell, so their sum is smooth on it: it is tabulated
    at q = _CHEB_NODES Chebyshev points of the cell of every half cell that
    holds points (one correlation of the weights with the lattice of line
    shapes per node).  The cell's q-point interpolant is re-expanded into a
    _HALF_TERMS-term Chebyshev series on each half cell, whose nearest far
    pole lies 7 half-widths from its centre (4 from a full cell's).  The grid
    is walked in blocks of ``_BLOCK`` points, each cut into runs of points in
    one half cell: each half cell's coefficients, centre and near lines are
    repeated along its run, and the series is summed by Clenshaw's
    recurrence in place.
    """
    first, last = (int(np.rint(d / fsr)) for d in (detuning[0], detuning[-1]))
    # Half cells 2i and 2i + 1 are the left and right halves of cell first + i.
    # Only the halves that hold points are kept, so that a grid sparser than
    # the cells costs nothing per empty half; kept half h holds the run
    # detuning[bounds[h]:bounds[h + 1]].
    edges = np.arange(2 * first, 2 * last + 1) * (0.5 * fsr)
    bounds = np.concatenate(([0], np.searchsorted(detuning, edges), [detuning.size]))
    kept = np.flatnonzero(np.diff(bounds))
    bounds = np.append(bounds[kept], detuning.size)
    cell, right = np.divmod(kept, 2)
    n = (cell + first).astype(float)
    k = np.arange(first - m_count, last + m_count + 1, dtype=float)  # k = n + m
    far = np.abs(k) > _NEAR
    # One row per kept half: einsum's sums depend on table.T's (F) memory order.
    table = np.empty((kept.size, _CHEB_NODES))
    for column, x in zip(table.T, _chebyshev_fit(_CHEB_NODES)[0]):
        lines = half_gamma_sq + ((k + 0.5 * x) * fsr) ** 2
        column[:] = np.correlate(np.where(far, 1.0 / lines, 0.0), weights, "valid")[cell]
    # Per kept half: its series' coefficients, its centre, and each near
    # line's m*fsr and weight (0 past M).  einsum rather than matmul: on the
    # large configs a BLAS product this size runs threaded, and the spinning
    # second thread doubled the call's CPU time.
    to_half = _half_cell_coefficients(_CHEB_NODES, _HALF_TERMS)
    both = np.einsum("sij,jc->sic", to_half, table.T)
    coef = np.where(right, both[1], both[0])
    centre = (n + np.where(right, 0.25, -0.25)) * fsr
    m = np.arange(-_NEAR, _NEAR + 1)[:, None] - n
    offsets = m * fsr
    index = np.clip(m + m_count, 0, 2 * m_count).astype(np.intp)
    near_weights = np.where(np.abs(m) <= m_count, weights[index], 0.0)

    values = np.empty_like(detuning)
    for start in range(0, detuning.size, _BLOCK):
        stop = min(start + _BLOCK, detuning.size)
        h = int(np.searchsorted(bounds, start, "right")) - 1
        runs = np.diff(np.clip(bounds[h : np.searchsorted(bounds, stop) + 1], start, stop))
        halves = slice(h, h + runs.size)
        d = detuning[start:stop]
        x2 = np.repeat(centre[halves], runs)
        np.subtract(d, x2, out=x2)
        x2 *= 8.0 / fsr  # 2x, for x in [-1, 1] on the half cell
        scratch = np.empty_like(d)
        # b_j = c_j + 2x*b_{j+1} - b_{j+2}, down from b = c at the last term
        b2 = np.repeat(coef[-1, halves], runs)
        b1 = np.repeat(coef[-2, halves], runs)
        b1 += np.multiply(x2, b2, out=scratch)
        for c in coef[-3:0:-1, halves]:
            c = np.repeat(c, runs)
            c -= b2
            c += np.multiply(x2, b1, out=scratch)
            b1, b2 = c, b1
        v = values[start:stop]
        x2 *= 0.5
        np.multiply(x2, b1, out=v)  # far sum: c_0 + x*b_1 - b_2
        v -= b2
        v += np.repeat(coef[0, halves], runs)
        for offset, weight in zip(offsets[:, halves], near_weights[:, halves]):
            lines = np.repeat(offset, runs)
            lines += d
            lines *= lines
            lines += half_gamma_sq
            w = np.repeat(weight, runs)
            w /= lines
            v += w
    return values


def spectrum_grid(
    scales: DerivedScales,
    window_modes: float | None = None,
    points: int | None = None,
) -> np.ndarray:
    """Detuning grid of ``spectrum``: ``window_modes`` fsr either side.

    By default the window reaches half a mode beyond the envelope's first
    zero, and the grid holds 24 points per gamma, an exact mirror about 0
    (``numerics.symmetric_grid``).  A grid past the point budget, a span (twice
    the half-width) that overflows, a spacing below the normal double range or
    a window past ``spectrum``'s budget of fsr cells is refused here, as in
    ``g1_grid``, naming the fields and arguments it comes from.
    """
    window = ("window_modes",) if window_modes is not None else ("tau0", "T")
    span = (*window, "T")  # window*fsr
    if window_modes is None:
        window_modes = _envelope_default(scales, "window_modes") + 0.5
    window_modes = as_real(window_modes, "window_modes", 0.0, strict=True)
    half = 0.5 * as_real(window_modes * scales.fsr_delta_omega * 2.0, "derived detuning span",
                         0.0, *span, strict=True)
    steps = half / (scales.gamma / _DEFAULT_POINTS_PER_GAMMA)
    n = grid_points(points, steps, (*span, "gamma"), 2)
    grid_points(None, _CHEB_NODES * (2.0 * np.rint(half / scales.fsr_delta_omega) + 1.0), window)
    count = "points" if points is not None else "gamma"  # n, unless given: half/gamma
    return _mirror_grid(half, n, "derived detuning spacing", *span, count)


def g1_grid(
    scales: DerivedScales,
    window_gammas: float | None = None,
    points: int | None = None,
    m_max: int | None = None,
) -> np.ndarray:
    """Delay grid of ``g1``: ``window_gammas``/gamma either side (default 10).

    By default the spacing resolves both 1/gamma (16 points) and the fastest
    beat of the modes ``g1`` keeps for ``m_max`` (4 points per period).  The
    grid is an exact mirror about 0, through tau = 0 at an odd count.
    """
    span = ("gamma", "window_gammas") if window_gammas is not None else ("gamma",)
    if window_gammas is None:
        window_gammas = _DEFAULT_WINDOW_GAMMAS
    window_gammas = as_real(window_gammas, "window_gammas", 0.0, strict=True)
    check_linewidth(scales.gamma)
    half = 0.5 * as_real(window_gammas / scales.gamma * 2.0, "derived delay span", 0.0, *span,
                         strict=True)
    spacing = min(
        1.0 / (POINTS_PER_GAMMA_MIN * scales.gamma),
        scales.round_trip_T / (4.0 * max(_auto_mode_count(scales, m_max), 1)),
    )
    # n, unless given: from half, gamma and the fastest beat of the modes kept
    beat = ("tau0", "T") if m_max is None else ("T", "m_max")
    n = grid_points(points, half / spacing, (*span, *beat), 2)
    count = ("points",) if points is not None else beat
    return _mirror_grid(half, n, "derived delay spacing", *span, *count)


def _mirror_grid(half: float, n: int, where: str, *scales: str) -> np.ndarray:
    """``symmetric_grid(half, n)``; a spacing below the normal double range is refused
    as ``where``, from ``scales``: linspace rounds a subnormal step by up to half of
    5e-324, and a few thousand such steps add up past ``ensure_uniform_axis``'s tolerance."""
    as_real(2.0 * half / (n - 1), where, sys.float_info.min, *scales)
    return symmetric_grid(half, n)


def _even(kernel, axis: np.ndarray, dtype=float) -> np.ndarray:
    """An even function's values on ``axis``: on an exact mirror about 0
    (``numerics.mirror_count``) ``kernel`` runs on axis[h:], h = n//2, and
    axis[:h] is filled in reverse, else on every point.  The output is made
    after the kernel: made before, it left the heap trimmed and the next large
    call paid page faults."""
    h = mirror_count(axis)
    half = kernel(axis[h:])
    values = np.empty(axis.size, dtype)
    values[h:] = half
    values[:h] = values[::-1][:h]
    return values


def _trace(axis, values, kind, normalization, field, freqs, centre_key, **more) -> Trace:
    """``values`` on the checked ``axis``, with the metadata the spectrum and g1
    both carry; ``centre_key`` names the field's centre frequency."""
    extra = {
        "field": field.value,
        centre_key: freqs.omega_s if field is FieldName.SIGNAL else freqs.omega_i,
        **more,
    }
    return Trace(axis, values, TraceMeta(kind, normalization, extra), axis_checked=True)


def spectrum(
    field: FieldName | str,
    scales: DerivedScales,
    freqs: FrequencyTriple,
    detuning: np.ndarray | None = None,
    m_max: int | None = None,
    normalization: Normalization = Normalization.PEAK_UNITY,
) -> Trace:
    """Output spectrum of the chosen field on a detuning grid.

    With ``detuning=None`` the grid is ``spectrum_grid(scales)``, the central
    envelope.  A supplied grid must be finite, strictly increasing and
    uniform, of two points or more (ScenarioValidationError otherwise), and carry at least
    16 points per gamma.  Mode m contributes a Lorentzian at detuning -m*fsr.
    """
    field = FieldName(field)
    given = getattr(normalization, "value", normalization)
    if given not in OUTPUT_NORMALIZATIONS:
        raise ValueError(f"unsupported spectrum normalization {given!r}; expected "
                         + " or ".join(map(repr, OUTPUT_NORMALIZATIONS)))
    normalization = Normalization(normalization)
    gamma = scales.gamma
    fsr = scales.fsr_delta_omega
    m_count = _auto_mode_count(scales, m_max)  # before the default grid is built
    if detuning is None:
        detuning = spectrum_grid(scales)
    detuning = np.asarray(detuning, dtype=float)
    spacing = ensure_uniform_axis(detuning, "detuning")
    require_points(gamma / spacing, POINTS_PER_GAMMA_MIN, "gamma", ("detuning",))

    check_linewidth(gamma)
    # Refused past the budget before any is made: the 2M+1 weights, and
    # _lorentzian_comb's _CHEB_NODES correlations per fsr cell of the grid,
    # over a lattice of cells + 2M line shapes.  Its table keeps _CHEB_NODES
    # values per half cell with points, at most two halves per cell.
    cells = np.rint(detuning[-1] / fsr) - np.rint(detuning[0] / fsr) + 1.0
    modes = "m_max" if m_max is not None else "M"
    grid_points(None, m_count, (modes,), 2)
    grid_points(None, _CHEB_NODES * cells, ("T", "detuning"))
    grid_points(None, cells + 2.0 * m_count, ("T", "detuning", modes))
    weights = _mode_weights(m_count, scales)
    values = _even(lambda d: _lorentzian_comb(d, weights, m_count, fsr, (0.5 * gamma) ** 2),
                   detuning)
    if normalization is Normalization.PEAK_UNITY:
        values /= values.max()
    else:
        values /= np.trapezoid(values, detuning)

    return _trace(detuning, values, TraceKind(f"{field.value}_spectrum"), normalization,
                  field, freqs, "center_frequency_rad_per_s", m_max=m_count)


def g1(
    field: FieldName | str,
    scales: DerivedScales,
    freqs: FrequencyTriple,
    tau: np.ndarray | None = None,
    m_max: int | None = None,
) -> Trace:
    """First-order correlation of the chosen field, normalized to g1(0) = 1.

    Returned in the rotating frame of the centre frequency: mode m
    contributes exp(i*m*fsr*tau), each line decays as exp(-gamma*|tau|/2).
    The weights are even in m, so g1 is real; its values stay complex, with
    an imaginary part of exactly 0.  With ``tau=None`` the grid is
    ``g1_grid(scales, m_max=m_max)``.  ``tau`` must be a finite, strictly
    increasing, uniform grid of two points or more (ScenarioValidationError otherwise): the
    mode sum runs as a chirp-z transform in O((N + M) log M).  Where the
    grid holds tau = 0 exactly, g1 there is exactly 1.  The carrier
    frequency is recorded in the metadata.
    """
    field = FieldName(field)
    gamma = scales.gamma
    fsr = scales.fsr_delta_omega
    m_count = _auto_mode_count(scales, m_max)
    if tau is None:
        tau = g1_grid(scales, m_max=m_max)
    tau = np.asarray(tau, dtype=float)
    spacing = ensure_uniform_axis(tau, "tau")
    check_linewidth(gamma)
    step = gamma * spacing  # an underflow to 0 is a grid infinitely fine per 1/gamma
    require_points(1.0 / step if step else math.inf, POINTS_PER_GAMMA_MIN, "1/gamma", ("tau",))
    if m_count >= 1:  # 2.5 * (limit/spacing) < 2.5 exactly when spacing > limit
        limit = scales.round_trip_T / (2.5 * m_count)
        require_points(2.5 * (limit / spacing), 2.5, "period of the fastest mode beat", ("tau",))

    grid_points(None, m_count, ("m_max" if m_max is not None else "M",), 2)  # 2M+1 weights
    coef = _mode_weights(m_count, scales)[m_count:]
    coef[1:] *= 2.0

    def kernel(upper):
        # At these points' own spacing; a lone point (n = 2) has none.
        step = (upper[-1] - upper[0]) / max(upper.size - 1, 1)
        comb = _cos_series(coef, fsr * upper[0], fsr * step, upper.size)
        zero = np.flatnonzero(upper == 0.0)
        norm = comb[zero[0]] if zero.size else coef.sum()
        decay = np.abs(upper)
        decay *= -0.5 * gamma
        comb /= norm
        comb *= np.exp(decay, out=decay)
        return comb

    values = _even(kernel, tau, complex)
    return _trace(tau, values, TraceKind.G1, Normalization.UNIT_AT_ZERO, field, freqs,
                  "carrier_rad_per_s", rotating_frame=True, m_max=m_count)
