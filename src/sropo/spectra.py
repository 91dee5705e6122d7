"""Output spectra and first-order coherence of the emitted fields.

Both spectra are a comb of Lorentzians of halfwidth gamma at detunings
-m*fsr from the respective centre frequency, weighted by the
sinc^2(m*fsr*tau0/2) phase-matching envelope.  The first-order correlation
g1 is the Fourier partner of the same comb; its mode integral is evaluated
in closed form (each Lorentzian line contributes exp(-gamma*|tau|/2)), and
its mode sum is a cosine series evaluated by the chirp-z transform.  The
spectrum's comb keeps the same truncation |m| <= M: the lines next to a point
are summed directly, and the rest come from a Chebyshev table per free
spectral range, within about 1e-14 of the per-mode sum.

Spectra are tabulated against detuning from the centre frequency, and g1 is
returned in the rotating frame of the centre frequency (the optical carrier
exp(-i*w_c*tau) is removed).  A Fourier transform of g1 therefore lands
directly on the detuning axis of ``spectrum``.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .cavity import DerivedScales
from .dispersion import FrequencyTriple
from .errors import DegenerateGroupVelocityError, GridTooCoarseError
from .numerics import _cos_series, ensure_uniform_axis, grid_points
from .trace import Normalization, Trace, TraceKind, TraceMeta

_POINTS_PER_GAMMA_MIN = 16.0
_DEFAULT_POINTS_PER_GAMMA = 24.0
_DEFAULT_WINDOW_GAMMAS = 10.0  # g1 delay half-width, in units of 1/gamma
_ENVELOPE_REACH = 5.0  # default mode coverage, in units of the first-zero mode
_NEAR = 1  # lines within this many fsr of a point's cell: summed directly
_CHEB_NODES = 18  # Chebyshev points per fsr cell for the other lines
_BLOCK = 1 << 13  # grid points per block of _lorentzian_comb (64 KB arrays)


class FieldName(str, Enum):
    SIGNAL = "signal"
    IDLER = "idler"


def envelope_zero_mode(scales: DerivedScales, needs: str = "m_max (--m-max)") -> int:
    """Mode index at the first zero of the sinc^2 envelope.  At tau0 = 0 there
    is none: the error asks for ``needs``, the argument that does without it.
    """
    if scales.tau0 == 0.0:
        raise DegenerateGroupVelocityError(
            f"tau0 = 0: the envelope has no zero; pass {needs}")
    return math.ceil(2.0 * math.pi / (scales.fsr_delta_omega * abs(scales.tau0)))


def _auto_mode_count(scales: DerivedScales, m_max: int | None) -> int:
    if m_max is not None:
        if m_max < 0:
            raise ValueError("m_max must be non-negative")
        return m_max
    return int(_ENVELOPE_REACH * envelope_zero_mode(scales))


def _mode_weights(m_count: int, scales: DerivedScales) -> np.ndarray:
    grid_points(None, m_count, "--m-max", 2)  # 2M+1 weights, refused past the budget
    m = np.arange(-m_count, m_count + 1, dtype=float)
    z = 0.5 * m * scales.fsr_delta_omega * scales.tau0
    w = np.sinc(z / np.pi)
    return w * w


def _lorentzian_comb(detuning, weights, m_count, fsr, half_gamma_sq) -> np.ndarray:
    """sum_{m=-M}^{M} weights[m + M] / (half_gamma_sq + (detuning + m*fsr)^2)
    on an increasing grid, in O(N + q*cells*M) for N points over ``cells`` fsr.

    A point sits in cell n = rint(detuning/fsr), at offset
    x = (detuning - n*fsr)/(fsr/2) in [-1, 1].  The lines with |n + m| <= _NEAR
    are summed directly, as the mode loop sums them.  The others have no pole
    within 1.5 fsr of the cell, so their sum is smooth on it: it is tabulated
    at q = _CHEB_NODES Chebyshev points of every cell (one correlation of the
    weights with the lattice of line shapes per point), turned into Chebyshev
    coefficients and evaluated by Clenshaw's recurrence, in blocks of
    ``_BLOCK`` points.
    """
    q = _CHEB_NODES
    theta = np.pi * (np.arange(q) + 0.5) / q
    first, last = (int(np.rint(d / fsr)) for d in (detuning[0], detuning[-1]))
    k = np.arange(first - m_count, last + m_count + 1, dtype=float)  # k = n + m
    far = np.abs(k) > _NEAR
    table = np.empty((q, last - first + 1))
    for row, x in zip(table, np.cos(theta)):
        lines = half_gamma_sq + ((k + 0.5 * x) * fsr) ** 2
        row[:] = np.correlate(np.where(far, 1.0 / lines, 0.0), weights, "valid")
    to_coef = np.cos(np.outer(np.arange(q), theta)) * (2.0 / q)
    to_coef[0] *= 0.5
    coef = to_coef @ table  # coef[j, n - first]: coefficient j of cell n
    # The weight of every mode near some cell, from mode ``low`` on; 0 past M.
    low = min(-m_count, -last - _NEAR)
    padded = np.zeros(max(m_count, _NEAR - first) - low + 1)
    padded[-m_count - low : m_count - low + 1] = weights

    values = np.empty_like(detuning)
    for start in range(0, detuning.size, _BLOCK):
        d = detuning[start : start + _BLOCK]
        n = np.rint(d / fsr)
        x2 = (d - n * fsr) * (4.0 / fsr)  # 2x
        cell = (n - first).astype(np.intp)
        b1, b2 = np.zeros_like(d), np.zeros_like(d)
        for c in coef[:0:-1]:  # b_j = c_j + 2x*b_{j+1} - b_{j+2}
            np.subtract(c[cell], b2, out=b2)
            b2 += x2 * b1
            b1, b2 = b2, b1
        v = values[start : start + _BLOCK]
        np.multiply(0.5 * x2, b1, out=v)  # far sum: c_0 + x*b_1 - b_2
        v += coef[0][cell]
        v -= b2
        for near in range(-_NEAR, _NEAR + 1):
            m = near - n
            w = padded[(m - low).astype(np.intp)]
            v += w / (half_gamma_sq + (d + m * fsr) ** 2)
    return values


def _centre_frequency(field: FieldName, freqs: FrequencyTriple) -> float:
    return freqs.omega_s if field is FieldName.SIGNAL else freqs.omega_i


def spectrum_grid(
    scales: DerivedScales,
    window_modes: float | None = None,
    points: int | None = None,
) -> np.ndarray:
    """Detuning grid of ``spectrum``: ``window_modes`` fsr either side.

    By default the window reaches half a mode beyond the envelope's first
    zero, and the grid holds 24 points per gamma.  Grids past the point budget
    (``numerics.grid_points``) are refused here and in ``g1_grid``.
    """
    if window_modes is None:
        window_modes = envelope_zero_mode(scales, "window_modes (--window-modes)") + 0.5
    half = window_modes * scales.fsr_delta_omega
    steps = half / (scales.gamma / _DEFAULT_POINTS_PER_GAMMA)
    return np.linspace(-half, half, grid_points(points, steps, "--window-modes", 2))


def g1_grid(
    scales: DerivedScales,
    window_gammas: float | None = None,
    points: int | None = None,
    m_max: int | None = None,
) -> np.ndarray:
    """Delay grid of ``g1``: ``window_gammas``/gamma either side (default 10).

    By default the spacing resolves both 1/gamma (16 points) and the fastest
    beat of the modes ``g1`` keeps for ``m_max`` (4 points per period).
    """
    if window_gammas is None:
        window_gammas = _DEFAULT_WINDOW_GAMMAS
    half = window_gammas / scales.gamma
    spacing = min(
        1.0 / (_POINTS_PER_GAMMA_MIN * scales.gamma),
        scales.round_trip_T / (4.0 * max(_auto_mode_count(scales, m_max), 1)),
    )
    source = "--window-gammas and --m-max"
    return np.linspace(-half, half, grid_points(points, half / spacing, source, 2))


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
    uniform, of two points or more (ValueError otherwise), and carry at least
    16 points per gamma.  Mode m contributes a Lorentzian at detuning -m*fsr.
    """
    field = FieldName(field)
    gamma = scales.gamma
    fsr = scales.fsr_delta_omega
    if detuning is None:
        detuning = spectrum_grid(scales)
    detuning = np.asarray(detuning, dtype=float)
    spacing = ensure_uniform_axis(detuning, "detuning")
    if gamma / spacing < _POINTS_PER_GAMMA_MIN:
        raise GridTooCoarseError(
            f"only {gamma / spacing:.3g} grid points per gamma; "
            f"at least {_POINTS_PER_GAMMA_MIN:g} required"
        )

    m_count = _auto_mode_count(scales, m_max)
    weights = _mode_weights(m_count, scales)
    half_gamma_sq = (0.5 * gamma) ** 2
    values = _lorentzian_comb(detuning, weights, m_count, fsr, half_gamma_sq)

    normalization = Normalization(normalization)
    if normalization is Normalization.PEAK_UNITY:
        values /= values.max()
    elif normalization is Normalization.UNIT_INTEGRAL:
        values /= np.trapezoid(values, detuning)
    else:
        raise ValueError(f"unsupported spectrum normalization {normalization}")

    kind = (
        TraceKind.SIGNAL_SPECTRUM
        if field is FieldName.SIGNAL
        else TraceKind.IDLER_SPECTRUM
    )
    meta = TraceMeta(
        kind,
        normalization,
        extra={
            "field": field.value,
            "center_frequency_rad_per_s": _centre_frequency(field, freqs),
            "gamma_rad_per_s": gamma,
            "fsr_rad_per_s": fsr,
            "tau0_s": scales.tau0,
            "m_max": m_count,
        },
    )
    return Trace(detuning, values, meta, axis_checked=True)


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
    increasing, uniform grid of two points or more (ValueError otherwise): the
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
    if 1.0 / (gamma * spacing) < _POINTS_PER_GAMMA_MIN:
        raise GridTooCoarseError(
            f"only {1.0 / (gamma * spacing):.3g} grid points per 1/gamma; "
            f"at least {_POINTS_PER_GAMMA_MIN:g} required"
        )
    if m_count >= 1 and spacing > scales.round_trip_T / (2.5 * m_count):
        raise GridTooCoarseError(
            "grid spacing cannot resolve the fastest retained mode beat; "
            f"need <= {scales.round_trip_T / (2.5 * m_count):.3e} s"
        )

    coef = _mode_weights(m_count, scales)[m_count:]
    coef[1:] *= 2.0
    comb = _cos_series(coef, fsr * tau[0], fsr * spacing, tau.size)
    zero = np.flatnonzero(tau == 0.0)
    norm = comb[zero[0]] if zero.size else coef.sum()
    decay = np.abs(tau)
    decay *= -0.5 * gamma
    comb /= norm
    comb *= np.exp(decay, out=decay)
    values = comb.astype(complex)

    meta = TraceMeta(
        TraceKind.G1,
        Normalization.UNIT_AT_ZERO,
        extra={
            "field": field.value,
            "carrier_rad_per_s": _centre_frequency(field, freqs),
            "rotating_frame": True,
            "gamma_rad_per_s": gamma,
            "fsr_rad_per_s": fsr,
            "tau0_s": scales.tau0,
            "m_max": m_count,
        },
    )
    return Trace(tau, values, meta, axis_checked=True)
