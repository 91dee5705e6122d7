"""Output spectra and first-order coherence of the emitted fields.

Both spectra are a comb of Lorentzians of halfwidth gamma at detunings
-m*fsr from the respective centre frequency, weighted by the
sinc^2(m*fsr*tau0/2) phase-matching envelope.  The first-order correlation
g1 is the Fourier partner of the same comb; its mode integral is evaluated
in closed form (each Lorentzian line contributes exp(-gamma*|tau|/2)), and
its mode sum is a cosine series evaluated by the chirp-z transform.

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
from .errors import GridTooCoarseError
from .numerics import _cos_series, ensure_uniform_axis
from .trace import Normalization, Trace, TraceKind, TraceMeta

_POINTS_PER_GAMMA_MIN = 16.0
_DEFAULT_POINTS_PER_GAMMA = 24.0
_DEFAULT_WINDOW_GAMMAS = 10.0  # g1 delay half-width, in units of 1/gamma
_ENVELOPE_REACH = 5.0  # default mode coverage, in units of the first-zero mode


class FieldName(str, Enum):
    SIGNAL = "signal"
    IDLER = "idler"


def envelope_zero_mode(scales: DerivedScales) -> int:
    """Mode index at the first zero of the sinc^2 envelope."""
    if scales.tau0 == 0.0:
        raise ValueError(
            "tau0 = 0: the envelope has no zero; pass an explicit m_max"
        )
    return math.ceil(2.0 * math.pi / (scales.fsr_delta_omega * abs(scales.tau0)))


def _auto_mode_count(scales: DerivedScales, m_max: int | None) -> int:
    if m_max is not None:
        if m_max < 0:
            raise ValueError("m_max must be non-negative")
        return m_max
    return int(_ENVELOPE_REACH * envelope_zero_mode(scales))


def _mode_weights(m_count: int, scales: DerivedScales) -> np.ndarray:
    m = np.arange(-m_count, m_count + 1, dtype=float)
    z = 0.5 * m * scales.fsr_delta_omega * scales.tau0
    w = np.sinc(z / np.pi)
    return w * w


def _centre_frequency(field: FieldName, freqs: FrequencyTriple) -> float:
    return freqs.omega_s if field is FieldName.SIGNAL else freqs.omega_i


def spectrum_grid(
    scales: DerivedScales,
    window_modes: float | None = None,
    points: int | None = None,
) -> np.ndarray:
    """Detuning grid of ``spectrum``: ``window_modes`` fsr either side.

    By default the window reaches half a mode beyond the envelope's first
    zero, and the grid holds 24 points per gamma.
    """
    if window_modes is None:
        window_modes = envelope_zero_mode(scales) + 0.5
    half = window_modes * scales.fsr_delta_omega
    if points is None:
        points = 2 * math.ceil(half / (scales.gamma / _DEFAULT_POINTS_PER_GAMMA)) + 1
    return np.linspace(-half, half, points)


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
    if points is None:
        spacing = min(
            1.0 / (_POINTS_PER_GAMMA_MIN * scales.gamma),
            scales.round_trip_T / (4.0 * max(_auto_mode_count(scales, m_max), 1)),
        )
        points = 2 * math.ceil(half / spacing) + 1
    return np.linspace(-half, half, points)


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
            f"only {gamma / spacing:.2f} grid points per gamma; "
            f"at least {_POINTS_PER_GAMMA_MIN:g} required"
        )

    m_count = _auto_mode_count(scales, m_max)
    weights = _mode_weights(m_count, scales)
    half_gamma_sq = (0.5 * gamma) ** 2
    values = np.zeros_like(detuning)
    for i, m in enumerate(range(-m_count, m_count + 1)):
        values += weights[i] / (half_gamma_sq + (detuning + m * fsr) ** 2)

    normalization = Normalization(normalization)
    if normalization is Normalization.PEAK_UNITY:
        values = values / values.max()
    elif normalization is Normalization.UNIT_INTEGRAL:
        values = values / np.trapezoid(values, detuning)
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
    return Trace(detuning, values, meta)


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
            f"only {1.0 / (gamma * spacing):.2f} grid points per 1/gamma; "
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
    values = (comb / norm * np.exp(-0.5 * gamma * np.abs(tau))).astype(complex)

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
    return Trace(tau, values, meta)
