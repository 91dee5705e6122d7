"""Pair generation: spectral amplitude, generation rate, two-photon amplitudes.

The central object is the phase-matching spectral amplitude of longitudinal
mode m at detuning Omega,

    Phi_m(Omega) = (1/l) * integral_{-l}^{0} dx exp(i (m*fsr + Omega) (tau0/l) x)
                 = sinc(z) * exp(-i z),   z = (m*fsr + Omega) * tau0 / 2.

``phi_exact`` evaluates the integral by composite Gauss-Legendre quadrature
and serves as the independent oracle for the closed form ``phi_analytic``.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cavity import DerivedScales
from .constants import SPEED_OF_LIGHT as C_LIGHT
from .constants import TWO_PI
from .constants import VACUUM_PERMITTIVITY as EPS0
from .dispersion import CrystalParams, FrequencyTriple, refractive_index
from .errors import (
    DegenerateGroupVelocityError,
    GridTooCoarseError,
    NonConvergenceError,
    QuadratureWarning,
)
from .numerics import composite_gauss_nodes

_GL_ORDER = 8
_TAIL_FRACTION = 1e-6
_SUM_CHUNK = 1 << 20
# wavefunction_grid limits, also the CLI's flag checks
MIN_HALFWIDTH_GAMMAS = 10.0
MIN_POINTS_PER_MODE = 2


@dataclass(frozen=True)
class PumpParams:
    """Classical pump: modulus of the relevant field component, V/m."""

    field_amplitude_ep: float

    def __post_init__(self):
        if self.field_amplitude_ep <= 0:
            raise ValueError("field_amplitude_ep must be positive")


def phi_analytic(m: int, omega: float, scales: DerivedScales) -> complex:
    """Closed-form spectral amplitude sinc(z) * exp(-i z)."""
    z = 0.5 * (m * scales.fsr_delta_omega + omega) * scales.tau0
    return float(np.sinc(z / np.pi)) * cmath.exp(-1j * z)


def phi_exact(
    m: int, omega: float, scales: DerivedScales, quad_points: int = 256
) -> complex:
    """Spectral amplitude by composite Gauss-Legendre quadrature over the crystal.

    ``quad_points`` is the total number of function evaluations; the interval
    is split into ``quad_points // 8`` panels of an 8-point rule.  A
    ``QuadratureWarning`` is issued when the integrand advances more than
    pi/4 of phase per panel, in which case the caller should raise
    ``quad_points``.
    """
    if quad_points < 32:
        raise ValueError("quad_points must be at least 32")
    z2 = (m * scales.fsr_delta_omega + omega) * scales.tau0
    n_panels = max(1, quad_points // _GL_ORDER)
    if abs(z2) / n_panels > math.pi / 4:
        warnings.warn(
            f"phase advance {abs(z2) / n_panels:.3f} rad per panel exceeds pi/4; "
            "raise quad_points",
            QuadratureWarning,
            stacklevel=2,
        )
    nodes, weights = composite_gauss_nodes(-1.0, 0.0, n_panels, _GL_ORDER)
    return complex(np.sum(weights * np.exp(1j * z2 * nodes)))


def _rate_prefactor(
    crystal: CrystalParams, pump: PumpParams, freqs: FrequencyTriple
) -> float:
    n_s = refractive_index(crystal.dispersion_signal, freqs.omega_s)
    n_i = refractive_index(crystal.dispersion_idler, freqs.omega_i)
    x = (
        crystal.chi
        * pump.field_amplitude_ep
        / (4.0 * EPS0 * C_LIGHT * crystal.cross_section_A)
    )
    return x * x * freqs.omega_s * freqs.omega_i / (n_s * n_i)


def rate_continuum(
    crystal: CrystalParams,
    pump: PumpParams,
    freqs: FrequencyTriple,
    scales: DerivedScales,
) -> float:
    """Generation rate in the continuum limit; contains no resonator parameter."""
    if scales.tau0 == 0.0:
        raise DegenerateGroupVelocityError(
            "tau0 = 0: the continuum rate diverges; check the scenario regime"
        )
    return _rate_prefactor(crystal, pump, freqs) * TWO_PI / abs(scales.tau0)


def _sinc_sq_partial(dz: float, m_hi: int) -> list[float]:
    """Chunked partial sums of sinc^2(m*dz) for m = 1..m_hi (fixed chunking)."""
    parts = []
    for start in range(1, m_hi + 1, _SUM_CHUNK):
        stop = min(start + _SUM_CHUNK, m_hi + 1)
        arg = np.arange(start, stop, dtype=float) * dz
        s = np.sin(arg) / arg
        parts.append(float(np.sum(s * s)))
    return parts


_M_LIMIT = 1 << 31


def rate_mode_sum(
    crystal: CrystalParams,
    pump: PumpParams,
    freqs: FrequencyTriple,
    scales: DerivedScales,
    m_max: int = 1024,
) -> float:
    """Generation rate as a truncated sum over longitudinal modes.

    The truncation is extended automatically until the envelope tail bound
    2/(dz^2 M), with dz = fsr*|tau0|/2, falls below ``_TAIL_FRACTION`` of the
    partial sum; ``m_max`` only sets the starting truncation.  Scenarios with
    fsr*|tau0| so small that the bound needs more than ``_M_LIMIT`` terms are
    rejected rather than left running for hours.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if scales.tau0 == 0.0:
        raise NonConvergenceError(
            "tau0 = 0: the mode sum does not converge; check the scenario regime"
        )
    dz = 0.5 * scales.fsr_delta_omega * abs(scales.tau0)
    # Jump straight to the scale the tail bound implies (25% margin), verify,
    # and double on the rare miss.  Chunk boundaries depend only on the final
    # truncation, so the result is deterministic.
    m_cur = max(m_max, int(2.5 / (math.pi * _TAIL_FRACTION * dz)) + 1)
    while True:
        if m_cur > _M_LIMIT:
            raise NonConvergenceError(
                f"mode sum needs more than {_M_LIMIT} terms "
                f"(fsr*|tau0| = {2 * dz:.3e} too small)"
            )
        total = 1.0 + 2.0 * math.fsum(_sinc_sq_partial(dz, m_cur))
        if 2.0 / (dz * dz * m_cur) < _TAIL_FRACTION * total:
            break
        m_cur *= 2
    return _rate_prefactor(crystal, pump, freqs) * scales.fsr_delta_omega * total


@dataclass(frozen=True, eq=False)
class BiphotonAmplitudeGrid:
    """Normalized two-photon amplitudes psi(m, Omega) on a (mode, detuning) grid.

    ``amplitudes[i, j]`` belongs to mode ``modes[i]`` and detuning
    ``detuning[j]``; the trapezoidal norm over the stored grid is one.
    """

    modes: np.ndarray
    detuning: np.ndarray
    amplitudes: np.ndarray
    normalization: float

    def norm_squared(self) -> float:
        density = np.abs(self.amplitudes) ** 2
        return float(np.sum(np.trapezoid(density, self.detuning, axis=1)))


def wavefunction_grid(
    scales: DerivedScales,
    m_count: int,
    omega_grid_halfwidth: float = 12.0,
    points_per_mode: int = 385,
) -> BiphotonAmplitudeGrid:
    """Two-photon amplitude psi(m, Omega) ~ Phi_m(Omega) / (gamma/2 - i Omega).

    ``m_count`` is the largest |m| kept; ``omega_grid_halfwidth`` is the
    detuning half-width in units of gamma (at least 10, so the neglected
    Lorentzian tails hold less than 1e-3 of the norm); ``points_per_mode`` is
    the number of detuning samples, at least 16 per gamma.
    """
    if m_count < 1:
        raise ValueError("m_count must be at least 1")
    if omega_grid_halfwidth < MIN_HALFWIDTH_GAMMAS:
        raise ValueError(
            f"omega_grid_halfwidth must be at least {MIN_HALFWIDTH_GAMMAS:g} gamma"
        )
    gamma = scales.gamma
    half = omega_grid_halfwidth * gamma
    if points_per_mode < MIN_POINTS_PER_MODE:
        raise ValueError(f"points_per_mode must be at least {MIN_POINTS_PER_MODE}")
    # Points per gamma depend only on the grid shape; computing them from
    # gamma / spacing would round below the limit for some gamma.
    points_per_gamma = (points_per_mode - 1) / (2.0 * omega_grid_halfwidth)
    if points_per_gamma < 16.0:
        raise GridTooCoarseError(
            f"only {points_per_gamma:.1f} grid points per gamma; at least 16 required"
        )
    modes = np.arange(-m_count, m_count + 1)
    omega = np.linspace(-half, half, points_per_mode)
    z = 0.5 * (modes[:, None] * scales.fsr_delta_omega + omega[None, :]) * scales.tau0
    phi = np.sinc(z / np.pi) * np.exp(-1j * z)
    raw = phi / (0.5 * gamma - 1j * omega)[None, :]
    norm_sq = float(np.sum(np.trapezoid(np.abs(raw) ** 2, omega, axis=1)))
    normalization = 1.0 / math.sqrt(norm_sq)
    return BiphotonAmplitudeGrid(modes, omega, normalization * raw, normalization)
