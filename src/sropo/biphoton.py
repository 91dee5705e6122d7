"""Pair generation: spectral amplitude, generation rate, two-photon amplitudes.

The central object is the phase-matching spectral amplitude of longitudinal
mode m at detuning Omega,

    Phi_m(Omega) = (1/l) * integral_{-l}^{0} dx exp(i (m*fsr + Omega) (tau0/l) x)
                 = sinc(z) * exp(-i z),   z = (m*fsr + Omega) * tau0 / 2.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .cavity import DerivedScales
from .constants import SPEED_OF_LIGHT as C_LIGHT
from .constants import TWO_PI
from .constants import VACUUM_PERMITTIVITY as EPS0
from .dispersion import CrystalParams, FrequencyTriple, refractive_index
from .errors import DegenerateGroupVelocityError, NonConvergenceError
from .names import Record, as_count, as_real

if TYPE_CHECKING:
    import numpy as np


class PumpParams(Record):
    """Classical pump: modulus of the relevant field component, V/m."""

    field_amplitude_ep: float

    def __post_init__(self):
        self._store_positive(*self._fields)


def _phi_factors(m, omega, scales: DerivedScales):
    """sinc(z), exp(-i*alpha) and exp(-i*beta), whose product is Phi_m(Omega):
    alpha = m*fsr*tau0/2 and beta = Omega*tau0/2 keep the shapes of m and
    omega, and z = alpha + beta broadcasts.  The phases cost one cos and sin
    per value of m and of omega; sin(z)/z, exactly 1 where z = 0, is the one
    transcendental over the broadcast grid.
    """
    import numpy as np  # here, not at the top: the rates need no numpy
    from .numerics import _expi

    half = 0.5 * scales.tau0
    alpha = np.multiply(np.multiply(m, scales.fsr_delta_omega), half)
    beta = np.multiply(omega, half)
    z = np.asarray(np.add(alpha, beta))
    z[z == 0] = np.finfo(float).eps  # sin(eps) / eps is exactly 1
    sinc = np.divide(np.sin(z), z, out=z)
    return sinc, _expi(np.negative(alpha)), _expi(np.negative(beta))


def phi_analytic(m, omega, scales: DerivedScales):
    """Closed-form spectral amplitude sinc(z) * exp(-i z); m and omega broadcast."""
    sinc, phase_m, phase_omega = _phi_factors(m, omega, scales)
    return (sinc * (phase_m * phase_omega))[()]


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


def _continuum_kappa(
    crystal: CrystalParams, pump: PumpParams, freqs: FrequencyTriple, tau0: float
) -> float:
    """prefactor * 2*pi / |tau0|, the continuum rate for tau0 != 0."""
    return _rate_prefactor(crystal, pump, freqs) * TWO_PI / abs(tau0)


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
    return _continuum_kappa(crystal, pump, freqs, scales.tau0)


def rate_mode_sum(
    crystal: CrystalParams,
    pump: PumpParams,
    freqs: FrequencyTriple,
    scales: DerivedScales,
) -> float:
    """Generation rate as the full sum over longitudinal modes, in closed form.

    The rate is prefactor * fsr * sum_{m in Z} sinc^2(m*dz), dz = fsr*|tau0|/2.
    The Fourier transform of sinc^2(dz*x) is the triangle
    (pi/dz) * max(0, 1 - pi*|k|/dz), so by Poisson summation, with
    K = floor(dz/pi),

        sum_{m in Z} sinc^2(m*dz) = (pi/dz) * (1 + 2K - pi*K*(K+1)/dz),

    and the rate is the continuum rate times the bracket.  For dz < pi the
    bracket is exactly 1; for dz > pi it holds the aliased triangle copies.
    """
    if scales.tau0 == 0.0:
        raise NonConvergenceError(
            "tau0 = 0: the mode sum does not converge; check the scenario regime"
        )
    dz = 0.5 * scales.fsr_delta_omega * abs(scales.tau0)
    k = math.floor(dz / math.pi)
    bracket = 1 + 2 * k - math.pi * (k * (k + 1)) / dz
    return rate_continuum(crystal, pump, freqs, scales) * bracket


class BiphotonAmplitudeGrid(Record, eq=False):
    """Normalized two-photon amplitudes psi(m, Omega) on a (mode, detuning) grid.

    ``amplitudes[i, j]`` belongs to mode ``modes[i]`` and detuning
    ``detuning[j]``; the trapezoidal norm over the stored grid is one.
    """

    modes: np.ndarray
    detuning: np.ndarray
    amplitudes: np.ndarray
    normalization: float


def wavefunction_grid(
    scales: DerivedScales,
    m_count: int | None = None,
    omega_grid_halfwidth: float | None = None,
    points_per_mode: int | None = None,
) -> BiphotonAmplitudeGrid:
    """Two-photon amplitude psi(m, Omega) ~ Phi_m(Omega) / (gamma/2 - i Omega).

    ``m_count`` is the largest |m| kept (default 8); ``omega_grid_halfwidth`` is the
    detuning half-width in units of gamma (default 12; at least 10, so the
    neglected Lorentzian tails hold less than 1e-3 of the norm);
    ``points_per_mode`` is the number of detuning samples (default 385), at
    least 16 per gamma, on an exact mirror about 0 (``numerics.symmetric_grid``;
    Omega = 0 at an odd count).  psi(-m, -Omega) = conj(psi(m, Omega)), so
    only the rows m >= 0 are evaluated; the norm's density over Omega sums
    those rows and, reversed in Omega, the rows m >= 1.
    """
    import numpy as np
    from .numerics import (
        POINTS_PER_GAMMA_MIN, check_linewidth, grid_points, require_points, symmetric_grid,
    )

    m_count = as_count(8 if m_count is None else m_count, "m_count", 1)
    omega_grid_halfwidth = as_real(12.0 if omega_grid_halfwidth is None else omega_grid_halfwidth,
                                   "omega_grid_halfwidth", 10.0)
    points_per_mode = as_count(385 if points_per_mode is None else points_per_mode,
                               "points_per_mode", 2)
    gamma = scales.gamma
    check_linewidth(gamma)
    half = omega_grid_halfwidth * gamma
    # Points per gamma depend only on the grid shape; computing them from
    # gamma / spacing would round below the limit for some gamma.
    points_per_gamma = (points_per_mode - 1) / (2.0 * omega_grid_halfwidth)
    require_points(points_per_gamma, POINTS_PER_GAMMA_MIN, "gamma",
                   ("omega_grid_halfwidth", "points_per_mode"))
    grid_points(None, (2 * m_count + 1) * points_per_mode - 1, ("m_count", "points_per_mode"))
    modes = np.arange(-m_count, m_count + 1)
    omega = symmetric_grid(half, points_per_mode)
    sinc, phase_m, phase_omega = _phi_factors(modes[m_count:, None], omega, scales)
    lorentz = 1.0 / (0.5 * gamma - 1j * omega)
    sinc_sq = np.square(sinc)
    density = sinc_sq.sum(axis=0)
    density += sinc_sq[1:].sum(axis=0)[::-1]
    density *= np.square(np.abs(lorentz))
    normalization = 1.0 / math.sqrt(float(np.trapezoid(density, omega)))
    phase_omega *= normalization * lorentz
    amplitudes = np.empty((modes.size, omega.size), dtype=complex)
    upper = np.multiply(phase_m, phase_omega, out=amplitudes[m_count:])
    upper *= sinc
    np.conjugate(upper[:0:-1, ::-1], out=amplitudes[:m_count])
    return BiphotonAmplitudeGrid(modes, omega, amplitudes, normalization)
