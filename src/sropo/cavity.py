"""Resonator geometry: effective round-trip time, mode comb, regime checks.

The cavity resonates the signal only and is assumed tuned so that the signal
centre frequency coincides with a longitudinal mode.  The crystal of length l
occupies part of a resonator of length L_r >= l; the rest is free space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import SPEED_OF_LIGHT as C_LIGHT
from .constants import TWO_PI
from .dispersion import (
    CrystalParams,
    FrequencyTriple,
    group_velocity,
    refractive_index,
)
from .errors import GeometryError, ScenarioValidationError

DEFAULT_REGIME_THRESHOLD = 0.1
REGIME_RATIO_NAMES = ("kappa/gamma", "gamma/fsr", "fsr*|tau0|")


@dataclass(frozen=True)
class CavityParams:
    """One-sided signal resonator: total length and field damping rate."""

    resonator_length_lr: float
    loss_rate_gamma: float

    def __post_init__(self):
        if self.resonator_length_lr <= 0:
            raise ValueError("resonator_length_lr must be positive")
        if self.loss_rate_gamma <= 0:
            raise ValueError("loss_rate_gamma must be positive")


@dataclass(frozen=True)
class DerivedScales:
    """The time/rate scales every downstream computation runs on.

    ``kappa`` is +inf when tau0 == 0 (the continuum rate diverges there);
    ``check_regime`` judges the scale separation.
    """

    tau0: float
    round_trip_T: float
    fsr_delta_omega: float
    gamma: float
    kappa: float


@dataclass(frozen=True)
class RegimeCheck:
    name: str
    value: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class RegimeReport:
    checks: tuple[RegimeCheck, ...]
    ok: bool
    threshold: float

    def summary(self) -> str:
        parts = [
            f"{c.name}={c.value:.3e} {'PASS' if c.passed else 'FAIL'}"
            for c in self.checks
        ]
        parts.append(f"overall {'PASS' if self.ok else 'FAIL'}")
        return "; ".join(parts)


def round_trip_time(
    crystal: CrystalParams, cavity: CavityParams, freqs: FrequencyTriple
) -> float:
    """Effective round-trip time T = 2l/v_gS + 2(L_r - l)/c of a signal photon."""
    if cavity.resonator_length_lr < crystal.length_l:
        raise GeometryError(
            f"resonator_length_lr = {cavity.resonator_length_lr!r} m is shorter "
            f"than the crystal length {crystal.length_l!r} m"
        )
    v_gs = group_velocity(crystal.dispersion_signal, freqs.omega_s)
    air = cavity.resonator_length_lr - crystal.length_l
    return 2.0 * crystal.length_l / v_gs + 2.0 * air / C_LIGHT


def free_spectral_range(round_trip: float) -> float:
    """Longitudinal mode spacing 2*pi/T in rad/s; ``derive_scales`` checks T."""
    return TWO_PI / round_trip


def resonance_mode_number(crystal: CrystalParams, freqs: FrequencyTriple) -> float:
    """Longitudinal index of the resonant signal mode, omega_s*n_s*l/(pi*c).

    Informational only; it cancels out of every derived quantity.  A number
    that overflows a double is a configuration error naming its inputs.
    """
    n_s = refractive_index(crystal.dispersion_signal, freqs.omega_s)
    number = freqs.omega_s * n_s * crystal.length_l / (0.5 * TWO_PI * C_LIGHT)
    if not math.isfinite(number):
        raise ScenarioValidationError(
            "crystal.length_l, crystal.dispersion_signal: resonance mode number "
            f"= {number!r} overflows a double"
        )
    return number


def check_regime(
    scales: DerivedScales, threshold: float = DEFAULT_REGIME_THRESHOLD
) -> RegimeReport:
    """Flag each scale-separation ratio against ``threshold``.

    The ratios are (kappa/gamma, gamma/fsr, fsr*|tau0|); each must be small
    for the scale separation the closed-form results assume.  Reporting
    only: no operation refuses to run outside the regime, but the
    closed-form approximations degrade as the ratios grow.
    """
    ratios = (
        scales.kappa / scales.gamma,
        scales.gamma / scales.fsr_delta_omega,
        scales.fsr_delta_omega * abs(scales.tau0),
    )
    checks = tuple(
        RegimeCheck(name, value, threshold, value <= threshold)
        for name, value in zip(REGIME_RATIO_NAMES, ratios)
    )
    return RegimeReport(checks, all(c.passed for c in checks), threshold)
