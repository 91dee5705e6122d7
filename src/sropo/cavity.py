"""Resonator geometry: effective round-trip time, mode comb, regime checks.

The cavity resonates the signal only and is assumed tuned so that the signal
centre frequency coincides with a longitudinal mode.  The crystal of length l
occupies part of a resonator of length L_r >= l; the rest is free space.
"""

from __future__ import annotations

import math

from .constants import SPEED_OF_LIGHT as C_LIGHT
from .constants import TWO_PI
from .dispersion import (
    CrystalParams,
    FrequencyTriple,
    group_velocity,
    refractive_index,
)
from .errors import ScenarioValidationError
from .names import REGIME_RATIOS, Record, as_real, inputs

DEFAULT_REGIME_THRESHOLD = 0.1


class CavityParams(Record):
    """One-sided signal resonator: total length and field damping rate."""

    resonator_length_lr: float
    loss_rate_gamma: float

    def __post_init__(self):
        for name in ("resonator_length_lr", "loss_rate_gamma"):
            as_real(getattr(self, name), name, 0.0, strict=True)


class DerivedScales(Record):
    """The time/rate scales every downstream computation runs on.

    ``kappa`` is +inf when tau0 == 0 (the continuum rate diverges there);
    ``check_regime`` judges the scale separation.
    """

    tau0: float
    round_trip_T: float
    fsr_delta_omega: float
    gamma: float
    kappa: float


class RegimeCheck(Record):
    name: str
    value: float
    passed: bool


class RegimeReport(Record):
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
        raise ScenarioValidationError(
            f"cavity.resonator_length_Lr must be at least crystal.length_l = "
            f"{crystal.length_l!r}, got {cavity.resonator_length_lr!r}")
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
    return as_real(number, f"{inputs('mode_number')}: derived resonance mode number",
                   -math.inf)


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
        RegimeCheck(name, value, value <= threshold)
        for name, value in zip(REGIME_RATIOS, ratios)
    )
    return RegimeReport(checks, all(c.passed for c in checks), threshold)
