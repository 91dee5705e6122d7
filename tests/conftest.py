"""Shared test scenarios.

All scenarios use the same crystal geometry (l = 1 cm inside a 5 cm
resonator), constant-index models, and a cavity damping of 5% of the free
spectral range; they differ only in the idler group index, which sets the
transit-time difference tau0:

    idler n    fsr*|tau0|   used for
    1.984127   0.0997       spectrum comb (envelope zero exactly at mode 63)
    1.9        0.0542       g2 comb (peak positions/ratios/widths)
    1.83       0.0163       cross-tier comparisons (<= 0.02)
    1.8232     0.0126       rate sum-vs-continuum (dz = 0.0063 <= 0.01)
    1.81       0.0054       detector-averaged traces (dT >= 10|tau0| at dT = 0.02T)
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from sropo import (
    CavityParams,
    CrystalParams,
    DispersionKind,
    DispersionModel,
    FrequencyTriple,
    PumpParams,
    derive_scales,
)

C_LIGHT = 299792458.0
ROUND_TRIP = 0.116 / C_LIGHT  # 2*l*n_s/c + 2*(Lr-l)/c with l=0.01, Lr=0.05, n_s=1.8
GAMMA = 0.05 * 2.0 * math.pi / ROUND_TRIP  # good-cavity: gamma/fsr = 0.05
WIDE_RANGE = (1e14, 1e16)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def constant_model(n: float) -> DispersionModel:
    return DispersionModel(DispersionKind.CONSTANT, (n,), WIDE_RANGE)


def make_setup(idler_n: float, gamma: float = GAMMA):
    """(crystal, cavity, pump, freqs, scales) for the standard geometry."""
    crystal = CrystalParams(
        length_l=0.01,
        chi=2e-12,
        cross_section_A=1e-8,
        dispersion_signal=constant_model(1.8),
        dispersion_idler=constant_model(idler_n),
        dispersion_pump=constant_model(1.85),
    )
    cavity = CavityParams(resonator_length_lr=0.05, loss_rate_gamma=gamma)
    pump = PumpParams(field_amplitude_ep=1e-16)
    freqs = FrequencyTriple.from_pump_and_signal(3.5e15, 2.0e15)
    scales = derive_scales(crystal, cavity, pump, freqs)
    return crystal, cavity, pump, freqs, scales


@pytest.fixture(scope="session")
def comb_setup():
    """fsr*|tau0| = 0.054: resolvable g2 comb."""
    return make_setup(1.9)


@pytest.fixture(scope="session")
def cross_tier_setup():
    """fsr*|tau0| = 0.016: exact/series/compact agreement regime."""
    return make_setup(1.83)


@pytest.fixture(scope="session")
def rate_setup():
    """fsr*|tau0|/2 = 0.0063: sum-to-integral regime."""
    return make_setup(1.8232)


@pytest.fixture(scope="session")
def averaged_setup():
    """tau0/T = 8.6e-4: detector averaging valid down to dT = 0.02 T."""
    return make_setup(1.81)


SPECTRUM_IDLER_N = 1.8 + 0.116 / 0.63  # envelope zero exactly at mode 63


@pytest.fixture(scope="session")
def spectrum_setup():
    """fsr*|tau0| = 2*pi/63: envelope zero exactly at mode 63."""
    return make_setup(SPECTRUM_IDLER_N)


def scenario_dict(idler_n: float = 1.9, gamma: float = GAMMA, **overrides) -> dict:
    """JSON-ready scenario matching make_setup()."""
    data = {
        "crystal": {
            "length_l": 0.01,
            "chi": 2e-12,
            "cross_section_A": 1e-8,
            "dispersion_signal": {
                "kind": "constant",
                "parameters": [1.8],
                "validity_range": [1e14, 1e16],
            },
            "dispersion_idler": {
                "kind": "constant",
                "parameters": [idler_n],
                "validity_range": [1e14, 1e16],
            },
            "dispersion_pump": {
                "kind": "constant",
                "parameters": [1.85],
                "validity_range": [1e14, 1e16],
            },
        },
        "cavity": {"resonator_length_Lr": 0.05, "loss_rate_gamma": gamma},
        "pump": {"field_amplitude_EP": 1e-16},
        "frequencies": {"omega_P": 3.5e15, "omega_S": 2.0e15},
        "output": {"directory": "out", "format": "csv"},
    }
    data.update(overrides)
    return data


def pytest_report_header(config):
    from record_golden import comparison_mode

    return f"golden outputs compared by {comparison_mode()}"
