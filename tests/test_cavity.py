import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sropo import (
    CavityParams,
    CrystalParams,
    DerivedScales,
    FrequencyTriple,
    PumpParams,
    ScenarioValidationError,
    check_regime,
    derive_scales,
    free_spectral_range,
    resonance_mode_number,
    round_trip_time,
    scenario_from_dict,
)
from conftest import constant_model, make_setup, scenario_dict
from helpers import mode_frequency


def crystal_with(signal_n=1.8):
    return CrystalParams(
        length_l=0.01,
        chi=2e-12,
        cross_section_A=1e-8,
        dispersion_signal=constant_model(signal_n),
        dispersion_idler=constant_model(1.9),
        dispersion_pump=constant_model(1.85),
    )


FREQS = FrequencyTriple.from_pump_and_signal(3.5e15, 2.0e15)


class TestRoundTripTime:
    def test_crystal_fills_cavity(self):
        T = round_trip_time(crystal_with(), CavityParams(0.01, 1e9), FREQS)
        assert T == pytest.approx(2 * 0.01 * 1.8 / 299792458.0, rel=1e-15)

    def test_frozen_value(self):
        T = round_trip_time(crystal_with(), CavityParams(0.05, 1e9), FREQS)
        assert T == pytest.approx(3.8693435042985637e-10, rel=1e-14)

    def test_air_path_linearity(self):
        T1 = round_trip_time(crystal_with(), CavityParams(0.05, 1e9), FREQS)
        T2 = round_trip_time(crystal_with(), CavityParams(0.09, 1e9), FREQS)
        assert T2 - T1 == pytest.approx(2 * 0.04 / 299792458.0, rel=1e-12)

    def test_monotone_in_lengths(self):
        lengths = [0.02, 0.03, 0.05, 0.08]
        times = [
            round_trip_time(crystal_with(), CavityParams(lr, 1e9), FREQS)
            for lr in lengths
        ]
        assert times == sorted(times)

    def test_geometry_error(self):
        with pytest.raises(ScenarioValidationError, match=re.escape(
                "cavity.resonator_length_Lr must be at least crystal.length_l = 0.01, "
                "got 0.005")):
            round_trip_time(crystal_with(), CavityParams(0.005, 1e9), FREQS)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(length=st.floats(1e-6, 1.0), fraction=st.floats(1e-3, 1.0, exclude_max=True))
    @example(length=0.01, fraction=0.5)
    @example(length=0.01, fraction=1 - 2**-52)  # L_r one ulp short of l
    def test_resonator_shorter_than_crystal_is_refused_alike_at_each_entry(
            self, length, fraction):
        # round_trip_time owns the rule; derive_scales and a scenario reach it
        resonator = min(length * fraction, math.nextafter(length, 0.0))
        crystal = crystal_with().replace(length_l=length)
        cavity = CavityParams(resonator, 1e9)
        data = scenario_dict()
        data["crystal"]["length_l"], data["cavity"]["resonator_length_Lr"] = length, resonator
        message = re.escape(f"cavity.resonator_length_Lr must be at least crystal.length_l "
                            f"= {length!r}, got {resonator!r}")
        for call in (lambda: round_trip_time(crystal, cavity, FREQS),
                     lambda: derive_scales(crystal, cavity, PumpParams(1e-16), FREQS),
                     lambda: scenario_from_dict(data)):
            with pytest.raises(ScenarioValidationError, match=f"^{message}$"):
                call()


class TestFreeSpectralRange:
    def test_frozen_value(self):
        assert free_spectral_range(3.8693435042985637e-10) == pytest.approx(
            16238375580.248735, rel=1e-14
        )

    def test_two_pi_seconds(self):
        assert free_spectral_range(2 * math.pi) == pytest.approx(1.0, rel=1e-15)

    def test_product_is_two_pi(self):
        for T in (1e-10, 3.8693435042985637e-10, 2.5e-9):
            assert free_spectral_range(T) * T == pytest.approx(
                2 * math.pi, rel=4e-16
            )


class TestModeComb:
    def test_central_and_adjacent(self):
        fsr = 1.62e10
        assert mode_frequency(FREQS, fsr, 0) == FREQS.omega_s
        assert mode_frequency(FREQS, fsr, 1) == FREQS.omega_s + fsr
        assert mode_frequency(FREQS, fsr, -1) == FREQS.omega_s - fsr

    def test_uniform_progression(self):
        fsr = 1.62e10
        diffs = {
            mode_frequency(FREQS, fsr, m) - mode_frequency(FREQS, fsr, m - 1)
            for m in range(-40, 41)
        }
        assert diffs == {fsr}

    def test_resonance_mode_number(self):
        m0 = resonance_mode_number(crystal_with(), FREQS)
        assert m0 == pytest.approx(
            2.0e15 * 1.8 * 0.01 / (math.pi * 299792458.0), rel=1e-14
        )


class TestRegime:
    def scales(self, ratios):
        """Scales whose (kappa/gamma, gamma/fsr, fsr*|tau0|) are ``ratios``."""
        kappa_gamma, gamma_fsr, fsr_tau0 = ratios
        fsr = 2 * math.pi / 1e-10
        # gamma must stay positive; at the smallest float gamma/fsr is 0.0
        gamma = gamma_fsr * fsr or math.ulp(0.0)
        return DerivedScales(
            tau0=fsr_tau0 / fsr,
            round_trip_T=1e-10,
            fsr_delta_omega=fsr,
            gamma=gamma,
            kappa=kappa_gamma * gamma,
        )

    @pytest.mark.parametrize(
        "ratios", [(0.001, 0.05, 0.02), (0.001, 0.5, 0.02), (0.0, 0.0, 0.0)]
    )
    def test_values_are_the_scale_ratios(self, ratios):
        report = check_regime(self.scales(ratios))
        assert [c.name for c in report.checks] == [
            "kappa/gamma", "gamma/fsr", "fsr*|tau0|"
        ]
        assert [c.value for c in report.checks] == pytest.approx(ratios, rel=1e-15)

    def test_good_cavity_passes(self):
        report = check_regime(self.scales((0.001, 0.05, 0.02)))
        assert report.ok
        assert [c.passed for c in report.checks] == [True, True, True]

    def test_half_fails(self):
        report = check_regime(self.scales((0.001, 0.5, 0.02)))
        assert not report.ok
        assert [c.passed for c in report.checks] == [True, False, True]

    def test_all_zero_passes(self):
        report = check_regime(self.scales((0.0, 0.0, 0.0)))
        assert report.ok

    def test_threshold_configurable(self):
        report = check_regime(self.scales((0.001, 0.5, 0.02)), threshold=0.6)
        assert report.ok

    def test_derived_scales_from_setup(self, comb_setup):
        _, _, _, _, scales = comb_setup
        report = check_regime(scales)
        assert report.ok
        assert report.checks[1].value == pytest.approx(0.05, rel=1e-12)
        assert scales.fsr_delta_omega * scales.round_trip_T == pytest.approx(
            2 * math.pi, rel=4e-16
        )

    def test_zero_tau0_gives_infinite_kappa(self):
        crystal, cavity, pump, freqs, scales = make_setup(1.8)
        assert scales.tau0 == 0.0
        assert math.isinf(scales.kappa)
        report = check_regime(scales)
        assert not report.ok
        assert report.checks[2].value == 0.0 and report.checks[2].passed
