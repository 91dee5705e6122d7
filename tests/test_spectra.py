import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sropo.spectra
from sropo import (
    GridTooCoarseError,
    Normalization,
    envelope_zero_mode,
    g1,
    load_scenario,
    spectrum,
)
from sropo.peaks import measure_peaks, nearest_peak
from sropo.spectra import _mode_weights, g1_grid, spectrum_grid
from scipy.integrate import trapezoid
from conftest import CONFIG_DIR
from oracles import g1_mode_loop

CONFIGS = sorted(p.name for p in CONFIG_DIR.glob("*.json"))


class TestSpectrum:
    def test_central_peak_at_zero_detuning(self, spectrum_setup):
        *_, freqs_scales = spectrum_setup
        crystal, cavity, pump, freqs, scales = spectrum_setup
        trace = spectrum("idler", scales, freqs)
        peak = nearest_peak(measure_peaks(trace.axis, trace.values, floor=0.5), 0.0)
        assert abs(peak.center) <= trace.spacing

    def test_comb_peaks_at_minus_m_fsr(self, spectrum_setup):
        crystal, cavity, pump, freqs, scales = spectrum_setup
        fsr = scales.fsr_delta_omega
        half = 6.5 * fsr
        n = 2 * math.ceil(24.0 * half / scales.gamma) + 1
        trace = spectrum("idler", scales, freqs, detuning=np.linspace(-half, half, n))
        peaks = measure_peaks(trace.axis, trace.values, floor=0.5)
        for m in range(-6, 7):
            peak = nearest_peak(peaks, -m * fsr)
            assert abs(peak.center - (-m * fsr)) <= trace.spacing

    def test_central_lorentzian_fwhm_is_gamma(self, spectrum_setup):
        crystal, cavity, pump, freqs, scales = spectrum_setup
        trace = spectrum("idler", scales, freqs)
        peak = nearest_peak(measure_peaks(trace.axis, trace.values, floor=0.5), 0.0)
        assert peak.fwhm == pytest.approx(scales.gamma, rel=0.05)

    def test_envelope_zero_suppression(self, spectrum_setup):
        crystal, cavity, pump, freqs, scales = spectrum_setup
        m_zero = envelope_zero_mode(scales)
        assert m_zero == 63
        trace = spectrum("idler", scales, freqs)
        fsr = scales.fsr_delta_omega
        window = np.abs(trace.axis + m_zero * fsr) < 0.4 * fsr
        assert trace.values[window].max() <= 1e-3

    def test_signal_and_idler_combs_identical(self, spectrum_setup):
        crystal, cavity, pump, freqs, scales = spectrum_setup
        sig = spectrum("signal", scales, freqs)
        idl = spectrum("idler", scales, freqs)
        assert np.array_equal(sig.values, idl.values)
        assert sig.meta.extra["center_frequency_rad_per_s"] == freqs.omega_s
        assert idl.meta.extra["center_frequency_rad_per_s"] == freqs.omega_i

    def test_symmetric_about_centre(self, spectrum_setup):
        crystal, cavity, pump, freqs, scales = spectrum_setup
        trace = spectrum("idler", scales, freqs)
        assert np.abs(trace.values - trace.values[::-1]).max() < 1e-10

    def test_half_height_extent_bound(self, spectrum_setup):
        crystal, cavity, pump, freqs, scales = spectrum_setup
        trace = spectrum("idler", scales, freqs)
        peaks = measure_peaks(trace.axis, trace.values, floor=0.01)
        tall = [p for p in peaks if p.height >= 0.5]
        outer = max(abs(p.center) for p in tall)
        assert outer <= 2.8 / abs(scales.tau0)

    def test_unit_integral_normalization(self, spectrum_setup):
        crystal, cavity, pump, freqs, scales = spectrum_setup
        trace = spectrum(
            "idler", scales, freqs, normalization=Normalization.UNIT_INTEGRAL
        )
        assert trapezoid(trace.values, trace.axis) == pytest.approx(1.0, rel=1e-12)

    def test_grid_too_coarse(self, spectrum_setup):
        crystal, cavity, pump, freqs, scales = spectrum_setup
        bad = np.linspace(-10 * scales.gamma, 10 * scales.gamma, 30)
        with pytest.raises(GridTooCoarseError):
            spectrum("idler", scales, freqs, detuning=bad)

    def test_peak_normalized_max_is_one(self, spectrum_setup):
        crystal, cavity, pump, freqs, scales = spectrum_setup
        trace = spectrum("signal", scales, freqs)
        assert trace.values.max() == 1.0

    @pytest.mark.parametrize(
        "detuning",
        [
            np.array([0.0]),
            np.linspace(1e9, -1e9, 2001),
            np.array([0.0, 1e6, np.nan]),
        ],
        ids=["one_point", "decreasing", "nan"],
    )
    def test_rejects_bad_grid_before_computing(
        self, spectrum_setup, monkeypatch, detuning
    ):
        crystal, cavity, pump, freqs, scales = spectrum_setup

        def no_work(*args):
            raise AssertionError("mode weights computed for a refused grid")

        monkeypatch.setattr(sropo.spectra, "_mode_weights", no_work)
        with pytest.raises(ValueError, match="detuning"):
            spectrum("idler", scales, freqs, detuning=detuning)

    @pytest.mark.parametrize("name", CONFIGS)
    def test_given_window_rounds_as_the_default_window(self, name):
        scales = load_scenario(CONFIG_DIR / name).scales
        window = envelope_zero_mode(scales) + 0.5
        assert np.array_equal(spectrum_grid(scales), spectrum_grid(scales, window))


class TestG1:
    def test_default_grid_is_g1_grid(self, spectrum_setup):
        crystal, cavity, pump, freqs, scales = spectrum_setup
        trace = g1("idler", scales, freqs, m_max=10)
        assert np.array_equal(trace.axis, g1_grid(scales, m_max=10))
        assert trace.axis[-1] == 10.0 / scales.gamma

    def test_unity_at_zero_delay(self, spectrum_setup):
        crystal, cavity, pump, freqs, scales = spectrum_setup
        tau = np.linspace(-5 / scales.gamma, 5 / scales.gamma, 2001)
        trace = g1("idler", scales, freqs, tau=tau, m_max=10)
        assert trace.values[1000] == 1.0 + 0.0j

    def test_single_mode_is_exponential(self, spectrum_setup):
        crystal, cavity, pump, freqs, scales = spectrum_setup
        tau = np.linspace(-8 / scales.gamma, 8 / scales.gamma, 4001)
        trace = g1("idler", scales, freqs, tau=tau, m_max=0)
        expected = np.exp(-0.5 * scales.gamma * np.abs(tau))
        assert np.abs(np.abs(trace.values) - expected).max() < 1e-14

    def test_hermitian_in_delay(self, spectrum_setup):
        crystal, cavity, pump, freqs, scales = spectrum_setup
        tau = np.linspace(-5 / scales.gamma, 5 / scales.gamma, 2001)
        trace = g1("idler", scales, freqs, tau=tau, m_max=15)
        assert np.abs(trace.values - np.conj(trace.values[::-1])).max() < 1e-12

    def test_fourier_transform_matches_spectrum(self, spectrum_setup):
        crystal, cavity, pump, freqs, scales = spectrum_setup
        T = scales.round_trip_T
        fsr = scales.fsr_delta_omega
        n = 4096
        dtau = T / 64
        tau = (np.arange(n) - n / 2) * dtau
        assert (n * dtau) * scales.gamma >= 20.0
        corr = g1("idler", scales, freqs, tau=tau, m_max=20)
        spec_dft = (
            (dtau / (2 * math.pi))
            * np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(corr.values)))
            * n
        )
        axis = np.fft.fftshift(np.fft.fftfreq(n, dtau)) * 2 * math.pi
        assert np.abs(spec_dft.imag).max() < 1e-12 * np.abs(spec_dft.real).max()
        values = spec_dft.real
        bin_spacing = 2 * math.pi / (n * dtau)

        half = 5.5 * fsr
        n_fine = 2 * math.ceil(24.0 * half / scales.gamma) + 1
        fine = spectrum(
            "idler", scales, freqs, detuning=np.linspace(-half, half, n_fine),
            m_max=20,
        )
        dft_peaks = measure_peaks(axis, values / values.max(), floor=0.2)
        fine_peaks = measure_peaks(fine.axis, fine.values, floor=0.2)
        dft_centre = nearest_peak(dft_peaks, 0.0)
        fine_centre = nearest_peak(fine_peaks, 0.0)
        for m in range(-5, 6):
            p = nearest_peak(dft_peaks, -m * fsr)
            q = nearest_peak(fine_peaks, -m * fsr)
            assert abs(p.center - q.center) <= bin_spacing
            ratio_dft = p.height / dft_centre.height
            ratio_fine = q.height / fine_centre.height
            assert ratio_dft == pytest.approx(ratio_fine, rel=0.02)

    def test_grid_too_coarse_for_modes(self, spectrum_setup):
        crystal, cavity, pump, freqs, scales = spectrum_setup
        tau = np.linspace(-5 / scales.gamma, 5 / scales.gamma, 201)
        with pytest.raises(GridTooCoarseError):
            g1("idler", scales, freqs, tau=tau, m_max=400)

    def test_matches_mode_loop_oracle(self, spectrum_setup):
        crystal, cavity, pump, freqs, scales = spectrum_setup
        tau = np.linspace(-3 / scales.gamma, 3 / scales.gamma, 6001)
        trace = g1("idler", scales, freqs, tau=tau, m_max=100)
        want = g1_mode_loop(
            _mode_weights(100, scales), scales.fsr_delta_omega, scales.gamma, tau
        )
        assert np.abs(trace.values - want).max() <= 1e-11
        assert np.all(trace.values.imag == 0.0)

    def test_unity_where_grid_holds_zero_off_centre(self, spectrum_setup):
        crystal, cavity, pump, freqs, scales = spectrum_setup
        tau = np.linspace(-1 / scales.gamma, 4 / scales.gamma, 1001)
        assert tau[200] == 0.0
        trace = g1("idler", scales, freqs, tau=tau, m_max=10)
        assert trace.values[200] == 1.0 + 0.0j

    @pytest.mark.parametrize(
        "tau",
        [
            np.array([0.0]),
            np.array([0.0, 1e-12, 3e-12]),
            np.array([1e-12, 0.0, -1e-12]),
            np.array([0.0, 1e-12, np.nan]),
        ],
        ids=["one_point", "non_uniform", "decreasing", "nan"],
    )
    def test_rejects_grid_that_is_not_uniform_and_finite(self, spectrum_setup, tau):
        crystal, cavity, pump, freqs, scales = spectrum_setup
        with pytest.raises(ValueError, match="tau"):
            g1("idler", scales, freqs, tau=tau, m_max=2)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(
        m_max=st.integers(0, 40),
        half_gammas=st.floats(0.25, 4.0),
        extra_points=st.integers(0, 2000),
    )
    def test_bounded_and_hermitian_on_random_grids(
        self, spectrum_setup, m_max, half_gammas, extra_points
    ):
        crystal, cavity, pump, freqs, scales = spectrum_setup
        half = half_gammas / scales.gamma
        finest = 1 / (16 * scales.gamma)
        if m_max:
            finest = min(finest, scales.round_trip_T / (2.5 * m_max))
        n = math.ceil(2 * half / finest) + 2 + extra_points
        tau = np.linspace(-half, half, n)
        values = g1("idler", scales, freqs, tau=tau, m_max=m_max).values
        assert np.all(values.imag == 0.0)
        assert np.abs(values).max() <= 1.0 + 1e-12
        assert np.abs(values - np.conj(values[::-1])).max() < 1e-12
