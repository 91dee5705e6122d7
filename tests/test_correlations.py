import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sropo import (
    DegenerateGroupVelocityError,
    DerivedScales,
    G2Request,
    G2Tier,
    GridTooCoarseError,
    ResolutionTooFineError,
    ScenarioValidationError,
    g2_averaged,
    g2_compact,
    g2_exact,
    g2_series,
    load_scenario,
    scenario_from_dict,
)
from sropo import correlations
from sropo.correlations import g2_grid
from sropo.peaks import measure_peaks, nearest_peak
from conftest import C_LIGHT, CONFIG_DIR, scenario_dict
from helpers import local_maxima, minimum_between
from oracles import (
    g2_averaged_all_echoes, g2_compact_convolved, g2_exact_quadrature, g2_series_mode_loop,
    lorentzian_kernel,
)


def plateau_mean(trace, center, halfwidth):
    window = np.abs(trace.axis - center) < halfwidth
    return float(trace.values[window].mean())


class TestLorentzianKernel:
    def test_zero_for_negative_times(self):
        assert lorentzian_kernel(-1e-9, 1e9) == 0.0
        assert lorentzian_kernel(-1e-30, 1e9) == 0.0

    def test_unity_at_zero(self):
        assert lorentzian_kernel(0.0, 1e9) == 1.0

    def test_decaying_branch(self):
        gamma = 7.7e8
        assert lorentzian_kernel(2.0 / gamma, gamma) == pytest.approx(
            0.7357588823428847, rel=1e-14
        )

    def test_array_input(self):
        gamma = 1e9
        t = np.array([-1.0, 0.0, 2.0 / gamma])
        out = lorentzian_kernel(t, gamma)
        assert out[0] == 0.0 and out[1] == 1.0
        assert out[2] == pytest.approx(2 * math.exp(-1.0), rel=1e-14)


def comb_grid(scales, n_peaks=3, points_per_tau0=16):
    tau0, T = scales.tau0, scales.round_trip_T
    start = -2 * abs(tau0) - T / 16
    stop = (n_peaks - 1) * T + 2 * abs(tau0)
    n = int((stop - start) / (abs(tau0) / points_per_tau0)) + 1
    return np.linspace(start, stop, n)


class TestSeries:
    def test_peak_positions_heights_widths(self, comb_setup):
        *_, scales = comb_setup
        tau0, T, gamma = scales.tau0, scales.round_trip_T, scales.gamma
        tau = comb_grid(scales)
        trace = g2_series(G2Request(G2Tier.SERIES, tau), scales)
        assert trace.values.max() == 1.0
        peaks = measure_peaks(trace.axis, trace.values, floor=0.02)
        for j in range(3):
            expected = j * T - tau0 / 2
            peak = nearest_peak(peaks, expected)
            assert abs(peak.center - expected) <= trace.axis[1] - trace.axis[0]
            assert peak.fwhm == pytest.approx(abs(tau0), rel=0.25)
        heights = [
            plateau_mean(trace, j * T - tau0 / 2, abs(tau0) / 4) for j in range(3)
        ]
        ratio = math.exp(-gamma * T)
        assert heights[1] / heights[0] == pytest.approx(ratio, rel=0.01)
        assert heights[2] / heights[1] == pytest.approx(ratio, rel=0.01)

    def test_forbidden_region_exactly_zero(self, comb_setup):
        *_, scales = comb_setup
        tau = comb_grid(scales)
        trace = g2_series(G2Request(G2Tier.SERIES, tau), scales)
        assert np.all(trace.values[tau < -scales.tau0] == 0.0)

    def test_midpoint_suppressed(self, cross_tier_setup):
        *_, scales = cross_tier_setup
        tau0, T = scales.tau0, scales.round_trip_T
        tau = comb_grid(scales, n_peaks=2)
        trace = g2_series(G2Request(G2Tier.SERIES, tau), scales)
        mid = np.abs(tau - (T / 2 - tau0 / 2)) < T / 20
        assert trace.values[mid].max() <= 1e-3

    def test_negative_tau0_reflects_structure(self, comb_setup):
        crystal, cavity, pump, freqs, scales = comb_setup
        flipped = scales.replace(tau0=-scales.tau0)
        tau0, T = scales.tau0, scales.round_trip_T
        tau = comb_grid(scales)
        trace = g2_series(G2Request(G2Tier.SERIES, tau), flipped)
        assert np.all(trace.values[tau < 0] == 0.0)
        peaks = measure_peaks(trace.axis, trace.values, floor=0.02)
        step = trace.axis[1] - trace.axis[0]
        for j in range(2):
            expected = j * T + abs(tau0) / 2
            assert abs(nearest_peak(peaks, expected).center - expected) <= step

    def test_grid_spacing_enforced(self, comb_setup):
        *_, scales = comb_setup
        tau = np.linspace(-1e-11, 1e-9, 100)  # far coarser than tau0/8
        with pytest.raises(GridTooCoarseError):
            g2_series(G2Request(G2Tier.SERIES, tau), scales)

    def test_degenerate_tau0_rejected(self):
        from conftest import make_setup

        *_, scales = make_setup(1.8)
        tau = np.linspace(-1e-12, 1e-9, 1000)
        with pytest.raises(DegenerateGroupVelocityError):
            g2_series(G2Request(G2Tier.SERIES, tau), scales)

    def test_tier_mismatch_rejected(self, comb_setup):
        *_, scales = comb_setup
        tau = comb_grid(scales)
        with pytest.raises(ValueError):
            g2_series(G2Request(G2Tier.COMPACT, tau), scales)


    @pytest.mark.parametrize("flip", [False, True], ids=["tau0", "minus_tau0"])
    def test_matches_chebyshev_oracle(self, comb_setup, flip):
        # 1,847 modes; the oracle's own recurrence error grows with M.
        *_, scales = comb_setup
        if flip:
            scales = scales.replace(tau0=-scales.tau0)
        tau = comb_grid(scales)
        trace = g2_series(G2Request(G2Tier.SERIES, tau), scales)
        want = g2_series_mode_loop(tau, scales, trace.meta.extra["m_max"])
        assert np.abs(trace.values - want).max() <= 1e-11
        assert np.array_equal(trace.values == 0.0, want == 0.0)


class TestCompact:
    def exact_scales(self):
        # numbers chosen exactly representable so boxcar boundaries are exact
        return DerivedScales(
            tau0=2.0,
            round_trip_T=16.0,
            fsr_delta_omega=2 * math.pi / 16.0,
            gamma=1.0 / 16.0,
            kappa=0.0,
        )

    def test_boxcar_membership_and_heights(self):
        scales = self.exact_scales()
        tau = np.arange(-40, 400, 0.25)
        trace = g2_compact(G2Request(G2Tier.COMPACT, tau), scales)
        T, gamma = scales.round_trip_T, scales.gamma
        # tau = 0 inside the straddling first boxcar
        assert trace.values[np.nonzero(tau == 0.0)[0][0]] == 1.0
        # boundary values included (closed interval)
        assert trace.values[np.nonzero(tau == -2.0)[0][0]] == 1.0
        assert trace.values[np.nonzero(tau == 0.0)[0][0]] == 1.0
        # echo heights
        for j in (1, 2):
            idx = np.nonzero(tau == j * T - 1.0)[0][0]
            assert trace.values[idx] == pytest.approx(math.exp(-gamma * j * T), rel=1e-14)
        # midway between boxcars
        assert trace.values[np.nonzero(tau == T / 2)[0][0]] == 0.0

    def test_frozen_heights_at_five_percent_damping(self, comb_setup):
        *_, scales = comb_setup
        tau0, T = scales.tau0, scales.round_trip_T
        tau = comb_grid(scales)
        trace = g2_compact(G2Request(G2Tier.COMPACT, tau), scales)
        peaks = measure_peaks(trace.axis, trace.values, floor=0.02)
        p1 = nearest_peak(peaks, T - tau0 / 2)
        p2 = nearest_peak(peaks, 2 * T - tau0 / 2)
        assert p1.height == pytest.approx(0.7304026910486456, rel=1e-12)
        assert p2.height == pytest.approx(0.5334880910911033, rel=1e-12)

    def test_peak_areas_scale_exactly(self):
        scales = self.exact_scales()
        tau = np.arange(-8.0, 8 * scales.round_trip_T, 0.125)
        trace = g2_compact(G2Request(G2Tier.COMPACT, tau), scales)
        T, tau0 = scales.round_trip_T, scales.tau0
        areas = []
        for j in range(4):
            window = np.abs(tau - (j * T - tau0 / 2)) <= tau0
            areas.append(trace.values[window].sum())
        for j in (1, 2, 3):
            assert areas[j] / areas[0] == pytest.approx(
                math.exp(-scales.gamma * j * T), rel=1e-12
            )

    def test_forbidden_region_exactly_zero(self, comb_setup):
        *_, scales = comb_setup
        tau = comb_grid(scales)
        trace = g2_compact(G2Request(G2Tier.COMPACT, tau), scales)
        assert np.all(trace.values[tau < -scales.tau0] == 0.0)


class TestExact:
    def test_forbidden_region_exactly_zero(self, cross_tier_setup):
        *_, scales = cross_tier_setup
        tau = comb_grid(scales, n_peaks=2)
        trace = g2_exact(G2Request(G2Tier.EXACT, tau), scales)
        assert np.all(trace.values[tau < -scales.tau0] == 0.0)
        assert np.all(trace.values[tau > -scales.tau0] >= 0.0)

    def test_inside_forbidden_point(self, cross_tier_setup):
        *_, scales = cross_tier_setup
        tau0 = scales.tau0
        tau = np.linspace(-2.0 * tau0, 0.5 * tau0, 64)
        trace = g2_exact(G2Request(G2Tier.EXACT, tau), scales)
        inside = np.nonzero(tau < -tau0)[0]
        assert inside.size and np.all(trace.values[inside] == 0.0)

    def test_matches_series_pointwise(self, cross_tier_setup):
        *_, scales = cross_tier_setup
        assert scales.fsr_delta_omega * abs(scales.tau0) <= 0.02
        tau = comb_grid(scales, n_peaks=3, points_per_tau0=10)
        exact = g2_exact(G2Request(G2Tier.EXACT, tau), scales)
        series = g2_series(G2Request(G2Tier.SERIES, tau), scales)
        assert np.abs(exact.values - series.values).max() <= 0.02

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(
        round_trip=st.floats(1e-11, 1.0),
        fsr_tau0=st.floats(0.01, 0.5),
        sign=st.sampled_from([1.0, -1.0]),
        gamma_over_fsr=st.floats(1e-3, 0.5),
        m_max=st.one_of(st.none(), st.integers(1, 200)),
        points_per_tau0=st.floats(8.5, 32.0),
        start_tau0=st.floats(-2.0, 0.0),
        n=st.integers(80, 800),
    )
    def test_matches_quadrature_oracle(
        self, round_trip, fsr_tau0, sign, gamma_over_fsr, m_max, points_per_tau0,
        start_tau0, n,
    ):
        fsr = 2 * math.pi / round_trip
        tau0 = sign * fsr_tau0 / fsr
        scales = DerivedScales(
            tau0=tau0,
            round_trip_T=round_trip,
            fsr_delta_omega=fsr,
            gamma=gamma_over_fsr * fsr,
            kappa=0.0,
        )
        # At least 80 points at no more than 32 per |tau0| from -2|tau0|
        # always reach the allowed region, so the peak is positive.
        tau = abs(tau0) * (start_tau0 + np.arange(n) / points_per_tau0)
        trace = g2_exact(G2Request(G2Tier.EXACT, tau, m_max=m_max), scales)
        # 512 panels; over 300 examples of this strategy the worst deviation
        # was 6.2e-13 of the peak, and the bound is 16 times that.
        want = g2_exact_quadrature(tau, scales, trace.meta.extra["m_max"], 4096)
        assert np.abs(trace.values - want).max() <= 1e-11
        forbidden = tau + 0.5 * tau0 < -0.5 * abs(tau0)
        assert np.all(trace.values[forbidden] == 0.0)
        assert np.all(trace.values[~forbidden] > 0.0)
        assert trace.values.max() == 1.0

    def test_shipped_grid_no_warning_small_memory_old_values(self):
        # The CLI's `g2 --tier exact --peaks 6` grid on g2_comb.json.
        scales = load_scenario(CONFIG_DIR / "g2_comb.json").scales
        tau = g2_grid(scales, G2Tier.EXACT, 6)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                trace = g2_exact(G2Request(G2Tier.EXACT, tau), scales)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert trace.values.max() == 1.0
        # The quadrature this tier replaced, at its old 512 points.
        want = g2_exact_quadrature(tau, scales, trace.meta.extra["m_max"], 512)
        assert np.abs(trace.values - want).max() <= 1e-11
        assert np.array_equal(trace.values == 0.0, want == 0.0)

    def test_tends_to_compact_as_modes_grow(self):
        # Plateau-normalised at tau = -tau0/2, the exact tier approaches the
        # boxcar train as M grows.  Measured relative L1 distance: 0.0665,
        # 0.0213, 0.0095 at M = 1, 4, 16 x the default 1,847.
        scales = load_scenario(CONFIG_DIR / "g2_comb.json").scales
        tau = g2_grid(scales, G2Tier.EXACT, 3)
        compact = g2_compact(G2Request(G2Tier.COMPACT, tau), scales).values
        centre = int(np.argmin(np.abs(tau + 0.5 * scales.tau0)))
        default = g2_exact(G2Request(G2Tier.EXACT, tau), scales).meta.extra["m_max"]
        errors = []
        for factor in (1, 4, 16):
            request = G2Request(G2Tier.EXACT, tau, m_max=factor * default)
            exact = g2_exact(request, scales).values
            exact = exact / exact[centre]
            errors.append(np.abs(exact - compact).sum() / compact.sum())
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] <= 0.012


class TestAveraged:
    def test_resolution_floor(self, comb_setup):
        *_, scales = comb_setup
        dt = 5 * abs(scales.tau0)
        tau = np.linspace(-3 * dt, 3 * scales.round_trip_T, 2000)
        with pytest.raises(ResolutionTooFineError):
            g2_averaged(
                G2Request(G2Tier.AVERAGED, tau, resolution_dt=dt), scales
            )

    def test_gaussian_centres_have_train_heights(self, averaged_setup):
        *_, scales = averaged_setup
        T, gamma = scales.round_trip_T, scales.gamma
        dt = 0.02 * T
        tau = np.linspace(-3 * dt, 4 * T + 3 * dt, 50001)
        trace = g2_averaged(G2Request(G2Tier.AVERAGED, tau, resolution_dt=dt), scales)
        for j in range(4):
            idx = int(np.argmin(np.abs(tau - j * T)))
            assert trace.values[idx] == pytest.approx(
                math.exp(-gamma * j * T), rel=1e-4
            )

    def test_resolved_comb_and_merged_profile(self, averaged_setup):
        *_, scales = averaged_setup
        T, gamma = scales.round_trip_T, scales.gamma
        # resolved: minima below 1e-3 of adjacent peaks
        dt = 0.02 * T
        tau = np.linspace(-3 * dt, 5 * T + 3 * dt, 40001)
        trace = g2_averaged(G2Request(G2Tier.AVERAGED, tau, resolution_dt=dt), scales)
        maxima = [i for i in local_maxima(trace.values) if trace.values[i] > 0.05]
        assert len(maxima) >= 5
        for a, b in zip(maxima[:-1], maxima[1:]):
            _, vmin = minimum_between(trace.values, a, b)
            assert vmin < 1e-3 * trace.values[b]
        # merged: no minimum below half the local decay envelope
        dt = T
        tau = np.linspace(-3 * dt, 8 * T + 3 * dt, 40001)
        trace = g2_averaged(G2Request(G2Tier.AVERAGED, tau, resolution_dt=dt), scales)
        maxima = [i for i in local_maxima(trace.values) if trace.values[i] > 0.05]
        assert len(maxima) >= 4
        for a, b in zip(maxima[:-1], maxima[1:]):
            k, vmin = minimum_between(trace.values, a, b)
            envelope = trace.values[a] * math.exp(-gamma * (tau[k] - tau[a]))
            assert vmin >= 0.5 * envelope

    def test_matches_gaussian_convolution_of_compact(self, averaged_setup):
        # The averaged train centres its Gaussians at j*T while the compact
        # boxcars sit at j*T - tau0/2, so the convolution reproduces the
        # averaged trace displaced by tau0/2.
        *_, scales = averaged_setup
        T, tau0 = scales.round_trip_T, scales.tau0
        dt = 25 * abs(tau0)
        spacing = abs(tau0) / 10
        tau = np.arange(-4 * dt, 3 * T + 4 * dt, spacing)
        compact = g2_compact(G2Request(G2Tier.COMPACT, tau), scales)
        n_kernel = 2 * int(round(5 * dt / spacing)) + 1
        kernel_t = (np.arange(n_kernel) - (n_kernel - 1) / 2) * spacing
        kernel = np.exp(-4 * kernel_t**2 / dt**2)
        smeared = np.convolve(compact.values, kernel, mode="same")
        smeared /= smeared.max()
        averaged = g2_averaged(
            G2Request(G2Tier.AVERAGED, tau + tau0 / 2, resolution_dt=dt), scales
        )
        assert np.abs(smeared - averaged.values).max() < 0.01

    # Four configs, gamma x 10^-2..10^0.5 (up to 4,400 echoes), 0-7 peaks.
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(
        name=st.sampled_from(["g2_comb", "spectrum_comb", "detector_averaged",
                              "phase_matched"]),
        gamma_exponent=st.floats(-2.0, 0.5),
        resolution_exponent=st.floats(0.0, 1.5),
        peaks=st.integers(0, 7),
    )
    def test_echo_cut_matches_all_echoes_bit_for_bit(
        self, name, gamma_exponent, resolution_exponent, peaks
    ):
        data = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        data["cavity"]["loss_rate_gamma"] *= 10.0**gamma_exponent
        s = scenario_from_dict(data).scales
        dt = 10 * abs(s.tau0) * 10.0**resolution_exponent
        tau = g2_grid(s, G2Tier.AVERAGED, peaks, dt)
        trace = g2_averaged(G2Request(G2Tier.AVERAGED, tau, resolution_dt=dt), s)
        assert trace.values.tobytes() == g2_averaged_all_echoes(tau, s, dt).tobytes()
        j_max = math.ceil(-math.log(1e-6) / (s.gamma * s.round_trip_T))
        assert trace.meta.extra["j_max"] == j_max

    def test_huge_resolution_is_finite_or_refused(self, averaged_setup):
        # dt = 1e150 s still squares into a double; 1e200 s does not.
        *_, scales = averaged_setup
        tau = g2_grid(scales, G2Tier.AVERAGED, 1, 1e150)
        trace = g2_averaged(G2Request(G2Tier.AVERAGED, tau, resolution_dt=1e150), scales)
        assert np.all(np.isfinite(trace.values)) and trace.values.max() == 1.0
        tau = g2_grid(scales, G2Tier.AVERAGED, 1, 1e200)
        with pytest.raises(ScenarioValidationError, match="^resolution_dt: derived "):
            g2_averaged(G2Request(G2Tier.AVERAGED, tau, resolution_dt=1e200), scales)

    def test_spacing_enforced(self, averaged_setup):
        *_, scales = averaged_setup
        dt = 0.02 * scales.round_trip_T
        tau = np.linspace(-dt, scales.round_trip_T, 50)
        with pytest.raises(GridTooCoarseError):
            g2_averaged(G2Request(G2Tier.AVERAGED, tau, resolution_dt=dt), scales)


class TestAsymmetry:
    @pytest.mark.parametrize("tier_runner", [
        (G2Tier.SERIES, g2_series, {}),
        (G2Tier.COMPACT, g2_compact, {}),
        (G2Tier.EXACT, g2_exact, {}),
    ], ids=["series", "compact", "exact"])
    def test_zero_before_never_after(self, cross_tier_setup, tier_runner):
        tier, runner, kwargs = tier_runner
        *_, scales = cross_tier_setup
        tau = comb_grid(scales, n_peaks=2)
        trace = runner(G2Request(tier, tau, **kwargs), scales)
        before = tau < min(0.0, -scales.tau0)
        assert np.all(trace.values[before] == 0.0)
        assert trace.values[~before].max() > 0.5


@st.composite
def g2_cli_cases(draw):
    """A random valid scenario and ``g2`` flags; the grid is the CLI's.

    |tau0|/T lies in [0.004, 0.04] with either sign, gamma*T in [0.03, 0.6],
    and the averaged tier's resolution between 10*|tau0| and T/2.
    """
    length = draw(st.floats(0.002, 0.02))
    resonator = length * draw(st.floats(1.5, 5.0))
    n_s = draw(st.floats(1.7, 2.4))
    T = (2 * length * n_s + 2 * (resonator - length)) / C_LIGHT
    ratio = draw(st.floats(0.004, 0.04)) * draw(st.sampled_from((-1.0, 1.0)))
    data = scenario_dict(
        idler_n=n_s + ratio * T * C_LIGHT / length,
        gamma=draw(st.floats(0.03, 0.6)) / T,
    )
    data["crystal"]["length_l"] = length
    data["crystal"]["dispersion_signal"]["parameters"] = [n_s]
    data["cavity"]["resonator_length_Lr"] = resonator
    config = scenario_from_dict(data)
    tau0, T = abs(config.scales.tau0), config.scales.round_trip_T
    resolution = 10 * tau0 + draw(st.floats(0.0, 1.0)) * (T / 2 - 10 * tau0)
    return config, draw(st.integers(0, 4)), resolution


def g2_on_cli_grid(case, tier):
    config, peaks, resolution = case
    resolution = resolution if tier == "averaged" else None
    tau = g2_grid(config.scales, tier, peaks, resolution)
    request = G2Request(tier, tau, resolution_dt=resolution)
    return getattr(correlations, f"g2_{tier}")(request, config.scales)


def tall_peaks(trace):
    """Peaks of height >= 0.1; the floor 0.05 keeps their half-height crossings."""
    return [p for p in measure_peaks(trace.axis, trace.values, 0.05) if p.height >= 0.1]


class TestTierPropertiesOnCliGrid:
    # Worst case over 1,000 examples of this strategy: comb-tier peak centres
    # 0.034 |tau0| (compact 0.042, the grid's |tau0|/24), plateau ratios 3.3e-16,
    # averaged peak centres 0.20 dT.  The 0.20 is the last echo, which the CLI
    # grid cuts at 2|tau0| past its centre; the others sit within 2.3e-4 dT.
    @pytest.mark.parametrize("tier", ["exact", "series", "compact"])
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(case=g2_cli_cases())
    def test_comb_tiers(self, tier, case):
        s = case[0].scales
        tau0, T = s.tau0, s.round_trip_T
        trace = g2_on_cli_grid(case, tier)
        tau = trace.axis
        assert trace.values.max() == 1.0
        assert np.all(trace.values[tau + 0.5 * tau0 < -0.5 * abs(tau0)] == 0.0)
        peaks = tall_peaks(trace)
        assert peaks
        for p in peaks:
            j = round((p.center + 0.5 * tau0) / T)
            assert j >= 0
            assert abs(p.center - (j * T - 0.5 * tau0)) <= abs(tau0) / 4

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(case=g2_cli_cases())
    def test_compact_plateaus_fall_by_exp_gamma_t(self, case):
        s = case[0].scales
        trace = g2_on_cli_grid(case, "compact")
        plateaus = []
        for j in range(case[1] + 1):
            inner = np.abs(trace.axis - (j * s.round_trip_T - 0.5 * s.tau0)) < abs(s.tau0) / 4
            assert np.ptp(trace.values[inner]) == 0.0
            plateaus.append(trace.values[inner][0])
        ratios = np.array(plateaus[1:]) / np.array(plateaus[:-1])
        assert np.all(np.abs(ratios / math.exp(-s.gamma * s.round_trip_T) - 1) <= 1e-12)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(case=g2_cli_cases())
    def test_averaged_tier(self, case):
        config, _, resolution = case
        T = config.scales.round_trip_T
        trace = g2_on_cli_grid(case, "averaged")
        assert trace.values.max() == 1.0
        peaks = tall_peaks(trace)
        assert peaks
        for p in peaks:
            j = round(p.center / T)
            assert j >= 0
            assert abs(p.center - j * T) <= resolution / 4

    # The averaged tier centres echo j at j*T, the compact boxcars at
    # j*T - tau0/2, so against the exact convolution it errs by the shift
    # |tau0|/2 times the Gaussian's largest slope 2*sqrt(2)*e^(-1/2)/dT:
    # sqrt(2)*e^(-1/2)*x = 0.858*x, x = |tau0|/dT.  Peak normalisation adds
    # up to x/8: the grid point nearest the peak, within dT/32 of it (step
    # dT/16), sees a slope of at most 1/(4*dT).  The margin 2*x^2 covers the
    # second-order terms, (4/3)*x^2 from the shift's and the boxcar's
    # curvature.  Worst over 300 examples: 0.93*x.
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(case=g2_cli_cases(), ratio_exponent=st.floats(1.0, 3.0))
    def test_averaged_tier_within_its_model_error_of_the_convolved_compact_tier(
            self, case, ratio_exponent):
        config, peaks, _ = case
        s = config.scales
        x = 10.0**-ratio_exponent  # |tau0|/dT in [1e-3, 0.1]
        dt = abs(s.tau0) / x
        tau = g2_grid(s, "averaged", peaks, dt)
        trace = g2_averaged(G2Request(G2Tier.AVERAGED, tau, resolution_dt=dt), s)
        bound = (math.sqrt(2.0) * math.exp(-0.5) + 1 / 8) * x + 2.0 * x * x
        assert np.abs(trace.values - g2_compact_convolved(tau, s, dt)).max() <= bound


# A knob a tier does not read, or the averaged tier without its resolution:
# (tier, knobs, message).  The CLI's g2 refuses the same pairs with the same
# text, naming each argument with its flag: m_max (--m-max), resolution_dt (--resolution).
TIER_KNOB_REFUSALS = [
    ("compact", dict(m_max=5), "m_max is not read by the compact tier"),
    ("averaged", dict(m_max=5, resolution_dt=1e-11), "m_max is not read by the averaged tier"),
    ("series", dict(resolution_dt=1e-11), "resolution_dt is not read by the series tier"),
    ("exact", dict(resolution_dt=1e-11), "resolution_dt is not read by the exact tier"),
    ("compact", dict(resolution_dt=1e-11), "resolution_dt is not read by the compact tier"),
    ("averaged", {}, "resolution_dt is required by the averaged tier"),
]


@pytest.mark.parametrize("tier, knobs, message", TIER_KNOB_REFUSALS)
def test_request_refuses_a_knob_its_tier_does_not_read(tier, knobs, message):
    with pytest.raises(ScenarioValidationError, match=f"^{re.escape(message)}$"):
        G2Request(tier, np.linspace(0.0, 1e-9, 9), **knobs)


@pytest.mark.parametrize("tier", ["series", "exact", "compact"])
def test_grid_refuses_a_resolution_its_tier_does_not_read(tier):
    scales = load_scenario(CONFIG_DIR / "g2_comb.json").scales
    with pytest.raises(ScenarioValidationError,
                       match=f"^resolution_dt is not read by the {tier} tier$"):
        g2_grid(scales, tier, 2, 1e-11)
