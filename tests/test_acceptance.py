"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing a PASS line when it holds (run with ``pytest -v -s``).
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import trapezoid

from sropo import (
    G2Request,
    G2Tier,
    g1,
    g2_averaged,
    g2_compact,
    g2_exact,
    g2_series,
    phi_analytic,
    rate_continuum,
    rate_mode_sum,
    spectrum,
)
from sropo.biphoton import _rate_prefactor
from sropo.peaks import measure_peaks, nearest_peak
from conftest import scenario_dict
from helpers import local_maxima, minimum_between
from oracles import lorentzian_kernel, phi_exact, sinc_sq_partial_sum

SINC_SQ_HALF = 1.39155737825151  # sinc^2(z) = 1/2


def ok(criterion: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: PASS{suffix}")


def test_criterion_1_phi_oracle_equivalence(comb_setup):
    *_, scales = comb_setup
    gamma = scales.gamma
    start = time.perf_counter()
    worst = 0.0
    for m in range(-10, 11):
        for omega in np.linspace(-5 * gamma, 5 * gamma, 21):
            exact = phi_exact(m, float(omega), scales, quad_points=256)
            approx = phi_analytic(m, float(omega), scales)
            worst = max(worst, abs(exact - approx) / abs(exact))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 1.0
    ok("1 phi oracle equivalence", f"worst rel err {worst:.2e}, {elapsed:.2f} s")


def test_criterion_2_rate_consistency(rate_setup):
    crystal, cavity, pump, freqs, scales = rate_setup
    dz = 0.5 * scales.fsr_delta_omega * abs(scales.tau0)
    assert dz <= 0.01
    k_sum = rate_mode_sum(crystal, pump, freqs, scales)
    k_cont = rate_continuum(crystal, pump, freqs, scales)
    rel = abs(k_sum - k_cont) / k_cont
    assert rel < 0.01

    # The mode sum against its term-by-term oracle: at least the partial
    # sum over |m| <= M, at most that plus the tail bound 2/(dz^2 M).
    m = 1 << 20
    per_mode = _rate_prefactor(crystal, pump, freqs) * scales.fsr_delta_omega
    partial = per_mode * sinc_sq_partial_sum(dz, m)
    tail = per_mode * 2.0 / (dz * dz * m)
    assert partial <= k_sum <= partial + tail

    modified = scales.replace(
        gamma=10 * scales.gamma,
        round_trip_T=10 * scales.round_trip_T,
        fsr_delta_omega=scales.fsr_delta_omega / 10,
    )
    assert rate_continuum(crystal, pump, freqs, modified) == k_cont
    ok("2 rate consistency", f"sum vs continuum rel {rel:.2e}, resonator-independent")


def test_criterion_3_spectrum_structure(spectrum_setup):
    crystal, cavity, pump, freqs, scales = spectrum_setup
    fsr, gamma, tau0 = scales.fsr_delta_omega, scales.gamma, scales.tau0
    trace = spectrum("idler", scales, freqs)
    step = trace.axis[1] - trace.axis[0]
    # 0.05 floor: inter-mode dips sit at ~5e-3 of the central peak
    peaks = measure_peaks(trace.axis, trace.values, floor=0.05)

    for m in range(-10, 11):
        peak = nearest_peak(peaks, -m * fsr)
        assert abs(peak.center - (-m * fsr)) <= step

    central = nearest_peak(peaks, 0.0)
    assert central.fwhm == pytest.approx(gamma, rel=0.05)

    m_zero = round(2 * math.pi / (fsr * abs(tau0)))
    near_zero_peak = np.abs(trace.axis + m_zero * fsr) < 0.4 * fsr
    assert trace.values[near_zero_peak].max() <= 1e-3

    # envelope half-height extent from the comb peak heights
    tall = sorted(peaks, key=lambda p: p.center)
    centers = np.array([p.center for p in tall])
    heights = np.array([p.height for p in tall])

    def crossing(side):
        idx = np.nonzero(heights >= 0.5)[0]
        edge = idx[0] if side < 0 else idx[-1]
        nxt = edge + side
        c0, h0 = centers[edge], heights[edge]
        c1, h1 = centers[nxt], heights[nxt]
        return c0 + (0.5 - h0) * (c1 - c0) / (h1 - h0)

    extent = crossing(+1) - crossing(-1)
    predicted = 4.0 * SINC_SQ_HALF / abs(tau0)
    total_width_scale = 2 * math.pi / abs(tau0)
    assert extent == pytest.approx(predicted, rel=0.10)
    assert extent <= total_width_scale
    outer = max(abs(p.center) for p in tall if p.height >= 0.5)
    assert outer <= 2.8 / abs(tau0)
    ok(
        "3 spectrum structure",
        f"FWHM/gamma {central.fwhm / gamma:.3f}, extent {extent / total_width_scale:.3f}"
        " of 2pi/|tau0|",
    )


def test_criterion_4_wiener_khinchin(spectrum_setup):
    crystal, cavity, pump, freqs, scales = spectrum_setup
    T, fsr, gamma = scales.round_trip_T, scales.fsr_delta_omega, scales.gamma
    n = 4096
    dtau = T / 64
    window = n * dtau
    assert window * gamma >= 20.0
    tau = (np.arange(n) - n / 2) * dtau
    corr = g1("idler", scales, freqs, tau=tau, m_max=20)
    transformed = (
        (dtau / (2 * math.pi))
        * np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(corr.values)))
        * n
    )
    axis = np.fft.fftshift(np.fft.fftfreq(n, dtau)) * 2 * math.pi
    values = transformed.real
    bin_spacing = 2 * math.pi / window

    half = 5.5 * fsr
    n_fine = 2 * math.ceil(24.0 * half / gamma) + 1
    fine = spectrum(
        "idler", scales, freqs, detuning=np.linspace(-half, half, n_fine), m_max=20
    )
    dft_peaks = measure_peaks(axis, values / values.max(), floor=0.2)
    fine_peaks = measure_peaks(fine.axis, fine.values, floor=0.2)
    dft_centre = nearest_peak(dft_peaks, 0.0)
    fine_centre = nearest_peak(fine_peaks, 0.0)
    worst_h = 0.0
    for m in range(-5, 6):
        p = nearest_peak(dft_peaks, -m * fsr)
        q = nearest_peak(fine_peaks, -m * fsr)
        assert abs(p.center - q.center) <= bin_spacing
        ratio_dft = p.height / dft_centre.height
        ratio_fine = q.height / fine_centre.height
        worst_h = max(worst_h, abs(ratio_dft / ratio_fine - 1))
    assert worst_h <= 0.02
    ok("4 Wiener-Khinchin consistency", f"worst height mismatch {worst_h:.2e}")


def test_criterion_5_forbidden_region(cross_tier_setup):
    *_, scales = cross_tier_setup
    tau0, T = scales.tau0, scales.round_trip_T
    assert tau0 > 0
    tau = np.linspace(-3 * tau0, T / 2, 4001)
    runners = [
        (g2_series, G2Request(G2Tier.SERIES, tau)),
        (g2_compact, G2Request(G2Tier.COMPACT, tau)),
        (g2_exact, G2Request(G2Tier.EXACT, tau)),
    ]
    for runner, request in runners:
        trace = runner(request, scales)
        assert np.all(trace.values[tau < -tau0] == 0.0)
        assert trace.values.max() == 1.0

    flipped = scales.replace(tau0=-scales.tau0)
    for runner, request in runners:
        trace = runner(request, flipped)
        assert np.all(trace.values[tau < 0.0] == 0.0)
    ok("5 forbidden region", "series/compact/exact exactly zero, both tau0 signs")


def test_criterion_6_g2_comb(comb_setup, cross_tier_setup):
    crystal, cavity, pump, freqs, scales = comb_setup
    tau0, T, gamma = scales.tau0, scales.round_trip_T, scales.gamma
    assert gamma / scales.fsr_delta_omega == pytest.approx(0.05, rel=1e-12)

    # peak positions, height ratio, width on a fine three-peak grid
    step = abs(tau0) / 16
    tau = np.arange(-2 * abs(tau0) - T / 16, 2 * T + 2 * abs(tau0), step)
    series = g2_series(G2Request(G2Tier.SERIES, tau), scales)
    peaks = measure_peaks(series.axis, series.values, floor=0.02)
    plateaus = []
    for j in range(3):
        expected = j * T - tau0 / 2
        peak = nearest_peak(peaks, expected)
        assert abs(peak.center - expected) <= step
        assert peak.fwhm == pytest.approx(abs(tau0), rel=0.25)
        window = np.abs(tau - expected) < abs(tau0) / 4
        plateaus.append(float(series.values[window].mean()))
    ratio = math.exp(-gamma * T)
    assert ratio == pytest.approx(0.7304026910486456, rel=1e-12)
    r10 = plateaus[1] / plateaus[0]
    r21 = plateaus[2] / plateaus[1]
    assert r10 == pytest.approx(ratio, rel=0.01)
    assert r21 == pytest.approx(ratio, rel=0.01)

    # series vs compact window integrals and exact vs series, at small fsr*tau0
    *_, small = cross_tier_setup
    assert small.fsr_delta_omega * abs(small.tau0) <= 0.02
    tau0_s, T_s = small.tau0, small.round_trip_T
    step_s = abs(tau0_s) / 12
    tau_s = np.arange(-2 * abs(tau0_s) - T_s / 16, 2 * T_s + 2 * abs(tau0_s), step_s)
    series_s = g2_series(G2Request(G2Tier.SERIES, tau_s), small)
    areas = []
    for j in range(3):
        centre = j * T_s - tau0_s / 2
        window = np.abs(tau_s - centre) <= abs(tau0_s) / 2
        areas.append(trapezoid(series_s.values[window], tau_s[window]))
    # compact areas scale exactly as exp(-gamma j T) with identical widths,
    # so the series windows must reproduce those ratios
    worst_area = 0.0
    for j in (1, 2):
        expected = math.exp(-small.gamma * j * T_s)
        worst_area = max(worst_area, abs(areas[j] / areas[0] / expected - 1))
    assert worst_area <= 0.02

    exact_s = g2_exact(G2Request(G2Tier.EXACT, tau_s), small)
    worst_point = float(np.abs(exact_s.values - series_s.values).max())
    assert worst_point <= 0.02

    # runtime bound: ten peaks, 1e4 points
    span_start = -2 * abs(tau0) - T / 16
    span_stop = 9 * T + 2 * abs(tau0)
    tau10 = np.linspace(span_start, span_stop, 10_000)
    assert tau10[1] - tau10[0] <= abs(tau0) / 8
    start = time.perf_counter()
    g2_series(G2Request(G2Tier.SERIES, tau10), scales)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    ok(
        "6 g2 comb",
        f"ratios {r10:.6f}/{r21:.6f}, windows {worst_area:.2e}, "
        f"exact-series {worst_point:.2e}, 10-peak trace {elapsed:.2f} s",
    )


def test_criterion_7_detector_averaging(averaged_setup):
    *_, scales = averaged_setup
    T, gamma = scales.round_trip_T, scales.gamma
    assert gamma / scales.fsr_delta_omega == pytest.approx(0.05, rel=1e-12)

    dt = 0.02 * T
    tau = np.linspace(-3 * dt, 5 * T + 3 * dt, 40001)
    resolved = g2_averaged(G2Request(G2Tier.AVERAGED, tau, resolution_dt=dt), scales)
    maxima = [i for i in local_maxima(resolved.values) if resolved.values[i] > 0.05]
    assert len(maxima) >= 5
    worst_min = 0.0
    for a, b in zip(maxima[:-1], maxima[1:]):
        _, vmin = minimum_between(resolved.values, a, b)
        worst_min = max(worst_min, vmin / resolved.values[b])
    assert worst_min < 1e-3

    dt = T
    tau = np.linspace(-3 * dt, 8 * T + 3 * dt, 40001)
    merged = g2_averaged(G2Request(G2Tier.AVERAGED, tau, resolution_dt=dt), scales)
    maxima = [i for i in local_maxima(merged.values) if merged.values[i] > 0.05]
    assert len(maxima) >= 4
    worst_env = 1.0
    for a, b in zip(maxima[:-1], maxima[1:]):
        k, vmin = minimum_between(merged.values, a, b)
        envelope = merged.values[a] * math.exp(-gamma * (tau[k] - tau[a]))
        worst_env = min(worst_env, vmin / envelope)
    assert worst_env >= 0.5
    ok(
        "7 detector averaging",
        f"resolved minima <= {worst_min:.1e} of peak; merged minima >= "
        f"{worst_env:.2f} of envelope",
    )


def test_criterion_8_kernel_identity(comb_setup):
    *_, scales = comb_setup
    gamma = scales.gamma
    assert lorentzian_kernel(-1.0 / gamma, gamma) == 0.0
    assert lorentzian_kernel(0.0, gamma) == 1.0
    assert lorentzian_kernel(2.0 / gamma, gamma) == pytest.approx(
        2 * math.exp(-1.0), rel=1e-14
    )

    t = 1.0 / gamma
    omega = np.linspace(-500 * gamma, 500 * gamma, 1_000_001)
    integrand = np.exp(-1j * omega * t) / (0.5 * gamma - 1j * omega)
    quad = -trapezoid(integrand, omega) / math.pi
    assert abs(quad.imag) < 1e-12 * abs(quad.real)
    branch = lorentzian_kernel(t, gamma)
    rel = abs(abs(quad.real) - branch) / branch
    assert rel <= 1e-3
    ok("8 kernel identity", f"windowed quadrature magnitude rel err {rel:.2e}")


def test_criterion_9_cli_determinism(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario_dict()), encoding="utf-8")
    outputs = []
    for run in ("run1", "run2"):
        out = tmp_path / run
        for cmd in (
            ["g2", "--tier", "series", "--peaks", "2", "--plot"],
            ["g2", "--tier", "compact", "--peaks", "2", "--format", "json", "--plot"],
            ["spectrum", "--field", "idler", "--window-modes", "2.5",
             "--m-max", "10", "--plot"],
            ["scales"],
        ):
            result = subprocess.run(
                [sys.executable, "-m", "sropo", *cmd, "--config", str(config),
                 "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stdout + result.stderr
        outputs.append(out)
    names = sorted(p.name for p in outputs[0].iterdir())
    assert names == sorted(p.name for p in outputs[1].iterdir())
    for name in names:
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        assert a == b, f"{name} differs between runs"
    ok("9 determinism", f"{len(names)} files byte-identical across runs")
