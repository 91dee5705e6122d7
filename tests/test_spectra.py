import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sropo.spectra
from sropo import (
    DerivedScales,
    GridTooCoarseError,
    Normalization,
    ScenarioValidationError,
    envelope_zero_mode,
    g1,
    load_scenario,
    spectrum,
)
from sropo.correlations import g2_grid
from sropo.numerics import (
    GAMMA_RANGE, MAX_GRID_POINTS, ensure_uniform_axis, grid_points, mirror_count,
    symmetric_grid,
)
from sropo.peaks import measure_peaks, nearest_peak
from sropo.spectra import _BLOCK, _auto_mode_count, _mode_weights, g1_grid, spectrum_grid
from sropo.trace import trace_table, write_table_json
from scipy.integrate import trapezoid
from conftest import CONFIG_DIR
from oracles import g1_mode_loop, spectrum_mode_loop

CONFIGS = sorted(p.name for p in CONFIG_DIR.glob("*.json"))


class TestSpectrum:
    def test_central_peak_at_zero_detuning(self, spectrum_setup):
        *_, freqs_scales = spectrum_setup
        crystal, cavity, pump, freqs, scales = spectrum_setup
        trace = spectrum("idler", scales, freqs)
        peak = nearest_peak(measure_peaks(trace.axis, trace.values, floor=0.5), 0.0)
        assert abs(peak.center) <= trace.axis[1] - trace.axis[0]

    def test_comb_peaks_at_minus_m_fsr(self, spectrum_setup):
        crystal, cavity, pump, freqs, scales = spectrum_setup
        fsr = scales.fsr_delta_omega
        half = 6.5 * fsr
        n = 2 * math.ceil(24.0 * half / scales.gamma) + 1
        trace = spectrum("idler", scales, freqs, detuning=np.linspace(-half, half, n))
        peaks = measure_peaks(trace.axis, trace.values, floor=0.5)
        for m in range(-6, 7):
            peak = nearest_peak(peaks, -m * fsr)
            assert abs(peak.center - (-m * fsr)) <= trace.axis[1] - trace.axis[0]

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


def loop_spectrum(trace, scales):
    """The oracle loop on ``trace``'s grid and modes, normalised as ``trace`` is."""
    m_count = trace.meta.extra["m_max"]
    values = spectrum_mode_loop(
        trace.axis, _mode_weights(m_count, scales), m_count,
        scales.fsr_delta_omega, (0.5 * scales.gamma) ** 2,
    )
    if trace.meta.normalization is Normalization.PEAK_UNITY:
        return values / values.max()
    return values / np.trapezoid(values, trace.axis)


# Largest deviation of the near/far comb sum from the mode loop, relative to
# the local value.  Worst seen: 1.2e-14 over 1,500 random examples of the
# property test below, 5.9e-15 on the fixed grids and the cell edges, 1.3e-14
# on the sampled shipped grids.  The 14-term series per half cell contribute
# about 7e-15 at worst, at a point two cells from a lone line, where the far
# sum is the whole value (test_half_cell_series_follows_the_cell_series bounds
# them); 13 terms give 4.5e-14 there, and 7.5e-14 once the spectrum is scaled
# to its peak.  The rest is both sums' rounding, which grows with the cell
# index n as about n*eps.
COMB_RTOL = 5e-14


def chebyshev_tail(a, first):
    """2 * sum_{k >= first} a_k for 1/(a - y)^2 on [-1, 1], a > 1: the bound on
    the error of its interpolant at ``first`` Chebyshev points (Trefethen,
    Approximation Theory and Approximation Practice, Thm 4.2).  The
    coefficients follow from 1/(a - y) = (2/sqrt(a^2 - 1)) * sum' rho^-k T_k(y),
    rho = a + sqrt(a^2 - 1), differentiated in a:
    a_k = 2 * (k + a/sqrt(a^2 - 1)) * rho^-k / (a^2 - 1)."""
    root = math.sqrt(a * a - 1.0)
    k = np.arange(first, first + 400, dtype=float)
    return 2.0 * float(np.sum(2.0 * (k + a / root) * (a + root) ** -k / (a * a - 1.0)))


@pytest.mark.parametrize("pole", [4.0, -4.0])
@pytest.mark.parametrize("side", [0, 1], ids=["left", "right"])
def test_half_cell_series_follows_the_cell_series(pole, side):
    """The re-expansion on its own: a half cell's _HALF_TERMS-term series
    against the _CHEB_NODES-term series of the whole cell it comes from.

    The far line nearest a cell has its pole 2 fsr from the cell's centre, at
    x = +-4 in units of fsr/2; at gamma -> 0 its shape is f(x) = 1/(pole - x)^2,
    the slowest-converging far sum there is.  With p the cell's interpolant,
    s = I p the half's and L <= 1 + (2/pi)*ln(_HALF_TERMS) the Lebesgue
    constant of I, s - p = (I f - f) + I(p - f) - (p - f), so
    |s - p| <= |I f - f| + (1 + L)*|p - f|, and each interpolation error is at
    most ``chebyshev_tail`` past its degree.  In the half's own variable y,
    f = 4/(a - y)^2 with the pole a = 7 half-widths from the centre of the
    nearer half (rho = 7 + sqrt(48) = 13.9) and 9 from the farther one; on
    the cell, a = 4 (rho = 4 + sqrt(15) = 7.87).  Divided by f's least value
    on the half, where f is the whole local value of a lone line, the bound
    stays below COMB_RTOL: 3.4e-14 and 4.0e-14 (it is 1.3e-13 at 13 terms).
    """
    def f(x):
        return 1.0 / (pole - x) ** 2

    q, terms = sropo.spectra._CHEB_NODES, sropo.spectra._HALF_TERMS
    cell = np.polynomial.chebyshev.chebinterpolate(f, q - 1)
    nodes = sropo.spectra._chebyshev_fit(q)[0]
    half = sropo.spectra._half_cell_coefficients(q, terms)[side] @ f(nodes)
    x = np.linspace(side - 1.0, side, 2001)
    got = np.polynomial.chebyshev.chebval(2.0 * x - (2 * side - 1), half)
    want = np.polynomial.chebyshev.chebval(x, cell)

    lebesgue = 1.0 + 2.0 / math.pi * math.log(terms)
    a = abs(pole - (side - 0.5)) / 0.5
    bound = 4.0 * chebyshev_tail(a, terms) + (1.0 + lebesgue) * chebyshev_tail(4.0, q)
    assert np.max(np.abs(got - want)) <= bound
    assert bound / f(x).min() < COMB_RTOL


def relative_deviation(got, want):
    assert got.shape == want.shape and np.all(want > 0)
    return float(np.max(np.abs(got - want) / want))


def scales_with(fsr_tau0, sign, gamma_over_fsr):
    round_trip = 3.9e-10
    fsr = 2 * math.pi / round_trip
    return DerivedScales(
        tau0=sign * fsr_tau0 / fsr,
        round_trip_T=round_trip,
        fsr_delta_omega=fsr,
        gamma=gamma_over_fsr * fsr,
        kappa=0.0,
    )


def aligned_grid(scales, n, run, first_edge, offset):
    """n points, ``run`` to each half cell (fsr/2), from ``offset`` spacings
    past the half-cell edge first_edge*fsr/2.  With ``run`` a power of two and
    offset 1/2, every run edge sits half a spacing from a point.  The comb's
    blocks always end at the multiples of _BLOCK: on a run edge when a run
    divides _BLOCK, and within a run otherwise."""
    spacing = scales.fsr_delta_omega / (2.0 * run)
    start = first_edge * 0.5 * scales.fsr_delta_omega + offset * spacing
    return np.linspace(start, start + (n - 1) * spacing, n)


# Grid sizes at and around multiples of the comb's block length, where the
# blocks of an aligned grid end.
BLOCK_EDGE_SIZES = st.builds(
    lambda k, d: max(2, k * _BLOCK + d), st.integers(0, 2), st.integers(-2, 2)
)
BOTH_NORMALIZATIONS = [Normalization.PEAK_UNITY, Normalization.UNIT_INTEGRAL]


class TestLorentzianCombBlocks:
    """The near/far comb sum is the plain per-mode loop, pointwise within
    ``COMB_RTOL`` of the local value."""

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(
        n=st.one_of(BLOCK_EDGE_SIZES, st.integers(2, 2 * _BLOCK + 3)),
        fsr_tau0=st.floats(0.05, 0.3),
        sign=st.sampled_from([1.0, -1.0]),
        gamma_over_fsr=st.floats(0.0005, 0.1),
        m_max=st.one_of(st.sampled_from([0, 1]), st.integers(2, 12), st.none()),
        # Points per half cell, as a multiple of the least power of two that
        # gives more than 16 points per gamma, by more than the rounding that
        # may refuse a grid at 16.0 (test_grid_a_rounding_below_16_per_gamma_is_refused):
        # 1, 2 or 4 align the blocks, any other factor does not.
        run_factor=st.one_of(st.sampled_from([1.0, 2.0, 4.0]), st.floats(1.0, 4.0)),
        first_edge=st.integers(-8, 8),
        offset=st.one_of(st.just(0.5), st.floats(0.0, 1.0)),
        normalization=st.sampled_from(BOTH_NORMALIZATIONS),
    )
    # One block, cut short and exactly full; the first block full and a second
    # of one point; three blocks; runs longer than a block (2**14 points per
    # half cell), split within the run; points on the run edges (offset 0);
    # a lone line (M = 0) from 1.5 to 17.5 cells away, where the far sum is
    # the whole value.
    @example(n=2, fsr_tau0=0.1, sign=1.0, gamma_over_fsr=0.05, m_max=None,
             run_factor=1.0, first_edge=0, offset=0.5,
             normalization=Normalization.PEAK_UNITY)
    @example(n=_BLOCK - 1, fsr_tau0=0.1, sign=-1.0, gamma_over_fsr=0.05, m_max=7,
             run_factor=1.0, first_edge=-3, offset=0.5,
             normalization=Normalization.PEAK_UNITY)
    @example(n=_BLOCK, fsr_tau0=0.2, sign=1.0, gamma_over_fsr=0.02, m_max=None,
             run_factor=2.0, first_edge=-8, offset=0.5,
             normalization=Normalization.UNIT_INTEGRAL)
    @example(n=_BLOCK + 1, fsr_tau0=0.05, sign=-1.0, gamma_over_fsr=0.1, m_max=1,
             run_factor=4.0, first_edge=-4, offset=0.5,
             normalization=Normalization.PEAK_UNITY)
    @example(n=2 * _BLOCK + 1, fsr_tau0=0.1, sign=1.0, gamma_over_fsr=0.05,
             m_max=None, run_factor=1.0, first_edge=-5, offset=0.5,
             normalization=Normalization.UNIT_INTEGRAL)
    @example(n=_BLOCK + 1, fsr_tau0=0.1, sign=1.0, gamma_over_fsr=0.0005, m_max=2,
             run_factor=1.0, first_edge=-1, offset=0.5,
             normalization=Normalization.PEAK_UNITY)
    @example(n=2 * _BLOCK + 3, fsr_tau0=0.1, sign=-1.0, gamma_over_fsr=0.0005,
             m_max=None, run_factor=1.0, first_edge=0, offset=0.0,
             normalization=Normalization.UNIT_INTEGRAL)
    @example(n=2 * _BLOCK, fsr_tau0=0.3, sign=1.0, gamma_over_fsr=0.05, m_max=0,
             run_factor=2.0, first_edge=3, offset=0.0,
             normalization=Normalization.PEAK_UNITY)
    def test_matches_mode_loop_pointwise(
        self, spectrum_setup, n, fsr_tau0, sign, gamma_over_fsr, m_max,
        run_factor, first_edge, offset, normalization,
    ):
        *_, freqs, _ = spectrum_setup
        scales = scales_with(fsr_tau0, sign, gamma_over_fsr)
        run = run_factor * 2.0 ** math.ceil(math.log2(8.001 / gamma_over_fsr))
        detuning = aligned_grid(scales, n, run, first_edge, offset)
        trace = spectrum("idler", scales, freqs, detuning=detuning, m_max=m_max,
                         normalization=normalization)
        assert relative_deviation(trace.values, loop_spectrum(trace, scales)) <= COMB_RTOL

    @pytest.mark.parametrize("end", [0, 1], ids=["low", "high"])
    @pytest.mark.parametrize("normalization", BOTH_NORMALIZATIONS)
    def test_gamma_range_ends(self, spectrum_setup, end, normalization):
        # At either end of GAMMA_RANGE the spectrum and the g1 grid are finite;
        # one float outside, both are refused.
        *_, freqs, scales = spectrum_setup

        def run(gamma):  # 16 points per gamma, within one fsr cell each side
            half = min(gamma, scales.fsr_delta_omega)
            return spectrum("idler", scales.replace(gamma=gamma), freqs,
                            np.linspace(-half, half, 33), m_max=2,
                            normalization=normalization)

        gamma = GAMMA_RANGE[end]
        trace = run(gamma)
        assert np.all(np.isfinite(trace.values)) and trace.values[16] > 0
        assert np.all(np.isfinite(g1_grid(scales.replace(gamma=gamma),
                                          points=5)))
        gamma = float(np.nextafter(gamma, (0, math.inf)[end]))
        outside = scales.replace(gamma=gamma)
        with pytest.raises(ScenarioValidationError, match="cavity.loss_rate_gamma"):
            run(gamma)
        with pytest.raises(ScenarioValidationError, match="cavity.loss_rate_gamma"):
            g1_grid(outside, points=5)

    def test_grid_a_rounding_below_16_per_gamma_is_refused(self, spectrum_setup):
        *_, freqs, _ = spectrum_setup
        scales = scales_with(0.1, 1.0, 0.05)
        n = 1001
        spacing = scales.gamma / 16.0
        while True:
            detuning = np.linspace(0.0, (n - 1) * spacing, n)
            points_per_gamma = scales.gamma / ensure_uniform_axis(detuning)
            if points_per_gamma < 16.0:
                break
            spacing = np.nextafter(spacing, np.inf)
        assert 16.0 - points_per_gamma < 1e-13
        with pytest.raises(GridTooCoarseError, match="only 16 grid points per gamma"):
            spectrum("idler", scales, freqs, detuning=detuning)

    @pytest.mark.parametrize("normalization", BOTH_NORMALIZATIONS)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize(
        "m_max, first, last",
        [
            (3, -10.3, 9.6),  # wider than the +-M mode range
            (5, 2.1, 2.4),  # inside one fsr, off centre
            (8, -0.45, 0.45),  # inside the central cell
            (0, -1.5, 1.5),  # M = 0, 1, 2: every line near a point of the grid
            (1, -2.5, 2.5),
            (2, -1.5, 1.5),
            (None, -1.5, 1.5),  # the default M
        ],
    )
    def test_grid_cases_match_mode_loop(
        self, spectrum_setup, m_max, first, last, sign, normalization
    ):
        *_, freqs, _ = spectrum_setup
        scales = scales_with(0.1, sign, 0.05)
        fsr = scales.fsr_delta_omega
        n = math.ceil((last - first) * fsr / (scales.gamma / 24.0)) + 1
        detuning = np.linspace(first * fsr, last * fsr, n)
        trace = spectrum("idler", scales, freqs, detuning=detuning, m_max=m_max,
                         normalization=normalization)
        assert relative_deviation(trace.values, loop_spectrum(trace, scales)) <= COMB_RTOL

    @pytest.mark.parametrize("m_max", [0, 1, 2, 40])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_points_on_cell_edges_match_mode_loop(self, m_max, sign):
        # delta = +-fsr/2 exactly (cell edges: rint's tie, and rounding, may
        # put a point in either neighbouring cell) and delta = n*fsr exactly
        # (half-cell edges: a point may fall in either half), each with the
        # next float on both sides; both cells' or halves' series must give
        # the same sum.
        scales = scales_with(0.1, sign, 0.05)
        fsr = scales.fsr_delta_omega
        edges = np.concatenate([(np.arange(-60, 60) + 0.5) * fsr, np.arange(-60, 61) * fsr,
                                np.arange(-120, 121) * (0.5 * fsr)])
        detuning = np.unique(np.concatenate([edges, np.nextafter(edges, -np.inf),
                                             np.nextafter(edges, np.inf)]))
        weights = _mode_weights(m_max, scales)
        args = (weights, m_max, fsr, (0.5 * scales.gamma) ** 2)
        got = sropo.spectra._lorentzian_comb(detuning, *args)
        assert relative_deviation(got, spectrum_mode_loop(detuning, *args)) <= COMB_RTOL

    @pytest.mark.parametrize("cells_per_point", [0.7, 1.25, 40.0])
    def test_grid_sparser_than_the_half_cells_matches_mode_loop(self, cells_per_point):
        # A spacing past fsr/2 leaves half cells without points: empty runs.
        scales = scales_with(0.1, 1.0, 0.05)
        fsr = scales.fsr_delta_omega
        detuning = np.linspace(-0.3, cells_per_point * 99 - 0.3, 100) * fsr
        args = (_mode_weights(40, scales), 40, fsr, (0.5 * scales.gamma) ** 2)
        got = sropo.spectra._lorentzian_comb(detuning, *args)
        assert relative_deviation(got, spectrum_mode_loop(detuning, *args)) <= COMB_RTOL

    @pytest.mark.parametrize("name", CONFIGS)
    def test_shipped_default_grid_equals_mode_loop(self, name):
        # Within COMB_RTOL; on the two large configs at about 200 points, where
        # the loop costs 200*(2M+1) terms, each compared after scaling both
        # sums to 1 at the trace's maximum.
        config = load_scenario(CONFIG_DIR / name)
        scales = config.scales
        trace = spectrum("idler", scales, config.freqs,
                         normalization=config.normalization)
        assert trace.axis.size > _BLOCK
        if trace.axis.size < 200_000:
            got, want = trace.values, loop_spectrum(trace, scales)
        else:
            m_count = trace.meta.extra["m_max"]
            idx = np.linspace(0, trace.axis.size - 1, 200).round().astype(int)
            idx = np.append(idx, np.argmax(trace.values))
            want = spectrum_mode_loop(
                trace.axis[idx], _mode_weights(m_count, scales), m_count,
                scales.fsr_delta_omega, (0.5 * scales.gamma) ** 2,
            )
            got, want = trace.values[idx] / trace.values[idx[-1]], want / want[-1]
        assert relative_deviation(got, want) <= COMB_RTOL

    def test_shipped_grid_peak_memory(self):
        # Past the grid itself, the sum peaks at 1.8 grid copies: the values
        # and one block's 64 KB arrays.
        config = load_scenario(CONFIG_DIR / "g2_comb.json")
        detuning = spectrum_grid(config.scales)
        tracemalloc.start()
        try:
            spectrum("idler", config.scales, config.freqs, detuning=detuning)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert detuning.size == 112_801
        assert peak < 4.5 * 8 * detuning.size

    def test_sparse_grid_over_many_cells_tabulates_only_its_halves(self, spectrum_setup):
        # 3 points over 932,068 cells of the mirrored half: the table holds
        # only the two kept halves' nodes, and the rest of the memory is the
        # correlations' lattice of cells + 2M line shapes (44 MiB traced).
        *_, freqs, scales = spectrum_setup
        scales = scales.replace(gamma=2e7 * scales.fsr_delta_omega)
        detuning = spectrum_grid(scales, 932067, 3)
        tracemalloc.start()
        try:
            trace = spectrum("idler", scales, freqs, detuning=detuning, m_max=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert relative_deviation(trace.values, loop_spectrum(trace, scales)) <= COMB_RTOL


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def spy_sizes(monkeypatch, name, size):
    """Wrap the kernel ``spectra.<name>``; the list collects ``size(*args)`` per call."""
    sizes = []
    kernel = getattr(sropo.spectra, name)

    def counted(*args):
        sizes.append(size(*args))
        return kernel(*args)

    monkeypatch.setattr(sropo.spectra, name, counted)
    return sizes


MIRROR_DRAWS = dict(
    n=st.integers(2, 3000),
    fsr_tau0=st.floats(0.05, 0.3),
    sign=st.sampled_from([1.0, -1.0]),
    gamma_over_fsr=st.floats(0.002, 0.1),
    m_max=st.one_of(st.integers(0, 12), st.none()),
    fill=st.floats(0.05, 0.95),  # spacing, as a fraction of the coarsest accepted
)


class TestMirroredGrids:
    """On an exact mirror (``numerics.symmetric_grid``) the spectrum and g1 run
    their kernel on the non-negative half, axis[h:] with h = n//2, and fill
    axis[:h] from it in reverse; any other grid runs it on every point."""

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(**MIRROR_DRAWS)
    @example(n=2, fsr_tau0=0.1, sign=1.0, gamma_over_fsr=0.05, m_max=None, fill=0.9)
    @example(n=3, fsr_tau0=0.1, sign=-1.0, gamma_over_fsr=0.05, m_max=3, fill=0.9)
    @example(n=3000, fsr_tau0=0.05, sign=1.0, gamma_over_fsr=0.1, m_max=None, fill=0.95)
    def test_spectrum_is_even_and_its_non_negative_half(
        self, spectrum_setup, n, fsr_tau0, sign, gamma_over_fsr, m_max, fill
    ):
        *_, freqs, _ = spectrum_setup
        scales = scales_with(fsr_tau0, sign, gamma_over_fsr)
        detuning = symmetric_grid(fill * (n - 1) * scales.gamma / 32.0, n)
        h = n // 2
        trace = spectrum("idler", scales, freqs, detuning=detuning, m_max=m_max)
        values = trace.values
        assert same_bits(values, values[::-1])
        if n - h >= 2:  # a one-point grid is refused
            half = spectrum("idler", scales, freqs, detuning=detuning[h:], m_max=m_max)
            assert same_bits(values[h:], half.values)
        assert relative_deviation(values, loop_spectrum(trace, scales)) <= COMB_RTOL

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(**MIRROR_DRAWS)
    @example(n=2, fsr_tau0=0.1, sign=1.0, gamma_over_fsr=0.05, m_max=None, fill=0.9)
    @example(n=3, fsr_tau0=0.1, sign=-1.0, gamma_over_fsr=0.05, m_max=3, fill=0.9)
    @example(n=3000, fsr_tau0=0.05, sign=1.0, gamma_over_fsr=0.1, m_max=None, fill=0.95)
    def test_g1_is_even_and_its_non_negative_half(
        self, spectrum_setup, n, fsr_tau0, sign, gamma_over_fsr, m_max, fill
    ):
        *_, freqs, _ = spectrum_setup
        scales = scales_with(fsr_tau0, sign, gamma_over_fsr)
        m_count = _auto_mode_count(scales, m_max)
        finest = 1.0 / (16.0 * scales.gamma)
        if m_count:
            finest = min(finest, scales.round_trip_T / (2.5 * m_count))
        tau = symmetric_grid(fill * (n - 1) * finest / 2.0, n)
        h = n // 2
        values = g1("idler", scales, freqs, tau=tau, m_max=m_max).values
        assert same_bits(values, values[::-1])
        if n % 2:
            assert same_bits(values[h], np.complex128(1.0))
        if n - h >= 2:
            half = g1("idler", scales, freqs, tau=tau[h:], m_max=m_max)
            assert same_bits(values[h:], half.values)
        want = g1_mode_loop(_mode_weights(m_count, scales), scales.fsr_delta_omega,
                            scales.gamma, tau)
        assert np.abs(values - want).max() <= 1e-11

    @pytest.mark.parametrize("n", [3, 4, 1001, 1002])
    @pytest.mark.parametrize("broken", [None, "lower", "upper"])
    def test_a_grid_off_the_mirror_at_one_point_runs_every_point(
        self, spectrum_setup, monkeypatch, n, broken
    ):
        # One point one ulp off the mirror, in either half, sends the whole
        # grid through each kernel; the exact mirror sends n - n//2 points.
        *_, freqs, scales = spectrum_setup
        comb = spy_sizes(monkeypatch, "_lorentzian_comb", lambda d, *_: d.size)
        series = spy_sizes(monkeypatch, "_cos_series", lambda c, t0, dt, size: size)
        detuning = symmetric_grid(0.5 * (n - 1) * scales.gamma / 32.0, n)
        tau = symmetric_grid(0.5 * (n - 1) * scales.round_trip_T / 25.0, n)  # M = 5
        if broken:
            i = 0 if broken == "lower" else n - 1
            detuning[i] = np.nextafter(detuning[i], 0.0)
            tau[i] = np.nextafter(tau[i], 0.0)
        trace = spectrum("idler", scales, freqs, detuning=detuning, m_max=5)
        g1_values = g1("idler", scales, freqs, tau=tau, m_max=5).values
        assert comb == series == [n if broken else n - n // 2]
        assert relative_deviation(trace.values, loop_spectrum(trace, scales)) <= COMB_RTOL
        want = g1_mode_loop(_mode_weights(5, scales), scales.fsr_delta_omega, scales.gamma,
                            tau)
        assert np.abs(g1_values - want).max() <= 1e-11

    @pytest.mark.parametrize("name", CONFIGS)
    def test_default_grids_are_exact_mirrors_through_zero(self, name):
        config = load_scenario(CONFIG_DIR / name)
        detuning, tau = spectrum_grid(config.scales), g1_grid(config.scales)
        for grid in (detuning, tau):
            h = grid.size // 2
            assert grid.size % 2 == 1 and mirror_count(grid) == h
            assert same_bits(grid[h], np.float64(0.0))
        values = g1("idler", config.scales, config.freqs, tau=tau).values
        assert same_bits(values[tau.size // 2], np.complex128(1.0))


class TestGridBudget:
    """The refusals the CLI can reach run through it (tests/test_cli.py)."""

    def test_count_at_the_budget_is_built(self, spectrum_setup, monkeypatch):
        *_, scales = spectrum_setup
        monkeypatch.setattr(sropo.spectra, "symmetric_grid", lambda half, n: n)
        assert spectrum_grid(scales, points=MAX_GRID_POINTS) == MAX_GRID_POINTS
        assert g1_grid(scales, points=MAX_GRID_POINTS) == MAX_GRID_POINTS

    def test_budget_edge_is_exact(self):
        half = (MAX_GRID_POINTS - 1) // 2
        assert grid_points(MAX_GRID_POINTS, math.nan, "w") == MAX_GRID_POINTS
        assert grid_points(None, MAX_GRID_POINTS - 1, "w") == MAX_GRID_POINTS
        assert grid_points(None, half, "w", 2) == MAX_GRID_POINTS - 1  # odd counts
        with pytest.raises(ScenarioValidationError, match="grid from --points "):
            grid_points(MAX_GRID_POINTS + 1, 1.0, "w")
        for steps, sides in [(MAX_GRID_POINTS, 1), (half + 1e-6, 2),
                             (math.inf, 2), (math.nan, 1)]:
            with pytest.raises(ScenarioValidationError, match="grid from w "):
                grid_points(None, steps, "w", sides)

    def test_g1_mode_weights_refused_before_allocating(self, spectrum_setup, monkeypatch):
        # A grid this fine passes g1's checks for 2**24 modes; through the CLI
        # the default grid is refused first.
        crystal, cavity, pump, freqs, scales = spectrum_setup
        tau = np.array([0.0, 1e-30])

        def refuse(*args, **kwargs):
            raise AssertionError("mode weights allocated past the budget")

        monkeypatch.setattr(np, "arange", refuse)
        with pytest.raises(ScenarioValidationError, match="grid from --m-max "):
            g1("idler", scales, freqs, tau=tau, m_max=MAX_GRID_POINTS // 2)

    def test_chebyshev_table_refused_before_allocating(self, spectrum_setup, monkeypatch):
        # 33 points over +-gamma at the top of GAMMA_RANGE span about 6e140 fsr
        # cells: the far lines' table (18 rows per cell) is refused before any
        # array is made.
        *_, freqs, scales = spectrum_setup
        gamma = GAMMA_RANGE[1]
        detuning = np.linspace(-gamma, gamma, 33)
        monkeypatch.setattr(np, "arange", self._refuse)
        with pytest.raises(ScenarioValidationError, match="grid from --window-modes "):
            spectrum("idler", scales.replace(gamma=gamma), freqs, detuning)

    def test_line_lattice_refused_before_allocating(self, spectrum_setup, monkeypatch):
        # 2M+1 weights within the budget, but the lattice of line shapes over
        # 3 cells holds 2M + 3 > MAX_GRID_POINTS entries.
        *_, freqs, scales = spectrum_setup
        fsr = scales.fsr_delta_omega
        detuning = np.linspace(-fsr, fsr, 3)
        monkeypatch.setattr(np, "arange", self._refuse)
        with pytest.raises(ScenarioValidationError,
                           match="grid from --window-modes and --m-max "):
            spectrum("idler", scales.replace(gamma=16.0 * fsr), freqs,
                     detuning, m_max=(MAX_GRID_POINTS - 1) // 2)

    @staticmethod
    def _refuse(*args, **kwargs):
        raise AssertionError("comb table allocated past the budget")


# Faults a library call can carry: what each changes, and the error and message
# (per function: detuning or tau) it raises alone.  A grid is built from the
# scales after the other faults, at ``spacing`` = 1/32 gamma (spectrum) or
# 1e-30 s (g1, fine enough for any mode beat the budget allows).
REFUSALS = {
    "field": (dict(field="bogus"), ValueError, "'bogus' is not a valid FieldName"),
    "tau0_zero": (dict(tau0=0.0, m_max=None), sropo.DegenerateGroupVelocityError,
                  r"tau0 = 0: the envelope has no zero; pass m_max \(--m-max\)"),
    "m_max_negative": (dict(m_max=-1), ScenarioValidationError,
                       r"m_max \(--m-max\) must be at least 0, got -1"),
    "non_uniform": (dict(steps=[0.0, 1.0, 3.0]), ValueError,
                    "{axis} must be uniformly spaced"),
    "too_coarse": (dict(steps=np.arange(-2.0, 3.0), coarse=True), GridTooCoarseError,
                   r"grid points per {per}; at least 16 required"),
    "gamma": (dict(gamma=1e200), ScenarioValidationError,
              r"cavity.loss_rate_gamma: gamma = 1e\+200 rad/s is outside"),
    "budget": (dict(m_max=MAX_GRID_POINTS // 2), ScenarioValidationError,
               "grid from --m-max would hold more than"),
}
# The order each function refuses in; faults that set the same argument
# (the grid, or m_max) are never combined.
SPECTRUM_REFUSALS = ["field", "m_max_negative", "tau0_zero", "non_uniform", "too_coarse",
                     "gamma", "budget"]
G1_REFUSALS = ["field", "m_max_negative", "tau0_zero", "non_uniform", "gamma",
               "too_coarse", "budget"]


def refusal_pairs(order):
    pairs = []
    for i, first in enumerate(order):
        for second in order[i + 1:]:
            if not set(REFUSALS[first][0]) & set(REFUSALS[second][0]):
                pairs.append((first, second))
    return pairs


class TestRefusalOrder:
    """Two faults at once: the earlier refusal of each function wins."""

    @staticmethod
    def call(function, spectrum_setup, faults):
        *_, freqs, scales = spectrum_setup
        args = dict(field="idler", m_max=5, steps=np.arange(-16.0, 17.0), coarse=False)
        for fault in faults:
            args.update(REFUSALS[fault][0])
        scales = scales.replace(tau0=args.get("tau0", scales.tau0),
                                gamma=args.get("gamma", scales.gamma))
        if function is spectrum:
            spacing = scales.gamma / (8.0 if args["coarse"] else 32.0)
        else:
            spacing = 1.0 / (8.0 * scales.gamma) if args["coarse"] else 1e-30
        grid = np.asarray(args["steps"]) * spacing
        return function(args["field"], scales, freqs, grid, m_max=args["m_max"])

    @pytest.mark.parametrize("fault", list(REFUSALS))
    def test_each_fault_alone_is_refused(self, spectrum_setup, fault):
        for function, axis, per in [(spectrum, "detuning", "gamma"), (g1, "tau", "1/gamma")]:
            _, error, message = REFUSALS[fault]
            with pytest.raises(error, match=message.format(axis=axis, per=per)):
                self.call(function, spectrum_setup, [fault])

    @pytest.mark.parametrize("first, second", refusal_pairs(SPECTRUM_REFUSALS))
    def test_spectrum_refuses_the_earlier_fault(self, spectrum_setup, first, second):
        _, error, message = REFUSALS[first]
        with pytest.raises(error, match=message.format(axis="detuning", per="gamma")):
            self.call(spectrum, spectrum_setup, [first, second])

    @pytest.mark.parametrize("first, second", refusal_pairs(G1_REFUSALS))
    def test_g1_refuses_the_earlier_fault(self, spectrum_setup, first, second):
        _, error, message = REFUSALS[first]
        with pytest.raises(error, match=message.format(axis="tau", per="1/gamma")):
            self.call(g1, spectrum_setup, [first, second])

    def test_mirrored_and_linspace_grids_carry_the_same_metadata(self, spectrum_setup):
        *_, freqs, scales = spectrum_setup
        detuning = symmetric_grid(20.0 * scales.gamma, 801)
        tau = symmetric_grid(0.5 * scales.round_trip_T, 201)
        plain = np.linspace(-detuning[-1], detuning[-1], detuning.size)
        plain_tau = np.linspace(-tau[-1], tau[-1], tau.size)
        assert mirror_count(detuning) > 0 and mirror_count(tau) > 0
        assert mirror_count(plain) == 0 and mirror_count(plain_tau) == 0
        for field in ("signal", "idler"):
            for normalization in BOTH_NORMALIZATIONS:
                mirrored, linear = (
                    spectrum(field, scales, freqs, grid, m_max=5,
                             normalization=normalization).meta
                    for grid in (detuning, plain))
                assert mirrored == linear
            assert (g1(field, scales, freqs, tau, m_max=5).meta
                    == g1(field, scales, freqs, plain_tau, m_max=5).meta)

    @pytest.mark.parametrize("normalization, shown", [
        (Normalization.UNIT_AT_ZERO, "'unit_at_zero'"), ("bogus", "'bogus'"), (None, "None"),
    ])
    def test_spectrum_normalization_refused_before_the_comb(
        self, spectrum_setup, monkeypatch, normalization, shown
    ):
        *_, freqs, scales = spectrum_setup
        comb = spy_sizes(monkeypatch, "_lorentzian_comb", lambda d, *_: d.size)
        message = (f"unsupported spectrum normalization {shown}; "
                   "expected 'peak_unity' or 'unit_integral'$")
        with pytest.raises(ValueError, match=message):
            spectrum("idler", scales, freqs, normalization=normalization)
        assert comb == []
        for accepted in ("peak_unity", "unit_integral"):
            trace = spectrum("idler", scales, freqs, np.arange(-64.0, 65.0) * scales.gamma
                             / 32.0, m_max=3, normalization=accepted)
            assert trace.meta.normalization is Normalization(accepted)
        assert len(comb) == 2


_SCALE_KEYS = {"tau0_s", "round_trip_T_s", "fsr_rad_per_s", "gamma_rad_per_s",
               "kappa_per_s"}


def test_traces_carry_no_scale_key(spectrum_setup):
    # The command line writes the scales into every table's header; a trace
    # carries only its own keys, m_max among them.
    *_, freqs, scales = spectrum_setup
    for trace in (spectrum("idler", scales, freqs, m_max=4),
                  g1("signal", scales, freqs, m_max=4)):
        assert not _SCALE_KEYS & set(trace.meta.extra)
        assert trace.meta.extra["m_max"] == 4


class TestG1:
    def test_supplied_tau_checks_the_linewidth(self, spectrum_setup):
        # As spectrum does: gamma outside GAMMA_RANGE is refused before
        # 1/(gamma*spacing) divides by an underflow.
        *_, freqs, scales = spectrum_setup
        with pytest.raises(ScenarioValidationError, match="cavity.loss_rate_gamma"):
            g1("idler", scales.replace(gamma=1e-300), freqs,
               tau=[0.0, 1e-30], m_max=0)

    def test_spacing_below_a_gamma_underflow_is_fine_enough(self, spectrum_setup):
        # gamma*spacing underflows to 0: infinitely many points per 1/gamma.
        *_, freqs, scales = spectrum_setup
        gamma = GAMMA_RANGE[0]
        assert gamma * 1e-300 == 0.0
        trace = g1("idler", scales.replace(gamma=gamma), freqs,
                   tau=[0.0, 1e-300], m_max=0)
        assert np.array_equal(trace.values, [1.0, 1.0])

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


# Each entry point that takes a mode count: a non-integer one (where
# operator.index fails) is refused, naming the argument, before it is used.
MODE_COUNT_ENTRIES = {
    "spectrum": lambda c, m: spectrum("idler", c.scales, c.freqs, m_max=m),
    "g1": lambda c, m: g1("idler", c.scales, c.freqs, m_max=m),
    "g1_grid": lambda c, m: g1_grid(c.scales, m_max=m),
    "g2_series": lambda c, m: sropo.g2_series(
        sropo.G2Request("series", np.linspace(0.0, 1e-9, 9), m_max=m), c.scales),
    "g2_exact": lambda c, m: sropo.g2_exact(
        sropo.G2Request("exact", np.linspace(0.0, 1e-9, 9), m_max=m), c.scales),
    "wavefunction_grid": lambda c, m: sropo.wavefunction_grid(c.scales, m),
}


@pytest.mark.parametrize("count", [2.5, 2.0, "2"])
@pytest.mark.parametrize("entry", MODE_COUNT_ENTRIES)
def test_non_integer_mode_count_is_refused(entry, count):
    config = load_scenario(CONFIG_DIR / "spectrum_comb.json")
    name = r"m_count \(--modes\)" if entry == "wavefunction_grid" else r"m_max \(--m-max\)"
    with pytest.raises(ScenarioValidationError,
                       match=rf"^{name} must be an integer, got {count!r}$"):
        MODE_COUNT_ENTRIES[entry](config, count)
    MODE_COUNT_ENTRIES["spectrum"](config, np.int64(2))  # an integer type is one


@pytest.mark.parametrize("changes", [dict(tau0=5e-324), dict(tau0=5e-324, fsr_delta_omega=0.25)],
                         ids=["subnormal", "zero"])
def test_envelope_zero_mode_that_overflows_is_refused_naming_its_inputs(spectrum_setup,
                                                                        changes):
    # fsr*|tau0| is subnormal, or underflows to 0: 2*pi over it, the envelope's
    # first zero, is past the double range.
    *_, scales = spectrum_setup
    scales = scales.replace(**changes)
    message = (r"^crystal\.length_l, crystal\.dispersion_signal, crystal\.dispersion_idler, "
               r"cavity\.resonator_length_Lr: derived 2\*pi/\(fsr\*\|tau0\|\) must be finite, "
               r"got inf$")
    for call in (spectrum_grid, g1_grid, lambda s: _auto_mode_count(s, None)):
        with pytest.raises(ScenarioValidationError, match=message):
            call(scales)


def test_spectrum_refuses_m_max_before_its_default_grid():
    # phase_matched.json's default grid holds 743,205 points (5.7 MiB).
    config = load_scenario(CONFIG_DIR / "phase_matched.json")
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioValidationError, match=r"^m_max \(--m-max\) must be at"):
            spectrum("idler", config.scales, config.freqs, m_max=-1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _averaged_g2(config, resolution):
    grid = g2_grid(config.scales, "averaged", 1, resolution=resolution)
    assert grid.dtype == np.float64
    return sropo.g2_averaged(sropo.G2Request("averaged", grid, resolution_dt=resolution),
                             config.scales)


# The library boundary: each entry point with a mode count or a time in
# seconds, as (argument, config, call, least count).  A count is stored as a
# Python int, and one that is no integer (a bool included) or below the least
# is refused naming the argument; a time in seconds becomes a Python float,
# and a bool or a string is refused.
BOUNDARY = {
    "spectrum": ("m_max", "spectrum_comb", lambda c, v: spectrum(
        "idler", c.scales, c.freqs, detuning=np.linspace(-1e9, 1e9, 81), m_max=v), 0),
    "g1": ("m_max", "spectrum_comb", lambda c, v: g1(
        "idler", c.scales, c.freqs, tau=np.linspace(-1e-11, 1e-11, 21), m_max=v), 0),
    "g1_grid": ("m_max", "spectrum_comb", lambda c, v: g1_grid(
        c.scales, window_gammas=np.float32(0.01), m_max=v), 0),
    "G2Request": ("m_max", "spectrum_comb", lambda c, v: sropo.g2_series(
        sropo.G2Request("series", np.linspace(0.0, 2e-11, 41), m_max=v), c.scales), 1),
    "g2_grid": ("resolution", "detector_averaged", _averaged_g2, None),
    "wavefunction_grid": ("m_count", "spectrum_comb",
                          lambda c, v: sropo.wavefunction_grid(c.scales, v), 1),
}
# How a refusal names each argument: its library name, then its flag.
WHERE = {"m_max": r"m_max \(--m-max\)", "m_count": r"m_count \(--modes\)",
         "resolution": r"resolution_dt \(--resolution\)"}
COUNT_TYPES = [int, np.int64, np.int32, bool, np.bool_, float, np.float32]
SECONDS_TYPES = [float, np.float32, np.float64, bool, np.bool_, str]


@st.composite
def boundary_calls(draw):
    entry = draw(st.sampled_from(sorted(BOUNDARY)))
    if BOUNDARY[entry][0] == "resolution":
        kind = draw(st.sampled_from(SECONDS_TYPES))
        return entry, kind(draw(st.sampled_from([7.74e-12, 2e-11])))
    return entry, draw(st.sampled_from(COUNT_TYPES))(draw(st.integers(-1, 3)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(call=boundary_calls())
@example(call=("spectrum", np.int64(2)))
@example(call=("spectrum", True))
@example(call=("G2Request", True))
@example(call=("g2_grid", np.float32(7.74e-12)))
@example(call=("g2_grid", True))
def test_library_boundary_stores_python_scalars_and_builds_float64_grids(call):
    entry, value = call
    name, config, run, least = BOUNDARY[entry]
    config = load_scenario(CONFIG_DIR / f"{config}.json")
    if (isinstance(value, (bool, np.bool_, str)) if least is None else
            isinstance(value, (bool, np.bool_, float, np.floating)) or value < least):
        with pytest.raises(ScenarioValidationError, match=rf"^{WHERE[name]} must be "):
            run(config, value)
        return
    result = run(config, value)
    if isinstance(result, np.ndarray):  # g1_grid, from a float32 window
        assert result.dtype == np.float64
        return
    if isinstance(result, sropo.BiphotonAmplitudeGrid):
        assert type(result.normalization) is float
        assert result.modes.tolist() == list(range(-value, value + 1))
        return
    meta, names, columns = trace_table(result)
    assert all(type(v) in (int, float, str, bool) for v in meta.values()), meta
    key = "resolution_dt_s" if name == "resolution" else "m_max"
    assert type(meta[key]) is type(float(value) if name == "resolution" else int(value))
    assert meta[key] == (float(value) if name == "resolution" else value)
    with tempfile.TemporaryDirectory() as tmp:
        write_table_json(Path(tmp, "table.json"), meta, names, columns)
