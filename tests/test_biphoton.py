import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sropo import (
    DegenerateGroupVelocityError,
    DerivedScales,
    GridTooCoarseError,
    NonConvergenceError,
    PumpParams,
    ScenarioValidationError,
    phi_analytic,
    rate_continuum,
    rate_mode_sum,
    scenario_from_dict,
    wavefunction_grid,
)
from sropo.biphoton import _phi_factors, _rate_prefactor
from sropo.numerics import GAMMA_RANGE, mirror_count
from sropo.scenario import load_scenario
from conftest import CONFIG_DIR, make_setup, scenario_dict
from helpers import norm_squared
from oracles import QuadratureWarning, phi_direct, phi_exact, sinc_sq_partial_sum
from scipy.constants import epsilon_0 as EPS0

C = 299792458.0


class TestPhi:
    def test_unity_at_origin(self, comb_setup):
        *_, scales = comb_setup
        assert phi_exact(0, 0.0, scales) == pytest.approx(1.0 + 0.0j, abs=1e-14)
        assert phi_analytic(0, 0.0, scales) == 1.0 + 0.0j

    def test_full_period_integrates_to_zero(self, comb_setup):
        *_, scales = comb_setup
        omega = 2 * math.pi / scales.tau0  # (m fsr + omega) tau0 = 2 pi at m = 0
        assert abs(phi_exact(0, omega, scales)) < 1e-10

    def test_frozen_closed_form_value(self, comb_setup):
        # total phase 2 across the crystal: sinc(1) * e^{-i}
        *_, scales = comb_setup
        omega = 2.0 / scales.tau0
        expected = complex(
            math.sin(1.0) * math.cos(1.0), -math.sin(1.0) * math.sin(1.0)
        )
        assert phi_exact(0, omega, scales) == pytest.approx(expected, abs=1e-8)
        assert phi_analytic(0, omega, scales) == pytest.approx(expected, abs=1e-14)

    def test_zero_at_sinc_zero(self, comb_setup):
        *_, scales = comb_setup
        omega = 2 * math.pi / scales.tau0
        assert abs(phi_analytic(0, omega, scales)) < 1e-15

    def test_analytic_matches_quadrature_grid(self, comb_setup):
        *_, scales = comb_setup
        gamma = scales.gamma
        for m in range(-10, 11):
            for omega in np.linspace(-5 * gamma, 5 * gamma, 21):
                exact = phi_exact(m, float(omega), scales, quad_points=256)
                approx = phi_analytic(m, float(omega), scales)
                assert abs(exact - approx) <= 1e-8 * abs(exact)

    def test_analytic_broadcasts_over_modes_and_detunings(self, comb_setup):
        *_, scales = comb_setup
        modes = np.arange(-3, 4)[:, None]
        omega = np.linspace(-5 * scales.gamma, 5 * scales.gamma, 11)[None, :]
        grid = phi_analytic(modes, omega, scales)
        assert grid.shape == (7, 11)
        for i, m in enumerate(modes[:, 0]):
            for j, w in enumerate(omega[0]):
                assert grid[i, j] == phi_analytic(int(m), float(w), scales)

    def test_magnitude_bounded_by_one(self, comb_setup):
        *_, scales = comb_setup
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = int(rng.integers(-400, 400))
            omega = float(rng.uniform(-50, 50) * scales.gamma)
            assert abs(phi_analytic(m, omega, scales)) <= 1.0 + 1e-15

    def test_quadrature_warning_on_fast_phase(self, comb_setup):
        *_, scales = comb_setup
        omega = 60.0 / scales.tau0  # 60 rad across the crystal, 4 panels
        with pytest.warns(QuadratureWarning):
            phi_exact(0, omega, scales, quad_points=32)

    def test_quad_points_minimum(self, comb_setup):
        *_, scales = comb_setup
        with pytest.raises(ValueError):
            phi_exact(0, 0.0, scales, quad_points=16)


class TestRates:
    def test_continuum_formula(self, rate_setup):
        crystal, _, pump, freqs, scales = rate_setup
        kappa = rate_continuum(crystal, pump, freqs, scales)
        x = crystal.chi * pump.field_amplitude_ep / (4 * EPS0 * C * 1e-8)
        expected = (
            x * x
            * freqs.omega_s * freqs.omega_i / (1.8 * 1.8232)
            * 2 * math.pi / abs(scales.tau0)
        )
        assert kappa == pytest.approx(expected, rel=1e-9)

    def test_continuum_scalings(self, rate_setup):
        crystal, cavity, pump, freqs, scales = rate_setup
        kappa = rate_continuum(crystal, pump, freqs, scales)
        double_pump = PumpParams(2 * pump.field_amplitude_ep)
        assert rate_continuum(crystal, double_pump, freqs, scales) == pytest.approx(
            4 * kappa, rel=1e-14
        )

        halved = scales.replace(tau0=2 * scales.tau0)
        assert rate_continuum(crystal, pump, freqs, halved) == pytest.approx(
            kappa / 2, rel=1e-14
        )

    def test_continuum_independent_of_resonator(self, rate_setup):

        crystal, cavity, pump, freqs, scales = rate_setup
        kappa = rate_continuum(crystal, pump, freqs, scales)
        modified = scales.replace(
            gamma=10 * scales.gamma,
            round_trip_T=10 * scales.round_trip_T,
            fsr_delta_omega=scales.fsr_delta_omega / 10,
        )
        assert rate_continuum(crystal, pump, freqs, modified) == kappa

    def test_mode_sum_matches_continuum(self, rate_setup):
        crystal, _, pump, freqs, scales = rate_setup
        dz = 0.5 * scales.fsr_delta_omega * abs(scales.tau0)
        assert dz <= 0.01
        k_sum = rate_mode_sum(crystal, pump, freqs, scales)
        k_cont = rate_continuum(crystal, pump, freqs, scales)
        assert abs(k_sum - k_cont) / k_cont < 0.01

    def test_mode_sum_invariant_under_fsr_halving(self, comb_setup):

        crystal, cavity, pump, freqs, scales = comb_setup
        k1 = rate_mode_sum(crystal, pump, freqs, scales)
        halved_fsr = scales.replace(
            fsr_delta_omega=scales.fsr_delta_omega / 2,
            round_trip_T=scales.round_trip_T * 2,
        )
        k2 = rate_mode_sum(crystal, pump, freqs, halved_fsr)
        assert abs(k2 - k1) / k1 < 0.01

    def test_mode_sum_even_in_tau0(self, comb_setup):

        crystal, _, pump, freqs, scales = comb_setup
        k1 = rate_mode_sum(crystal, pump, freqs, scales)
        k2 = rate_mode_sum(
            crystal, pump, freqs, scales.replace(tau0=-scales.tau0)
        )
        assert k1 == k2

    def test_central_mode_term_is_prefactor_times_fsr(self, comb_setup):
        # the m = 0 term of the mode sum carries weight sinc^2(0) = 1
        crystal, _, pump, freqs, scales = comb_setup
        x = crystal.chi * pump.field_amplitude_ep / (
            4 * EPS0 * C * crystal.cross_section_A
        )
        expected = x * x * freqs.omega_s * freqs.omega_i / (1.8 * 1.9)
        assert _rate_prefactor(crystal, pump, freqs) == pytest.approx(
            expected, rel=1e-12
        )
        term0 = _rate_prefactor(crystal, pump, freqs) * scales.fsr_delta_omega
        assert 0 < term0 < rate_mode_sum(crystal, pump, freqs, scales)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(dz=st.floats(0.0, 40.0, exclude_min=True))
    @example(dz=math.pi)
    @example(dz=2 * math.pi)
    @example(dz=3 * math.pi)
    @example(dz=12 * math.pi)
    @example(dz=3.5)
    @example(dz=0.003)
    def test_mode_sum_within_partial_sum_tail_bound(self, rate_setup, dz):
        # sum_{|m|<=M} sinc^2(m dz) <= S <= the same + 2/(dz^2 M), with S
        # read off the rate as rate / (prefactor * fsr).  Exact multiples
        # of pi are where the aliased copies of the triangle start.
        crystal, _, pump, freqs, _ = rate_setup
        scales = DerivedScales(tau0=dz, round_trip_T=math.pi, fsr_delta_omega=2.0,
                               gamma=1.0, kappa=1.0)
        s = rate_mode_sum(crystal, pump, freqs, scales) / (
            _rate_prefactor(crystal, pump, freqs) * 2.0
        )
        m = 1 << 20
        partial = sinc_sq_partial_sum(dz, m)
        # 1e-14 allows for rounding: just below multiples of pi the closed
        # form reads 1 ulp below the partial sum (1.1e-16 worst seen)
        assert partial <= s * (1 + 1e-14)
        assert s <= (partial + 2.0 / dz / dz / m) * (1 + 1e-14)

    @pytest.mark.parametrize(
        "name", ["g2_comb", "spectrum_comb", "detector_averaged", "phase_matched"]
    )
    def test_mode_sum_is_continuum_on_shipped_configs(self, name):
        # fsr*|tau0|/2 < pi: no aliasing, the bracket is exactly 1
        c = load_scenario(CONFIG_DIR / f"{name}.json")
        args = (c.crystal, c.pump, c.freqs, c.scales)
        assert rate_mode_sum(*args) == rate_continuum(*args)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(
        idler_n=st.floats(1.81, 2.2),
        pump=st.floats(1e-17, 1e-15),
        resonators=st.lists(
            st.tuples(st.floats(0.01, 1.0), st.floats(1e6, 1e11)),
            min_size=2, max_size=2, unique=True,
        ),
    )
    def test_continuum_independent_of_resonator_over_scenarios(
        self, idler_n, pump, resonators
    ):
        rates = []
        for length, gamma in resonators:
            data = scenario_dict(idler_n, gamma, pump={"field_amplitude_EP": pump})
            data["cavity"]["resonator_length_Lr"] = length
            c = scenario_from_dict(data)
            rates.append(rate_continuum(c.crystal, c.pump, c.freqs, c.scales))
        assert rates[0] == rates[1]

    def test_degenerate_tau0_raises(self):
        crystal, cavity, pump, freqs, scales = make_setup(1.8)
        with pytest.raises(DegenerateGroupVelocityError):
            rate_continuum(crystal, pump, freqs, scales)
        with pytest.raises(NonConvergenceError):
            rate_mode_sum(crystal, pump, freqs, scales)


G2_COMB_FSR = 16238375580.248734  # configs/g2_comb.json


class TestWavefunctionGrid:
    # psi against the per-point formula: alpha = m*fsr*tau0/2, beta =
    # Omega*tau0/2 and z = alpha + beta each round once on either side, the
    # phases pass that on as is and sinc at most 0.44 of it, so the two
    # differ by a few eps * (1 + A), A = max|alpha| + max|beta|.  Measured
    # worst over 4,500 random draws of these ranges: 3.5 eps * (1 + A) of
    # max|psi|.  At 64 modes on g2_comb.json (A = 1.75) it is 4.5e-16.
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        fsr=st.sampled_from((1.0, G2_COMB_FSR)),
        gamma_ratio=st.floats(1e-3, 0.5),
        dz=st.floats(1e-3, 0.5),
        sign=st.sampled_from((1.0, -1.0)),
        m_count=st.integers(1, 64),
        halfwidth=st.floats(10.0, 40.0),
        extra_points=st.integers(0, 400),
    )
    @example(fsr=G2_COMB_FSR, gamma_ratio=0.049999999999999996, dz=0.027082695289567135,
             sign=1.0, m_count=64, halfwidth=12.0, extra_points=16)  # the shipped grid
    # Omega = -m*fsr lies on the grid for m = 1..4: z is exactly 0 off row 0
    @example(fsr=1.0, gamma_ratio=0.25, dz=0.15, sign=-1.0, m_count=4, halfwidth=16.0,
             extra_points=0)
    def test_matches_per_point_formula(self, fsr, gamma_ratio, dz, sign, m_count,
                                       halfwidth, extra_points):
        scales = DerivedScales(tau0=sign * 2.0 * dz / fsr, round_trip_T=2 * math.pi / fsr,
                               fsr_delta_omega=fsr, gamma=gamma_ratio * fsr, kappa=1.0)
        least = math.ceil(32.0 * halfwidth) + 1  # 16 points per gamma
        points = least + min(extra_points, max(0, 401 - least))
        grid = wavefunction_grid(scales, m_count, halfwidth, points)
        omega = grid.detuning
        raw = phi_direct(grid.modes[:, None], omega[None, :], scales)
        raw /= 0.5 * scales.gamma - 1j * omega
        raw /= math.sqrt(np.sum(np.trapezoid(np.abs(raw) ** 2, omega, axis=1)))
        reach = m_count * dz + halfwidth * gamma_ratio * dz
        bound = 4.0 * np.finfo(float).eps * (1.0 + reach)
        assert np.max(np.abs(grid.amplitudes - raw)) <= bound * np.max(np.abs(raw))
        assert norm_squared(grid) == pytest.approx(1.0, abs=1e-12)

    # psi(-m, -Omega) = conj(psi(m, Omega)): the rows m < 0 are the rows m > 0
    # conjugated with both axes reversed, and the rows m >= 0 are the product
    # the whole grid formed before, bit for bit.  Odd and even point counts.
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(
        fsr=st.sampled_from((1.0, G2_COMB_FSR)),
        gamma_ratio=st.floats(1e-3, 0.5),
        dz=st.floats(1e-3, 0.5),
        sign=st.sampled_from((1.0, -1.0)),
        m_count=st.integers(1, 64),
        halfwidth=st.floats(10.0, 40.0),
        extra_points=st.integers(0, 400),
    )
    @example(fsr=G2_COMB_FSR, gamma_ratio=0.05, dz=0.027, sign=1.0, m_count=1,
             halfwidth=12.0, extra_points=0)  # 385 points
    @example(fsr=1.0, gamma_ratio=0.25, dz=0.15, sign=-1.0, m_count=4, halfwidth=16.0,
             extra_points=1)  # 514 points
    def test_conjugate_centrosymmetric_from_rows_m_at_least_zero(
        self, fsr, gamma_ratio, dz, sign, m_count, halfwidth, extra_points
    ):
        scales = DerivedScales(tau0=sign * 2.0 * dz / fsr, round_trip_T=2 * math.pi / fsr,
                               fsr_delta_omega=fsr, gamma=gamma_ratio * fsr, kappa=1.0)
        points = math.ceil(32.0 * halfwidth) + 1 + extra_points
        grid = wavefunction_grid(scales, m_count, halfwidth, points)
        a, omega = grid.amplitudes, grid.detuning
        assert mirror_count(omega) == points // 2
        assert np.array_equal(a, np.conj(a[::-1, ::-1]))  # conj(0j) is -0j at the centre
        sinc, phase_m, phase_omega = _phi_factors(grid.modes[:, None], omega, scales)
        lorentz = 1.0 / (0.5 * scales.gamma - 1j * omega)
        phase_omega *= grid.normalization * lorentz
        whole = np.multiply(phase_m, phase_omega)
        whole *= sinc
        assert a[m_count:].tobytes() == whole[m_count:].tobytes()
        density = np.square(sinc).sum(axis=0) * np.square(np.abs(lorentz))
        whole_norm = 1.0 / math.sqrt(float(np.trapezoid(density, omega)))
        assert grid.normalization == pytest.approx(whole_norm, rel=1e-14)

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
    def test_default_detuning_axis_is_a_mirror_through_zero(self, name):
        omega = wavefunction_grid(load_scenario(CONFIG_DIR / name).scales, 8).detuning
        assert omega.size == 385 and mirror_count(omega) == 192
        assert omega[192].tobytes() == np.float64(0.0).tobytes()

    # psi's norm ties it to rate_continuum: summed over every mode and
    # detuning, sum_m |Phi_m|^2 / |gamma/2 - i Omega|^2 integrates to
    # (2 pi/gamma) (pi/dz) = (2 pi/gamma) (T/|tau0|), dz = fsr |tau0|/2 < pi,
    # the sum over m being pi/dz at every Omega (Poisson: no aliasing below
    # pi).  The grid keeps |Omega| <= h gamma and |m| <= M, so 1/N^2 falls
    # short of that by the deficit D, with L <= D <= L + 2/(pi dz M): L =
    # 1 - (2/pi) arctan(2h) is the Lorentzian mass past h, exact since every
    # Omega carries pi/dz, and 2/(dz^2 M), bounding sum_{|m|>M} 1/(m dz)^2,
    # is the mode tail relative to pi/dz.  Measured over 400 random draws of
    # these ranges: D - L between 0.40 and 0.54 of the mode-tail term (sin^2
    # averages 1/2 over the tail).
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        fsr=st.sampled_from((1.0, G2_COMB_FSR)),
        gamma_ratio=st.floats(1e-3, 0.1),
        dz=st.floats(1e-3, 0.999 * math.pi),
        sign=st.sampled_from((1.0, -1.0)),
        m_count=st.integers(50, 2000),
        halfwidth=st.floats(10.0, 20.0),
    )
    def test_norm_falls_short_of_the_continuum_by_the_tails(
        self, fsr, gamma_ratio, dz, sign, m_count, halfwidth
    ):
        scales = DerivedScales(tau0=sign * 2.0 * dz / fsr, round_trip_T=2 * math.pi / fsr,
                               fsr_delta_omega=fsr, gamma=gamma_ratio * fsr, kappa=1.0)
        self.assert_norm_within_tails(scales, m_count, halfwidth, math.ceil(32 * halfwidth) + 1)

    @pytest.mark.parametrize("name", ["spectrum_comb", "g2_comb", "phase_matched",
                                      "detector_averaged"])
    def test_norm_on_shipped_configs_at_2000_modes(self, name):
        # deficits 0.030, 0.032, 0.063 and 0.079 against bounds of 0.033,
        # 0.038, 0.105 and 0.144 on the default grid, h = 12
        self.assert_norm_within_tails(load_scenario(CONFIG_DIR / f"{name}.json").scales, 2000)

    @staticmethod
    def assert_norm_within_tails(scales, m_count, halfwidth=12.0, points=None):
        grid = wavefunction_grid(scales, m_count, halfwidth, points)
        continuum = 2 * math.pi / scales.gamma * scales.round_trip_T / abs(scales.tau0)
        deficit = 1.0 - 1.0 / grid.normalization**2 / continuum
        dz = 0.5 * scales.fsr_delta_omega * abs(scales.tau0)
        lorentzian = 1.0 - 2.0 / math.pi * math.atan(2.0 * halfwidth)
        assert lorentzian <= deficit <= lorentzian + 2.0 / (math.pi * dz * m_count)

    def test_unit_norm(self, comb_setup):
        *_, scales = comb_setup
        grid = wavefunction_grid(scales, m_count=8, omega_grid_halfwidth=10.0,
                                 points_per_mode=321)
        assert norm_squared(grid) == pytest.approx(1.0, abs=1e-6)

    def test_mode_ratio_is_sinc(self, comb_setup):
        *_, scales = comb_setup
        grid = wavefunction_grid(scales, m_count=8, omega_grid_halfwidth=10.0,
                                 points_per_mode=321)
        i0 = int(np.argmin(np.abs(grid.detuning)))
        centre = int(np.nonzero(grid.modes == 0)[0][0])
        for m in (1, 3, 5):
            z = 0.5 * m * scales.fsr_delta_omega * scales.tau0
            expected = abs(math.sin(z) / z)
            ratio = abs(grid.amplitudes[centre + m, i0]) / abs(
                grid.amplitudes[centre, i0]
            )
            assert ratio == pytest.approx(expected, rel=1e-12)

    def test_lorentzian_halfwidth(self, comb_setup):
        *_, scales = comb_setup
        grid = wavefunction_grid(scales, m_count=4, omega_grid_halfwidth=10.0,
                                 points_per_mode=321)
        centre = int(np.nonzero(grid.modes == 0)[0][0])
        i0 = int(np.argmin(np.abs(grid.detuning)))
        ihw = int(np.argmin(np.abs(grid.detuning - scales.gamma / 2)))
        assert grid.detuning[ihw] == pytest.approx(scales.gamma / 2, rel=1e-12)
        ratio = (
            abs(grid.amplitudes[centre, ihw]) ** 2
            / abs(grid.amplitudes[centre, i0]) ** 2
        )
        assert ratio == pytest.approx(0.5, abs=1e-5)

    def test_grid_too_coarse(self, comb_setup):
        *_, scales = comb_setup
        with pytest.raises(GridTooCoarseError):
            wavefunction_grid(scales, m_count=2, omega_grid_halfwidth=10.0,
                              points_per_mode=50)

    @pytest.mark.parametrize("end", [0, 1], ids=["low", "high"])
    def test_gamma_range_ends(self, comb_setup, end):
        # psi scales as 1/sqrt(gamma): at either end of GAMMA_RANGE it is
        # finite with unit norm, and one float outside is refused.
        *_, scales = comb_setup
        gamma = GAMMA_RANGE[end]
        grid = wavefunction_grid(scales.replace(gamma=gamma), m_count=2)
        assert np.all(np.isfinite(grid.amplitudes))
        assert norm_squared(grid) == pytest.approx(1.0, rel=1e-12)
        outside = float(np.nextafter(gamma, (0, math.inf)[end]))
        with pytest.raises(ScenarioValidationError, match="cavity.loss_rate_gamma"):
            wavefunction_grid(scales.replace(gamma=outside), m_count=2)

    def test_default_grid_accepts_gamma_near_shipped_config(self):
        # 384 intervals over 24 gamma is exactly 16 points per gamma for
        # every gamma; the check must not round below its own limit.
        scales = load_scenario(CONFIG_DIR / "g2_comb.json").scales
        for factor in np.linspace(0.99, 1.01, 200):
            near = scales.replace(gamma=scales.gamma * factor)
            grid = wavefunction_grid(near, m_count=2)
            assert grid.detuning.size == 385

    def test_halfwidth_minimum(self, comb_setup):
        *_, scales = comb_setup
        with pytest.raises(ValueError):
            wavefunction_grid(scales, m_count=2, omega_grid_halfwidth=5.0,
                              points_per_mode=321)
