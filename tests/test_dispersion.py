import json
import math

import numpy as np
import pytest
import scipy.constants
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sropo import (
    CrystalParams,
    DegenerateDispersionError,
    DispersionKind,
    DispersionModel,
    FrequencyTriple,
    NoSignChangeError,
    OutOfRangeError,
    dn_domega,
    group_velocity,
    phase_match,
    refractive_index,
    transit_time_diff,
    wavenumber,
)
from sropo.constants import SPEED_OF_LIGHT, VACUUM_PERMITTIVITY
from sropo.dispersion import _SCAN_INTERVALS, _VALIDATION_SAMPLES, _bisect, _linspace
from sropo.cli import main
from sropo.scenario import load_scenario
from conftest import C_LIGHT, CONFIG_DIR, constant_model
from oracles import dn_domega_by_kind, index_by_kind, wavelength_um_sq
from record_golden import SCENARIOS

WIDE = (1e14, 1e16)

# Fused silica, Malitson 1965 (B1..B3, C1..C3 with C in um^2).
FUSED_SILICA = (
    0.6961663,
    0.4079426,
    0.8974794,
    0.0684043**2,
    0.1162414**2,
    9.896161**2,
)
FUSED_SILICA_RANGE = (5.1e14, 8.9e15)  # ~0.21 um to ~3.7 um

# n values evaluated independently from the three-pole formula before the
# build (wavelengths 0.5876, 1.064, 1.55 um).
FUSED_SILICA_ORACLE = [
    (3205669787795870.0, 1.4584623420532408),
    (1770349217395538.5, 1.4496309898590634),
    (1215259075683131.0, 1.4440236217032607),
]


def sellmeier_model() -> DispersionModel:
    return DispersionModel(DispersionKind.SELLMEIER, FUSED_SILICA, FUSED_SILICA_RANGE)


class TestRefractiveIndex:
    def test_constant(self):
        assert refractive_index(constant_model(1.8), 1.0e15) == 1.8

    def test_linear(self):
        model = DispersionModel(DispersionKind.LINEAR_IN_OMEGA, (1.7, 1.0e-16), WIDE)
        assert refractive_index(model, 1.0e15) == pytest.approx(1.8, rel=1e-15)

    def test_sellmeier_against_frozen_values(self):
        model = sellmeier_model()
        for omega, expected in FUSED_SILICA_ORACLE:
            assert refractive_index(model, omega) == pytest.approx(expected, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            refractive_index(constant_model(1.8), 1e13)

    def test_index_above_one_enforced(self):
        with pytest.raises(ValueError):
            DispersionModel(DispersionKind.CONSTANT, (0.9,), WIDE)
        with pytest.raises(ValueError):
            # dips below 1 at the upper end of the range
            DispersionModel(DispersionKind.LINEAR_IN_OMEGA, (1.2, -3e-17), (1e15, 1e16))

    def test_parameter_count_enforced(self):
        with pytest.raises(ValueError):
            DispersionModel(DispersionKind.SELLMEIER, (1.0, 2.0), WIDE)


class TestGroupVelocity:
    def test_constant_is_c_over_n(self):
        assert group_velocity(constant_model(1.8), 1e15) == pytest.approx(
            166551365.55555555, rel=1e-15
        )

    def test_linear_closed_form(self):
        a, b = 1.7, 1.0e-16
        model = DispersionModel(DispersionKind.LINEAR_IN_OMEGA, (a, b), WIDE)
        omega = 1.0e15
        assert group_velocity(model, omega) == pytest.approx(
            C_LIGHT / (a + 2 * b * omega), rel=1e-15
        )

    @pytest.mark.parametrize(
        "model",
        [
            constant_model(1.8),
            DispersionModel(DispersionKind.LINEAR_IN_OMEGA, (1.7, 1.0e-16), WIDE),
            sellmeier_model(),
        ],
        ids=["constant", "linear", "sellmeier"],
    )
    def test_matches_finite_difference_of_wavenumber(self, model):
        rng = np.random.default_rng(20240817)
        lo, hi = model.validity_range
        omegas = rng.uniform(lo * 1.02, hi * 0.98, size=100)
        for omega in omegas:
            h = 1e-6 * omega
            slope = (wavenumber(model, omega + h) - wavenumber(model, omega - h)) / (
                2 * h
            )
            assert group_velocity(model, omega) == pytest.approx(
                1.0 / slope, rel=1e-6
            )


class TestFrequencyTriple:
    def test_exact_energy_conservation(self):
        f = FrequencyTriple.from_pump_and_signal(3.5e15, 2.0e15)
        assert f.omega_i == 1.5e15
        assert f.omega_s + f.omega_i == f.omega_p

    def test_rejects_inexact_triple(self):
        with pytest.raises(ValueError):
            FrequencyTriple(3.5e15, 2.0e15, 1.5e15 + 1000.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FrequencyTriple.from_pump_and_signal(3.5e15, 3.6e15)


def make_crystal(signal, idler, pump=None) -> CrystalParams:
    return CrystalParams(
        length_l=0.01,
        chi=2e-12,
        cross_section_A=1e-8,
        dispersion_signal=signal,
        dispersion_idler=idler,
        dispersion_pump=pump if pump is not None else constant_model(1.85),
    )


class TestTransitTimeDiff:
    def test_equal_group_velocities_give_zero(self):
        crystal = make_crystal(constant_model(1.8), constant_model(1.8))
        freqs = FrequencyTriple.from_pump_and_signal(3.5e15, 2.0e15)
        assert transit_time_diff(crystal, freqs) == 0.0

    def test_frozen_value(self):
        crystal = make_crystal(constant_model(1.8), constant_model(1.9))
        freqs = FrequencyTriple.from_pump_and_signal(3.5e15, 2.0e15)
        # 0.01 * (1.9 - 1.8) / c
        assert transit_time_diff(crystal, freqs) == pytest.approx(
            3.3356409519815163e-12, rel=1e-12
        )

    def test_antisymmetric_under_model_exchange(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n_s, n_i = rng.uniform(1.4, 2.4, size=2)
            fwd = make_crystal(constant_model(n_s), constant_model(n_i))
            rev = make_crystal(constant_model(n_i), constant_model(n_s))
            freqs = FrequencyTriple.from_pump_and_signal(3.5e15, 2.0e15)
            # identical indices swapped: the signal/idler frequencies also swap
            swapped = FrequencyTriple(3.5e15, freqs.omega_i, freqs.omega_s)
            assert transit_time_diff(fwd, freqs) == pytest.approx(
                -transit_time_diff(rev, swapped), rel=1e-12, abs=1e-30
            )


class TestPhaseMatch:
    def linear(self, a, b):
        return DispersionModel(DispersionKind.LINEAR_IN_OMEGA, (a, b), WIDE)

    def test_degenerate_for_identical_constant_models(self):
        n = constant_model(1.8)
        crystal = make_crystal(n, n, n)
        with pytest.raises(DegenerateDispersionError):
            phase_match(crystal, 3.5e15, (1.5e15, 2.5e15))

    def test_no_sign_change(self):
        crystal = make_crystal(
            constant_model(1.8), constant_model(1.9), constant_model(1.85)
        )
        with pytest.raises(NoSignChangeError):
            phase_match(crystal, 3.5e15, (1.8e15, 2.2e15))

    def test_root_against_dense_scan(self):
        a_s, b_s = 1.70, 2.0e-17
        a_i, b_i = 1.75, 0.5e-17
        crystal = make_crystal(self.linear(a_s, b_s), self.linear(a_i, b_i))
        omega_p = 3.5e15
        n_p = (
            2.0e15 * (a_s + b_s * 2.0e15) + 1.5e15 * (a_i + b_i * 1.5e15)
        ) / omega_p
        crystal = make_crystal(
            self.linear(a_s, b_s),
            self.linear(a_i, b_i),
            constant_model(n_p),
        )
        bracket = (1.8e15, 2.2e15)
        triple = phase_match(crystal, omega_p, bracket)

        # independent dense scan of the mismatch, directly from the formula
        ws = np.linspace(bracket[0], bracket[1], 1_000_001)
        wi = omega_p - ws
        dk = (
            omega_p * n_p - ws * (a_s + b_s * ws) - wi * (a_i + b_i * wi)
        ) / C_LIGHT
        sign_change = np.nonzero(np.sign(dk[:-1]) != np.sign(dk[1:]))[0]
        assert sign_change.size >= 1
        step = ws[1] - ws[0]
        root_scan = ws[sign_change[0]]
        assert abs(triple.omega_s - root_scan) <= step

        # residual mismatch below tolerance
        k_p = wavenumber(crystal.dispersion_pump, omega_p)
        residual = (
            k_p
            - wavenumber(crystal.dispersion_signal, triple.omega_s)
            - wavenumber(crystal.dispersion_idler, triple.omega_i)
        )
        assert abs(residual) <= 1e-6 * abs(k_p)
        assert triple.omega_s + triple.omega_i == triple.omega_p

    def test_bad_bracket(self):
        crystal = make_crystal(constant_model(1.8), constant_model(1.9))
        with pytest.raises(ValueError):
            phase_match(crystal, 3.5e15, (2.2e15, 1.8e15))


def test_constants_match_scipy():
    assert SPEED_OF_LIGHT == scipy.constants.c
    assert VACUUM_PERMITTIVITY == scipy.constants.epsilon_0


class _Counted:
    """Wraps f and counts its evaluations."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


class TestBisectMatchesScipy:
    """``_bisect`` against ``scipy.optimize.bisect`` at the solver's settings."""

    @staticmethod
    def assert_same(f, a, b):
        ours, theirs = _Counted(f), _Counted(f)
        root = _bisect(ours, a, b)
        ref = scipy.optimize.bisect(
            theirs, a, b, xtol=1e-300, rtol=1e-15, maxiter=200
        )
        assert root.hex() == float(ref).hex()
        assert ours.calls == theirs.calls

    def test_phase_matched_config(self):
        # The shipped bracket's scan lands exactly on the root, so bisect the
        # same mismatch on random brackets around it instead.
        config = load_scenario(CONFIG_DIR / "phase_matched.json")
        crystal, omega_p = config.crystal, config.freqs.omega_p
        k_p = wavenumber(crystal.dispersion_pump, omega_p)

        def mismatch(omega_s):
            return (
                k_p
                - wavenumber(crystal.dispersion_signal, omega_s)
                - wavenumber(crystal.dispersion_idler, omega_p - omega_s)
            )

        rng = np.random.default_rng(9)
        root = config.freqs.omega_s
        for lo, hi in rng.uniform([0.9, 1.0], [1.0, 1.1], size=(200, 2)) * root:
            self.assert_same(mismatch, float(lo), float(hi))

    def test_random_monotone_functions(self):
        rng = np.random.default_rng(20071)
        for _ in range(1000):
            scale = 10.0 ** rng.uniform(-12, 16)
            a = scale * rng.uniform(-1.0, 1.0)
            b = a + scale * rng.uniform(1e-6, 2.0)
            r = rng.uniform(a, b)
            sign = rng.choice((-1.0, 1.0))
            cubic = rng.uniform(0.0, 10.0) / (b - a) ** 2

            def f(x, r=r, sign=sign, cubic=cubic):
                return sign * (x - r) * (1.0 + cubic * (x - r) ** 2)

            self.assert_same(f, a, b)

    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: x - 0.5, 0.0, 1.0),  # root on the first midpoint
            (lambda x: x, 0.0, 1.0),  # root on the left endpoint
            (lambda x: x - 1.0, 0.0, 1.0),  # root on the right endpoint
            (lambda x: math.tanh(x - 1.0 / 3.0), -2.0, 3.0),
        ],
    )
    def test_edge_brackets(self, f, a, b):
        self.assert_same(f, a, b)

    @pytest.mark.parametrize(
        "f, a, b, error",
        [
            (lambda x: x + 1.0, 0.0, 1.0, ValueError),  # same sign
            (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.7, 0.0, 1.0, ValueError),
            (lambda x: x - 1e-200, -1.0, 1.0, RuntimeError),  # needs ~1000 steps
        ],
    )
    def test_failures_raise_like_scipy(self, f, a, b, error):
        with pytest.raises(error):
            scipy.optimize.bisect(f, a, b, xtol=1e-300, rtol=1e-15, maxiter=200)
        with pytest.raises(error):
            _bisect(f, a, b)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    ends=st.lists(st.floats(1e-300, 1e300), min_size=2, max_size=2, unique=True),
    num=st.sampled_from([_VALIDATION_SAMPLES, _SCAN_INTERVALS + 1]) | st.integers(2, 1000),
)
@example(ends=[1e14, 1e16], num=_VALIDATION_SAMPLES)
@example(ends=[1.0, math.nextafter(1.0, 2.0)], num=_SCAN_INTERVALS + 1)
def test_linspace_is_numpy_linspace_bit_for_bit(ends, num):
    lo, hi = sorted(ends)
    grid = _linspace(lo, hi, num)
    assert all(type(w) is float for w in grid)
    expected = np.linspace(lo, hi, num)
    assert np.array_equal(np.array(grid).view(np.int64), expected.view(np.int64))


# The golden Sellmeier scenario's signal and idler coefficients (fused silica and
# BK7 glass), B1..B3 then C1..C3 in um^2, and their validity range.
GOLDEN_SELLMEIER = [tuple(SCENARIOS["sellmeier"]["crystal"][key]["parameters"])
                    for key in ("dispersion_signal", "dispersion_idler")]
GOLDEN_RANGE = tuple(SCENARIOS["sellmeier"]["crystal"]["dispersion_signal"]["validity_range"])


@st.composite
def models_and_frequencies(draw):
    """A model of each kind and a frequency in its validity range.  Sellmeier
    coefficients are the golden ones times 0.5-2 each: L = 0.099-5.5 um^2 on the
    range then lies above every C1, C2 and below every C3, so no pole is in it."""
    kind = draw(st.sampled_from(list(DispersionKind)))
    if kind is DispersionKind.CONSTANT:
        params, rng = (draw(st.floats(1.01, 4.0)),), WIDE
    elif kind is DispersionKind.LINEAR_IN_OMEGA:
        params, rng = (draw(st.floats(1.2, 3.0)), draw(st.floats(-1e-17, 1e-16))), WIDE
    else:
        base = draw(st.sampled_from(GOLDEN_SELLMEIER))
        params, rng = tuple(v * draw(st.floats(0.5, 2.0)) for v in base), GOLDEN_RANGE
    return DispersionModel(kind, params, rng), draw(st.floats(*rng))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=models_and_frequencies())
@example(case=(sellmeier_model(), FUSED_SILICA_RANGE[0]))
@example(case=(sellmeier_model(), FUSED_SILICA_RANGE[1]))
def test_evaluator_matches_the_kind_by_kind_reference_bit_for_bit(case):
    model, omega = case
    n, dn = index_by_kind(model, omega), dn_domega_by_kind(model, omega)
    got = (refractive_index(model, omega), dn_domega(model, omega),
           group_velocity(model, omega), wavenumber(model, omega))
    want = (n, dn, C_LIGHT / (n + omega * dn), omega * n / C_LIGHT)
    assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize(
    "parameters, validity_range, cause",
    [
        # C1 = L at the lower end of the range, which the construction samples
        ([*GOLDEN_SELLMEIER[0][:3], wavelength_um_sq(GOLDEN_RANGE[0]), *GOLDEN_SELLMEIER[0][4:]],
         list(GOLDEN_RANGE), "has a pole (L = C1 = "),
        # C1 = L at omega_S, between two samples; with B1 = 1e-4, n^2 < 0 only
        # within about 1e-5 of omega_S, so every sample passes
        ([1e-4, *GOLDEN_SELLMEIER[0][1:3],
          wavelength_um_sq(SCENARIOS["sellmeier"]["frequencies"]["omega_S"]),
          *GOLDEN_SELLMEIER[0][4:]], list(GOLDEN_RANGE), "has a pole (L = C1 = "),
        # C1 = 0.5 um^2 at omega = 2.66e15 rad/s; n^2 < 0 for 0.25 < L < 0.5
        ([1, 0, 0, 0.5, 0, 0], [1e14, 1e16], "has a pole (L = C1 = 0.5 um^2) "),
        # n^2 = 1 - 2 L/L = -1 everywhere, with no pole
        ([-2, 0, 0, 0, 0, 0], [1e14, 1e16], "yields n^2 = -1.0 <= 0 "),
    ],
    ids=["pole-at-range-end", "pole-between-samples", "pole-inside-range",
         "negative-n-squared"],
)
def test_sellmeier_domain_error_is_a_config_error_naming_the_field(
        tmp_path, capsys, parameters, validity_range, cause):
    data = json.loads(json.dumps(SCENARIOS["sellmeier"]))
    data["crystal"]["dispersion_signal"] = {
        "kind": "sellmeier", "parameters": parameters, "validity_range": validity_range}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main(["scales", "--config", str(path), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("error: exit=1 type=ScenarioValidationError: "
                          "crystal.dispersion_signal: sellmeier model "), out
    assert cause in out and " at omega = " in out, out
    assert not (tmp_path / "out").exists()
