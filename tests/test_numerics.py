import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sropo import (
    G2Request, Normalization, ScenarioValidationError, Trace, TraceKind, TraceMeta, g1,
    load_scenario, numerics, spectrum,
)
from sropo.correlations import g2_grid
from sropo.numerics import _cos_series
from sropo.spectra import g1_grid, spectrum_grid
from conftest import CONFIG_DIR
from oracles import cis_decimal, comb_mode_loop, uniform_axis_four_checks

EPS = np.finfo(float).eps


def mode_loop_cos_series(coef, theta):
    """Re sum_m coef[m] exp(i*m*theta) as the Hermitian comb with weights
    coef[m]/2 at m > 0, conj(coef[m])/2 at -m and Re coef[0] at 0."""
    weights = np.concatenate(
        (np.conj(coef[:0:-1]) / 2, coef[:1].real, coef[1:] / 2)
    )
    return comb_mode_loop(weights, 1.0, theta).real


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    m_max=st.integers(0, 2000),
    n=st.integers(1, 5000),
    theta0=st.floats(-1e4, 1e4),
    dtheta=st.one_of(st.floats(-math.pi, math.pi), st.floats(-1e-9, 1e-9)),
    seed=st.integers(0, 2**32 - 1),
    complex_coef=st.booleans(),
)
@example(m_max=0, n=1, theta0=0.0, dtheta=0.0, seed=0, complex_coef=False)
@example(m_max=2000, n=1, theta0=-7.5, dtheta=0.3, seed=1, complex_coef=False)
@example(m_max=2000, n=5000, theta0=1e4, dtheta=-math.pi, seed=2, complex_coef=False)
@example(m_max=1500, n=700, theta0=3.0, dtheta=5e-324, seed=3, complex_coef=False)
@example(m_max=0, n=3, theta0=0.5, dtheta=0.25, seed=4, complex_coef=True)
@example(m_max=2000, n=5000, theta0=-1e4, dtheta=math.pi, seed=5, complex_coef=True)
# Grids much longer than M, where the kernel picks a longer FFT than the
# shortest: g1's (M+1, n) on spectrum_comb.json and the 40-peak G2 comb tiers'
# on g2_comb.json; then n < M+1 and n = 1, which keep the shortest.
@example(m_max=320, n=80_779, theta0=-1.3e3, dtheta=0.031, seed=6, complex_coef=False)
@example(m_max=1845, n=55_841, theta0=-9.4, dtheta=3.4e-4, seed=7, complex_coef=True)
@example(m_max=1845, n=1200, theta0=2.0, dtheta=-0.7, seed=8, complex_coef=True)
@example(m_max=320, n=1, theta0=1.5e3, dtheta=0.031, seed=9, complex_coef=False)
# The split block phase (``_split_cis``) at its edges: M+1 = 1 and 2 (r = 1
# and 2), perfect squares 16 and 1,024 (hi*r ends at M+1) with n = 1 and
# n < M+1, and M+1 = 5 and 316, where the last hi row runs past M+1 (3*2 and
# 20*16 columns).
@example(m_max=0, n=700, theta0=2.5, dtheta=0.3, seed=10, complex_coef=True)
@example(m_max=1, n=7, theta0=-3.0, dtheta=1.1, seed=11, complex_coef=False)
@example(m_max=15, n=1, theta0=40.0, dtheta=0.2, seed=12, complex_coef=True)
@example(m_max=1023, n=700, theta0=-0.5, dtheta=2e-3, seed=13, complex_coef=False)
@example(m_max=4, n=1, theta0=1e3, dtheta=-2.5, seed=14, complex_coef=False)
@example(m_max=315, n=20_000, theta0=-1.3e3, dtheta=0.031, seed=15, complex_coef=True)
def test_cos_series_matches_mode_loop(m_max, n, theta0, dtheta, seed, complex_coef):
    rng = np.random.default_rng(seed)
    coef = rng.uniform(-1.0, 1.0, m_max + 1)
    if complex_coef:
        coef = coef + 1j * rng.uniform(-1.0, 1.0, m_max + 1)
    got = _cos_series(coef, theta0, dtheta, n)
    theta = theta0 + dtheta * np.arange(n)
    want = mode_loop_cos_series(coef, theta)
    # The mode loop's own rounding: 2M+1 sequential adds and the phase m*theta.
    m = np.arange(m_max + 1)
    tol = EPS * np.sum(np.abs(coef) * (2 * m_max + 1 + m * np.max(np.abs(theta))))
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) <= tol


@pytest.mark.parametrize(
    "m1, n, shortest, picked",
    [
        (321, 80_779, 1024, 2048),  # g1 on spectrum_comb.json
        (1846, 55_841, 4096, 8192),  # 40-peak series and exact on g2_comb.json
        (301, 20_000, 1024, 2048),
        (1846, 1200, 4096, 4096),  # n < M+1: one block at the shortest
        (321, 1, 512, 512),
        (1, 1000, 1, 1),  # M = 0
    ],
)
def test_fft_length_is_least_work_power_of_two(m1, n, shortest, picked):
    def work(size):
        return (math.ceil(n / min(n, size - m1 + 1)) + 1) * size * math.log2(size)

    assert numerics._fft_length(m1, n) == picked
    # ``shortest`` is the least power of two that holds min(n, M+1) outputs.
    assert shortest - m1 + 1 >= min(n, m1) > shortest // 2 - m1 + 1
    assert all(work(picked) <= work(shortest << j) for j in range(6))


def test_fft_length_keeps_the_work_cap(monkeypatch):
    monkeypatch.setattr(numerics, "_WORK_ELEMENTS", 2048)
    assert numerics._fft_length(321, 80_779) == 2048
    monkeypatch.setattr(numerics, "_WORK_ELEMENTS", 1024)
    assert numerics._fft_length(321, 80_779) == 1024
    assert numerics._fft_length(1846, 55_841) == 4096  # the shortest exceeds the cap


def test_cos_series_in_chunks_matches_one_pass(monkeypatch):
    coef = np.random.default_rng(5).uniform(-1.0, 1.0, 301)
    whole = _cos_series(coef, 2.5, 0.01, 20_000)
    size = numerics._fft_length(coef.size, 20_000)
    monkeypatch.setattr(numerics, "_WORK_ELEMENTS", size)  # one block per chunk
    assert numerics._fft_length(coef.size, 20_000) == size
    chunked = _cos_series(coef, 2.5, 0.01, 20_000)
    # Each chunk splits its phases for its own largest m*k_b: rounding only.
    assert np.max(np.abs(chunked - whole)) <= 4 * EPS * np.sum(np.abs(coef))


def test_cos_series_reuses_its_work_array(monkeypatch):
    # Five blocks of L - M = 724 outputs in chunks of two rows: 2, 2 and 1, so
    # the later chunks run in rows whose padding held the last transform.
    coef = np.random.default_rng(6).uniform(-1.0, 1.0, 301)
    whole = _cos_series(coef, 2.5, 0.01, 3_500)
    size = numerics._fft_length(coef.size, 3_500)
    monkeypatch.setattr(numerics, "_WORK_ELEMENTS", 2 * size)
    assert numerics._fft_length(coef.size, 3_500) == size == 1024
    chunked = _cos_series(coef, 2.5, 0.01, 3_500)
    assert np.max(np.abs(chunked - whole)) <= 4 * EPS * np.sum(np.abs(coef))


@pytest.mark.parametrize(
    "m1, n, complex_coef, peak_mib",
    [
        # g1 on spectrum_comb.json: 47 blocks of L = 2,048, one work array of
        # 1.47 MiB and an output of 0.62 MiB; 2.72 MiB measured.
        (316, 80_217, False, 2.9),
        # 40-peak exact tier on g2_comb.json: 9 blocks of L = 8,192, 1.13 MiB
        # and 0.44 MiB; 2.35 MiB measured.
        (1848, 55_904, True, 2.55),
    ],
)
def test_cos_series_peak_memory(m1, n, complex_coef, peak_mib):
    # A temporary the size of the work array, or of a chunk's complex
    # output, breaks the bound; a float copy of a chunk's output, or a
    # complex rows x (M+1) block phase, does not (the peak is in _split_cis).
    rng = np.random.default_rng(7)
    coef = rng.uniform(-1.0, 1.0, m1)
    if complex_coef:
        coef = coef + 1j * rng.uniform(-1.0, 1.0, m1)
    tracemalloc.start()
    try:
        _cos_series(coef, -9.4, 3.4e-4, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= peak_mib * 2**20


def test_expi_is_the_complex_exp_bit_for_bit():
    # The kernel's outputs stayed byte-identical when its phases moved from
    # np.exp(1j*a) to cos and sin; a phase of -0 is the one difference to mend.
    rng = np.random.default_rng(8)
    phase = np.concatenate((
        [0.0, -0.0, 5e-324, -5e-324, math.pi, -math.pi, 1e300, -1e300],
        rng.uniform(-4.0, 4.0, 5_000), rng.uniform(-1e9, 1e9, 5_000),
    ))
    got = numerics._expi(phase)
    assert np.array_equal(got.view(np.int64), np.exp(1j * phase).view(np.int64))
    assert np.array_equal(numerics._expi(phase[:, None]), got[:, None])


# The worst of _cis's deviation from cis_decimal, less the trailing product's
# rounding: 1.109 eps over 50,000 random examples of the strategy below, and
# 1.118 eps (sqrt(5)/2) over 60,000 single q with |x| from 1e-30 to 1e14.
CIS_ROUNDING = 1.25 * EPS


# |q| reaches 1.27e10 > 2**33 (M*k_b) in g1's default call on
# detector_averaged.json, so the strategy runs to 2**34.
@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    x=st.floats(-1e4, 1e4),
    q=st.lists(st.integers(-(2**34), 2**34), min_size=1, max_size=6),
)
@example(x=-1.3e3, q=[0, 1, 315])  # pre-phases of g1 on spectrum_comb.json
@example(x=0.0155, q=[0, 2047**2])  # its chirp
@example(x=2.2568872337873873e-4, q=[0, 12_680_786_881])  # detector_averaged.json
@example(x=-0.0, q=[0, 5])
@example(x=5e-324, q=[2**34])
@example(x=1e4, q=[2**34, -(2**34), 1])
def test_cis_matches_exact_phase(x, q):
    got = numerics._cis(x, np.array(q, dtype=float))
    want = np.array([cis_decimal(x, k) for k in q])
    # The leading product is exact; the trailing one, (x - lead)*q, is at most
    # ulp(x)*max|q|*|q| and rounds by half an ulp of that.
    trailing = EPS * math.ulp(x) * max(map(abs, q)) * np.abs(np.array(q, dtype=float)) / 2
    assert np.all(np.abs(got - want) <= CIS_ROUNDING + trailing)


# Two _cis factors and the complex product of them.  The worst of
# _split_cis's deviation from cis_decimal, less the factors' trailing terms,
# was 1.73 eps over 15,000 random examples like the strategy below (about
# 450,000 phases; half of them with |x| < 4, the rest up to 1e4).
SPLIT_ROUNDING = 2 * CIS_ROUNDING + 1.25 * EPS


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    x=st.floats(-1e4, 1e4),
    m1=st.integers(1, 3000),
    k=st.lists(st.integers(0, 2**25), min_size=1, max_size=4),
)
@example(x=0.031, m1=316, k=[0, 1733, 79_718])  # g1 on spectrum_comb.json
@example(x=3.4e-4, m1=1848, k=[0, 6345, 50_760])  # the 40-peak G2 comb tiers
@example(x=-0.0, m1=5, k=[0, 1])
@example(x=1e4, m1=1, k=[2**25])
@example(x=5e-324, m1=1024, k=[2**25 - 1])
def test_split_cis_matches_exact_phase(x, m1, k):
    """exp(i*x*m*k) from ``_split_cis`` within ``SPLIT_ROUNDING`` (each
    factor's ``_cis`` rounding and one complex product) plus each factor's
    trailing term, eps*ulp(x)*Q*|q|/2 with Q the largest |q| of its table."""
    r = 1 << m1.bit_length() // 2
    k = np.array(k, dtype=float)
    out = np.empty((k.size, 1 << (m1 - 1).bit_length()), dtype=complex)
    numerics._split_cis(x, k[:, None], m1, out)
    rng = np.random.default_rng(m1)
    m = np.unique(np.concatenate(([0, 1, r - 1, r, r + 1, m1 - 2, m1 - 1],
                                  rng.integers(0, m1, 16))))
    m = m[(m >= 0) & (m < m1)]
    hi, lo = m - m % r, m % r
    q_hi, q_lo = (m1 - 1) // r * r * k.max(), (r - 1) * k.max()
    for row, kb in zip(out, k):
        want = np.array([cis_decimal(x, int(mm) * int(kb)) for mm in m])
        trailing = EPS * math.ulp(x) * kb * (q_hi * hi + q_lo * lo) / 2
        assert np.all(np.abs(row[m] - want) <= SPLIT_ROUNDING + trailing)


def _check_outcome(check, axis):
    """The spacing a grid check returns, or the message it refuses or warns
    with."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return check(axis, "grid")
        except (ValueError, RuntimeWarning) as exc:
            return f"{type(exc).__name__}: {exc}"


@st.composite
def faulty_grids(draw):
    """A uniform grid with at most one fault: a NaN or an infinity at any
    index, one reversed step, or one point moved by just over or under 1e-9
    of the spacing."""
    n = draw(st.integers(2, 40))
    spacing = draw(st.floats(1e-12, 1e3))
    start = draw(st.floats(-1e3, 1e3)) * spacing
    axis = start + spacing * np.arange(n)
    fault = draw(st.sampled_from(["none", "nan", "inf", "-inf", "reversed", "moved"]))
    i = draw(st.integers(0, n - 1))
    if fault in ("nan", "inf", "-inf"):
        axis[i] = float(fault)
    elif fault == "reversed":
        i = min(i, n - 2)
        axis[i], axis[i + 1] = axis[i + 1], axis[i]
    elif fault == "moved" and 0 < i < n - 1:
        sign = draw(st.sampled_from([1.0, -1.0]))
        axis[i] += sign * 1e-9 * spacing * draw(st.sampled_from([0.99, 0.999, 1.001, 1.01]))
    return axis


@settings(max_examples=500, derandomize=True, deadline=None)
@given(axis=faulty_grids())
@example(axis=np.zeros((2, 3)))
@example(axis=np.array(5.0))
@example(axis=[])
@example(axis=np.array([1.0]))
@example(axis=np.array([0.0, 1.0]))
@example(axis=np.array([1.0, 0.0]))
@example(axis=np.array([3.0, 3.0]))
@example(axis=np.array([np.nan, 1.0, 2.0]))
@example(axis=np.array([0.0, 1.0, np.inf]))
@example(axis=np.array([-np.inf, 0.0, 1.0]))
# one step 5e-9 short, the others 5e-10 long: only |step - spacing| refuses it
@example(axis=np.concatenate(([0.0], 1.0 - 5e-9 + np.arange(11) * (1.0 + 5e-10))))
@example(axis=np.array([-1e308, 0.0, 1e308]))  # the span overflows, not a step
@example(axis=np.array([-1.5e308, 0.0, 0.0, 1.5e308]))  # inf spacing, a zero step
@example(axis=np.array([-1e308, np.inf, 1e308]))
# 4 ulp of 1e16 is 8, past half the spacing: the rounding term must not admit
# a zero or a negative step, nor refuse a grid exact to the last bit
@example(axis=np.array([1e16, 1e16 + 4, 1e16 + 4, 1e16 + 8]))
@example(axis=np.array([1e16, 1e16 + 6, 1e16 + 4, 1e16 + 10]))
@example(axis=np.array([1e16, 1e16 + 2, 8 + 1e16, 1e16 + 10]))
@example(axis=np.array([1e16, 1e16 + 2, 1e16 + 4]))
# spacing 100 at 1e16: steps 6 off (3 ulp) are the points' own rounding
@example(axis=1e16 + np.array([0.0, 100.0, 206.0, 300.0]))
def test_one_pass_axis_check_matches_four_checks(axis):
    assert _check_outcome(numerics.ensure_uniform_axis, axis) == _check_outcome(
        uniform_axis_four_checks, axis
    )


def test_grids_rounded_point_by_point_pass_the_uniformity_check():
    # linspace rounds each point to its own ulp, so a step may differ from the
    # endpoint spacing by about 2 ulp of max|x|: past 1e-9 of the spacing on
    # g2's default comb window at 8,000,000 points (64 MB), and on a narrow
    # grid far from 0.
    scales = load_scenario(CONFIG_DIR / "g2_comb.json").scales
    grid = g2_grid(scales, "compact", 2, points=8_000_000)
    assert numerics.ensure_uniform_axis(grid, "tau_grid") > 0.0
    del grid
    narrow = np.linspace(1.0, 1.0 + 1e-6, 11)
    assert numerics.ensure_uniform_axis(narrow) == pytest.approx(1e-7)


# The six grid floors, the |tau0| floor once per comb tier.  Each entry: the
# refusal as each kernel wrote it before they shared ``require_points``
# (x -> refused, x a spacing or psi's half-width), the call it guards, and a
# start near its edge.  A two-point grid [0, x] has spacing exactly x.
def _floors():

    from sropo import G2Request, G2Tier, spectra, wavefunction_grid
    from sropo import correlations as g2
    from conftest import make_setup

    *_, freqs, s = make_setup(1.81)
    s = s.replace(gamma=s.gamma / 3.0)  # floors that are not round numbers
    t0, T, m, dt = abs(s.tau0), s.round_trip_T, 50, 0.02 * s.round_trip_T

    def grid(x):
        return np.array([0.0, x])

    def tier(run, t):  # m_max only where the tier has a mode sum
        knobs = {} if t is G2Tier.COMPACT else {"m_max": 3}
        return lambda x: run(G2Request(t, grid(x), **knobs), s)

    return {
        "spectrum per gamma": (
            lambda x: s.gamma / x < 16.0,
            lambda x: spectra.spectrum("idler", s, freqs, grid(x), m_max=3),
            s.gamma / 16.0),
        "g1 per 1/gamma": (
            lambda x: 1.0 / (s.gamma * x) < 16.0,
            lambda x: spectra.g1("idler", s, freqs, grid(x), m_max=0),
            1.0 / (16.0 * s.gamma)),
        "g1 per mode beat": (
            lambda x: x > T / (2.5 * m),
            lambda x: spectra.g1("idler", s, freqs, grid(x), m_max=m),
            T / (2.5 * m)),
        "g2 series per |tau0|": (
            lambda x: x > t0 / 8.0, tier(g2.g2_series, G2Tier.SERIES), t0 / 8.0),
        "g2 compact per |tau0|": (
            lambda x: x > t0 / 8.0, tier(g2.g2_compact, G2Tier.COMPACT), t0 / 8.0),
        "g2 exact per |tau0|": (
            lambda x: x > t0 / 8.0, tier(g2.g2_exact, G2Tier.EXACT), t0 / 8.0),
        "g2 averaged per resolution_dt": (
            lambda x: x > dt / 8.0,
            lambda x: g2.g2_averaged(
                G2Request(G2Tier.AVERAGED, grid(x), resolution_dt=dt), s),
            dt / 8.0),
        "psi per gamma": (  # x is the half-width in gamma; 385 points
            lambda x: (385 - 1) / (2.0 * x) < 16.0,
            lambda x: wavefunction_grid(s, 1, x, 385),
            12.0),
    }


@pytest.mark.parametrize("floor", list(_floors()))
def test_each_floor_keeps_its_edge(floor):
    from sropo.errors import GridTooCoarseError

    refused_before, call, x = _floors()[floor]
    while refused_before(x):
        x = np.nextafter(x, 0.0)
    while not refused_before(np.nextafter(x, np.inf)):
        x = np.nextafter(x, np.inf)
    call(x)  # the coarsest grid accepted before is accepted
    with pytest.raises(GridTooCoarseError, match=r"^(detuning|tau|tau_grid|omega_grid_halfwidth, "
                       r"points_per_mode): only \S+ grid points per .+; at least \S+ required$"):
        call(np.nextafter(x, np.inf))  # and one float coarser is refused


# symmetric_grid keeps linspace's upper half and mirrors it: a point of the
# lower half moves by linspace's own asymmetry, at most 3 ulp(half) over 3,000
# random draws of half in [1e-300, 1e300] and n < 5,000.
@settings(max_examples=200, derandomize=True, deadline=None)
@given(half=st.floats(1e-300, 1e300), n=st.integers(2, 5000))
@example(half=1.0, n=2)
@example(half=1.0, n=3)
@example(half=1.0, n=100)  # linspace(-1, 1, 100) is no exact mirror
def test_symmetric_grid_is_linspace_made_an_exact_mirror(half, n):
    grid = numerics.symmetric_grid(half, n)
    plain = np.linspace(-half, half, n)
    h = n // 2
    assert grid[n - h :].tobytes() == plain[n - h :].tobytes()
    assert grid[:h].tobytes() == (-grid[::-1][:h]).tobytes()
    if n % 2:
        assert grid[h].tobytes() == np.float64(0.0).tobytes()
    assert np.max(np.abs(grid - plain)) <= 3.0 * np.spacing(half)
    assert numerics.mirror_count(grid) == h
    assert numerics.ensure_uniform_axis(grid) > 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 385, 1000, 1001])
def test_mirror_count_needs_every_pair_bit_for_bit(n):
    grid = numerics.symmetric_grid(2.5, n)
    assert numerics.mirror_count(grid) == n // 2
    for i in {0, n // 2 - 1, n // 2, n - 1}:  # either half, at the ends and centre
        moved = grid.copy()
        moved[i] = np.nextafter(moved[i], np.inf)
        assert numerics.mirror_count(moved) == (n // 2 if n % 2 and i == n // 2 else 0)
    assert numerics.mirror_count(grid + 1e-3) == 0  # off centre
    assert numerics.mirror_count(np.linspace(-1.0, 1.0, 100)) == 0
    assert numerics.mirror_count(grid[:1]) == 0  # one point: nothing to mirror


# Grids whose span, or a step, is past the largest double: every caller
# refuses them with a ValueError naming the axis, and no call warns.
# numpy attributes its warnings to its own modules, so only an "error" filter
# for every module sees them.
_OVERFLOWING = [np.array([-1e308, 1e308]), np.array([-1.5e308, -5e307, 5e307, 1.5e308])]


@pytest.mark.parametrize("axis", _OVERFLOWING, ids=["step", "span"])
@pytest.mark.parametrize("call, what", [
    (lambda axis, c: numerics.ensure_uniform_axis(axis, "grid"), "grid"),
    (lambda axis, c: spectrum("idler", c.scales, c.freqs, detuning=axis), "detuning"),
    (lambda axis, c: g1("idler", c.scales, c.freqs, tau=axis), "tau"),
    (lambda axis, c: G2Request("exact", axis), "tau_grid"),
    (lambda axis, c: Trace(axis, np.ones(axis.size), TraceMeta(TraceKind.G2,
                                                                Normalization.PEAK_UNITY)),
     "trace axis"),
], ids=["ensure_uniform_axis", "spectrum", "g1", "G2Request", "Trace"])
def test_grid_whose_span_overflows_is_refused_without_warnings(axis, call, what):
    config = load_scenario(CONFIG_DIR / "spectrum_comb.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as refused:
            call(axis, config)
    assert str(refused.value) == f"{what}: its span or a step overflows a double"


def test_window_whose_span_overflows_is_refused_without_warnings():
    scales = load_scenario(CONFIG_DIR / "spectrum_comb.json").scales
    slow = scales.replace(gamma=1.0)  # 1e308/gamma is a double
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioValidationError, match=r"^window_modes, crystal\.length_l, "
                           r"crystal\.dispersion_signal, cavity\.resonator_length_Lr: derived "
                           "detuning span must be finite, got inf$"):
            spectrum_grid(scales, 1e308 / scales.fsr_delta_omega, 3)
        with pytest.raises(ScenarioValidationError, match="^cavity.loss_rate_gamma, window_gammas: "
                           "derived delay span must be finite, got inf$"):
            g1_grid(slow, 1e308, 3)
        # the largest windows whose span is a double pass the span check: g1's
        # makes a grid, and the spectrum's is refused by its fsr-cell budget
        grid = g1_grid(slow, 8e307, 3)
        assert grid[0] == -grid[-1] and numerics.ensure_uniform_axis(grid) > 0.0
        with pytest.raises(ScenarioValidationError, match="^the grid from window_modes would "):
            spectrum_grid(scales, 8e307 / scales.fsr_delta_omega, 3)
