import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sropo import numerics
from sropo.numerics import _cos_series
from oracles import comb_mode_loop

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


def test_cos_series_in_chunks_matches_one_pass(monkeypatch):
    coef = np.random.default_rng(5).uniform(-1.0, 1.0, 301)
    whole = _cos_series(coef, 2.5, 0.01, 20_000)
    monkeypatch.setattr(numerics, "_WORK_ELEMENTS", 1024)  # one block per chunk
    chunked = _cos_series(coef, 2.5, 0.01, 20_000)
    # Each chunk splits its phases for its own largest m*k_b: rounding only.
    assert np.max(np.abs(chunked - whole)) <= 4 * EPS * np.sum(np.abs(coef))
