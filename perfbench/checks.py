"""Output checks: the invariants the paper fixes plus independent oracles.

Every check returns ``None`` when the output is right and a one-line reason
when it is not.  Sampled values are compared within ``REL_TOL`` of the
trace's own scale (its largest magnitude): the announced deliberate changes
to the kernels stay below it (chirp-z comb sums deviate by about 1e-9, a
closed-form rate minus its analytic tail by under 1e-6 of the rate), while a
wrong kernel moves sampled values by more: dropping the five outermost
mode pairs of g1 moves it by 2e-5.  A sign error in tau0 also moves every
G2 peak by |tau0|, which the peak-position check catches.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 2e-6
G1_ZERO_TOL = 1e-12


def close(got, want, scale: float) -> str | None:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return f"shape {got.shape} != {want.shape}"
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= REL_TOL * scale:
        return f"deviation {err:.3e} exceeds {REL_TOL:g} x scale {scale:.3e}"
    return None


def sample_indices(n: int, count: int = 16) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, count).round().astype(int))


def peak_is_one(values) -> str | None:
    top = float(np.max(values))
    return None if top == 1.0 else f"peak is {top!r}, not exactly 1"


def forbidden_zero(tau, values, tau0: float) -> str | None:
    """G2 vanishes identically where tau + tau0/2 < -|tau0|/2."""
    mask = tau + 0.5 * tau0 < -0.5 * abs(tau0)
    if mask.any() and np.any(values[mask] != 0.0):
        return f"{int(np.count_nonzero(values[mask]))} nonzero samples in forbidden region"
    return None


def peaks_at(tau, values, centres, tol: float) -> str | None:
    """Each expected centre has a measured peak within ``tol``."""
    from sropo.peaks import measure_peaks, nearest_peak

    found = measure_peaks(tau, values)
    if not found:
        return "no peaks found"
    for c in centres:
        p = nearest_peak(found, c)
        if abs(p.center - c) > tol:
            return f"peak at {p.center:.6e} s, expected {c:.6e} s"
    return None


def g2_peak_centres(T: float, tau0: float, gamma: float, tau_max: float, shift: float):
    """jT + shift for every peak inside the grid that stands well above the
    5% floor ``measure_peaks`` uses (height exp(-gamma j T) >= 0.1)."""
    j_max = int(math.log(10.0) / (gamma * T))
    return [j * T + shift for j in range(j_max + 1) if j * T + shift < tau_max]


def first_error(*results) -> str | None:
    for r in results:
        if r is not None:
            return r
    return None


# ---- independent oracles, evaluated at sampled points --------------------


def _weights(m_count: int, fsr: float, tau0: float):
    m = np.arange(-m_count, m_count + 1, dtype=float)
    z = 0.5 * m * fsr * tau0
    s = np.where(z == 0.0, 1.0, np.sin(z) / np.where(z == 0.0, 1.0, z))
    return m, s * s


def g1_oracle(tau, m_count, fsr, tau0, gamma):
    m, w = _weights(m_count, fsr, tau0)
    tau = np.asarray(tau)[:, None]
    comb = np.sum(w * np.exp(1j * m * fsr * tau), axis=1) / w.sum()
    return comb * np.exp(-0.5 * gamma * np.abs(tau[:, 0]))


def spectrum_oracle(detuning, m_count, fsr, tau0, gamma):
    m, w = _weights(m_count, fsr, tau0)
    d = np.asarray(detuning)[:, None]
    return np.sum(w / ((0.5 * gamma) ** 2 + (d + m * fsr) ** 2), axis=1)


def series_oracle(tau, m_count, fsr, tau0, gamma):
    m = np.arange(1, m_count + 1, dtype=float)
    z = m * 0.5 * fsr * tau0
    phi = fsr * (np.asarray(tau) + 0.5 * tau0)
    amp = 1.0 + 2.0 * np.sum((np.sin(z) / z) * np.cos(np.outer(phi, m)), axis=1)
    allowed = np.asarray(tau) + 0.5 * tau0 >= -0.5 * abs(tau0)
    return np.where(allowed, np.exp(-gamma * np.asarray(tau)) * amp**2, 0.0)


def exact_oracle(tau, m_count, fsr, tau0, gamma, panels: int = 256):
    """Crystal integral of the cavity response by a finer composite rule."""
    x, w = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(-1.0, 0.0, panels + 1)
    half = 0.5 * np.diff(edges)
    nodes = ((edges[:-1] + half)[:, None] + half[:, None] * x).ravel()
    weights = (half[:, None] * w).ravel()
    tau = np.asarray(tau)
    t = tau[:, None] - nodes[None, :] * tau0
    th = np.remainder(fsr * t + np.pi, 2 * np.pi) - np.pi
    small = np.abs(th) < 1e-4 / (m_count + 0.5)
    dk = np.where(
        small,
        2.0 * m_count + 1.0,
        np.sin((m_count + 0.5) * th) / np.where(small, 1.0, np.sin(0.5 * th)),
    )
    amp = np.sum(weights * 2.0 * np.exp(-0.5 * gamma * t) * dk, axis=1)
    allowed = tau + 0.5 * tau0 >= -0.5 * abs(tau0)
    return np.where(allowed, amp * amp, 0.0)


def normalized_match(values, idx, oracle_at) -> str | None:
    """Compare a peak-normalized trace at ``idx`` with an unnormalized oracle.

    The oracle is evaluated at the samples and at the trace's argmax, and
    scaled so its value there matches the trace's 1.
    """
    top = int(np.argmax(values))
    pts = np.append(idx, top)
    ref = oracle_at(pts)
    if ref[-1] == 0.0:
        return "oracle vanishes at the trace maximum"
    return close(values[idx], ref[:-1] / ref[-1], 1.0)

