"""Brute-force mode sums: oracles for the chirp-z comb-sum kernel.

``spectra.g1`` and ``correlations.g2_series`` evaluate their mode sums with
the chirp-z transform ``numerics._cos_series``.  These loops sum the same
modes one at a time, in O(N*M), and are the independent reference the
kernel is tested against.
"""

from __future__ import annotations

import math

import numpy as np


class KahanAccumulator:
    """Compensated (Kahan) summation over numpy arrays, element-wise.

    Accumulation order is the call order, so results are deterministic.
    """

    def __init__(self, shape):
        self._sum = np.zeros(shape)
        self._comp = np.zeros(shape)

    def add(self, value) -> None:
        y = value - self._comp
        t = self._sum + y
        self._comp = (t - self._sum) - y
        self._sum = t

    @property
    def total(self) -> np.ndarray:
        return self._sum


def comb_mode_loop(weights, fsr: float, tau) -> np.ndarray:
    """sum_{m=-M}^{M} weights[m + M] * exp(i*m*fsr*tau), one mode at a time."""
    weights = np.asarray(weights, dtype=float)
    tau = np.asarray(tau, dtype=float)
    m_count = (weights.size - 1) // 2
    values = np.zeros(tau.shape, dtype=complex)
    for i, m in enumerate(range(-m_count, m_count + 1)):
        values += weights[i] * np.exp(1j * (m * fsr) * tau)
    return values


def g1_mode_loop(weights, fsr: float, gamma: float, tau) -> np.ndarray:
    """g1 by the mode loop: the comb times exp(-gamma*|tau|/2), over sum(weights)."""
    values = comb_mode_loop(weights, fsr, tau)
    values *= np.exp(-0.5 * gamma * np.abs(tau)) / np.sum(weights)
    return values


def series_amplitude_chebyshev(m_count: int, dz: float, phi) -> np.ndarray:
    """1 + 2*sum_{m=1}^{M} sinc(m*dz)*cos(m*phi) by a Chebyshev recurrence
    under Kahan compensation."""
    phi = np.asarray(phi, dtype=float)
    cos_phi = np.cos(phi)
    acc = KahanAccumulator(phi.shape)
    acc.add(np.ones_like(phi))  # m = 0 term
    c_prev = np.ones_like(phi)
    c_cur = cos_phi.copy()
    for m in range(1, m_count + 1):
        z = m * dz
        weight = 2.0 * math.sin(z) / z
        acc.add(weight * c_cur)
        c_next = 2.0 * cos_phi * c_cur - c_prev
        c_prev, c_cur = c_cur, c_next
    return acc.total


def g2_series_mode_loop(tau, scales, m_count: int) -> np.ndarray:
    """The series tier by the recurrence: peak-normalized, forbidden region 0."""
    tau = np.asarray(tau, dtype=float)
    fsr, tau0 = scales.fsr_delta_omega, scales.tau0
    amplitude = series_amplitude_chebyshev(
        m_count, 0.5 * fsr * tau0, fsr * (tau + 0.5 * tau0)
    )
    allowed = tau + 0.5 * tau0 >= -0.5 * abs(tau0)
    values = np.where(allowed, np.exp(-scales.gamma * tau) * amplitude**2, 0.0)
    return values / values.max()
