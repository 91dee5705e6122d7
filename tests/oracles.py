"""Brute-force references: oracles for the closed forms and the comb-sum kernel.

``spectra.spectrum`` sums the near lines of its Lorentzian comb directly and
the rest from a Chebyshev series on each half free spectral range, re-expanded
from a table per free spectral range; ``spectrum_mode_loop`` is the plain
per-mode loop it must match pointwise.
``spectra.g1``, ``correlations.g2_series`` and ``correlations.g2_exact``
evaluate their mode sums with the chirp-z transform
``numerics._cos_series``.  These loops sum the same modes one at a time, in
O(N*M), or integrate the crystal by quadrature, and are the independent
reference the kernel is tested against.  ``phi_exact`` integrates the
spectral amplitude over the crystal for ``biphoton.phi_analytic``,
``phi_direct`` evaluates sinc(z) * exp(-i z) at every grid point, where
``biphoton.wavefunction_grid`` takes the phases from the mode and detuning
axes,
``sinc_sq_partial_sum`` sums the rate's modes for ``biphoton.rate_mode_sum``,
``lorentzian_kernel`` is the cavity response the exact tier integrates,
``g2_averaged_all_echoes`` is the averaged tier's echo sum without its cut,
``g2_compact_convolved`` is the compact tier's boxcar train convolved with
the averaged tier's Gaussian exactly, as a sum of ``math.erf`` differences,
``uniform_axis_four_checks`` is the grid check ``numerics.ensure_uniform_axis``
runs in one pass, ``index_by_kind`` and ``dn_domega_by_kind`` are n and dn/domega
as ``dispersion._evaluate`` must give them, each in its own dispatch on the
model kind, ``cis_decimal`` is the phase factor ``numerics._cis``
forms in double precision, and ``write_table_csv_whole``,
``write_table_json_whole`` and ``svg_polyline_whole`` build the whole table or
polyline at once, where ``trace`` and ``svgplot`` write it in chunks of rows.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np

from sropo.cavity import DerivedScales
from sropo.constants import SPEED_OF_LIGHT, TWO_PI
from sropo.dispersion import DispersionKind
from sropo.errors import ScenarioValidationError

_GL_ORDER = 8
_SUM_CHUNK = 1 << 20


class QuadratureWarning(UserWarning):
    """Oscillatory quadrature running with too few points per period."""


@functools.lru_cache(maxsize=None)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def composite_gauss_nodes(a: float, b: float, n_panels: int, order: int = 8):
    """Nodes and weights of a composite Gauss-Legendre rule on [a, b]."""
    x, w = _leggauss(order)
    edges = np.linspace(a, b, n_panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    nodes = (mids[:, None] + halves[:, None] * x[None, :]).ravel()
    weights = (halves[:, None] * w[None, :]).ravel()
    return nodes, weights


def phi_exact(
    m: int, omega: float, scales: DerivedScales, quad_points: int = 256
) -> complex:
    """Spectral amplitude by composite Gauss-Legendre quadrature over the crystal.

    ``quad_points`` is the total number of function evaluations; the interval
    is split into ``quad_points // 8`` panels of an 8-point rule.  A
    ``QuadratureWarning`` is issued when the integrand advances more than
    pi/4 of phase per panel, in which case the caller should raise
    ``quad_points``.
    """
    if quad_points < 32:
        raise ValueError("quad_points must be at least 32")
    z2 = (m * scales.fsr_delta_omega + omega) * scales.tau0
    n_panels = max(1, quad_points // _GL_ORDER)
    if abs(z2) / n_panels > math.pi / 4:
        warnings.warn(
            f"phase advance {abs(z2) / n_panels:.3f} rad per panel exceeds pi/4; "
            "raise quad_points",
            QuadratureWarning,
            stacklevel=2,
        )
    nodes, weights = composite_gauss_nodes(-1.0, 0.0, n_panels, _GL_ORDER)
    return complex(np.sum(weights * np.exp(1j * z2 * nodes)))


def phi_direct(m, omega, scales: DerivedScales):
    """sinc(z) * exp(-i z), z = (m*fsr + omega) * tau0/2, formed at each
    broadcast point: one cos, two sin and np.sinc's steps per point."""
    z = np.asarray(np.add(np.multiply(m, scales.fsr_delta_omega), omega))
    z *= 0.5 * scales.tau0  # as 0.5 * (...) * tau0, halving being exact
    x = np.negative(z, out=np.empty_like(z))
    phi = np.exp(1j * x)
    np.multiply(np.pi, np.divide(z, np.pi, out=x), out=x)  # np.sinc(z / pi)'s steps:
    x[x == 0] = np.finfo(float).eps  # x = pi * (z / pi), eps where x is 0, sin(x) / x
    np.divide(np.sin(x, out=z), x, out=z)
    return np.multiply(z, phi, out=phi)[()]


def _sinc_sq_partial(dz: float, m_hi: int) -> list[float]:
    """Chunked partial sums of sinc^2(m*dz) for m = 1..m_hi (fixed chunking)."""
    parts = []
    for start in range(1, m_hi + 1, _SUM_CHUNK):
        stop = min(start + _SUM_CHUNK, m_hi + 1)
        arg = np.arange(start, stop, dtype=float) * dz
        s = np.sin(arg) / arg
        parts.append(float(np.sum(s * s)))
    return parts


def sinc_sq_partial_sum(dz: float, m_hi: int) -> float:
    """sum_{|m|<=m_hi} sinc^2(m*dz), term by term.

    The full sum over all m exceeds it by at most the envelope tail
    2/(dz^2 * m_hi).
    """
    return 1.0 + 2.0 * math.fsum(_sinc_sq_partial(dz, m_hi))


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


def spectrum_mode_loop(
    detuning, weights, m_count: int, fsr: float, half_gamma_sq: float
) -> np.ndarray:
    """sum_{m=-M}^{M} weights[m + M] / (half_gamma_sq + (detuning + m*fsr)^2),
    one full-grid pass per mode: the reference for ``spectra._lorentzian_comb``.
    """
    values = np.zeros_like(detuning)
    for i, m in enumerate(range(-m_count, m_count + 1)):
        values += weights[i] / (half_gamma_sq + (detuning + m * fsr) ** 2)
    return values


def comb_mode_loop(weights, fsr: float, tau) -> np.ndarray:
    """sum_{m=-M}^{M} weights[m + M] * exp(i*m*fsr*tau), one mode at a time.

    The weights may be real or complex."""
    weights = np.asarray(weights)
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


def dirichlet_kernel(theta, m_max: int):
    """sum_{m=-M}^{M} exp(i m theta), which is real: sin((M+1/2)t)/sin(t/2).

    The argument is reduced mod 2*pi first; the reduction leaves the value
    unchanged because 2M+1 is odd.
    """
    th = np.remainder(np.asarray(theta, dtype=float) + np.pi, TWO_PI) - np.pi
    small = np.abs(th) < 1e-4 / (m_max + 0.5)
    denom = np.where(small, 1.0, np.sin(0.5 * th))
    num = np.sin((m_max + 0.5) * th)
    # Near theta = 0: sum_m cos(m*theta) to second order in theta.
    near = (2.0 * m_max + 1.0) * (1.0 - m_max * (m_max + 1.0) * th * th / 6.0)
    return np.where(small, near, num / denom)


def lorentzian_kernel(t, gamma: float):
    """Closed form of -(1/pi) * integral dW exp(-iWt) / (gamma/2 - iW).

    The cavity response that ``correlations.g2_exact`` integrates across the
    crystal: zero for t < 0, one at t = 0, and 2*exp(-gamma*t/2) for t > 0.
    Accepts scalars or arrays.
    """
    t_arr = np.asarray(t, dtype=float)
    out = np.where(
        t_arr > 0,
        2.0 * np.exp(-0.5 * gamma * np.where(t_arr > 0, t_arr, 0.0)),
        np.where(t_arr == 0, 1.0, 0.0),
    )
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(out)
    return out


def g2_exact_quadrature(tau, scales, m_count: int, quad_points: int) -> np.ndarray:
    """The exact tier by quadrature: peak-normalized, forbidden region 0.

    The crystal integral over u in [-1, 0] of 2*exp(-gamma*t/2) times the
    Dirichlet kernel at t = tau - u*tau0, by a composite 8-point
    Gauss-Legendre rule of ``quad_points // 8`` panels, in chunks of delays.
    """
    tau = np.asarray(tau, dtype=float)
    fsr = scales.fsr_delta_omega
    tau0 = scales.tau0
    gamma = scales.gamma
    n_panels = max(1, quad_points // _GL_ORDER)
    nodes, weights = composite_gauss_nodes(-1.0, 0.0, n_panels, _GL_ORDER)
    allowed = np.nonzero(tau + 0.5 * tau0 >= -0.5 * abs(tau0))[0]
    values = np.zeros_like(tau)
    chunk = max(1, (1 << 22) // max(nodes.size, 1))
    for start in range(0, allowed.size, chunk):
        idx = allowed[start : start + chunk]
        t_run = tau[idx, None] - nodes[None, :] * tau0
        integrand = (
            2.0
            * np.exp(-0.5 * gamma * t_run)
            * dirichlet_kernel(fsr * t_run, m_count)
        )
        amplitude = np.sum(weights[None, :] * integrand, axis=1)
        values[idx] = amplitude * amplitude
    return values / values.max()


def g2_averaged_all_echoes(tau, scales, dt: float) -> np.ndarray:
    """The averaged tier summed over all j_max + 1 echoes, peak-normalized.

    ``correlations.g2_averaged`` stops 14 dT past the grid's end, where each
    echo's Gaussian is exactly 0.0; this sum runs to exp(-gamma*j*T) < 1e-6.
    """
    tau = np.asarray(tau, dtype=float)
    T, gamma = scales.round_trip_T, scales.gamma
    j_max = math.ceil(-math.log(1e-6) / (gamma * T))
    values = np.zeros_like(tau)
    for j in range(j_max + 1):
        values += math.exp(-gamma * j * T) * np.exp(-4.0 * (j * T - tau) ** 2 / dt**2)
    peak = values.max()
    if peak > 0:
        values /= peak
    return values


def g2_compact_convolved(tau, scales, dt: float) -> np.ndarray:
    """The compact boxcars convolved with exp(-4t^2/dT^2), peak-normalized.

    Boxcar j, of height exp(-gamma*j*T) on |s - c_j| <= |tau0|/2 with
    c_j = j*T - tau0/2, adds its height times
    erf(2*(c_j - tau + |tau0|/2)/dT) - erf(2*(c_j - tau - |tau0|/2)/dT) at each
    delay tau (the common factor dT*sqrt(pi)/4 cancels).  Echoes run until
    exp(-gamma*j*T) < 1e-12 or 14 dT past the grid's end, whichever is first.
    """
    T, gamma, tau0 = scales.round_trip_T, scales.gamma, scales.tau0
    half = 0.5 * abs(tau0)
    j_end = min(math.ceil(-math.log(1e-12) / (gamma * T)),
                math.floor((float(max(tau)) + 14.0 * dt) / T) + 1)
    values = []
    for t in tau:
        total = 0.0
        for j in range(j_end + 1):
            c = j * T - 0.5 * tau0 - t
            total += math.exp(-gamma * j * T) * (
                math.erf(2.0 * (c + half) / dt) - math.erf(2.0 * (c - half) / dt))
        values.append(total)
    values = np.array(values)
    return values / values.max()


def uniform_axis_four_checks(axis, what: str = "axis") -> float:
    """The grid check as four checks in turn, each with its own message, and
    a fifth, between the third and the fourth, for a step or a span past the
    largest double: the reference for the one-pass
    ``numerics.ensure_uniform_axis``."""
    axis = np.asarray(axis, dtype=float)
    if axis.ndim != 1 or axis.size < 2:
        raise ScenarioValidationError(f"{what} must be a 1-d grid with at least two points")
    if not np.all(np.isfinite(axis)):
        raise ScenarioValidationError(f"{what} must be finite")
    with np.errstate(over="ignore"):
        steps = np.diff(axis)
        span = axis[-1] - axis[0]
    if np.any(steps <= 0):
        raise ScenarioValidationError(f"{what} must be strictly increasing")
    if not (np.all(np.isfinite(steps)) and np.isfinite(span)):
        raise ScenarioValidationError(f"{what}: its span or a step overflows a double")
    spacing = float(span) / (axis.size - 1)
    rounding = 4.0 * math.ulp(max(abs(axis[0]), abs(axis[-1])))
    if rounding >= 0.5 * spacing:  # past half a step it would admit steps <= 0
        rounding = 0.0
    if np.max(np.abs(steps - spacing)) > 1e-9 * abs(spacing) + rounding:
        raise ScenarioValidationError(f"{what} must be uniformly spaced")
    return spacing


# pi to 40 significant digits.
_PI_40 = Decimal("3.141592653589793238462643383279502884197")


def wavelength_um_sq(omega: float) -> float:
    """L, the squared vacuum wavelength in um^2 at ``omega``, as the Sellmeier
    model computes it."""
    lam_um = TWO_PI * SPEED_OF_LIGHT / omega * 1e6
    return lam_um * lam_um


def index_by_kind(model, omega: float) -> float:
    """n(omega) of a ``DispersionModel``, its range unchecked."""
    p = model.parameters
    if model.kind is DispersionKind.CONSTANT:
        return p[0]
    if model.kind is DispersionKind.LINEAR_IN_OMEGA:
        return p[0] + p[1] * omega
    ell = wavelength_um_sq(omega)
    n_sq = 1.0
    for b, c in zip(p[:3], p[3:]):
        n_sq += b * ell / (ell - c)
    return math.sqrt(n_sq)


def dn_domega_by_kind(model, omega: float) -> float:
    """dn/domega in seconds of a ``DispersionModel``, its range unchecked."""
    p = model.parameters
    if model.kind is DispersionKind.CONSTANT:
        return 0.0
    if model.kind is DispersionKind.LINEAR_IN_OMEGA:
        return p[1]
    ell = wavelength_um_sq(omega)
    n = index_by_kind(model, omega)
    pole_sum = 0.0
    for b, c in zip(p[:3], p[3:]):
        pole_sum += b * c / (ell - c) ** 2
    # dn/dw = (dn/dL)(dL/dw) with L = lambda_um^2 and dL/dw = -2L/w.
    return ell / (n * omega) * pole_sum


def cis_decimal(x: float, q: int) -> complex:
    """exp(i*x*q) with x*q formed exactly in decimal, reduced into [-pi, pi]
    with the 40-digit pi, and cos and sin summed as Taylor series at 45
    digits: within 1e-20 of the exact value before the one rounding to
    double, for |x*q| up to about 1e20.
    """
    with localcontext() as ctx:
        ctx.prec = 1100  # any double times an integer below 2**64, exactly
        phase = Decimal(x) * q
        ctx.prec = 45
        phase = phase.remainder_near(2 * _PI_40)
        square = phase * phase
        cos_term, sin_term = Decimal(1), phase
        cos, sin = cos_term, sin_term
        k = 1
        while abs(cos_term) > Decimal("1e-45") or abs(sin_term) > Decimal("1e-45") * abs(phase):
            cos_term *= -square / ((2 * k - 1) * (2 * k))
            sin_term *= -square / ((2 * k) * (2 * k + 1))
            cos += cos_term
            sin += sin_term
            k += 1
    return complex(float(cos), float(sin))


def write_table_csv_whole(path, meta, column_names, columns) -> None:
    """``trace.write_table_csv`` with every row formatted into one string."""
    lines = [f"# {key} = {format(v, '.17g') if isinstance(v, float) else v}"
             for key, v in meta.items()]
    lines.append(",".join(column_names))
    row_format = ",".join(["%.17g"] * len(columns))
    rows = np.column_stack(columns).tolist()
    lines.extend(row_format % tuple(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def write_table_json_whole(path, meta, column_names, columns) -> None:
    """``trace.write_table_json`` with the whole payload dumped at once."""
    payload = {
        "meta": dict(meta),
        "columns": list(column_names),
        "data": [[float(col[i]) for col in columns] for i in range(len(columns[0]))],
    }
    text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="ascii")


def svg_polyline_whole(x, y) -> str:
    """The ``points`` of ``svgplot.write_svg_plot``'s polyline, in one join."""
    from sropo.svgplot import _HEIGHT, _MARGIN_B, _MARGIN_L, _MARGIN_R, _MARGIN_T, _WIDTH

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(y.min()), float(y.max())
    # A constant series spans 1, or one float where + 1 rounds back to it.
    if x1 == x0:
        x1 = x0 + 1.0 if x0 + 1.0 != x0 else math.nextafter(x0, math.inf)
        if math.isinf(x1):
            x0, x1 = math.nextafter(x0, -math.inf), x0
    if y1 == y0:
        y1 = y0 + 1.0 if y0 + 1.0 != y0 else math.nextafter(y0, math.inf)
        if math.isinf(y1):
            y0, y1 = math.nextafter(y0, -math.inf), y0
    # A span past the largest double is mapped at half scale, exactly.
    xs = 1.0 if math.isfinite(x1 - x0) else 0.5
    ys = 1.0 if math.isfinite(y1 - y0) else 0.5
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(v: float) -> float:
        return _MARGIN_L + (v * xs - x0 * xs) / (x1 * xs - x0 * xs) * plot_w

    def sy(v: float) -> float:
        return _MARGIN_T + plot_h - (v * ys - y0 * ys) / (y1 * ys - y0 * ys) * plot_h

    return " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}" for a, b in zip(x, y))
