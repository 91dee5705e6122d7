"""Second-order signal-idler cross-correlation in four tiers.

The correlation vanishes identically for delays at which the signal photon
would have to leave before its idler partner could (tau < -tau0 for
tau0 > 0, tau < 0 for tau0 < 0), and forms a train of peaks of width |tau0|
at tau = j*T - tau0/2 whose heights decay as exp(-gamma*j*T).

Tiers, from most faithful to most idealized:

* ``exact``   -- the position across the crystal is kept: each mode's
  response is integrated over the crystal in closed form, and the phased
  mode sum with those complex weights is evaluated as a chirp-z transform
  on the uniform delay grid.
* ``series``  -- the crystal integral is frozen into the per-mode
  sinc(m*fsr*tau0/2) amplitude and the phased mode sum is evaluated as a
  chirp-z transform on the uniform delay grid.
* ``compact`` -- the idealized boxcar train: height exp(-gamma*j*T) inside
  |tau - j*T + tau0/2| <= |tau0|/2 (closed interval, boundary included),
  zero elsewhere.
* ``averaged`` -- the boxcar train convolved with a Gaussian detector
  response of resolution dT >> |tau0|:
  sum_j exp(-gamma*j*T - 4*(j*T - tau)^2 / dT^2).

All tiers return peak-normalized traces (maximum exactly 1).
"""

from __future__ import annotations

import bisect
import math
import sys

import numpy as np

from .cavity import DerivedScales
from .errors import (
    DegenerateGroupVelocityError, ResolutionTooFineError, ScenarioValidationError,
)
from .names import G2Tier, Record, as_count, as_real, inputs
from .numerics import _cis, _cos_series, ensure_uniform_axis, grid_points, require_points
from .trace import Normalization, Trace, TraceKind, TraceMeta

_MODE_REACH = 50.0  # default truncation: ceil(50 / |fsr*tau0/2|) modes
_PEAK_FLOOR = 1e-6  # averaged tier: keep echoes until exp(-gamma j T) drops below
_LOG_MAX = math.log(sys.float_info.max)  # exp(x) overflows a double past this


class G2Request(Record, eq=False):
    """What to evaluate: tier, delay grid, and the knobs ``check_tier`` admits.

    ``tau_grid`` must be uniform with spacing at most |tau0|/8 (exact,
    series, compact) or resolution_dt/8 (averaged).  ``m_max`` overrides the
    adaptive mode truncation.  ``spacing``, of ``tau_grid`` from its endpoints,
    is set at construction.
    """

    tier: G2Tier
    tau_grid: np.ndarray
    m_max: int | None = None
    resolution_dt: float | None = None

    def __post_init__(self):
        checked = check_tier(self.tier, self.m_max, self.resolution_dt)
        for name, value in zip(("tier", "m_max", "resolution_dt"), checked):
            object.__setattr__(self, name, value)
        grid = np.asarray(self.tau_grid, dtype=float)
        object.__setattr__(self, "tau_grid", grid)
        object.__setattr__(self, "spacing", ensure_uniform_axis(grid, "tau_grid"))


def check_tier(tier, m_max=None, resolution=None) -> tuple[G2Tier, int | None, float | None]:
    """The tier, ``m_max`` as an int and ``resolution`` as a float, refusing a
    knob the tier does not read (ScenarioValidationError naming the flag):
    ``m_max``, an integer >= 1, is read by series and exact only, and
    ``resolution``, a finite real > 0, by averaged only, which needs it."""
    tier = G2Tier(tier)
    if m_max is not None:
        if tier not in (G2Tier.SERIES, G2Tier.EXACT):
            raise ScenarioValidationError(f"--m-max: g2 --tier {tier.value} has no mode sum")
        m_max = as_count(m_max, "m_max (--m-max)", 1)
    if resolution is None and tier is G2Tier.AVERAGED:
        raise ScenarioValidationError("g2 --tier averaged requires --resolution <seconds>")
    if resolution is not None and tier is not G2Tier.AVERAGED:
        raise ScenarioValidationError(f"--resolution: g2 --tier {tier.value} has no detector")
    if resolution is not None:
        resolution = as_real(resolution, "resolution_dt (--resolution)", 0.0, strict=True)
    return tier, m_max, resolution


def _require_tier(request: G2Request, tier: G2Tier) -> None:
    if request.tier is not tier:
        raise ValueError(f"request tier is {request.tier.value}, expected {tier.value}")


def _check_peak_resolution(spacing: float, scales: DerivedScales) -> None:
    if scales.tau0 == 0.0:
        raise DegenerateGroupVelocityError(
            "tau0 = 0: correlation peaks have zero width and cannot be sampled"
        )
    require_points(abs(scales.tau0) / spacing, 8.0, "|tau0|")


def g2_grid(scales: DerivedScales, tier, peaks=None, resolution=None, points=None):
    """Delay grid of ``g2``: comb tiers from -2|tau0| - T/8 in steps of |tau0|/12
    (tau0 = 0 refused, as the tiers refuse it), the averaged tier from -3*dT in
    steps of dT/16 (dT = ``resolution``), every tier to peaks*T + 2|tau0| (5
    unless given).  An end, span or count past its bound, or a step that
    underflows to 0, is refused naming the scales' fields and the flags given.
    """
    T, t0 = scales.round_trip_T, abs(scales.tau0)
    tier, _, resolution = check_tier(tier, resolution=resolution)
    given = ["--peaks"] if peaks is not None else []
    peaks = as_count(5 if peaks is None else peaks, "peaks (--peaks)", 0)
    if tier is not G2Tier.AVERAGED:
        _check_peak_resolution(t0 / 12.0, scales)
        start, step, source = -2.0 * t0 - T / 8.0, t0 / 12.0, inputs("tau0", "T", *given)
    else:
        start = as_real(-3.0 * resolution, "--resolution: derived delay grid start", -math.inf)
        step = as_real(resolution / 16.0, "--resolution: derived delay grid step", 0.0,
                       strict=True)
        source = inputs("tau0", "T", *given, "--resolution")
    stop = as_real(peaks * T + 2.0 * t0, f"{inputs('tau0', 'T', *given)}: derived delay grid end",
                   -math.inf)
    span = as_real(stop - start, f"{source}: derived delay grid span", -math.inf)
    return np.linspace(start, stop, grid_points(points, span / step, source))


def _mode_count(request: G2Request, scales: DerivedScales) -> int:
    """M, refused past the grid budget before the M+1 mode weights are allocated."""
    m_count = request.m_max
    if m_count is None:
        dz = 0.5 * scales.fsr_delta_omega * abs(scales.tau0)
        m_count = math.ceil(_MODE_REACH / dz)
    grid_points(None, m_count, inputs("--m-max" if request.m_max is not None else "M"))
    return m_count


def _first_allowed(tau: np.ndarray, tau0: float) -> int:  # rounded t + tau0/2 is monotone
    return bisect.bisect_left(tau, True, key=lambda t: t + 0.5 * tau0 >= -0.5 * abs(tau0))


def _check_span(exponent: float, tier: G2Tier) -> None:
    """Refuse a tier whose allowed values span exp(exponent) past a double."""
    if exponent > _LOG_MAX:
        raise ScenarioValidationError(
            f"{inputs('tau0', 'gamma')}: the {tier.value} tier's values "
            f"span exp({exponent!r}), past a double (exp({_LOG_MAX:.2f}))")


def _peak_normalized(
    tau: np.ndarray, values: np.ndarray, tier: G2Tier, extra: dict
) -> Trace:
    peak = values.max()
    if peak > 0:
        values /= peak
    meta = TraceMeta(
        TraceKind.G2,
        Normalization.PEAK_UNITY,
        extra={"tier": tier.value, **extra},
    )
    return Trace(tau, values, meta, axis_checked=True)


def g2_series(request: G2Request, scales: DerivedScales) -> Trace:
    """Mode-sum tier: exp(-gamma*tau) * |sum_m sinc(m*dz) e^{-im*fsr*(tau+tau0/2)}|^2.

    Valid for tau + tau0/2 >= -|tau0|/2 and identically zero before that.
    The weights are even in m, so the phased sum is a real cosine series,
    evaluated by the chirp-z transform in O((N + M) log M).
    """
    _require_tier(request, G2Tier.SERIES)
    _check_peak_resolution(request.spacing, scales)
    tau = request.tau_grid
    fsr = scales.fsr_delta_omega
    tau0 = scales.tau0
    _check_span(scales.gamma * tau0, G2Tier.SERIES)  # exp(-gamma*tau) from tau = -tau0
    m_count = _mode_count(request, scales)
    z = np.arange(1, m_count + 1) * (0.5 * fsr * tau0)
    coef = np.concatenate(([1.0], 2.0 * np.sin(z) / z))
    amplitude = _cos_series(
        coef, fsr * (tau[0] + 0.5 * tau0), fsr * request.spacing, tau.size
    )

    first = _first_allowed(tau, tau0)
    values = np.square(amplitude, out=amplitude)
    values[:first] = 0.0
    envelope = np.multiply(-scales.gamma, tau[first:])
    values[first:] *= np.exp(envelope, out=envelope)
    return _peak_normalized(tau, values, G2Tier.SERIES, {"m_max": m_count})


def g2_compact(request: G2Request, scales: DerivedScales) -> Trace:
    """Boxcar-train tier: exp(-gamma*j*T) inside boxcar j, zero between.

    Boxcar j covers |tau - j*T + tau0/2| <= |tau0|/2 for j = 0, 1, ...; the
    boundary is included.  Each delay is tested against the nearest boxcar
    centre (they are disjoint whenever |tau0| < T).
    """
    _require_tier(request, G2Tier.COMPACT)
    _check_peak_resolution(request.spacing, scales)
    tau = request.tau_grid
    T = scales.round_trip_T
    tau0 = scales.tau0

    j = np.round((tau + 0.5 * tau0) / T)
    inside = (j >= 0) & (np.abs(tau - j * T + 0.5 * tau0) <= 0.5 * abs(tau0))
    values = np.where(inside, np.exp(-scales.gamma * T * np.maximum(j, 0.0)), 0.0)
    return _peak_normalized(tau, values, G2Tier.COMPACT, {})


def g2_exact(request: G2Request, scales: DerivedScales) -> Trace:
    """Crystal-integral tier: keeps the exact position dependence across the crystal.

    For each delay the amplitude is the integral over the crystal coordinate
    u = x/l in [-1, 0] of the cavity response 2*exp(-gamma*t/2) times the
    mode comb sum_{|m|<=M} exp(i*m*fsr*t), at t = tau - u*tau0.  With
    a_m = gamma/2 - i*m*fsr each mode integrates in closed form,
    exp(-a_m*tau) * c_m with c_m = (1 - exp(-a_m*tau0)) / (a_m*tau0), so the
    amplitude is 2*exp(-gamma*tau/2) * Re[c_0 + 2*sum_{m>=1} c_m e^{i*m*fsr*tau}],
    a comb sum with complex weights evaluated by the chirp-z transform in
    O((N + M) log M).  The response kernel's vanishing branch (t < 0 for
    every u) defines the forbidden region, which is applied as an exact-zero
    mask; inside the allowed region the decaying branch applies across the
    whole crystal, so the per-crystal-position damping that the series tier
    freezes at its centre value is integrated here.
    """
    _require_tier(request, G2Tier.EXACT)
    _check_peak_resolution(request.spacing, scales)
    tau = request.tau_grid
    fsr = scales.fsr_delta_omega
    tau0 = scales.tau0
    gamma = scales.gamma
    _check_span(gamma * abs(tau0), G2Tier.EXACT)
    m_count = _mode_count(request, scales)

    # a_m*tau0 = x - i*phi_m.  The numerator 1 - exp(-x + i*phi) is
    # -2i*sin(phi/2)*e^{i*phi/2} - e^{i*phi}*expm1(-x): no cancellation
    # when x or phi is small.
    x = 0.5 * gamma * tau0
    m = np.arange(m_count + 1, dtype=float)
    half_turn = _cis(0.5 * fsr * tau0, m)
    numerator = -2j * half_turn.imag * half_turn - half_turn**2 * math.expm1(-x)
    coef = numerator / (x - 1j * (m * (fsr * tau0)))
    coef[1:] *= 2.0
    first = _first_allowed(tau, tau0)
    values = _cos_series(coef, fsr * tau[0], fsr * request.spacing, tau.size)
    values[:first] = 0.0
    amplitude = np.multiply(-0.5 * gamma, tau[first:])
    np.exp(amplitude, out=amplitude)
    amplitude *= 2.0
    amplitude *= values[first:]
    np.square(amplitude, out=values[first:])
    return _peak_normalized(tau, values, G2Tier.EXACT, {"m_max": m_count})


def g2_averaged(request: G2Request, scales: DerivedScales) -> Trace:
    """Detector-averaged tier: Gaussian echo train of resolution dT.

    Requires resolution_dt >= 10*|tau0| (below that the Gaussian model of the
    detector response cannot absorb the intrinsic peak width).  Echoes are
    kept until exp(-gamma*j*T) falls below 1e-6 (``j_max``) and summed only
    up to 14 dT past the grid, beyond which each adds exactly 0.
    """
    _require_tier(request, G2Tier.AVERAGED)
    dt = request.resolution_dt
    if dt < 10.0 * abs(scales.tau0):
        raise ResolutionTooFineError(
            f"resolution_dt = {dt:.3e} s below 10*|tau0| = {10 * abs(scales.tau0):.3e} s"
        )
    require_points(dt / request.spacing, 8.0, "resolution_dt")
    tau = request.tau_grid
    T = scales.round_trip_T
    gamma = scales.gamma
    as_real(dt * dt, "--resolution: derived resolution_dt^2", 0.0, strict=True)
    j_max = math.ceil(-math.log(_PEAK_FLOOR) / (gamma * T))
    first, last = float(tau[0]), float(tau[-1])
    j_last = math.floor(min(j_max, (last + 14.0 * dt) / T))  # the ratio may be inf
    reach = max(-first, last) + j_last * T  # at least every |j*T - tau| below
    as_real(4.0 * reach * reach, "--resolution: derived 4*(j*T - tau)^2", -math.inf)
    values = np.zeros_like(tau)
    for j in range(j_last + 1):
        values += math.exp(-gamma * j * T) * np.exp(-4.0 * (j * T - tau) ** 2 / dt**2)
    return _peak_normalized(
        tau, values, G2Tier.AVERAGED, {"resolution_dt_s": dt, "j_max": j_max}
    )
