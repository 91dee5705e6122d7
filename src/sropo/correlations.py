"""Second-order signal-idler cross-correlation in four tiers.

The correlation vanishes identically for delays at which the signal photon
would have to leave before its idler partner could (tau < -tau0 for
tau0 > 0, tau < 0 for tau0 < 0), and forms a train of peaks of width |tau0|
at tau = j*T - tau0/2 whose heights decay as exp(-gamma*j*T).

Tiers, from slowest/most faithful to fastest/most idealized:

* ``exact``   -- the position across the crystal is kept as an integration
  variable; the mode sum collapses to a Dirichlet kernel under the integral
  and each delay point is integrated by composite Gauss-Legendre quadrature
  over the supported part of the crystal.
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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cavity import DerivedScales
from .errors import (
    DegenerateGroupVelocityError,
    GridTooCoarseError,
    QuadratureWarning,
    ResolutionTooFineError,
)
from .numerics import (
    _cos_series,
    composite_gauss_nodes,
    dirichlet_kernel,
    ensure_uniform_axis,
)
from .trace import Normalization, Trace, TraceKind, TraceMeta

from enum import Enum

_GL_ORDER = 8
_MODE_REACH = 50.0  # default truncation: ceil(50 / |fsr*tau0/2|) modes
_PEAK_FLOOR = 1e-6  # averaged tier: keep echoes until exp(-gamma j T) drops below


class G2Tier(str, Enum):
    EXACT = "exact"
    SERIES = "series"
    COMPACT = "compact"
    AVERAGED = "averaged"


@dataclass(frozen=True, eq=False)
class G2Request:
    """What to evaluate: tier, delay grid, and the tier-specific knobs.

    ``tau_grid`` must be uniform with spacing at most |tau0|/8 (exact,
    series, compact) or resolution_dt/8 (averaged).  ``m_max`` overrides the
    adaptive mode truncation; ``quad_points`` is the total quadrature budget
    per delay point in the exact tier; ``j_max`` caps the echo count in the
    averaged tier (adaptive when None).
    """

    tier: G2Tier
    tau_grid: np.ndarray
    m_max: int | None = None
    quad_points: int = 512
    resolution_dt: float | None = None
    j_max: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "tier", G2Tier(self.tier))
        grid = np.asarray(self.tau_grid, dtype=float)
        object.__setattr__(self, "tau_grid", grid)
        ensure_uniform_axis(grid, "tau_grid")
        if self.quad_points < 32:
            raise ValueError("quad_points must be at least 32")
        if self.m_max is not None and self.m_max < 1:
            raise ValueError("m_max must be at least 1")
        if self.j_max is not None and self.j_max < 0:
            raise ValueError("j_max must be non-negative")

    @property
    def spacing(self) -> float:
        return float(self.tau_grid[-1] - self.tau_grid[0]) / (self.tau_grid.size - 1)


def lorentzian_kernel(t, gamma: float):
    """Closed form of -(1/pi) * integral dW exp(-iWt) / (gamma/2 - iW).

    Zero for t < 0, one at t = 0, and 2*exp(-gamma*t/2) for t > 0.  Accepts
    scalars or arrays.
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


def _require_tier(request: G2Request, tier: G2Tier) -> None:
    if request.tier is not tier:
        raise ValueError(f"request tier is {request.tier.value}, expected {tier.value}")


def _check_peak_resolution(request: G2Request, scales: DerivedScales) -> None:
    if scales.tau0 == 0.0:
        raise DegenerateGroupVelocityError(
            "tau0 = 0: correlation peaks have zero width and cannot be sampled"
        )
    limit = abs(scales.tau0) / 8.0
    if request.spacing > limit:
        raise GridTooCoarseError(
            f"tau_grid spacing {request.spacing:.3e} s exceeds |tau0|/8 = {limit:.3e} s"
        )


def _mode_count(request: G2Request, scales: DerivedScales) -> int:
    if request.m_max is not None:
        return request.m_max
    dz = 0.5 * scales.fsr_delta_omega * abs(scales.tau0)
    return math.ceil(_MODE_REACH / dz)


def _peak_normalized(
    tau: np.ndarray, values: np.ndarray, tier: G2Tier, extra: dict
) -> Trace:
    peak = values.max()
    if peak > 0:
        values = values / peak
    meta = TraceMeta(
        TraceKind.G2,
        Normalization.PEAK_UNITY,
        extra={"tier": tier.value, **extra},
    )
    return Trace(tau, values, meta)


def g2_series(request: G2Request, scales: DerivedScales) -> Trace:
    """Mode-sum tier: exp(-gamma*tau) * |sum_m sinc(m*dz) e^{-im*fsr*(tau+tau0/2)}|^2.

    Valid for tau + tau0/2 >= -|tau0|/2 and identically zero before that.
    The weights are even in m, so the phased sum is a real cosine series,
    evaluated by the chirp-z transform in O((N + M) log M).
    """
    _require_tier(request, G2Tier.SERIES)
    _check_peak_resolution(request, scales)
    tau = request.tau_grid
    fsr = scales.fsr_delta_omega
    tau0 = scales.tau0
    m_count = _mode_count(request, scales)
    z = np.arange(1, m_count + 1) * (0.5 * fsr * tau0)
    coef = np.concatenate(([1.0], 2.0 * np.sin(z) / z))
    amplitude = _cos_series(
        coef, fsr * (tau[0] + 0.5 * tau0), fsr * request.spacing, tau.size
    )

    allowed = tau + 0.5 * tau0 >= -0.5 * abs(tau0)
    values = np.where(allowed, np.exp(-scales.gamma * tau) * amplitude**2, 0.0)
    return _peak_normalized(tau, values, G2Tier.SERIES, {"m_max": m_count})


def g2_compact(request: G2Request, scales: DerivedScales) -> Trace:
    """Boxcar-train tier: exp(-gamma*j*T) inside boxcar j, zero between.

    Boxcar j covers |tau - j*T + tau0/2| <= |tau0|/2 for j = 0, 1, ...; the
    boundary is included.  Each delay is tested against the nearest boxcar
    centre (they are disjoint whenever |tau0| < T).
    """
    _require_tier(request, G2Tier.COMPACT)
    _check_peak_resolution(request, scales)
    tau = request.tau_grid
    T = scales.round_trip_T
    tau0 = scales.tau0

    j = np.round((tau + 0.5 * tau0) / T)
    inside = (j >= 0) & (np.abs(tau - j * T + 0.5 * tau0) <= 0.5 * abs(tau0))
    if request.j_max is not None:
        inside &= j <= request.j_max
    values = np.where(inside, np.exp(-scales.gamma * T * np.maximum(j, 0.0)), 0.0)
    return _peak_normalized(tau, values, G2Tier.COMPACT, {})


def g2_exact(request: G2Request, scales: DerivedScales) -> Trace:
    """Quadrature tier: keeps the exact position dependence across the crystal.

    For each delay the amplitude is the integral over the crystal coordinate
    u = x/l in [-1, 0] of the cavity response at t = tau - u*tau0, summed
    over modes; the mode sum collapses to the closed-form Dirichlet kernel at
    the same argument.  The response kernel's vanishing branch (t < 0 for
    every u) defines the forbidden region, which is applied as an exact-zero
    mask; inside the allowed region the decaying branch 2*exp(-gamma*t/2)
    applies across the whole crystal, so the per-crystal-position damping
    that the series tier freezes at its centre value is retained here.
    """
    _require_tier(request, G2Tier.EXACT)
    _check_peak_resolution(request, scales)
    tau = request.tau_grid
    fsr = scales.fsr_delta_omega
    tau0 = scales.tau0
    gamma = scales.gamma
    m_count = _mode_count(request, scales)

    n_panels = max(1, request.quad_points // _GL_ORDER)
    phase_scale = (m_count + 0.5) * fsr * abs(tau0)
    if phase_scale / n_panels > math.pi / 4:
        warnings.warn(
            f"Dirichlet phase advance {phase_scale / n_panels:.2f} rad per panel "
            "exceeds pi/4; raise quad_points",
            QuadratureWarning,
            stacklevel=2,
        )

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
    return _peak_normalized(
        tau,
        values,
        G2Tier.EXACT,
        {"m_max": m_count, "quad_points": n_panels * _GL_ORDER},
    )


def g2_averaged(request: G2Request, scales: DerivedScales) -> Trace:
    """Detector-averaged tier: Gaussian echo train of resolution dT.

    Requires resolution_dt >= 10*|tau0| (below that the Gaussian model of the
    detector response cannot absorb the intrinsic peak width).  Echoes are
    kept until exp(-gamma*j*T) falls below 1e-6 unless j_max caps them first.
    """
    _require_tier(request, G2Tier.AVERAGED)
    if request.resolution_dt is None or request.resolution_dt <= 0:
        raise ValueError("averaged tier needs a positive resolution_dt")
    dt = request.resolution_dt
    if dt < 10.0 * abs(scales.tau0):
        raise ResolutionTooFineError(
            f"resolution_dt = {dt:.3e} s below 10*|tau0| = {10 * abs(scales.tau0):.3e} s"
        )
    if request.spacing > dt / 8.0:
        raise GridTooCoarseError(
            f"tau_grid spacing {request.spacing:.3e} s exceeds resolution_dt/8"
        )
    tau = request.tau_grid
    T = scales.round_trip_T
    gamma = scales.gamma
    if request.j_max is not None:
        j_max = request.j_max
    else:
        j_max = math.ceil(-math.log(_PEAK_FLOOR) / (gamma * T))
    values = np.zeros_like(tau)
    for j in range(j_max + 1):
        values += math.exp(-gamma * j * T) * np.exp(-4.0 * (j * T - tau) ** 2 / dt**2)
    return _peak_normalized(
        tau, values, G2Tier.AVERAGED, {"resolution_dt_s": dt, "j_max": j_max}
    )
