"""Refractive-index models, group velocities, and collinear phase matching.

All frequencies are angular frequencies in rad/s and all lengths are metres.
Three model kinds are supported:

* ``constant`` -- n(w) = n0; parameters [n0].
* ``linear_in_omega`` -- n(w) = a + b*w; parameters [a, b] with b in seconds.
  Every derived quantity (group velocity, transit-time difference) then has
  a closed form, which makes this kind the work-horse for forced test cases.
* ``sellmeier`` -- the standard three-pole form in vacuum wavelength,
  n^2 = 1 + sum_i B_i L / (L - C_i) with L the squared wavelength in um^2;
  parameters [B1, B2, B3, C1, C2, C3], C_i in um^2.

Each kind carries an analytic frequency derivative, so group velocities never
rely on finite differences.
"""

from __future__ import annotations

import math
from enum import Enum

from .constants import SPEED_OF_LIGHT as C_LIGHT
from .constants import TWO_PI
from .errors import (
    DegenerateDispersionError,
    NoSignChangeError,
    NonConvergenceError,
    OutOfRangeError,
    ScenarioValidationError,
)
from .names import Record, as_real

_VALIDATION_SAMPLES = 65
_SCAN_INTERVALS = 256
_MISMATCH_TOL_REL = 1e-6
_BISECT_XTOL = 1e-300
_BISECT_RTOL = 1e-15
_BISECT_MAXITER = 200


class DispersionKind(str, Enum):
    CONSTANT = "constant"
    LINEAR_IN_OMEGA = "linear_in_omega"
    SELLMEIER = "sellmeier"


_PARAM_COUNTS = {
    DispersionKind.CONSTANT: 1,
    DispersionKind.LINEAR_IN_OMEGA: 2,
    DispersionKind.SELLMEIER: 6,
}


class DispersionModel(Record):
    """One polarization axis of a (possibly dispersive) medium.

    ``validity_range`` is the closed frequency interval on which the model may
    be evaluated.  A Sellmeier pole (B_i != 0) in it is refused at construction.
    n(w) > 1 is required and checked on a sample of ``_VALIDATION_SAMPLES``
    points, where ``_evaluate`` also refuses n^2 <= 0 or a dn/dw out of the
    double range.
    """

    kind: DispersionKind
    parameters: tuple[float, ...]
    validity_range: tuple[float, float]

    def __post_init__(self):
        try:
            kind = DispersionKind(self.kind)
        except ValueError:
            allowed = ", ".join(k.value for k in DispersionKind)
            raise ScenarioValidationError(
                f"kind must be one of {allowed}, got {self.kind!r}") from None
        params = tuple(as_real(p, f"parameters[{i}]", -math.inf) for i, p in
                       enumerate(_entries(self.parameters, "parameters", _PARAM_COUNTS[kind])))
        lo, hi = (as_real(v, f"validity_range[{i}]", 0.0)
                  for i, v in enumerate(_entries(self.validity_range, "validity_range", 2)))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "parameters", params)
        object.__setattr__(self, "validity_range", (lo, hi))
        if not (0.0 < lo < hi):
            raise ValueError("validity_range must satisfy 0 < lo < hi")
        if kind is DispersionKind.SELLMEIER:  # a pole, L = C_i, sampled or not
            for i, (b, c) in enumerate(zip(params[:3], params[3:]), 1):
                if b and c > 0 and lo <= (omega := TWO_PI * C_LIGHT * 1e6 / math.sqrt(c)) <= hi:
                    raise ValueError(f"sellmeier model has a pole (L = C{i} = {c!r} um^2) at "
                                     f"omega = {omega:.6e} rad/s inside its validity range")
        for omega in _linspace(lo, hi, _VALIDATION_SAMPLES):
            n = _evaluate(self, omega)[0]
            if not math.isfinite(n) or n <= 1.0:
                raise ValueError(
                    f"{kind.value} model yields n = {n!r} <= 1 at "
                    f"omega = {omega:.6e} rad/s inside its validity range"
                )


def _entries(value, where: str, count: int) -> tuple:
    """The ``count`` entries of a list, tuple or 1-d array ``value``; anything
    else (a number, a string, a mapping, a set), or another count, is refused
    naming ``where``."""
    ordered = isinstance(value, (list, tuple)) or getattr(value, "ndim", None) == 1
    if not ordered or len(value) != count:
        raise ScenarioValidationError(f"{where} must be a list of length {count}, got {value!r}")
    return tuple(value)


def _linspace(lo: float, hi: float, num: int) -> list[float]:
    """``np.linspace(lo, hi, num)`` bit for bit, as floats, wherever the step
    (hi - lo)/(num - 1) is nonzero: lo + i*step, the last point hi itself.
    """
    step = (hi - lo) / (num - 1)
    return [lo + i * step for i in range(num - 1)] + [hi]


def _evaluate(model: DispersionModel, omega: float) -> tuple[float, float]:
    """(n, dn/domega) at ``omega``; where the model gives none, an ``OutOfRangeError``."""
    lo, hi = model.validity_range
    if not lo <= omega <= hi:
        raise OutOfRangeError(
            f"omega = {omega:.6e} rad/s outside validity range "
            f"[{lo:.6e}, {hi:.6e}] of {model.kind.value} model"
        )
    p = model.parameters
    if model.kind is DispersionKind.CONSTANT:
        return p[0], 0.0
    if model.kind is DispersionKind.LINEAR_IN_OMEGA:
        return p[0] + p[1] * omega, p[1]
    lam_um = TWO_PI * C_LIGHT / omega * 1e6
    ell = lam_um * lam_um  # L, the squared vacuum wavelength in um^2
    n_sq, pole_sum = 1.0, 0.0
    try:
        for b, c in zip(p[:3], p[3:]):
            n_sq += b * ell / (ell - c)
            pole_sum += b * c / (ell - c) ** 2
    except (ZeroDivisionError, OverflowError):  # L == C_i, or (L - C_i)^2 out of range
        cause = (f"a pole (L = C{p.index(ell, 3) - 2} = {ell!r} um^2)" if ell in p[3:]
                 else "dn/domega outside the double range")
        raise OutOfRangeError(f"sellmeier model has {cause} at omega = {omega:.6e} rad/s") from None
    if n_sq <= 0.0:
        raise OutOfRangeError(
            f"sellmeier model yields n^2 = {n_sq!r} <= 0 at omega = {omega:.6e} rad/s")
    n = math.sqrt(n_sq)
    # dn/dw = (dn/dL)(dL/dw) with L = lambda_um^2 and dL/dw = -2L/w.
    return n, ell / (n * omega) * pole_sum


def refractive_index(model: DispersionModel, omega: float) -> float:
    """n(omega) for the given model."""
    return _evaluate(model, omega)[0]


def group_velocity(model: DispersionModel, omega: float) -> float:
    """c / (n + omega * dn/domega), in m/s."""
    n, dn = _evaluate(model, omega)
    return C_LIGHT / (n + omega * dn)


def wavenumber(model: DispersionModel, omega: float) -> float:
    """k(omega) = omega * n(omega) / c, in rad/m."""
    return omega * _evaluate(model, omega)[0] / C_LIGHT


class CrystalParams(Record):
    """Nonlinear crystal: geometry, susceptibility, and the three index models.

    ``chi`` is the effective second-order susceptibility in m/V, treated as
    frequency-independent over the bandwidths of interest.
    """

    length_l: float
    chi: float
    cross_section_A: float
    dispersion_signal: DispersionModel
    dispersion_idler: DispersionModel
    dispersion_pump: DispersionModel

    def __post_init__(self):
        for name in ("length_l", "chi", "cross_section_A"):
            as_real(getattr(self, name), name, 0.0, strict=True)


class FrequencyTriple(Record):
    """Pump, signal, idler centre frequencies with energy conservation: the exact
    sum ``omega_s + omega_i`` lies within half an ulp of ``omega_p``, as it does
    for every float sum that rounds to ``omega_p`` and every derived partner.
    """

    omega_p: float
    omega_s: float
    omega_i: float

    def __post_init__(self):
        for name in ("omega_p", "omega_s", "omega_i"):
            as_real(getattr(self, name), name, 0.0, strict=True)
        try:  # the exact residual; a partial sum past the double range means a far-off triple
            off = abs(math.fsum((self.omega_s, -self.omega_p, self.omega_i)))
        except OverflowError:
            off = math.inf
        if off > math.ulp(self.omega_p) / 2:
            raise ValueError(
                "omega_p must equal omega_s + omega_i to half an ulp of omega_p "
                f"(got {self.omega_p!r} vs {self.omega_s + self.omega_i!r})"
            )

    @classmethod
    def from_pump_and_signal(cls, omega_p: float, omega_s: float) -> "FrequencyTriple":
        return cls(omega_p, omega_s, omega_p - omega_s)


def transit_time_diff(crystal: CrystalParams, freqs: FrequencyTriple) -> float:
    """Signed transit-time difference tau0 = l/v_gI - l/v_gS in seconds.

    Positive when the signal traverses the crystal faster than the idler.
    """
    v_gs = group_velocity(crystal.dispersion_signal, freqs.omega_s)
    v_gi = group_velocity(crystal.dispersion_idler, freqs.omega_i)
    return crystal.length_l / v_gi - crystal.length_l / v_gs


def _bisect(f, xa: float, xb: float) -> float:
    """Root of ``f`` on [xa, xb] by bisection.

    Step for step the same as ``scipy.optimize.bisect`` with
    ``xtol=_BISECT_XTOL, rtol=_BISECT_RTOL, maxiter=_BISECT_MAXITER``: the
    same midpoints, stopping rule and returned bits, and the same exception
    types (ValueError for a NaN value or a same-sign bracket, RuntimeError
    after the last iteration).
    """

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue."
            )
        return fx

    fa = value(xa)
    fb = value(xb)
    if fa * fb > 0:
        raise ValueError("f(a) and f(b) must have different signs")
    if fa == 0:
        return xa
    if fb == 0:
        return xb
    dm = xb - xa
    for _ in range(_BISECT_MAXITER):
        dm *= 0.5
        xm = xa + dm
        fm = value(xm)
        if fm * fa >= 0:
            xa = xm
        if fm == 0 or abs(dm) < _BISECT_XTOL + _BISECT_RTOL * abs(xm):
            return xm
    raise RuntimeError(
        f"Failed to converge after {_BISECT_MAXITER} iterations, value is {xa}"
    )


def phase_match(
    crystal: CrystalParams,
    omega_p: float,
    bracket: tuple[float, float],
) -> FrequencyTriple:
    """Solve the collinear momentum-conservation condition for the signal.

    Finds omega_s in ``bracket`` with
    k_p(omega_p) = k_s(omega_s) + k_i(omega_p - omega_s)
    by bisection on the mismatch.  The bracket is first scanned on
    ``_SCAN_INTERVALS + 1`` points: if the mismatch is below tolerance
    everywhere the split is non-unique (``DegenerateDispersionError``); if it
    never changes sign there is no root to bracket (``NoSignChangeError``).  A
    bisection that hits its step cap or a NaN mismatch is a ``NonConvergenceError``.
    """
    omega_p = as_real(omega_p, "omega_p", 0.0, strict=True)
    lo, hi = (as_real(v, f"bracket[{i}]", 0.0, strict=True)
              for i, v in enumerate(_entries(bracket, "bracket", 2)))
    if not lo < hi < omega_p:
        raise ScenarioValidationError(
            f"bracket must satisfy 0 < lo < hi < omega_p = {omega_p!r}, got {bracket!r}")

    k_p = wavenumber(crystal.dispersion_pump, omega_p)
    tol = _MISMATCH_TOL_REL * abs(k_p)

    def mismatch(omega_s: float) -> float:
        return (
            k_p
            - wavenumber(crystal.dispersion_signal, omega_s)
            - wavenumber(crystal.dispersion_idler, omega_p - omega_s)
        )

    grid = _linspace(lo, hi, _SCAN_INTERVALS + 1)
    values = [mismatch(w) for w in grid]
    if all(abs(v) < tol for v in values):
        raise DegenerateDispersionError(
            "phase mismatch below tolerance over the whole bracket; "
            "the signal/idler split is non-unique, specify omega_s explicitly"
        )

    # A scan point whose mismatch is exactly 0 is a root; _bisect returns it as is.
    for i in range(_SCAN_INTERVALS):
        if values[i] * values[i + 1] <= 0.0:
            where = f"bisection on [{grid[i]:.6e}, {grid[i + 1]:.6e}]"
            try:
                root = _bisect(mismatch, grid[i], grid[i + 1])
            except OutOfRangeError:  # a model refusing a midpoint, as at a scan point
                raise
            except ValueError as exc:  # a NaN mismatch at a midpoint
                raise NonConvergenceError(f"{where}: {exc}") from None
            except RuntimeError:  # _bisect's iteration cap
                raise NonConvergenceError(
                    f"{where} did not converge in {_BISECT_MAXITER} steps") from None
            break
    else:
        raise NoSignChangeError(
            "phase mismatch does not change sign on the bracket "
            f"[{lo:.6e}, {hi:.6e}]"
        )
    if abs(mismatch(root)) > tol:
        raise NonConvergenceError(
            "bisection converged in omega_s but |mismatch| still exceeds "
            f"{_MISMATCH_TOL_REL:g} * k_p"
        )
    return FrequencyTriple.from_pump_and_signal(omega_p, root)
