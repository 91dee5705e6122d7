"""Small numerical building blocks: grid checks and budget, mode (comb) sums."""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import GridTooCoarseError, ScenarioValidationError
from .names import as_count, inputs

_WORK_ELEMENTS = 1 << 20  # largest complex work array of _cos_series
MAX_GRID_POINTS = 1 << 25  # largest sampling grid any command builds
POINTS_PER_GAMMA_MIN = 16.0  # floor of every grid that samples a line of width gamma
# gamma for which (gamma/2)^2 and a Lorentzian line's peak (2/gamma)^2, times
# MAX_GRID_POINTS lines, stay finite and normal: 8.6e-151 to 4.6e150 rad/s.
_LINE_ROOT = math.sqrt(sys.float_info.max / MAX_GRID_POINTS)
GAMMA_RANGE = (2.0 / _LINE_ROOT, 2.0 * _LINE_ROOT)


def grid_points(points: int | None, steps: float, source: str, sides: int = 1) -> int:
    """``points``, else ``sides * ceil(steps) + 1``; refused before allocating if
    past ``MAX_GRID_POINTS``, naming ``--points`` or ``source``, its inputs.
    """
    if points is not None:
        steps, sides, source = as_count(points, "points (--points)", 2) - 1, 1, "--points"
    if not steps <= (MAX_GRID_POINTS - 1) // sides:  # also refuses inf and nan
        raise ScenarioValidationError(
            f"the grid from {source} would hold more than {MAX_GRID_POINTS} points")
    return sides * math.ceil(steps) + 1


def symmetric_grid(half: float, n: int) -> np.ndarray:
    """``np.linspace(-half, half, n)`` made an exact mirror about 0: its first
    n//2 points are the last n//2 negated, and an odd grid's centre is 0.
    linspace's own halves differ in the last bit at about 60% of points."""
    grid = np.linspace(-half, half, n)
    h = n // 2
    grid[:h] = -grid[::-1][:h]
    if n % 2:
        grid[h] = 0.0
    return grid


def mirror_count(axis: np.ndarray) -> int:
    """h = n//2 if ``axis[:h]`` equals ``-axis[n-h:]`` reversed, else 0: an even
    kernel evaluates ``axis[h:]`` and mirrors it onto ``axis[:h]``.  Compared as
    floats, not bits: -0.0 == 0.0, so [0.0, 0.0] counts; no increasing axis does."""
    h = axis.size // 2
    return h if np.array_equal(axis[:h], -axis[::-1][:h]) else 0


def check_linewidth(gamma: float) -> None:
    """Refuse gamma outside ``GAMMA_RANGE``, naming cavity.loss_rate_gamma: the
    spectrum, g1 and psi, evaluated in rad/s, would over- or underflow."""
    low, high = GAMMA_RANGE
    if not low <= gamma <= high:
        raise ScenarioValidationError(
            f"{inputs('gamma')}: gamma = {gamma!r} rad/s is outside "
            f"[{low:.2g}, {high:.2g}], where its Lorentzian lines stay doubles")


def require_points(per_unit: float, minimum: float, unit: str) -> None:
    """Refuse a grid with fewer than ``minimum`` points per ``unit``."""
    if per_unit < minimum:
        raise GridTooCoarseError(
            f"only {per_unit:.3g} grid points per {unit}; at least {minimum:g} required")


def ensure_uniform_axis(axis: np.ndarray, what: str = "axis") -> float:
    """Check a grid is strictly increasing and uniform; return the spacing.

    One pass accepts a grid whose spacing, from its endpoints, is finite and
    positive and whose steps all differ from it by at most 1e-9 of it plus 4
    ulp of max(|x_0|, |x_n-1|), the points' own rounding, where that rounding
    is under half the spacing, so that every step is positive (NaN and inf
    fail that comparison).  Any other grid is refused by the first check it
    fails: two points, finite, increasing, span a double, uniform.
    """
    axis = np.asarray(axis, dtype=float)
    if axis.ndim != 1 or axis.size < 2:
        raise ScenarioValidationError(f"{what} must be a 1-d grid with at least two points")
    with np.errstate(over="ignore", invalid="ignore"):
        spacing = float(axis[-1] - axis[0]) / (axis.size - 1)
        steps = np.diff(axis)
        steps -= spacing
    np.abs(steps, out=steps)
    rounding = 4.0 * math.ulp(max(abs(axis[0]), abs(axis[-1])))
    tolerance = 1e-9 * spacing + (rounding if rounding < 0.5 * spacing else 0.0)
    if 0.0 < spacing < math.inf and steps.max() <= tolerance:
        return spacing
    if not np.all(np.isfinite(axis)):
        raise ScenarioValidationError(f"{what} must be finite")
    if not np.all(axis[1:] > axis[:-1]):
        raise ScenarioValidationError(f"{what} must be strictly increasing")
    if spacing == math.inf:  # each step of an increasing grid is at most its span
        raise ScenarioValidationError(f"{what}: its span or a step overflows a double")
    raise ScenarioValidationError(f"{what} must be uniformly spaced")  # all the one pass left


def _expi(phase: np.ndarray) -> np.ndarray:
    """exp(i*phase) for real ``phase``, as cos and sin in a new array, 0-d for a
    scalar.  ``np.exp(1j * phase)`` has its bits and speed, but returns a numpy
    scalar for a scalar phase, whose complex products round otherwise than an
    array's (FMA); and cos and sin give the same bits at every SIMD level."""
    out = np.empty(np.shape(phase), dtype=complex)
    np.cos(phase, out=out.real)
    imag = np.sin(phase, out=out.imag)
    imag += 0.0  # a phase of -0 gives a sine of +0, as in 1j * phase
    return out


def _cis(x: float, q: np.ndarray) -> np.ndarray:
    """exp(i*x*q) for integer-valued q, as a new array.

    x is split so that its leading part times q is exact in double
    precision; sin and cos then see an exact argument, and only the trailing
    product (x - lead)*q is rounded.  That product is at most ulp(x)*Q*|q|
    for Q = max|q|, so its rounding moves the phase by at most
    eps*ulp(x)*Q*|q|/2, past the rounding of cos, sin and one complex
    product (1.25 eps in all).  That is below eps while ulp(x)*Q^2 < 2; g1's
    default call on detector_averaged.json reaches 4.4 (Q = 1.3e10).
    """
    bits = int(np.max(np.abs(q), initial=0)).bit_length()
    unit = math.ldexp(1.0, max(math.frexp(x)[1] - 53 + bits, -1074))
    lead = round(x / unit) * unit
    out = _expi(lead * q)
    return np.multiply(out, _expi((x - lead) * q), out=out)


def _fft_length(m1: int, n: int) -> int:
    """FFT length L of ``_cos_series`` for M+1 = m1 terms and n outputs: the
    power of two with the least (blocks + 1) * L * log2(L), the blocks'
    transforms plus the chirp's, where a block holds L - M outputs.  L runs
    from the shortest that holds min(n, M+1) outputs to 32 times it, within
    ``_WORK_ELEMENTS`` unless the shortest is not.
    """
    low = (m1 + min(n, m1) - 2).bit_length()

    def work(p: int) -> int:
        blocks = -(-n // min(n, (1 << p) - m1 + 1))
        return (blocks + 1) * p << p

    powers = [p for p in range(low, low + 6) if p == low or 1 << p <= _WORK_ELEMENTS]
    return 1 << min(powers, key=work)


def _split_cis(x: float, k: np.ndarray, m1: int, out: np.ndarray) -> np.ndarray:
    """exp(i*x*m*k) for a column k and m < m1, into the C-contiguous rows of
    ``out`` (a multiple of r long), as exp(i*x*hi*k) * exp(i*x*lo*k) for
    m = hi + lo, hi a multiple of r = 2**(bits(m1)//2), about sqrt(m1)."""
    r = 1 << m1.bit_length() // 2
    m = np.arange(-(-m1 // r) * r, dtype=float)
    table = out.reshape(k.size, -1, r)[:, : m.size // r]
    lo = _cis(x, m[:r] * k)[:, None]
    return np.multiply(_cis(x, m[::r] * k)[:, :, None], lo, out=table)


def _cos_series(coef, theta0: float, dtheta: float, n: int) -> np.ndarray:
    """S_k = Re sum_{m=0}^{M} coef[m] * exp(i*m*(theta0 + k*dtheta)), k = 0..n-1.

    For real ``coef`` the cosine series sum_m coef[m]*cos(m*theta_k); ``coef``
    may also be complex.  Chirp-z transform (Bluestein): m*k = (m^2 + k^2 -
    (k-m)^2)/2 turns the sum into an FFT convolution with the chirp c(-l),
    c(l) = exp(i*dtheta*l^2/2) (one table gives it and the m^2 and k^2
    factors), at O((n + M) log M) cost in place of O(n*M).  The output runs
    in blocks of L - M points, L = ``_fft_length(M+1, n)``, in chunks of at
    most ``_WORK_ELEMENTS`` elements transformed in place in one work array;
    one transform of the chirp, times the inverse's 1/L (exact: L is a power
    of two), serves all.  Block b starts at theta0 + k_b*dtheta, with the
    phase exp(i*m*theta0) * exp(i*dtheta*m*k_b) (``_split_cis``).  Every
    factor goes through ``_cis``, so the error does not grow with the phase;
    the split adds one rounding.  Needs n >= 1 and finite theta0 and dtheta.
    """
    coef = np.asarray(coef)
    m1 = coef.size
    size = _fft_length(m1, n)
    block = min(n, size - m1 + 1)
    chirp = _cis(0.5 * dtheta, np.arange(max(m1, block), dtype=float) ** 2)
    chirp_fft = np.fft.fft(np.conj(chirp[abs(np.arange(1 - m1, block))]), size)
    chirp_fft *= 1.0 / size
    pre = coef * _cis(theta0, np.arange(m1, dtype=float)) * chirp[:m1]
    starts = np.arange(0, n, block, dtype=float)
    out = np.empty((starts.size, block))
    rows = min(starts.size, max(1, _WORK_ELEMENTS // size))
    work = np.empty((rows, size), dtype=complex)
    # numpy's complex product rounds through an FMA, so a*b and b*a can
    # differ in the last bit: each product keeps its operand order.
    for first in range(0, starts.size, rows):
        k_b = starts[first : first + rows, None]
        chunk = work[: k_b.size]
        _split_cis(dtheta, k_b, m1, chunk)
        np.multiply(pre, chunk[:, :m1], out=chunk[:, :m1])
        chunk[:, m1:] = 0.0
        np.fft.fft(chunk, out=chunk)
        np.multiply(chunk, chirp_fft, out=chunk)
        np.fft.ifft(chunk, norm="forward", out=chunk)
        conv = chunk[:, m1 - 1 : m1 - 1 + block]
        out[first : first + k_b.size] = np.multiply(chirp[:block], conv, out=conv).real
    return out.ravel()[:n]
