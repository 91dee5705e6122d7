"""Small numerical building blocks: grid checks and budget, mode (comb) sums."""

from __future__ import annotations

import math

import numpy as np

from .errors import ScenarioValidationError

_WORK_ELEMENTS = 1 << 20  # largest complex work array of _cos_series
MAX_GRID_POINTS = 1 << 25  # largest sampling grid any command builds


def grid_points(points: int | None, steps: float, source: str, sides: int = 1) -> int:
    """``points``, else ``sides * ceil(steps) + 1``; refused before allocating if
    past ``MAX_GRID_POINTS``, naming ``--points`` or ``source``, the flag at fault.
    """
    if points is not None:
        steps, sides, source = points - 1, 1, "--points"
    if not steps <= (MAX_GRID_POINTS - 1) // sides:  # also refuses inf and nan
        raise ScenarioValidationError(
            f"the grid from {source} would hold more than {MAX_GRID_POINTS} points")
    return sides * math.ceil(steps) + 1


def ensure_uniform_axis(axis: np.ndarray, what: str = "axis") -> float:
    """Check a grid is strictly increasing and uniform; return the spacing.

    One pass accepts a grid whose spacing, from its endpoints, is finite and
    positive and whose steps all differ from it by at most 1e-9 of it (NaN
    and inf fail that comparison); any other grid runs the four checks in
    turn, and the first to fail names the error.
    """
    axis = np.asarray(axis, dtype=float)
    if axis.ndim == 1 and axis.size >= 2:
        with np.errstate(over="ignore", invalid="ignore"):
            spacing = float(axis[-1] - axis[0]) / (axis.size - 1)
            steps = np.diff(axis)
            steps -= spacing
        np.abs(steps, out=steps)
        if 0.0 < spacing < math.inf and steps.max() <= 1e-9 * spacing:
            return spacing
    if axis.ndim != 1 or axis.size < 2:
        raise ValueError(f"{what} must be a 1-d grid with at least two points")
    if not np.all(np.isfinite(axis)):
        raise ValueError(f"{what} must be finite")
    steps = np.diff(axis)
    if np.any(steps <= 0):
        raise ValueError(f"{what} must be strictly increasing")
    spacing = float(axis[-1] - axis[0]) / (axis.size - 1)
    if np.max(np.abs(steps - spacing)) > 1e-9 * abs(spacing):
        raise ValueError(f"{what} must be uniformly spaced")
    return spacing


def _expi(phase: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(i*phase) for real ``phase``, bit for bit ``np.exp(1j * phase)`` but
    faster: cos and sin written into the two parts of ``out`` (new if None).
    As in ``1j * phase``, a phase of -0 gives a sine of +0.
    """
    if out is None:
        out = np.empty(np.shape(phase), dtype=complex)
    np.cos(phase, out=out.real)
    imag = out.imag
    np.sin(phase, out=imag)
    imag += 0.0
    return out


def _cis(x: float, q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(i*x*q) for integer-valued q, into ``out`` (a new array if None).

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
    phase = lead * q
    out = _expi(phase, out)
    np.multiply(x - lead, q, out=phase)
    return np.multiply(out, _expi(phase), out=out)


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


def _cos_series(coef, theta0: float, dtheta: float, n: int) -> np.ndarray:
    """S_k = Re sum_{m=0}^{M} coef[m] * exp(i*m*(theta0 + k*dtheta)), k = 0..n-1.

    For real ``coef`` this is the cosine series sum_m coef[m]*cos(m*theta_k);
    ``coef`` may also be complex.

    Chirp-z transform (Bluestein): m*k = (m^2 + k^2 - (k-m)^2)/2 turns the
    sum into an FFT convolution with the chirp exp(-i*dtheta*l^2/2), at
    O((n + M) log M) cost in place of O(n*M).  The output runs in blocks of
    L - M points, L = ``_fft_length(M+1, n)``, so a grid much longer than M
    gets fewer, longer transforms; one transform of the chirp, times the
    inverse transform's 1/L (exact: L is a power of two), serves every block.
    Block b starts at theta0 + k_b*dtheta, with the phase
    exp(i*m*theta0) * exp(i*dtheta*m*k_b); every phase goes through ``_cis``,
    so the error does not grow with the chirp phase.  Blocks are processed
    in chunks of at most ``_WORK_ELEMENTS`` elements, each transformed in
    place in one work array.  Needs n >= 1 and finite theta0 and dtheta.
    """
    coef = np.asarray(coef)
    m1 = coef.size
    size = _fft_length(m1, n)
    block = min(n, size - m1 + 1)
    m = np.arange(m1, dtype=float)
    lags = np.arange(1 - m1, block, dtype=float)
    chirp_fft = np.fft.fft(np.conj(_cis(0.5 * dtheta, lags * lags)), size)
    chirp_fft *= 1.0 / size
    pre = coef * _cis(theta0, m) * _cis(0.5 * dtheta, m * m)
    post = _cis(0.5 * dtheta, lags[m1 - 1 :] ** 2)
    starts = np.arange(0, n, block, dtype=float)
    out = np.empty((starts.size, block))
    rows = min(starts.size, max(1, _WORK_ELEMENTS // size))
    work = np.empty((rows, size), dtype=complex)
    # numpy's complex product rounds through an FMA, so a*b and b*a can
    # differ in the last bit: each product keeps its operand order.
    for first in range(0, starts.size, rows):
        k_b = starts[first : first + rows, None]
        chunk = work[: k_b.size]
        head = _cis(dtheta, m * k_b, out=chunk[:, :m1])
        np.multiply(pre, head, out=head)
        chunk[:, m1:] = 0.0
        np.fft.fft(chunk, out=chunk)
        np.multiply(chunk, chirp_fft, out=chunk)
        np.fft.ifft(chunk, norm="forward", out=chunk)
        conv = chunk[:, m1 - 1 : m1 - 1 + block]
        out[first : first + k_b.size] = np.multiply(post, conv, out=conv).real
    return out.ravel()[:n]
