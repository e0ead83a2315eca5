"""Periodic spectral machinery on the uniform unit-interval grid.

All curve data in this package lives on the grid s_k = k/N with period 1.
Smooth periodic samples are identified with their trigonometric interpolant,
and every operation here (differentiation, antiderivatives, off-grid
evaluation, resampling) is exact for that interpolant.  The one deliberate
exception is :func:`fd_derivative`, a plain second-order centered difference
kept around as an independent check on the spectral pipeline.

Convention for even N: the Nyquist mode is represented as a pure cosine,
cos(pi*N*s), which matches the samples and keeps the interpolant real.  Its
derivative term vanishes at grid points, so grid derivatives simply zero the
Nyquist bin.

Spectral chop: an :class:`Interpolant` keeps each spectrum up to its last
harmonic whose rfft magnitude exceeds eps * sqrt(N) * peak, with eps the
unit roundoff and peak the largest magnitude.  That is the roundoff floor
an N-point FFT leaves on data known to unit roundoff (the rule of Aurentz
and Trefethen, "Chopping a Chebyshev series", ACM TOMS 43, 2017); there is
no knob.  Dropping rfft coefficients c_k moves the interpolant by at most
(2/N) * sum |c_k| over the dropped k, on the grid and off it, and its q-th
derivative by at most (2/N) * sum (2 pi k)^q |c_k|.
"""

from __future__ import annotations

import numpy as np

TAU = 2.0 * np.pi
EPS = np.finfo(float).eps


def grid(n: int) -> np.ndarray:
    """Sample points s_k = k/n, k = 0..n-1."""
    if n < 4:
        raise ValueError("grid size must be at least 4, got %d" % n)
    return np.arange(n) / n


def loop_integral(values: np.ndarray) -> float:
    """Integral over one period; the trapezoid rule collapses to the mean."""
    return float(np.mean(values))


def derivative(values: np.ndarray) -> np.ndarray:
    """Grid samples of the interpolant's derivative."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    c = np.fft.rfft(values)
    k = np.arange(c.shape[0])
    c = c * (2j * np.pi * k)
    if n % 2 == 0:
        c[-1] = 0.0
    return np.fft.irfft(c, n)


def _coeffs(values: np.ndarray):
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    return n, np.fft.rfft(values)


def _weights(n: int, c: np.ndarray, orders) -> np.ndarray:
    """(orders * channels, 2K) real weights W such that W times the real
    view of the phase matrix exp(2 pi i k s), k < K, sums
    (2/n) Re(c_k (2 pi i k)^order exp(2 pi i k s)) for each truncated rfft
    row c and order: columns of W interleave (Re, -Im) of the coefficients.
    The mean, and the Nyquist cosine (c/n) cos(pi n s) when the rows are
    full length, enter as half harmonics."""
    keep = c.shape[1]
    coef = c.copy()
    coef[:, 0] *= 0.5
    if n % 2 == 0 and keep == n // 2 + 1:
        coef[:, -1] = 0.5 * coef[:, -1].real
    by_order = [coef]
    for _ in range(max(orders)):
        by_order.append(by_order[-1] * (2j * np.pi * np.arange(keep)))
    coef = np.concatenate([by_order[q] for q in orders])
    weights = np.empty((coef.shape[0], 2 * coef.shape[1]))
    weights[:, 0::2] = coef.real
    weights[:, 1::2] = -coef.imag
    return (2.0 / n) * weights


def evaluate(values: np.ndarray, s) -> np.ndarray:
    """Trigonometric interpolant of the samples, at arbitrary parameters."""
    return Interpolant(values).value(s)


def evaluate_derivative(values: np.ndarray, s) -> np.ndarray:
    """Derivative of the trigonometric interpolant at arbitrary parameters."""
    return Interpolant(values).derivative(s)


class Interpolant:
    """Reusable evaluator for one or more channels of periodic samples.

    ``values`` is one sample vector, or a (channels, N) stack of them; each
    channel may carry a linear ramp, ``drift`` * s, on top of its periodic
    part (the shape of an antiderivative such as z or w when its closure
    defect is nonzero).  The FFT is computed once and each spectrum is
    chopped at its noise floor (see the module docstring), so evaluation
    costs the true bandwidth of the data rather than the grid size.
    Evaluation unwraps the ramps, so it is valid for any real s.
    """

    def __init__(self, values: np.ndarray, drift=0.0):
        values = np.asarray(values, dtype=float)
        self.n = values.shape[-1]
        self.shape = values.shape[:-1]
        self.drift = np.zeros(self.shape) + drift
        if np.any(self.drift):
            values = values - self.drift[..., None] * grid(self.n)
        c = np.fft.rfft(values, axis=-1).reshape(-1, self.n // 2 + 1)
        # Each row keeps its harmonics through the last one above the floor
        # (the mean always stays).
        mag = np.abs(c)
        alive = mag > EPS * np.sqrt(self.n) * mag.max(axis=1, keepdims=True)
        alive[:, 0] = True
        self.kept = c.shape[1] - np.argmax(alive[:, ::-1], axis=1)
        for row, kept in zip(c, self.kept):
            row[kept:] = 0.0
        self._c = c[:, : self.kept.max()]
        self._weights = {}

    @classmethod
    def stack(cls, parts) -> "Interpolant":
        """One evaluator over the channels of single-channel ones (no FFT)."""
        out = cls.__new__(cls)
        out.n, out.shape = parts[0].n, (len(parts),)
        out.drift = np.array([float(p.drift) for p in parts])
        out.kept = np.concatenate([p.kept for p in parts])
        out._c = np.zeros((len(parts), int(np.max(out.kept))), dtype=complex)
        for row, p in zip(out._c, parts):
            row[: p._c.shape[1]] = p._c[0]
        out._weights = {}
        return out

    def value(self, s, order=0):
        """Derivative of the given order (0 is the value itself) at s.

        The result has shape channels + s.shape (a float for one channel
        and scalar s).  A tuple of orders stacks one such result per order
        along a new leading axis; every channel and every order comes from
        one phase matrix.
        """
        orders = order if isinstance(order, tuple) else (order,)
        weights = self._weights.get(orders)
        if weights is None:
            weights = self._weights[orders] = _weights(self.n, self._c, orders)
        s = np.asarray(s, dtype=float)
        flat = s.reshape(-1)
        k = np.arange(self._c.shape[1])
        phase = np.exp(2j * np.pi * flat[:, None] * k[None, :])
        out = (weights @ phase.view(float).T).reshape(len(orders), -1, flat.shape[0])
        for row, q in zip(out, orders):
            if q == 0:
                row += self.drift.reshape(-1, 1) * flat
            elif q == 1:
                row += self.drift.reshape(-1, 1)
        out = out.reshape((len(orders),) + self.shape + s.shape)
        if orders is not order:
            out = out[0]
        return float(out) if out.ndim == 0 else out

    def derivative(self, s, order=1):
        return self.value(s, order)


def antiderivative(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Grid samples of F(s) = integral of f from 0 to s, plus the mean drift.

    Returns (F, m) with F[k] = m*s_k + P(s_k) - P(0) where P is periodic and
    m is the full-period integral of f.  F[0] is exactly 0.  For even N the
    Nyquist mode integrates to a sine that vanishes at every grid point, so
    it drops out of the samples (off-grid callers want
    :func:`evaluate_antiderivative`).
    """
    n, c = _coeffs(values)
    mean = c[0].real / n
    k = np.arange(c.shape[0])
    d = np.zeros_like(c)
    d[1:] = c[1:] / (2j * np.pi * k[1:])
    if n % 2 == 0:
        d[-1] = 0.0
    p = np.fft.irfft(d, n)
    return mean * grid(n) + (p - p[0]), mean


def evaluate_antiderivative(values: np.ndarray, s) -> np.ndarray:
    """Integral of the interpolant from 0 to s, at arbitrary parameters."""
    n, c = _coeffs(values)
    f_samples, mean = antiderivative(values)
    s = np.asarray(s, dtype=float)
    out = Interpolant(f_samples, drift=mean).value(s)
    if n % 2 == 0:
        out = out + (c[n // 2].real / n) * np.sin(np.pi * n * s) / (np.pi * n)
    return out if s.ndim else float(out)


def fd_derivative(values: np.ndarray, drift: float = 0.0) -> np.ndarray:
    """Second-order centered difference, wrapping around the period.

    ``drift`` is the linear rate hidden in non-periodic samples such as an
    antiderivative with nonzero mean: the ramp drift*s is removed before
    differencing the periodic remainder and its exact rate is added back.
    Deliberately not spectral; see the module docstring.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    p = values - drift * grid(n)
    return (np.roll(p, -1) - np.roll(p, 1)) * (0.5 * n) + drift


def resample(values: np.ndarray, m: int) -> np.ndarray:
    """Samples of the band-limited projection of the interpolant on an m-grid.

    Upsampling is exact (the interpolant is unchanged); downsampling keeps
    the harmonics the coarse grid can represent and drops the rest.  The
    Nyquist bin needs care in both directions because it carries a half-share
    cosine in the real convention.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if m == n:
        return values.copy()
    if m < 4:
        raise ValueError("resample target must be at least 4, got %d" % m)
    c = np.fft.rfft(values)
    d = np.zeros(m // 2 + 1, dtype=complex)
    if m > n:
        d[: c.shape[0]] = c
        if n % 2 == 0:
            d[n // 2] *= 0.5  # old Nyquist splits into a genuine +/- pair
    else:
        d[:] = c[: d.shape[0]]
        if m % 2 == 0:
            d[-1] = 2.0 * c[m // 2].real  # only the cosine half survives
    return np.fft.irfft(d * (m / n), m)
