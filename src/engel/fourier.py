"""Periodic spectral machinery on the uniform unit-interval grid.

All curve data in this package lives on the grid s_k = k/N with period 1.
Smooth periodic samples are identified with their trigonometric interpolant,
and every operation here (differentiation, antiderivatives and off-grid
evaluation) is exact for that interpolant.

Every grid size N is a power of two, at least 16; check_size holds that
rule, and every entry point here that takes a size or samples applies it.
The Nyquist mode is represented as a pure cosine, cos(pi*N*s), which
matches the samples and keeps the interpolant real.  Its derivative term
vanishes at grid points, so grid derivatives simply zero the Nyquist bin.

Spectral chop: an :class:`Interpolant` keeps each spectrum up to its last
harmonic whose rfft magnitude exceeds eps * sqrt(N) * peak, with eps the
unit roundoff and peak the largest magnitude.  That is the roundoff floor
an N-point FFT leaves on data known to unit roundoff (the rule of Aurentz
and Trefethen, "Chopping a Chebyshev series", ACM TOMS 43, 2017); there is
no knob.  Dropping rfft coefficients c_k moves the interpolant by at most
(2/N) * sum |c_k| over the dropped k, on the grid and off it, and its q-th
derivative by at most (2/N) * sum (2 pi k)^q |c_k|.  The same sum over the
kept k bounds the q-th derivative of the interpolant itself everywhere;
:meth:`Interpolant.bound` returns it.
"""

from __future__ import annotations

import numpy as np

TAU = 2.0 * np.pi
EPS = np.finfo(float).eps


def check_size(n: int) -> int:
    """n itself, once it passes as a grid size; else ValueError."""
    if n < 16 or n & (n - 1):
        raise ValueError("grid size must be a power of two >= 16, got %d" % n)
    return n


def grid(n: int) -> np.ndarray:
    """Sample points s_k = k/n, k = 0..n-1."""
    return np.arange(check_size(n)) / n


def derivative(values: np.ndarray) -> np.ndarray:
    """Grid samples of the interpolant's derivative."""
    values = np.asarray(values, dtype=float)
    n = check_size(values.shape[0])
    c = np.fft.rfft(values)
    k = np.arange(c.shape[0])
    c = c * (2j * np.pi * k)
    c[-1] = 0.0
    return np.fft.irfft(c, n)


def _halved(n: int, c: np.ndarray) -> np.ndarray:
    """A copy of the truncated rfft rows c with the mean, and the Nyquist
    cosine (c/n) cos(pi n s) when the rows are full length, at half share."""
    coef = c.copy()
    coef[:, 0] *= 0.5
    if c.shape[1] == n // 2 + 1:
        coef[:, -1] = 0.5 * coef[:, -1].real
    return coef


def _weights(n: int, c: np.ndarray, orders) -> np.ndarray:
    """(orders * channels, 2K) real weights W such that W times the real
    view of the phase matrix exp(2 pi i k s), k < K, sums
    (2/n) Re(c_k (2 pi i k)^order exp(2 pi i k s)) for each truncated rfft
    row c and order: columns of W interleave (Re, -Im) of the coefficients.
    The mean and the Nyquist cosine enter as half harmonics (_halved)."""
    keep = c.shape[1]
    coef = _halved(n, c)
    by_order = [coef]
    for _ in range(max(orders)):
        by_order.append(by_order[-1] * (2j * np.pi * np.arange(keep)))
    coef = np.concatenate([by_order[q] for q in orders])
    weights = np.empty((coef.shape[0], 2 * coef.shape[1]))
    weights[:, 0::2] = coef.real
    weights[:, 1::2] = -coef.imag
    return (2.0 / n) * weights


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
        self.n = check_size(values.shape[-1])
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
        self._c = c[:, : self.kept.max()].copy()
        self._weights = {}
        self._rows = {}

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
        out = (weights @ phase.view(float).T).reshape(len(orders), len(self._c), flat.shape[0])
        for row, q in zip(out, orders):
            if q == 0:
                row += self.drift.reshape(-1, 1) * flat
            elif q == 1:
                row += self.drift.reshape(-1, 1)
        out = out.reshape((len(orders),) + self.shape + s.shape)
        if orders is not order:
            out = out[0]
        return float(out) if out.ndim == 0 else out

    def samples(self, order=0):
        """Grid samples of the periodic part's order-th derivative (no phase
        matrix).  Each order's row is computed once and shared read-only:
        copy it before writing."""
        out = self._rows.get(order)
        if out is None:
            k = np.arange(self._c.shape[1])
            out = np.fft.irfft(self._c * (2j * np.pi * k) ** order, self.n)
            out = self._rows[order] = out.reshape(self.shape + (self.n,))
            out.setflags(write=False)
        return out

    def bound(self, order):
        """Bound on |value(s, order)| over all real s, per channel: (2/N) sum
        (2 pi k)^q |c_k| over the kept harmonics (mean and Nyquist at half
        share).  It covers the periodic part: a drift adds |drift * s| to
        values, |drift| to first derivatives, nothing to higher ones."""
        k = np.arange(self._c.shape[1])
        terms = np.abs(_halved(self.n, self._c)) * (TAU * k) ** order
        out = (2.0 / self.n) * terms.sum(axis=1).reshape(self.shape)
        return float(out) if out.ndim == 0 else out


def antiderivative(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Grid samples of F(s) = integral of f from 0 to s, plus the mean drift.

    Returns (F, m) with F[k] = m*s_k + P(s_k) - P(0) where P is periodic and
    m is the full-period integral of f.  F[0] is exactly 0.  The Nyquist
    mode integrates to a sine that vanishes at every grid point, so it
    drops out of the samples (off-grid callers want
    :func:`antiderivative_evaluator`).
    """
    values = np.asarray(values, dtype=float)
    n = check_size(values.shape[0])
    c = np.fft.rfft(values)
    mean = c[0].real / n
    k = np.arange(c.shape[0])
    d = np.zeros_like(c)
    d[1:] = c[1:] / (2j * np.pi * k[1:])
    d[-1] = 0.0
    p = np.fft.irfft(d, n)
    return mean * grid(n) + (p - p[0]), mean


def antiderivative_evaluator(values: np.ndarray):
    """The integral of the interpolant from 0 to s, as a function of real s
    (a float, or an array of them).

    The FFTs run once, here: the function holds the Interpolant of the
    antiderivative samples and the Nyquist sine they miss.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    f_samples, mean = antiderivative(values)
    interp = Interpolant(f_samples, drift=mean)
    nyquist = np.fft.rfft(values)[-1].real / n
    return lambda s: interp.value(s) + nyquist * np.sin(np.pi * n * s) / (np.pi * n)
