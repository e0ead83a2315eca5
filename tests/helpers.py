"""Hand-derived closed forms shared by the test modules.

Everything here was worked out by hand from products of sines and
cosines; nothing below calls into the package's integration code, so
these serve as independent oracles for it.

The main object is the "mirror" family

    x(s) = cos(2 pi s) - cos(6 pi s) + beta (sin(2 pi s) + sin(6 pi s))
    y(s) = sin(10 pi s)

which satisfies gamma(s + 1/2) = (-x, -y, z)(s).  Both closure integrals
vanish identically in beta, the space curve meets itself at the pair
(0, 1/2) for every beta, and the w-gap across that pair is exactly zero
when beta = 0 (every term of z x' is then a cosine, and full cosines
integrate to zero over half a period).
"""

import functools
import math
import os
from fractions import Fraction

import numpy as np

TAU = 2.0 * np.pi


def mirror_x(s, beta=0.0):
    s = np.asarray(s, dtype=float)
    return (np.cos(TAU * s) - np.cos(3 * TAU * s)
            + beta * (np.sin(TAU * s) + np.sin(3 * TAU * s)))


def mirror_y(s):
    s = np.asarray(s, dtype=float)
    return np.sin(5 * TAU * s)


def mirror_xp(s, beta=0.0):
    s = np.asarray(s, dtype=float)
    return (-TAU * np.sin(TAU * s) + 3 * TAU * np.sin(3 * TAU * s)
            + beta * (TAU * np.cos(TAU * s) + 3 * TAU * np.cos(3 * TAU * s)))


def mirror_yp(s):
    s = np.asarray(s, dtype=float)
    return 5 * TAU * np.cos(5 * TAU * s)


def mirror_z(s, beta=0.0):
    """Antiderivative of y x' with z(0) = 0, expanded by hand.

    y x' = -pi cos4 + pi cos6 + 3 pi cos2 - 3 pi cos8
           + beta pi (sin6 + sin4 + 3 sin8 + 3 sin2)
    where cosk, sink abbreviate cos/sin(2 pi k s).
    """
    s = np.asarray(s, dtype=float)
    base = (-np.sin(4 * TAU * s) / 8.0
            + np.sin(6 * TAU * s) / 12.0
            + 3.0 * np.sin(2 * TAU * s) / 4.0
            - 3.0 * np.sin(8 * TAU * s) / 16.0)
    if beta:
        base = base + beta * (
            (1.0 - np.cos(6 * TAU * s)) / 12.0
            + (1.0 - np.cos(4 * TAU * s)) / 8.0
            + 3.0 * (1.0 - np.cos(8 * TAU * s)) / 16.0
            + 3.0 * (1.0 - np.cos(2 * TAU * s)) / 4.0
        )
    return base


def mirror_w(s):
    """Antiderivative of z x' with w(0) = 0, for beta = 0 only.

    z x' = (9/8) pi cos1 + (9/8) pi cos3 - (145/48) pi cos5
           + (31/48) pi cos7 - (7/16) pi cos9 + (9/16) pi cos11.
    """
    s = np.asarray(s, dtype=float)
    return (9.0 / 16.0 * np.sin(TAU * s)
            + 3.0 / 16.0 * np.sin(3 * TAU * s)
            - 29.0 / 96.0 * np.sin(5 * TAU * s)
            + 31.0 / 672.0 * np.sin(7 * TAU * s)
            - 7.0 / 288.0 * np.sin(9 * TAU * s)
            + 9.0 / 352.0 * np.sin(11 * TAU * s))


class StandardStructures:
    """The ambient plane fields, fixed once and for all.

    On R^4 the rank-2 distribution is cut out by dz - y dx = 0 and
    dw - z dx = 0 and framed by e1 = d/dx + y d/dz + z d/dw, e2 = d/dy.
    Forgetting w leaves the contact structure ker(dz - y dx) on R^3 with
    the frame (d/dx + y d/dz, d/dy).  A velocity satisfying both equations
    has frame coordinates equal to (x', y') on the nose.
    """

    @staticmethod
    def e1(y: float, z: float) -> np.ndarray:
        return np.array([1.0, 0.0, y, z])

    @staticmethod
    def e2() -> np.ndarray:
        return np.array([0.0, 1.0, 0.0, 0.0])

    @staticmethod
    def contact_e1(y: float) -> np.ndarray:
        return np.array([1.0, 0.0, y])

    @staticmethod
    def contact_e2() -> np.ndarray:
        return np.array([0.0, 1.0, 0.0])

    @staticmethod
    def frame_coordinates(velocity, y: float, z: float):
        """Split a 4-velocity as a*e1 + b*e2; returns (a, b, residual).

        The residual is the sup-norm defect of the reconstruction; it
        vanishes exactly when the velocity is horizontal at (y, z).
        """
        v = np.asarray(velocity, dtype=float)
        a, b = float(v[0]), float(v[1])
        recon = a * StandardStructures.e1(y, z) + b * StandardStructures.e2()
        return a, b, float(np.max(np.abs(v - recon)))


# A closed loop whose front has exactly one transverse crossing, at the
# parameter pair (1/4, 3/4) and position (0, 0), with slopes -1 and +1:
#     x = cos(2 pi s), y = sin(6 pi s),
#     z = int y dx = -sin(4 pi s)/4 + sin(8 pi s)/8.
def fish_arrays(n):
    s = np.arange(n) / n
    x = np.cos(TAU * s)
    y = np.sin(3 * TAU * s)
    z = -np.sin(2 * TAU * s) / 4.0 + np.sin(4 * TAU * s) / 8.0
    return x, y, z


# A closed loop with no front crossings and no space-curve coincidences:
#     x = cos(2 pi s), y = sin(4 pi s),
#     z = -sin(2 pi s)/2 + sin(6 pi s)/6.
def plain_arrays(n):
    s = np.arange(n) / n
    x = np.cos(TAU * s)
    y = np.sin(2 * TAU * s)
    z = -np.sin(TAU * s) / 2.0 + np.sin(3 * TAU * s) / 6.0
    return x, y, z


def hand_loop(g, z, dz, w, dw):
    """The loop HorizontalLoop(g) with z, its defect dz, w and its defect
    dw assigned in place of the integrals it would read: a test double
    for raw data (exact closed forms, quadrature fixtures, deliberately
    open or nan defects).  z and w are kept as read-only float copies,
    like the lift's own arrays."""
    from engel.curves import HorizontalLoop

    loop = HorizontalLoop(g)
    loop.z, loop.w = (np.array(a, dtype=float) for a in (z, w))
    loop.z.setflags(write=False)
    loop.w.setflags(write=False)
    loop.closure_defect_z, loop.closure_defect_w = dz, dw
    return loop


def mirror_loop(n, beta=0.0):
    """The mirror family's Legendrian loop, with its exact z samples: a
    hand_loop whose w is zero and whose w defect is nan, so that it
    never counts as closed."""
    from engel.curves import LegendrianGenerator

    s = np.arange(n) / n
    g = LegendrianGenerator(mirror_x(s, beta), mirror_y(s))
    return hand_loop(g, mirror_z(s, beta), 0.0, np.zeros(n), float("nan"))


def raw_loop(x, y, z, defect=0.0):
    from engel.curves import LegendrianGenerator

    g = LegendrianGenerator(x, y)
    return hand_loop(g, z, defect, np.zeros(g.n), float("nan"))


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def move_frames(g, move):
    from engel.homotopy import _BUILDERS, _path, _step_count
    k = _step_count(move)
    return [g, *_path(k, _BUILDERS[move.kind](g, move, k, None), 0)]


def golden_text(name):
    """The text of a file under tests/golden, newlines untranslated."""
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as handle:
        return handle.read()


def assert_channels_bitwise_equal(stacked, singles):
    """Row i of a multi-channel Interpolant holds exactly the bits of the
    single-channel singles[i]: its kept count, drift and coefficients."""
    for row, single in enumerate(singles):
        width = single._c.shape[1]
        assert int(stacked.kept[row]) == int(single.kept[0])
        assert stacked.drift[row].tobytes() == np.float64(single.drift).tobytes()
        assert stacked._c[row, :width].tobytes() == single._c[0].tobytes()
        assert not stacked._c[row, width:].any()


def count_ffts(monkeypatch):
    """A dict whose "ffts" counts the np.fft.rfft and irfft calls made
    from now on, by the package or anyone else."""
    calls = {"ffts": 0}
    for name in ("rfft", "irfft"):
        real = getattr(np.fft, name)

        def counted(*args, _real=real, **kwargs):
            calls["ffts"] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def count_z_interps(monkeypatch):
    """A dict counting, from now on, the z interpolants made
    ("z_interp"): the work of placing cusps in (x, z), which counting
    them by orientation does not need."""
    from engel import curves

    calls = {"z_interp": 0}
    real_z = curves.HorizontalLoop.z_interp.func

    def z_interp(loop):
        calls["z_interp"] += 1
        return real_z(loop)

    prop = functools.cached_property(z_interp)
    prop.__set_name__(curves.HorizontalLoop, "z_interp")
    monkeypatch.setattr(curves.HorizontalLoop, "z_interp", prop)
    return calls


def csv_repr_table(loop):
    """The CSV table s,x,y,z,w of one loop, built one value at a time as
    repr(float(v)): the direct form of what the package's CSV writer
    must produce."""
    n = loop.n
    table = "s,x,y,z,w\n"
    for k in range(n):
        values = (k / n, loop.x[k], loop.y[k], loop.z[k], loop.w[k])
        table += ",".join(repr(float(v)) for v in values) + "\n"
    return table


def dense_crossing_hits(q, exclude):
    """The all-pairs proper-intersection test between the segments
    q_i q_{i+1} of a closed polyline: every (i, j) cell at once, then the
    cells i < j at least `exclude` apart around the loop, row-major, as
    (i, j, d1, d2, d3, d4)."""
    m = len(q)
    q_next = np.roll(q, -1, axis=0)
    e = q_next - q

    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    ca = q[None, :, :] - q[:, None, :]  # C - A at [i, j]
    d1 = cross(e[:, None, :], ca)
    d2 = cross(e[:, None, :], q_next[None, :, :] - q[:, None, :])  # D - A
    d3 = cross(e[None, :, :], -ca)  # cross(D - C, A - C)
    d4 = cross(e[None, :, :], q_next[:, None, :] - q[None, :, :])
    hit = (d1 * d2 < 0.0) & (d3 * d4 < 0.0)
    i, j = np.nonzero(hit)
    keep = (j > i) & (np.minimum(j - i, m - (j - i)) >= exclude)
    i, j = i[keep], j[keep]
    return i, j, d1[i, j], d2[i, j], d3[i, j], d4[i, j]


# Operations that only the tests use, kept here rather than in the package.


def trig_series_derivative(f, s):
    """Derivative of a TrigSeries, harmonic by harmonic."""
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    for k, a in f.cos.items():
        out -= a * TAU * k * np.sin(TAU * k * s)
    for k, b in f.sin.items():
        out += b * TAU * k * np.cos(TAU * k * s)
    return out if s.ndim else float(out)


def trig_series_combined(f, other, factor=1.0):
    """The TrigSeries f + factor * other, pruned."""
    from engel.curves import TrigSeries

    cos = dict(f.cos)
    sin = dict(f.sin)
    for k, v in other.cos.items():
        cos[k] = cos.get(k, 0.0) + factor * v
    for k, v in other.sin.items():
        sin[k] = sin.get(k, 0.0) + factor * v
    return TrigSeries(f.constant + factor * other.constant, cos, sin).pruned()


def orientation_reverse(loop):
    """The same horizontal loop traversed via s -> 1 - s; negates rot,
    keeps the margin."""
    from engel.curves import LegendrianGenerator
    from engel.errors import NotClosed

    if not loop.closed:
        raise NotClosed("orientation reversal is defined for closed loops")

    def rev(a):
        return np.roll(a[::-1], 1)

    return hand_loop(
        LegendrianGenerator(rev(loop.x), rev(loop.y)),
        rev(loop.z),
        -loop.closure_defect_z,
        rev(loop.w),
        -loop.closure_defect_w,
    )


def companion_derivative_roots(x):
    """All roots of the interpolant's x' in [0, 1), sorted, from the
    eigenvalues of a companion matrix: an oracle for cusp extraction
    that shares nothing with its sign scan.

    The Laurent polynomial sum_{|k| <= d} g_k u^k, g_k = 2 pi i k c_k,
    times u^d is an ordinary polynomial of degree 2d whose roots on the
    unit circle are exp(2 pi i s) at the roots s of x'.  Its conditioning
    limits the oracle to degree d <= 128.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    g = TAU * 1j * np.arange(n // 2 + 1) * np.fft.rfft(x) / n
    mags = np.abs(g)
    deg = int(np.nonzero(mags > 1e-12 * mags.max())[0][-1])
    assert 0 < deg <= 128 and deg < n // 2, "oracle needs 0 < degree <= 128"
    full = np.concatenate([np.conj(g[1 : deg + 1])[::-1], g[: deg + 1]])
    roots = np.roots(full[::-1])
    on_circle = roots[np.abs(np.abs(roots) - 1.0) < 1e-6]
    return np.sort(np.mod(np.angle(on_circle) / TAU, 1.0))


def bisected_derivative_roots(g):
    """All roots of g.x_interp's x' in [0, 1), sorted: the grid samples
    within TOL_ROOT of zero, and 60 halvings of each grid cell whose ends
    differ in sign, keeping the half whose ends still differ.  This is the
    refinement find_cusps used before its Newton iteration, kept as the
    slow oracle for it; it certifies nothing."""
    from engel.curves import TOL_ROOT

    n, xi = g.n, g.x_interp
    row = xi.samples(1)
    xp = np.where(np.abs(row) <= TOL_ROOT, 0.0, row)
    sg = np.sign(xp)
    kb = np.flatnonzero(sg * np.roll(sg, -1) < 0)
    lo, hi = kb / n, (kb + 1) / n
    if kb.size:
        sign_lo = np.sign(xi.value(lo, 1))
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            move_lo = np.sign(xi.value(mid, 1)) == sign_lo
            lo = np.where(move_lo, mid, lo)
            hi = np.where(move_lo, hi, mid)
    return np.sort(np.mod(np.concatenate([0.5 * (lo + hi), np.flatnonzero(xp == 0) / n]), 1.0))


def fd_derivative(values, drift=0.0):
    """Second-order centered difference, wrapping around the period.

    ``drift`` is the linear rate hidden in non-periodic samples such as an
    antiderivative with nonzero mean: the ramp drift*s is removed before
    differencing the periodic remainder and its exact rate is added back.
    Deliberately not spectral, so it checks the spectral pipeline.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    p = values - drift * (np.arange(n) / n)
    return (np.roll(p, -1) - np.roll(p, 1)) * (0.5 * n) + drift


def horizontality_residual(loop):
    """(r_z, r_w): worst sampled defect of z' = y x' and w' = z x'.

    Derivatives here are second-order centered differences, independent of
    the spectral antiderivatives that built the loop, so the residual is a
    genuine consistency check rather than an algebraic identity.  It decays
    like N^-2 on smooth closed loops.
    """
    dx = fd_derivative(loop.x)
    dz = fd_derivative(loop.z, drift=loop.closure_defect_z)
    dw = fd_derivative(loop.w, drift=loop.closure_defect_w)
    r_z = float(np.max(np.abs(dz - loop.y * dx)))
    r_w = float(np.max(np.abs(dw - loop.z * dx)))
    return r_z, r_w


def resample(values, m):
    """Samples of the band-limited projection of the interpolant on an m-grid.

    Upsampling is exact (the interpolant is unchanged); downsampling keeps
    the harmonics the coarse grid can represent and drops the rest.  The
    Nyquist bin needs care in both directions because it carries a half-share
    cosine in the real convention.  Built from the rfft alone, so it is an
    oracle for the package's off-grid evaluator.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if m == n:
        return values.copy()
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


def dense_winding(vx, vy, m, chunk=1 << 18):
    """(turns, largest step) of the plane curve s -> (vx(s), vy(s)) from
    the angle steps between m equispaced points, summed chunk by chunk:
    an oracle for rot_winding that shares nothing with its certificate.
    It is trustworthy where the largest step stays well below pi."""
    total, largest = 0.0, 0.0
    for start in range(0, m, chunk):
        s = np.arange(start, min(start + chunk, m) + 1) / m
        v = vx(s) + 1j * vy(s)
        steps = np.angle(v[1:] / v[:-1])
        total += float(np.sum(steps))
        largest = max(largest, float(np.max(np.abs(steps))))
    return total / TAU, largest


# The front language's hand-written character scanner, kept as an oracle
# for the pattern lexer in frontlang.  Its comment loop advances the
# column, so both report end of input where the input ends.
_DIGITS = set("0123456789")
_NUMBER_START = _DIGITS | set(".-")
_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_BODY = _NAME_START | _DIGITS
_PUNCT = set("{}():;=+")


def scan_front_tokens(text):
    """(kind, text, line, col) per token, ending with ("end", "", line, col)."""
    from engel.errors import FrontSyntaxError

    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _NAME_START:
            j = i
            while j < n and text[j] in _NAME_BODY:
                j += 1
            tokens.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _NUMBER_START:
            j = i
            if text[j] == "-":
                j += 1
            digits_before = 0
            while j < n and text[j] in _DIGITS:
                j += 1
                digits_before += 1
            digits_after = 0
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
                    digits_after += 1
            if digits_before + digits_after == 0:
                raise FrontSyntaxError(line, col, "a number", "'%s'" % ch)
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k] in _DIGITS:
                    while k < n and text[k] in _DIGITS:
                        k += 1
                    j = k
            if not math.isfinite(float(text[i:j])):
                raise FrontSyntaxError(line, col, "a finite number", "'%s'" % text[i:j])
            tokens.append(("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise FrontSyntaxError(line, col, "a token", "'%s'" % ch)
    tokens.append(("end", "", line, col))
    return tokens


# The exact lift oracle.  A trigonometric polynomial with rational
# coefficients is kept as its exponential coefficients, a dict
# {k: (re, im)} of Fractions with f(s) = sum over k of c_k e^{2 pi i k s}
# and c_{-k} the conjugate of c_k.  Write D for c_k -> i k c_k, so that
# x' = 2 pi Dx, and I for the periodic part of an antiderivative:
#     integral from 0 to s of 2 pi f = 2 pi f_0 s + I(f)(s),
#     I(f)(s) = sum over k != 0 of c_k (e^{2 pi i k s} - 1) / (i k),
# whose coefficients are rational again.  With
#     q = (y Dx)_0, Z = I(y Dx), r = (Z Dx)_0, W = I(Z Dx)
# and  integral from 0 to s of t x'(t) = s x(s) - x_0 s - I(x)(s) / (2 pi),
# the lift is, exactly,
#     z(s) = 2 pi q s + Z(s),
#     w(s) = 2 pi q s x(s) + 2 pi (r - q x_0) s - q I(x)(s) + W(s),
# so  ∮ y dx = 2 pi q  and  ∮ z dx = w(1) = 2 pi (q (x(0) - x_0) + r).
# Only the final float evaluation rounds.

def random_rational_series(rng, degree):
    """Exponential coefficients of a random real trigonometric polynomial
    of the given degree, whose cos and sin coefficients of harmonic k are
    small fractions divided by k."""
    def small():
        return Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 9)))

    series = {0: (small(), Fraction(0))}
    for k in range(1, degree + 1):
        a, b = small() / k, small() / k
        series[k], series[-k] = (a / 2, -b / 2), (a / 2, b / 2)
    return series


def _series_product(f, g):
    out = {}
    for j, (a, b) in f.items():
        for k, (c, d) in g.items():
            re, im = out.get(j + k, (Fraction(0), Fraction(0)))
            out[j + k] = (re + a * c - b * d, im + a * d + b * c)
    return out


def _series_d(f):
    return {k: (-k * im, k * re) for k, (re, im) in f.items()}


def _series_integral(f):
    """I(f), the constant chosen so that it vanishes at s = 0."""
    out = {k: (im / k, -re / k) for k, (re, im) in f.items() if k}
    out[0] = (-sum((re for re, _ in out.values()), Fraction(0)), Fraction(0))
    return out


def series_value(f, s):
    """The float value of a real series at s (a float or an array)."""
    s = np.asarray(s, dtype=float)
    out = np.full(s.shape, float(f[0][0]))
    for k, (re, im) in sorted(f.items()):
        if k > 0:
            out += 2.0 * (float(re) * np.cos(TAU * k * s) - float(im) * np.sin(TAU * k * s))
    return out


class ExactLift:
    """The lift of the rational series x and y, in exact arithmetic:
    z(s), w(s) and both closure defects, rounded only when evaluated."""

    def __init__(self, x, y):
        self.x, self.y = x, y
        dx = _series_d(x)
        zx = _series_product(y, dx)
        self.q, self.z_periodic = zx[0][0], _series_integral(zx)
        wx = _series_product(self.z_periodic, dx)
        self.w_periodic, self.x_periodic = _series_integral(wx), _series_integral(x)
        x_mean, x_at_0 = x[0][0], sum((re for re, _ in x.values()), Fraction(0))
        self.ramp = wx[0][0] - self.q * x_mean
        self.defect_z = TAU * float(self.q)
        self.defect_w = TAU * float(self.q * (x_at_0 - x_mean) + wx[0][0])

    def z(self, s):
        return TAU * float(self.q) * np.asarray(s) + series_value(self.z_periodic, s)

    def w(self, s):
        s = np.asarray(s, dtype=float)
        return (TAU * float(self.q) * s * series_value(self.x, s)
                + TAU * float(self.ramp) * s
                - float(self.q) * series_value(self.x_periodic, s)
                + series_value(self.w_periodic, s))
