"""Domain types: generators, loops, fronts, and their validation.

The internal representation is Legendrian-first.  The free data of a curve
is the planar pair (x(s), y(s)) on the uniform periodic grid; z and w are
always obtained by integration, never stored independently of it.  Cusps of
the front are then simply roots of x', and the slope identity y = z'/x'
holds by construction instead of being a 0/0 limit.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from . import fourier, pairscan
from .errors import BadDescription, DegenerateCusp, NotClosed, NotImmersed, Unresolved

TOL_CLOSURE = 1e-9
TOL_ROOT = 1e-10
Y_PRIME_FLOOR = 1e-6
SPEED_FLOOR = 1e-6

# certify_cells, the cell certificate behind find_cusps and rot_winding,
# halves a cell it cannot certify at most CERTIFY_DEPTH times, and
# evaluates at most CERTIFY_BUDGET phase entries (points times kept
# harmonics) per grid sample in one halving, a fixed multiple of its grid.
CERTIFY_DEPTH = 12
CERTIFY_BUDGET = 256


@dataclass(frozen=True)
class TrigSeries:
    """Finite trigonometric series: constant + sum of cos/sin harmonics.

    Harmonic keys are positive integers.  Equality is structural, which is
    what the parser round-trip law speaks about.
    """

    constant: float = 0.0
    cos: dict = field(default_factory=dict)
    sin: dict = field(default_factory=dict)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.full(s.shape, float(self.constant))
        # Sums past the float range give inf or nan; LegendrianGenerator refuses them.
        with np.errstate(over="ignore", invalid="ignore"):
            for k, a in self.cos.items():
                out += a * np.cos(fourier.TAU * k * s)
            for k, b in self.sin.items():
                out += b * np.sin(fourier.TAU * k * s)
        return out if s.ndim else float(out)

    @property
    def degree(self) -> int:
        return max([0] + [k for k, v in self.cos.items() if v != 0.0]
                   + [k for k, v in self.sin.items() if v != 0.0])

    def pruned(self) -> "TrigSeries":
        """Canonical form: zero coefficients dropped."""
        return TrigSeries(
            float(self.constant),
            {k: float(v) for k, v in self.cos.items() if v != 0.0},
            {k: float(v) for k, v in self.sin.items() if v != 0.0},
        )


def _readonly(a: np.ndarray) -> np.ndarray:
    if isinstance(a, np.ndarray) and a.dtype == float and not a.flags.writeable:
        return a  # already frozen; share it
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _spectrum(values: np.ndarray) -> np.ndarray:
    """The rfft of x or y, read-only.  An rfft past the float range gives
    inf or nan entries without a warning; reading xp or yp refuses them."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.fft.rfft(values)
    c.setflags(write=False)
    return c


def _derivative(values: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """Grid samples of x' or y', refused when the rfft overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = fourier.derivative(values, spectrum)
    if not np.isfinite(d).all():
        raise BadDescription("x' and y' samples must be finite")
    return _readonly(d)


class LegendrianGenerator:
    """Periodic planar loop (x(s), y(s)) sampled on s_k = k/N.

    Arrays are shared, not copied defensively, and marked read-only; all
    operations in this package treat generators as immutable values.
    A length that is not a grid size (fourier.check_size) or non-finite
    samples raise BadDescription, and so does reading the grid
    derivatives xp or yp when they overflow.  Off-grid values and
    derivatives come from x_interp and y_interp through .value(s, order).

    Each of x and y is transformed once, on first use: x_rfft and y_rfft
    hold their rffts, which the grid derivatives, the interpolants and
    lifting's integral of x read, and with_y passes x's on.  y_dx holds
    the lift's z, and z_dx the rfft that its w is integrated from; their
    means are the two closure defects.
    """

    def __init__(self, x, y):
        x = _readonly(x)
        y = _readonly(y)
        if x.shape != y.shape or x.ndim != 1:
            raise BadDescription("x and y must be 1-d sample arrays of equal length")
        try:
            self.n = fourier.check_size(x.shape[0])
        except ValueError as err:
            raise BadDescription(str(err)) from None
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise BadDescription("x and y samples must be finite")
        self.x = x
        self.y = y

    @functools.cached_property
    def x_rfft(self) -> np.ndarray:
        return _spectrum(self.x)

    @functools.cached_property
    def y_rfft(self) -> np.ndarray:
        return _spectrum(self.y)

    @functools.cached_property
    def xp(self) -> np.ndarray:
        return _derivative(self.x, self.x_rfft)

    @functools.cached_property
    def yp(self) -> np.ndarray:
        return _derivative(self.y, self.y_rfft)

    @functools.cached_property
    def x_interp(self) -> fourier.Interpolant:
        return fourier.Interpolant(self.x, spectrum=self.x_rfft)

    @functools.cached_property
    def y_interp(self) -> fourier.Interpolant:
        return fourier.Interpolant(self.y, spectrum=self.y_rfft)

    @functools.cached_property
    def y_dx(self):
        """(F, m): F(s) = integral of y dx from 0 to s on the grid,
        read-only, and m its full-period integral, the rfft mean of y x'
        (fourier.antiderivative).  A y x' past the float range gives inf
        or nan, which the closure tests refuse."""
        with np.errstate(over="ignore", invalid="ignore"):
            f, m = fourier.antiderivative(self.y * self.xp)
        f.setflags(write=False)
        return f, m

    @functools.cached_property
    def z_dx(self):
        """iterated_integral of y_dx: the rfft of z x' (z's ramp split off),
        which the loop's w is integrated from, and ∮ z dx, its w defect."""
        return self.iterated_integral(*self.y_dx)

    def iterated_integral(self, f, m):
        """(c, ∮ Φ dx) for Φ(s) = ∫₀ˢ phi dx given as its grid samples f and
        full-period integral m (a stack of rows allowed, one m per row).
        Writing Φ = m s + P with P periodic, c is the rfft of P x',
        read-only, and ∮ Φ dx = ∮ P x' + m (x(0) - mean x), rfft means
        both, which stays exact even when m is large.  Past the float
        range: inf or nan."""
        with np.errstate(over="ignore", invalid="ignore"):
            c = np.fft.rfft((f - np.multiply.outer(m, fourier.grid(self.n))) * self.xp)
            c.setflags(write=False)
            return c, c[..., 0].real / self.n + m * (self.x[0] - self.x_rfft[0].real / self.n)

    def with_y(self, y) -> "LegendrianGenerator":
        """The generator (x, y) on this x array, sharing the x transforms made so far."""
        out = LegendrianGenerator(self.x, y)
        out.__dict__.update((key, value) for key, value in vars(self).items()
                            if key in ("x_rfft", "xp", "x_interp"))
        return out

    def min_speed(self):
        """(parameter, speed) at the slowest grid sample."""
        sp = np.hypot(self.xp, self.yp)
        k = int(np.argmin(sp))
        return k / self.n, float(sp[k])

    def require_immersed(self):
        s, v = self.min_speed()
        if v < SPEED_FLOOR:
            raise NotImmersed(
                "velocity norm %.3e at s=%.6f is below the immersion floor" % (v, s),
                s=s,
            )
        return self


class HorizontalLoop:
    """The horizontal loop (x, y, z, w) tangent to the Engel plane field
    that a generator lifts to, its Legendrian projection (x, y, z), and
    that projection's front.

    HorizontalLoop(g) is the lift of g, closed or not: z is the running
    integral of y dx from z(0) = 0, and w that of z dx from w(0) = 0, so
    each carries a linear ramp of rate closure_defect_z or
    closure_defect_w when it fails to close.  z and its defect are
    g.y_dx, and the w defect is g.z_dx's; w is integrated from g.z_dx on
    first read and kept, so a caller that never reads w never pays for
    it.  The loop judges its own closure: z_closed when
    |closure_defect_z| <= TOL_CLOSURE, closed when the w defect passes
    the same test too.  A nan defect fails both.

    The front is the (x, z) picture, and it exists once z closes.  Its
    cusps, double points and self-tangencies are found on first read and
    kept on the loop, so a caller that wants only the cusps pays for
    neither pair scan.  cusps keeps find_cusps' list of Cusp records,
    each a parameter, direction and orientation, unplaced: a caller that
    counts cusps by orientation, as the rotation numbers do, never builds
    z_interp.  Off-grid values come from z_interp, or from curve for
    (x, y, z) together, through .value(s, order).  Loops compare and hash
    by identity.
    """

    def __init__(self, generator: LegendrianGenerator):
        self.generator = generator

    @property
    def n(self) -> int:
        return self.generator.n

    @property
    def x(self) -> np.ndarray:
        return self.generator.x

    @property
    def y(self) -> np.ndarray:
        return self.generator.y

    @functools.cached_property
    def z(self) -> np.ndarray:
        return self.generator.y_dx[0]

    @functools.cached_property
    def closure_defect_z(self) -> float:
        return float(self.generator.y_dx[1])

    @functools.cached_property
    def w(self) -> np.ndarray:
        """Integrated from g.z_dx, with z x' split at the z ramp as the
        lifting module describes.  Past the float range it holds inf or
        nan, and its defect fails the closure tests."""
        g, m_z = self.generator, self.closure_defect_z
        with np.errstate(over="ignore", invalid="ignore"):
            f_w, _ = fourier.antiderivative(None, g.z_dx[0])
            f_x, _ = fourier.antiderivative(None, g.x_rfft)
            # ∫₀ˢ t x'(t) dt = s x(s) - ∫₀ˢ x, entering through the z ramp.
            w = f_w + m_z * (fourier.grid(g.n) * g.x - f_x)
        w.setflags(write=False)
        return w

    @functools.cached_property
    def closure_defect_w(self) -> float:
        return float(self.generator.z_dx[1])

    @property
    def z_closed(self) -> bool:
        return abs(self.closure_defect_z) <= TOL_CLOSURE

    @property
    def closed(self) -> bool:
        return self.z_closed and abs(self.closure_defect_w) <= TOL_CLOSURE

    @functools.cached_property
    def z_interp(self) -> fourier.Interpolant:
        return fourier.Interpolant(self.z, self.closure_defect_z)

    @functools.cached_property
    def curve(self) -> fourier.Interpolant:
        """(x, y, z) as one evaluator: one phase matrix for all channels,
        stacked from the chopped rows of x_interp, y_interp and z_interp."""
        g = self.generator
        return fourier.Interpolant.stack((g.x_interp, g.y_interp, self.z_interp))

    @functools.cached_property
    def cusps(self) -> list:
        """find_cusps' list of Cusp records for the front.

        The front needs only z to close; a loop whose w stays open still
        has one, so this tests z_closed, not `closed`.
        """
        if not self.z_closed:
            raise NotClosed(
                "front projection needs |closure defect z| <= %g, got %.3e"
                % (TOL_CLOSURE, self.closure_defect_z)
            )
        return find_cusps(self.generator)  # never empty: x' of a periodic x changes sign

    @functools.cached_property
    def double_points(self) -> list:
        """Transverse front crossings, (s0, s1)."""
        return pairscan.front_crossings(self)

    @functools.cached_property
    def self_tangencies(self) -> list:
        """Shared position and slope, (s0, s1)."""
        return pairscan.coincident_pairs(self)


class Orientation(enum.Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class Cusp:
    """A root s of x', direction the sign of x' just after it, and the
    cusp's orientation."""

    s: float
    direction: float
    orientation: Orientation


def sample_generator(description, n: int) -> LegendrianGenerator:
    """Sample a pair (x, y) of TrigSeries onto the n-point grid.

    Each series must have degree below n/2 (higher ones alias); anything
    other than a pair of TrigSeries raises BadDescription.  Tabulated
    samples go to LegendrianGenerator directly.  n must be a grid size
    (fourier.check_size), else ValueError.
    """
    try:
        xd, yd = description
    except (TypeError, ValueError):
        raise BadDescription("description must be an (x, y) pair") from None
    s = fourier.grid(n)
    samples = []
    for label, desc in (("x", xd), ("y", yd)):
        if not isinstance(desc, TrigSeries):
            raise BadDescription("%s must be a TrigSeries" % label)
        if 2 * desc.degree >= n:
            raise BadDescription("%s has degree %d; %d samples need it below %d"
                                 % (label, desc.degree, n, n // 2))
        samples.append(desc(s))
    return LegendrianGenerator(*samples).require_immersed()


def find_cusps(g: LegendrianGenerator):
    """Locate and classify the roots of x'.

    Returns a list of Cusp records (s, direction, orientation), direction
    the sign of x' just after the root.  A cusp points Up when the front
    crosses its tangent line upward there, i.e. when y'(s) * direction > 0,
    read from the y' that the genericity test below evaluates.  A sign
    scan of the grid brackets the roots and a bracketed Newton iteration
    refines them.  Guarantee: every grid cell holds at most one root of
    x', and one only where the scan found it (certify_cells, on the
    chopped x_interp), or this raises Unresolved; a root that is not a
    generic cusp raises DegenerateCusp.
    """
    n, xi = g.n, g.x_interp
    rows = xi.samples((1, 2)).copy()
    xp = rows[0]  # zeroed in place at on-grid roots below
    on_grid = np.abs(xp) <= TOL_ROOT
    xp[on_grid] = 0.0
    sg = np.sign(xp)
    after = fourier.roll(sg, -1)
    consecutive = on_grid & (fourier.roll(on_grid, 1) | fourier.roll(on_grid, -1))
    bad = np.flatnonzero(consecutive | (on_grid & (fourier.roll(sg, 1) == after)))
    if bad.size:
        what = ("x' vanishes on consecutive samples near" if consecutive[bad[0]]
                else "vertical tangency without sign change at")
        raise DegenerateCusp("%s s=%.6f" % (what, bad[0] / n))

    # x' has no root in a piece [a, a + h] where it keeps one sign and
    # |x'(a)| + |x'(a + h)| > h bound(2), and is monotone where x'' passes
    # that test against h bound(3).  Sign changes of x' over certified
    # pieces count a cell's roots (xp is zeroed at on-grid roots).
    bracketed = sg * after < 0
    bounds = np.array([[xi.bound(2)], [xi.bound(3)]])
    found = certify_cells(
        (xi,), rows,
        lambda lt, rt, h: np.any((lt * rt > 0) & (np.abs(lt) + np.abs(rt) > h * bounds), axis=0),
        lambda cell, lt, rt, done: np.bincount(cell, (lt[0] * rt[0] < 0) & done, minlength=n),
        "x'")
    unseen = np.flatnonzero(found > bracketed)
    if unseen.size:
        raise Unresolved("under-resolved cusp pair in the grid cell at s=%.6f" % (unseen[0] / n))

    # Newton on x' inside each bracket [lo, hi], shrunk by the sign of x'
    # at every iterate, from the secant point of the grid values.  A step
    # that leaves the bracket, or is not at most half the previous one,
    # is replaced by the midpoint (rtsafe).  On the certified piece that
    # holds the root x'' keeps its sign, so Newton converges there.
    kb, ke = np.flatnonzero(bracketed), np.flatnonzero(on_grid)
    lo, hi, sign_lo = kb / n, (kb + 1) / n, sg[kb]
    s = lo + xp[kb] / (xp[kb] - xp[(kb + 1) % n]) / n
    last, live, tiny = hi - lo, np.arange(kb.size), 4 * fourier.EPS
    for _ in range(60):
        if not live.size:
            break
        at = s[live]
        d1, d2 = xi.value(at, (1, 2))
        move_lo = np.sign(d1) == sign_lo[live]
        lo[live] = np.where(move_lo, at, lo[live])
        hi[live] = np.where(move_lo, hi[live], at)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = d1 / d2  # x'' = 0 gives inf or nan, which fail the tests below
        nxt = at - step
        newton = (lo[live] <= nxt) & (nxt <= hi[live]) & (np.abs(step) <= 0.5 * last[live])
        nxt = np.where(d1 == 0, at, np.where(newton, nxt, 0.5 * (lo[live] + hi[live])))
        done = (d1 == 0) | (newton & (np.abs(step) <= tiny)) | (hi[live] - lo[live] <= tiny)
        last[live], s[live] = np.abs(nxt - at), nxt
        live = live[~done]
    s = np.concatenate([s, ke / n])
    direction = np.concatenate([after[kb], after[ke]])
    order = np.lexsort((direction, s))
    s, direction = np.mod(s[order], 1.0), direction[order]

    xpc, yp = np.abs(xi.value(s, 1)), g.y_interp.value(s, 1)
    ypc = np.abs(yp)
    bad = np.flatnonzero((xpc > TOL_ROOT) | (ypc < Y_PRIME_FLOOR))
    if bad.size:
        i = bad[0]
        if xpc[i] > TOL_ROOT:
            raise DegenerateCusp("cusp refinement stalled at s=%.6f" % s[i])
        raise DegenerateCusp("|y'| = %.3e at cusp s=%.6f violates genericity" % (ypc[i], s[i]))
    up = (yp * direction > 0).tolist()
    return [Cusp(s_c, d, Orientation.UP if u else Orientation.DOWN)
            for s_c, d, u in zip(s.tolist(), direction.tolist(), up)]


def certify_cells(interps, left, accept, tally, what):
    """Sum tally(cell, left, right, done) over the depths, `done` marking
    the pieces of grid cells that accept(left, right, h) passes; the
    others are halved.  `left` holds orders 1 and 2 of each of `interps`
    on the grid, `right` the next point's; a piece failing after
    CERTIFY_DEPTH halvings, or past CERTIFY_BUDGET, raises Unresolved."""
    n, cost, total = interps[0].n, sum(i.kept.max() for i in interps), 0
    h, cell = 1.0 / n, np.arange(n)
    a, right = cell / n, fourier.roll(left, -1)
    for depth in range(CERTIFY_DEPTH + 1):
        done = accept(left, right, h)
        total = total + tally(cell, left, right, done)
        live = np.flatnonzero(~done)
        if not live.size:
            return total
        if depth == CERTIFY_DEPTH or live.size * cost > CERTIFY_BUDGET * n:
            raise Unresolved(
                "%s under-resolved near s=%.6f: %d pieces of grid cells uncertified "
                "after %d halvings" % (what, np.min(a[live]), live.size, depth)
            )
        h *= 0.5
        cell, a, left, right = cell[live], a[live], left[:, live], right[:, live]
        mid = np.vstack([i.value(a + h, (1, 2)) for i in interps])
        cell, a = np.tile(cell, 2), np.concatenate([a, a + h])
        left, right = np.hstack([left, mid]), np.hstack([mid, right])

