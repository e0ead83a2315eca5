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


def _derivative(values: np.ndarray) -> np.ndarray:
    """Grid samples of x' or y', refused when the rfft overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = fourier.derivative(values)
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
    def xp(self) -> np.ndarray:
        return _derivative(self.x)

    @functools.cached_property
    def yp(self) -> np.ndarray:
        return _derivative(self.y)

    @functools.cached_property
    def x_interp(self) -> fourier.Interpolant:
        return fourier.Interpolant(self.x)

    @functools.cached_property
    def y_interp(self) -> fourier.Interpolant:
        return fourier.Interpolant(self.y)

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


@dataclass(eq=False)
class LegendrianLoop:
    """Sampled (x, y, z) loop in contact R^3, and its front.

    z is the running integral of y dx from z(0) = 0, so the samples
    carry a linear ramp of rate closure_defect_z when the loop fails to
    close.  Use lifting.lift to construct one; direct construction is for
    trusted or deliberately raw data (tests, quadrature fixtures).

    The front is the (x, z) picture.  Its cusps, double points and
    self-tangencies are found on first read and kept on the loop, so a
    caller that wants only the cusps pays for neither pair scan.  Off-grid
    values come from z_interp, or from curve for (x, y, z) together,
    through .value(s, order).  Loops compare and hash by identity.
    """

    generator: LegendrianGenerator
    z: np.ndarray
    closure_defect_z: float

    def __post_init__(self):
        self.z = _readonly(self.z)

    @property
    def n(self) -> int:
        return self.generator.n

    @property
    def x(self) -> np.ndarray:
        return self.generator.x

    @property
    def y(self) -> np.ndarray:
        return self.generator.y

    @property
    def closed(self) -> bool:
        return abs(self.closure_defect_z) <= TOL_CLOSURE

    @functools.cached_property
    def z_interp(self) -> fourier.Interpolant:
        return fourier.Interpolant(self.z, self.closure_defect_z)

    @functools.cached_property
    def curve(self) -> fourier.Interpolant:
        """(x, y, z) as one evaluator: one phase matrix for all channels."""
        g = self.generator
        drift = (0.0, 0.0, self.closure_defect_z)
        return fourier.Interpolant(np.stack([g.x, g.y, self.z]), drift)

    @functools.cached_property
    def cusps(self) -> list:
        """The front's cusps.

        The front needs only z to close; a horizontal loop whose w stays
        open still has one, so this tests the z defect, not `closed`.
        """
        if not abs(self.closure_defect_z) <= TOL_CLOSURE:
            raise NotClosed(
                "front projection needs |closure defect| <= %g, got %.3e"
                % (TOL_CLOSURE, self.closure_defect_z)
            )
        g = self.generator
        found = find_cusps(g)  # never empty: x' of a periodic x changes sign
        s = np.array([s_c for s_c, _ in found])
        x, z, yp = g.x_interp.value(s), self.z_interp.value(s), g.y_interp.value(s, 1)
        # find_cusps held each |y'| at least Y_PRIME_FLOOR away from 0.
        return [
            Cusp(s_c, (float(x[i]), float(z[i])),
                 Orientation.UP if yp[i] * direction > 0 else Orientation.DOWN)
            for i, (s_c, direction) in enumerate(found)
        ]

    @functools.cached_property
    def double_points(self) -> list:
        """Transverse front crossings, (s0, s1)."""
        return pairscan.front_crossings(self)

    @functools.cached_property
    def self_tangencies(self) -> list:
        """Shared position and slope, (s0, s1)."""
        return pairscan.coincident_pairs(self)


@dataclass(eq=False)
class HorizontalLoop(LegendrianLoop):
    """Sampled (x, y, z, w) loop tangent to the rank-2 distribution: its
    Legendrian loop (x, y, z) plus w, the running integral of z dx from
    w(0) = 0."""

    w: np.ndarray
    closure_defect_w: float

    def __post_init__(self):
        super().__post_init__()
        self.w = _readonly(self.w)

    @property
    def closed(self) -> bool:
        return super().closed and abs(self.closure_defect_w) <= TOL_CLOSURE


class Orientation(enum.Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class Cusp:
    s: float
    position: tuple  # (x, z)
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

    Returns a list of (s_c, direction) with direction the sign of x' just
    after the root.  A cusp points Up when the front crosses its tangent
    line upward there, i.e. when y'(s_c) * direction > 0; the caller builds
    Cusp records from this.  A sign scan of the grid brackets the roots and
    a bracketed Newton iteration refines them.  Guarantee: every grid cell
    holds at most one root of x', and one only where the scan found it
    (certify_cells, on the chopped x_interp), or this raises Unresolved;
    a root that is not a generic cusp raises DegenerateCusp.
    """
    n, xi = g.n, g.x_interp
    xp = xi.samples(1).copy()
    on_grid = np.abs(xp) <= TOL_ROOT
    xp[on_grid] = 0.0
    sg = np.sign(xp)
    after = np.roll(sg, -1)
    consecutive = on_grid & (np.roll(on_grid, 1) | np.roll(on_grid, -1))
    bad = np.flatnonzero(consecutive | (on_grid & (np.roll(sg, 1) == after)))
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
        (xi,), np.stack([xp, xi.samples(2)]),
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
    s = lo + xp[kb] / (xp[kb] - np.roll(xp, -1)[kb]) / n
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

    xpc, ypc = np.abs(xi.value(s, 1)), np.abs(g.y_interp.value(s, 1))
    bad = np.flatnonzero((xpc > TOL_ROOT) | (ypc < Y_PRIME_FLOOR))
    if bad.size:
        i = bad[0]
        if xpc[i] > TOL_ROOT:
            raise DegenerateCusp("cusp refinement stalled at s=%.6f" % s[i])
        raise DegenerateCusp("|y'| = %.3e at cusp s=%.6f violates genericity" % (ypc[i], s[i]))
    return list(zip(s.tolist(), direction.tolist()))


def certify_cells(interps, left, accept, tally, what):
    """Sum tally(cell, left, right, done) over the depths, `done` marking
    the pieces of grid cells that accept(left, right, h) passes; the
    others are halved.  `left` holds orders 1 and 2 of each of `interps`
    on the grid, `right` the next point's; a piece failing after
    CERTIFY_DEPTH halvings, or past CERTIFY_BUDGET, raises Unresolved."""
    n, cost, total = interps[0].n, sum(i.kept.max() for i in interps), 0
    h, cell = 1.0 / n, np.arange(n)
    a, right = cell / n, np.roll(left, -1, axis=1)
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

