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
from .errors import BadDescription, DegenerateCusp, NotClosed, NotImmersed

TOL_CLOSURE = 1e-9
TOL_ROOT = 1e-10
Y_PRIME_FLOOR = 1e-6
SPEED_FLOOR = 1e-6

# Cusp-free zone around each root of x' for the vertical-tangency check:
# one finite-difference stencil width on either side.
CUSP_NEIGHBORHOOD_CELLS = 2


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


class LegendrianGenerator:
    """Periodic planar loop (x(s), y(s)) sampled on s_k = k/N.

    Arrays are shared, not copied defensively, and marked read-only; all
    operations in this package treat generators as immutable values.
    """

    def __init__(self, x, y):
        x = _readonly(x)
        y = _readonly(y)
        if x.shape != y.shape or x.ndim != 1:
            raise BadDescription("x and y must be 1-d sample arrays of equal length")
        if x.shape[0] < 16:
            raise BadDescription("need at least 16 samples, got %d" % x.shape[0])
        self.x = x
        self.y = y
        self.n = x.shape[0]

    @functools.cached_property
    def xp(self) -> np.ndarray:
        return _readonly(fourier.derivative(self.x))

    @functools.cached_property
    def yp(self) -> np.ndarray:
        return _readonly(fourier.derivative(self.y))

    @functools.cached_property
    def x_interp(self) -> fourier.Interpolant:
        return fourier.Interpolant(self.x)

    @functools.cached_property
    def y_interp(self) -> fourier.Interpolant:
        return fourier.Interpolant(self.y)

    def x_at(self, s):
        return self.x_interp.value(s)

    def y_at(self, s):
        return self.y_interp.value(s)

    def xp_at(self, s):
        return self.x_interp.derivative(s)

    def yp_at(self, s):
        return self.y_interp.derivative(s)

    @property
    def speed(self) -> np.ndarray:
        return np.hypot(self.xp, self.yp)

    def min_speed(self):
        """(parameter, speed) at the slowest grid sample."""
        sp = self.speed
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

    def with_y(self, y) -> "LegendrianGenerator":
        return LegendrianGenerator(self.x, y)

    def with_x(self, x) -> "LegendrianGenerator":
        return LegendrianGenerator(x, self.y)


@dataclass
class LegendrianLoop:
    """Sampled (x, y, z) loop in contact R^3, and its front.

    z is the running integral of y dx from the base point, so the samples
    carry a linear ramp of rate closure_defect_z when the loop fails to
    close.  Use lifting.lift to construct one; direct construction is for
    trusted or deliberately raw data (tests, quadrature fixtures).

    The front is the (x, z) picture.  Its cusps, double points and
    self-tangencies are found on first read and kept on the loop, so a
    caller that wants only the cusps pays for neither pair scan.
    """

    generator: LegendrianGenerator
    z: np.ndarray
    z0: float
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
        return fourier.Interpolant.stack([g.x_interp, g.y_interp, self.z_interp])

    def z_at(self, s):
        return self.z_interp.value(s)

    @functools.cached_property
    def cusps(self) -> list:
        """The front's cusps.

        The front needs only z to close; a horizontal loop whose w stays
        open still has one, so this tests the z defect, not `closed`.
        """
        if abs(self.closure_defect_z) > TOL_CLOSURE:
            raise NotClosed(
                "front projection needs |closure defect| <= %g, got %.3e"
                % (TOL_CLOSURE, self.closure_defect_z)
            )
        g = self.generator
        cusps = []
        for s_c, direction in find_cusps(g):
            pos = (float(g.x_at(s_c)), float(self.z_at(s_c)))
            up = float(g.yp_at(s_c)) * direction > 0
            cusps.append(Cusp(s_c, pos, Orientation.UP if up else Orientation.DOWN))
        return cusps

    @functools.cached_property
    def double_points(self) -> list:
        """Transverse front crossings, (s0, s1)."""
        return pairscan.front_crossings(self)

    @functools.cached_property
    def self_tangencies(self) -> list:
        """Shared position and slope, (s0, s1)."""
        return pairscan.coincident_pairs(self)


@dataclass
class HorizontalLoop(LegendrianLoop):
    """Sampled (x, y, z, w) loop tangent to the rank-2 distribution: its
    Legendrian loop (x, y, z) plus w, the running integral of z dx."""

    w: np.ndarray
    w0: float
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
    """Sample an analytic or tabulated description onto the n-point grid.

    ``description`` is a pair (x, y) where each entry is a TrigSeries, a
    callable of the parameter, or an existing sample array (any length; it
    is identified with its periodic interpolant and resampled).  n must be
    a power of two, at least 16.
    """
    if n < 16 or (n & (n - 1)) != 0:
        raise ValueError("sample count must be a power of two >= 16, got %r" % (n,))
    if isinstance(description, dict):
        try:
            description = (description["x"], description["y"])
        except KeyError as missing:
            raise BadDescription("description dict needs 'x' and 'y'") from missing
    try:
        xd, yd = description
    except (TypeError, ValueError):
        raise BadDescription("description must be an (x, y) pair") from None
    x = _sample_component(xd, n, "x")
    y = _sample_component(yd, n, "y")
    return LegendrianGenerator(x, y).require_immersed()


def _sample_component(desc, n: int, label: str) -> np.ndarray:
    s = fourier.grid(n)
    if isinstance(desc, TrigSeries):
        return desc(s)
    if callable(desc):
        values = np.asarray(desc(s), dtype=float)
        if values.shape != s.shape:
            raise BadDescription("%s callable must map the grid to samples" % label)
        scale = max(1.0, float(np.max(np.abs(values))))
        for probe in (0.0, 0.37):
            a, b = float(desc(probe)), float(desc(probe + 1.0))
            if abs(a - b) > 1e-9 * scale:
                raise BadDescription(
                    "%s is not 1-periodic: f(%g) != f(%g)" % (label, probe, probe + 1)
                )
        return values
    try:
        values = np.asarray(desc, dtype=float)
    except (TypeError, ValueError):
        raise BadDescription("%s description is not numeric" % label) from None
    if values.ndim != 1 or values.shape[0] < 4:
        raise BadDescription("%s samples must be a 1-d array of length >= 4" % label)
    if not np.all(np.isfinite(values)):
        raise BadDescription("%s samples contain non-finite values" % label)
    if values.shape[0] == n:
        return values.copy()
    return fourier.resample(values, n)


def _trig_derivative_roots(x: np.ndarray, max_degree: int = 128):
    """All roots of x' in [0,1) via the companion matrix, when affordable.

    Returns None when the effective trigonometric degree of x exceeds
    ``max_degree`` (the caller falls back to the sign scan alone).
    """
    n = x.shape[0]
    c = np.fft.rfft(x) / n
    k = np.arange(c.shape[0])
    g = 2j * np.pi * k * c  # one-sided derivative coefficients
    mags = np.abs(g)
    top = float(np.max(mags)) if mags.size else 0.0
    if top == 0.0:
        return None
    keep = np.nonzero(mags > 1e-12 * top)[0]
    if keep.size == 0:
        return None
    deg = int(keep[-1])
    if deg > max_degree or (n % 2 == 0 and deg >= n // 2):
        return None
    # Laurent polynomial sum_{k=-deg..deg} g_k u^k, g_{-k} = conj(g_k),
    # times u^deg: an ordinary polynomial of degree 2*deg.
    full = np.zeros(2 * deg + 1, dtype=complex)
    full[deg:] = g[: deg + 1]
    full[:deg] = np.conj(g[1 : deg + 1])[::-1]
    roots = np.roots(full[::-1])
    on_circle = roots[np.abs(np.abs(roots) - 1.0) < 1e-6]
    svals = np.mod(np.angle(on_circle) / fourier.TAU, 1.0)
    return np.sort(svals)


def find_cusps(g: LegendrianGenerator):
    """Locate and classify the roots of x'.

    Returns a list of (s_c, direction) with direction the sign of x' just
    after the root.  A cusp points Up when the front crosses its tangent
    line upward there, i.e. when y'(s_c) * direction > 0; the caller builds
    Cusp records from this.  Raises DegenerateCusp for roots with |y'|
    under the floor and for vertical tangencies without a sign change.
    """
    n = g.n
    xp = g.xp
    sg = np.sign(xp)
    on_grid = np.abs(xp) <= TOL_ROOT

    brackets = []  # (lo, hi, sign after the root)
    exact = []  # (s, direction)
    for k in range(n):
        k1 = (k + 1) % n
        if on_grid[k]:
            left = sg[(k - 1) % n]
            right = sg[k1]
            if on_grid[(k - 1) % n] or on_grid[k1]:
                raise DegenerateCusp(
                    "x' vanishes on consecutive samples near s=%.6f" % (k / n)
                )
            if left == right:
                raise DegenerateCusp(
                    "vertical tangency without sign change at s=%.6f" % (k / n)
                )
            exact.append((k / n, float(right)))
        elif not on_grid[k1] and sg[k] * sg[k1] < 0:
            brackets.append((k / n, (k + 1) / n, float(sg[k1])))

    found = []
    if brackets:
        lo = np.array([b[0] for b in brackets])
        hi = np.array([b[1] for b in brackets])
        flo = g.xp_at(lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fmid = np.asarray(g.xp_at(mid))
            move_lo = np.sign(fmid) == np.sign(flo)
            lo = np.where(move_lo, mid, lo)
            flo = np.where(move_lo, fmid, flo)
            hi = np.where(move_lo, hi, mid)
        roots = 0.5 * (lo + hi)
        found = list(zip(roots.tolist(), (b[2] for b in brackets)))
    found.extend(exact)

    # Companion-matrix cross-check: a pair of roots hiding between two
    # samples leaves the sign scan blind; the polynomial sees everything.
    poly_roots = _trig_derivative_roots(np.asarray(g.x))
    if poly_roots is not None and len(found) > 0:
        got = np.sort(np.array([s for s, _ in found]))
        for s_extra in poly_roots:
            d = np.abs(got - s_extra)
            d = np.minimum(d, 1.0 - d)
            if d.size == 0 or float(np.min(d)) > 2.0 / n:
                if abs(float(g.xp_at(s_extra))) > 1e-7:
                    continue  # spurious companion eigenvalue
                eps = 0.25 / n
                a = float(g.xp_at(s_extra - eps))
                b = float(g.xp_at(s_extra + eps))
                if np.sign(a) == np.sign(b):
                    raise DegenerateCusp(
                        "vertical tangency without sign change at s=%.6f"
                        % float(s_extra)
                    )
                raise DegenerateCusp(
                    "under-resolved cusp pair near s=%.6f" % float(s_extra)
                )

    out = []
    for s_c, direction in sorted(found):
        s_c = float(np.mod(s_c, 1.0))
        if abs(float(g.xp_at(s_c))) > TOL_ROOT:
            raise DegenerateCusp("cusp refinement stalled at s=%.6f" % s_c)
        ypc = float(g.yp_at(s_c))
        if abs(ypc) < Y_PRIME_FLOOR:
            raise DegenerateCusp(
                "|y'| = %.3e at cusp s=%.6f violates genericity" % (abs(ypc), s_c)
            )
        out.append((s_c, float(direction)))
    return out


def horizontality_residual(loop: HorizontalLoop):
    """(r_z, r_w): worst sampled defect of z' = y x' and w' = z x'.

    Derivatives here are second-order centered differences, independent of
    the spectral antiderivatives that built the loop, so the residual is a
    genuine consistency check rather than an algebraic identity.  It decays
    like N^-2 on smooth closed loops.
    """
    dx = fourier.fd_derivative(loop.x)
    dz = fourier.fd_derivative(loop.z, drift=loop.closure_defect_z)
    dw = fourier.fd_derivative(loop.w, drift=loop.closure_defect_w)
    r_z = float(np.max(np.abs(dz - loop.y * dx)))
    r_w = float(np.max(np.abs(dw - loop.z * dx)))
    return r_z, r_w

