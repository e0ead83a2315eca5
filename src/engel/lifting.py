"""Lifting, closure balancing, and the embedding test.

The two closure integrals of a generator are ∮ y dx (which must vanish
for z to close up) and ∮ z dx (likewise for w).  Each has one formula,
the rfft mean of its integrand against x' (fourier.antiderivative's
mean), held by the generator's y_dx and z_dx: the lift's defects, the
two closure_defect functions and the balancing bumps' functionals all
read it; the lift's w and the embedding test's w-gaps both integrate
z_dx's one rfft.  When z carries a defect ramp m·s, integrands of the
form z x' are split exactly as m (s x') + (periodic) x', using the
identity ∫₀¹ s x' ds = x(0) - mean(x), so nothing is ever integrated
through the parameter seam (LegendrianGenerator.iterated_integral).
Balancing returns input that its own loop already calls closed as is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fourier
from .curves import TOL_CLOSURE, HorizontalLoop, LegendrianGenerator
from .errors import BadDescription, NotClosed, SingularSystem

TOL_EMBED = 1e-7
BUMP_WIDTH = 0.08
CONDITION_LIMIT = 1e8


def z_closure_defect(g: LegendrianGenerator) -> float:
    """∮ y dx over one period: g.y_dx's, the lift's closure_defect_z."""
    return float(g.y_dx[1])


def w_closure_defect(g: LegendrianGenerator) -> float:
    """∮ z dx for g's lift: g.z_dx's, its closure_defect_w bit for bit."""
    return float(g.z_dx[1])


def closure_functionals(g: LegendrianGenerator, phi: np.ndarray):
    """(∮ phi dx, ∮ Φ dx) with Φ(s) = ∫₀ˢ phi dx, by the formulas of the
    lift's closure defects (g.iterated_integral), for one row phi or for
    each of a stack.  For phi = y these are the two closure integrals; for
    a bump, the per-unit changes of both when it is added to y."""
    with np.errstate(over="ignore", invalid="ignore"):
        f, m = fourier.antiderivative(phi * g.xp)
    return m, g.iterated_integral(f, m)[1]


def lift(g: LegendrianGenerator) -> HorizontalLoop:
    """The loop tangent to the plane field that g lifts to, closed or not:
    HorizontalLoop(g), whose z = ∫₀ˢ y dx is g.y_dx and whose
    w = ∫₀ˢ z dx is integrated from g.z_dx on first read.  Each carries
    its closure defect (∮ y dx and ∮ z dx); the loop judges its own closure
    (HorizontalLoop.z_closed and .closed).
    """
    return HorizontalLoop(g)


def area_integral(loop, s0: float, s1: float) -> float:
    """∫_{s0}^{s1} z dx along the lift of the loop's generator g; (0, 1)
    gives ∮ z dx.  Only g's transforms enter: g.z_dx's rfft of z x', which
    the loop's w is integrated from, and g.x_rfft for the z ramp's term;
    a z assigned to the loop by hand does not."""
    s0, s1 = float(s0), float(s1)
    if not (s0 <= s1 <= s0 + 1.0 + 1e-9):
        raise ValueError("need s0 <= s1 within one period, got (%r, %r)" % (s0, s1))
    g, ends = loop.generator, np.array([s0, s1])
    m = g.y_dx[1]
    area = fourier.antiderivative_evaluator(g.z_dx[0])(ends)
    total = area[1] - area[0]
    if m != 0.0:  # ∫ s x' ds = s x - ∫ x, entering through the z ramp
        sx = ends * g.x_interp.value(ends)
        x_area = fourier.antiderivative_evaluator(g.x_rfft)(ends)
        total += m * (sx[1] - sx[0] - (x_area[1] - x_area[0]))
    return float(total)


@dataclass(frozen=True)
class EmbeddingReport:
    double_points: tuple  # (s0, s1, dw) triples
    margin: float  # min |dw|; +inf when there are no double points
    embedded: bool

    def to_dict(self) -> dict:
        return {
            "double_points": [
                {"s0": s0, "s1": s1, "dw": dw} for s0, s1, dw in self.double_points
            ],
            "margin": self.margin,
            "embedded": self.embedded,
        }


def embedding_check(loop: HorizontalLoop) -> EmbeddingReport:
    """Certify embeddedness: every self-meeting of the Legendrian curve
    must be separated in w by more than TOL_EMBED.

    The self-meetings are the loop's self_tangencies, which the loop
    scans for once and keeps.
    """
    if not loop.closed:
        raise NotClosed("loop does not close up (defects z %.3e, w %.3e)"
                        % (loop.closure_defect_z, loop.closure_defect_w))
    triples = []
    for s0, s1 in loop.self_tangencies:
        dw = area_integral(loop, s0, s1)
        triples.append((s0, s1, dw))
    margin = min((abs(dw) for _, _, dw in triples), default=math.inf)
    return EmbeddingReport(
        double_points=tuple(triples),
        margin=margin,
        embedded=margin > TOL_EMBED,
    )


def bump_power(width: float) -> int:
    """Exponent p making ((1+cos 2πs)/2)^p a bump of the given width.

    Matched so that the essential support (six standard deviations of
    the Gaussian it approximates) spans `width`.  The bump is a
    trigonometric polynomial of degree p, and it aliases on a grid whose
    N/2 is at or below its bandwidth; nothing refuses that yet (ROADMAP
    item 13 plans the refusal).  A width that is not positive, or so
    small (below about 1e-154) that p is not finite, raises ValueError.
    """
    sigma = width / 6.0
    spread = 2.0 * np.pi * np.pi * sigma * sigma
    if not (width > 0.0 and spread > 0.0 and math.isfinite(1.0 / spread)):
        raise ValueError("width must be positive and above about 1e-154, got %r" % width)
    return max(1, int(round(1.0 / spread)))


def bump_samples(s, center: float, width: float) -> np.ndarray:
    p = bump_power(width)
    s = np.asarray(s, dtype=float)
    return ((1.0 + np.cos(fourier.TAU * (s - center))) / 2.0) ** p


def bump_slope(s, center: float, width: float) -> np.ndarray:
    """d/ds of bump_samples, in closed form."""
    p = bump_power(width)
    u = fourier.TAU * (np.asarray(s, dtype=float) - center)
    base = (1.0 + np.cos(u)) / 2.0
    return -p * (fourier.TAU / 2.0) * np.sin(u) * base ** (p - 1)


def _refine_edge(g: LegendrianGenerator, s_in: float, s_out: float, half: float) -> float:
    """Continuous support-edge location: bisect |x'| - half between a
    sample inside the region and its neighbor outside.  It stops at the
    floating-point fixed point: once the midpoint rounds to an end, no
    further halving moves the result."""
    lo, hi = s_in, s_out
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if abs(g.x_interp.value(mid, 1)) >= half:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _half_max_runs(g: LegendrianGenerator):
    """Maximal circular runs where |x'| >= max|x'| / 2, with edges
    refined off the grid so the answer does not depend on N."""
    n = g.n
    half = 0.5 * float(np.max(np.abs(g.xp)))
    inside = np.abs(g.xp) >= half
    if np.all(inside):
        return [(0.0, 1.0)]
    starts = np.nonzero(inside & ~fourier.roll(inside, 1))[0]
    runs = []
    for k0 in starts.tolist():
        k1 = k0  # passes n - 1 on a run across the seam, so hi >= lo always
        while inside[(k1 + 1) % n]:
            k1 += 1
        lo = _refine_edge(g, k0 / n, (k0 - 1) / n, half)
        hi = _refine_edge(g, k1 / n, (k1 + 1) / n, half)
        runs.append((lo, hi))
    runs.sort(key=lambda r: r[1] - r[0], reverse=True)
    return runs


def balance_supports(g: LegendrianGenerator):
    """Two (center, width) bump placements inside the widest regions
    where |x'| is at least half its maximum.

    Centers sit off the region midpoints (offset by a fifth of the
    region width, same direction in both).  Dead-center placement makes
    the 2x2 closure system exactly singular for mirror-symmetric curves
    like the round generator, because the w-functional of a bump whose
    F-step is centered at a symmetry point cancels identically.
    """
    runs = _half_max_runs(g)
    if len(runs) == 1:
        lo, hi = runs[0]
        mid = 0.5 * (lo + hi)
        runs = [(lo, mid), (mid, hi)]
    picks = []
    for lo, hi in runs[:2]:
        span = hi - lo
        width = min(BUMP_WIDTH, 0.9 * span)
        center = min(lo + 0.7 * span, hi - 0.55 * width)
        picks.append((float(np.mod(center, 1.0)), float(width)))
    return tuple(picks)


def balancing_system(g: LegendrianGenerator, supports=None):
    """(phi1, phi2, M): the two balancing bumps sampled on g's grid and
    the 2x2 matrix whose columns are their closure functionals.

    supports defaults to balance_supports(g).  Raises BadDescription when
    M leaves the float range, SingularSystem when the bumps decouple from
    the closure constraints (M numerically zero) or M is too
    ill-conditioned to solve.  Both tests judge M's shape, not its size:
    they read M with its z row divided by max|x'| and its w row by the
    square, the powers of the curve's scale that the two rows carry.
    """
    s = fourier.grid(g.n)
    phis = np.stack([bump_samples(s, c, w) for c, w in supports or balance_supports(g)])
    matrix = np.array(closure_functionals(g, phis))
    if not np.isfinite(matrix).all():
        raise BadDescription("closure functionals of the balancing bumps must be finite")
    scale = float(np.max(np.abs(g.xp)))
    with np.errstate(invalid="ignore"):  # 0 / 0 where x', and so M, vanishes
        shape = matrix / scale
        shape[1] /= scale
    if not float(np.max(np.abs(shape))) > 1e-12:
        raise SingularSystem(
            "bump supports decouple from the closure constraints "
            "(functional matrix is numerically zero)"
        )
    cond = np.linalg.cond(shape)
    if cond > CONDITION_LIMIT:
        raise SingularSystem(
            "closure system condition number %.3e exceeds %g; "
            "move the bump supports" % (cond, CONDITION_LIMIT)
        )
    return (*phis, matrix)


def balance_closure(g: LegendrianGenerator, supports=None) -> LegendrianGenerator:
    """Adjust y by two localized bumps so both closure integrals vanish.

    x is untouched, so the front keeps its cusps; the correction is the
    exact solution of the 2x2 linear system the two bumps span.  Input
    whose loop is already closed (HorizontalLoop.closed) is returned as is.
    Raises SingularSystem when the bump functionals cannot reach the
    defects, or leave one above TOL_CLOSURE; NotImmersed if the
    corrected curve stalls.
    """
    if HorizontalLoop(g).closed:
        return g

    phi1, phi2, matrix = balancing_system(g, supports)
    a, b = np.linalg.solve(matrix, -np.array([z_closure_defect(g), w_closure_defect(g)]))

    out = g.with_y(g.y + a * phi1 + b * phi2).require_immersed()
    if not HorizontalLoop(out).closed:
        raise SingularSystem(
            "balanced defects (%.3e, %.3e) above the closure tolerance %g"
            % (z_closure_defect(out), w_closure_defect(out), TOL_CLOSURE)
        )
    return out
