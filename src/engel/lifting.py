"""Integration of z and w, closure balancing, and the embedding test.

The two closure integrals of a generator are ∮ y dx (which must vanish
for z to close up) and ∮ z dx (likewise for w).  Everything here reduces
to integrals of sampled products against x', evaluated with the spectral
antiderivative.  When z carries a defect ramp m·s, integrands of the form
z x' are split exactly as m (s x') + (periodic) x', using the identity
∫₀¹ s x' ds = x(0) - mean(x), so nothing is ever integrated through the
parameter seam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fourier
from .curves import TOL_CLOSURE, HorizontalLoop, LegendrianGenerator
from .errors import NotClosed, SingularSystem

TOL_EMBED = 1e-7
BUMP_WIDTH = 0.08
CONDITION_LIMIT = 1e8
# Defects at or below this are treated as exact zeros: balancing such a
# generator returns it untouched, bit for bit.
EXACT_CLOSURE = 1e-13
SOLVER_RESIDUAL = 1e-12


def z_closure_defect(g: LegendrianGenerator) -> float:
    """∮ y dx over one period."""
    # As in lift: a y x' past the float range yields an inf or nan defect,
    # which the closure tests refuse.
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.mean(g.y * g.xp))


def w_closure_defect(g: LegendrianGenerator) -> float:
    """∮ z dx for the z that lift induces from g."""
    return closure_functionals(g, g.y)[1]


def closure_functionals(g: LegendrianGenerator, phi: np.ndarray):
    """(∮ phi dx, ∮ Φ dx) with Φ(s) = ∫₀ˢ phi dx.

    For phi = y these are the two closure integrals; for a bump they are
    the per-unit changes of both when the bump is added to y.  Writing
    Φ(s) = m s + P(s) with P periodic, the second is
    m (x(0) - mean x) + ∮ P x', which stays exact even when m is large.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        f, m = fourier.antiderivative(phi * g.xp)
        periodic = f - m * fourier.grid(g.n)
        return float(m), float(
            m * (g.x[0] - np.mean(g.x)) + np.mean(periodic * g.xp)
        )


def lift(g: LegendrianGenerator) -> HorizontalLoop:
    """Integrate the slope data to a loop tangent to the plane field.

    z(s) = ∫₀ˢ y dx requires ∮ y dx = 0 (raises NotClosed otherwise);
    w(s) = ∫₀ˢ z dx is always produced, with its own closure defect
    recorded on the result.
    """
    # y x' past the float range gives an inf or nan m_z; the test refuses both.
    with np.errstate(over="ignore", invalid="ignore"):
        z, m_z = fourier.antiderivative(g.y * g.xp)
    if not abs(m_z) <= TOL_CLOSURE:
        raise NotClosed(
            "∮ y dx = %.6e exceeds the closure tolerance %g; "
            "balance the generator first" % (m_z, TOL_CLOSURE)
        )
    s = fourier.grid(g.n)
    z_periodic = z - m_z * s
    f_w, m_w = fourier.antiderivative(z_periodic * g.xp)
    f_x, x_mean = fourier.antiderivative(g.x)
    # ∫₀ˢ t x'(t) dt = s x(s) - ∫₀ˢ x, entering through the z ramp.
    w = f_w + m_z * (s * g.x - f_x)
    defect_w = float(m_w + m_z * (g.x[0] - x_mean))
    return HorizontalLoop(g, z, float(m_z), w, defect_w)


def area_integral(loop, s0: float, s1: float) -> float:
    """∫_{s0}^{s1} z dx along the loop; (0, 1) gives ∮ z dx.

    Only x and z enter, so any LegendrianLoop will do.
    """
    s0 = float(s0)
    s1 = float(s1)
    if not (s0 <= s1 <= s0 + 1.0 + 1e-9):
        raise ValueError("need s0 <= s1 within one period, got (%r, %r)" % (s0, s1))
    g = loop.generator
    m = loop.closure_defect_z
    z_periodic = loop.z - m * fourier.grid(g.n)
    # Each endpoint is its own scalar call: a vector call over both rounds
    # differently, and dw's bits are pinned.
    area = fourier.antiderivative_evaluator(z_periodic * g.xp)
    total = area(s1) - area(s0)
    if m != 0.0:
        x_area = fourier.antiderivative_evaluator(g.x)
        total += m * (
            s1 * g.x_interp.value(s1)
            - s0 * g.x_interp.value(s0)
            - (x_area(s1) - x_area(s0))
        )
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
    if not abs(loop.closure_defect_z) <= TOL_CLOSURE:
        raise NotClosed("z does not close up (defect %.3e)" % loop.closure_defect_z)
    if not abs(loop.closure_defect_w) <= TOL_CLOSURE:
        raise NotClosed("w does not close up (defect %.3e)" % loop.closure_defect_w)
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
    starts = np.nonzero(inside & ~np.roll(inside, 1))[0]
    runs = []
    for k0 in starts.tolist():
        k1 = k0
        while inside[(k1 + 1) % n]:
            k1 += 1
        lo = _refine_edge(g, k0 / n, (k0 - 1) / n, half)
        hi = _refine_edge(g, k1 / n, (k1 + 1) / n, half)
        if hi < lo:
            hi += 1.0
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

    supports defaults to balance_supports(g).  Raises SingularSystem when
    the bumps decouple from the closure constraints (M numerically zero)
    or M is too ill-conditioned to solve.
    """
    if supports is None:
        supports = balance_supports(g)
    (c1, w1), (c2, w2) = supports
    s = fourier.grid(g.n)
    phi1 = bump_samples(s, c1, w1)
    phi2 = bump_samples(s, c2, w2)
    matrix = np.column_stack(
        (closure_functionals(g, phi1), closure_functionals(g, phi2))
    )
    scale = max(1.0, float(np.max(np.abs(g.xp))))
    if float(np.max(np.abs(matrix))) <= 1e-12 * scale:
        raise SingularSystem(
            "bump supports decouple from the closure constraints "
            "(functional matrix is numerically zero)"
        )
    if np.linalg.cond(matrix) > CONDITION_LIMIT:
        raise SingularSystem(
            "closure system condition number %.3e exceeds %g; "
            "move the bump supports" % (np.linalg.cond(matrix), CONDITION_LIMIT)
        )
    return phi1, phi2, matrix


def balance_closure(g: LegendrianGenerator, supports=None) -> LegendrianGenerator:
    """Adjust y by two localized bumps so both closure integrals vanish.

    x is untouched, so the front keeps its cusps; the correction is the
    exact solution of the 2x2 linear system the two bumps span.  Already
    balanced input (both defects at rounding level) is returned as-is.
    Raises SingularSystem when the bump functionals cannot reach the
    defects, and NotImmersed if the corrected curve stalls.
    """
    defect_z = z_closure_defect(g)
    defect_w = w_closure_defect(g)
    if abs(defect_z) <= EXACT_CLOSURE and abs(defect_w) <= EXACT_CLOSURE:
        return g

    phi1, phi2, matrix = balancing_system(g, supports)
    a, b = np.linalg.solve(matrix, -np.array([defect_z, defect_w]))

    out = LegendrianGenerator(g.x, g.y + a * phi1 + b * phi2).require_immersed()
    res_z = z_closure_defect(out)
    res_w = w_closure_defect(out)
    if not (abs(res_z) <= SOLVER_RESIDUAL and abs(res_w) <= SOLVER_RESIDUAL):
        raise SingularSystem(
            "balanced defects (%.3e, %.3e) above the solver residual bound"
            % (res_z, res_w)
        )
    return out
