"""Self-intersection scans for sampled loops.

Two scans with different targets.  coincident_pairs finds parameter pairs
where the space curve (x, y, z) returns to the same point; these project
to self-tangencies of the front, since equal slope is exactly equality of
y.  front_crossings finds transverse double points of the (x, z) picture,
where the slopes differ.  Both do a coarse pass on a decimated grid and
hand every seed, in one batch, to the one refiner: a damped
least-squares descent on the gap between the two points of each pair,
taken against the trigonometric interpolants in (x, y, z) for a
coincidence and in (x, z) for a crossing, so the reported parameters do
not degrade with the sampling rate.  Every coarse candidate is a seed of
its own; the one clustering step merges the refined pairs that lie
within MERGE_FINE_CELLS fine cells of each other, circularly.

Neither coarse pass visits all m^2 cells of the m decimated samples.
Both hand per-item intervals to one sort-and-sweep (Bentley and Ottmann,
IEEE Trans. Computers, 1979): sorted by their lower ends, the intervals
that overlap item p form one run that searchsorted finds, so only
overlapping pairs are built.  A coincidence candidate lies within the
catch radius of the faster of its two samples, so sample i gets the
interval p_i +- (CATCH_COARSE_CELLS / m) speed_i on a coordinate axis,
the axis whose sweep yields the fewest pairs.  A front crossing needs
its two segments to meet, so each segment gets its x-extent.  Each
prefilter is a superset of the cells its exact test accepts (rounding is
padded for; the arguments sit beside the code), and the exact tests run
unchanged on the swept pairs.  When every interval overlaps, the sweep
builds the m (m - 1) / 2 pairs a dense pass would.

Intended for closed loops; on an unclosed loop the z values used here
include the defect ramp and the notion of "same point" is murky.
"""

from __future__ import annotations

import numpy as np

from . import fourier


DECIMATION = 8
MIN_COARSE = 64
# Pair filters, in units of grid cells (coarse or fine as noted).
EXCLUDE_COARSE_CELLS = 2  # near-diagonal seeds dropped outright
CATCH_COARSE_CELLS = 3.0  # catch radius, times the larger local speed
DIAGONAL_FINE_CELLS = 4.0  # refined pairs this close to s0 == s1 are noise
MERGE_FINE_CELLS = 3.0  # refined pair deduplication

COINCIDENCE_TOL = 1e-10
SLOPE_TOL = 1e-6


def _circ_dist(a, b):
    d = np.abs(np.mod(a - b, 1.0))
    return np.minimum(d, 1.0 - d)


def _coarse_indices(n: int):
    stride = max(1, n // max(MIN_COARSE, n // DECIMATION))
    m = n // stride
    return np.arange(m) * stride, m, stride


def _canonical(s0: float, s1: float):
    s0 = float(np.mod(s0, 1.0))
    s1 = float(np.mod(s1, 1.0))
    return (s0, s1) if s0 <= s1 else (s1, s0)


def _same_pair(p, q, radius: float) -> bool:
    """Unordered circular match; a pair straddling the 0/1 seam shows up
    both as (0, b) and as (b, 1 - eps), so both assignments count."""
    if _circ_dist(p[0], q[0]) <= radius and _circ_dist(p[1], q[1]) <= radius:
        return True
    return _circ_dist(p[0], q[1]) <= radius and _circ_dist(p[1], q[0]) <= radius


def _dedupe(pairs, radius: float):
    out = []
    for p in sorted(pairs):
        if not any(_same_pair(p, q, radius) for q in out):
            out.append(p)
    return out


def _refine_pairs(loop, seeds, rows):
    """Damped least-squares polish of all seed pairs at once.

    The gap is taken in the channels rows (a slice) of loop.curve:
    (x, y, z) for a coincidence, (x, z) for a front crossing.  The
    damping matters: a meeting whose two velocities are parallel or
    anti-parallel has a rank-1 Jacobian, and the plain normal equations
    are singular there.  Each pair carries its own damping weight; a pair
    that fails to improve eight times in a row is abandoned where it is,
    and so is a pair whose step is not finite, never evaluated there.
    Returns a list of (s0, s1, |gap|).

    A pair's last bits depend on the seeds that share its batch:
    Interpolant.value forms weights @ phase.T, and the BLAS product
    rounds a column by its position in the call.  Refined alone, the
    seed behind the demo's frame-32 pair at 4096 samples ends at
    (0.44423102418362104, 0.5557689758159601), not at the batch's
    (0.4442310241836211, 0.55576897581596).  So any change to the seed
    set, even dropping seeds that can never be accepted, moves the
    pinned verification.json.
    """
    if len(seeds) == 0:
        return []
    u = np.array(seeds, dtype=float)  # (k, 2)
    k = u.shape[0]

    def batch(u_arr):
        pv = np.swapaxes(loop.curve.value(u_arr.ravel(), (0, 1))[:, rows], 1, 2)
        p, v = pv.reshape(2, -1, 2, pv.shape[-1])
        delta = p[:, 0, :] - p[:, 1, :]
        return v, delta, np.einsum("ij,ij->i", delta, delta)

    v, delta, cost = batch(u)
    lam = np.full(k, 1e-3)
    fails = np.zeros(k, dtype=int)
    target = (0.01 * COINCIDENCE_TOL) ** 2
    for _ in range(160):
        active = np.nonzero((cost > target) & (fails < 8))[0]
        if active.size == 0:
            break
        v0, v1, d = v[active, 0, :], v[active, 1, :], delta[active]
        a00 = np.einsum("ij,ij->i", v0, v0) + lam[active]
        a11 = np.einsum("ij,ij->i", v1, v1) + lam[active]
        a01 = -np.einsum("ij,ij->i", v0, v1)
        g0 = np.einsum("ij,ij->i", v0, d)
        g1 = -np.einsum("ij,ij->i", v1, d)
        det = a00 * a11 - a01 * a01  # 0 once lam is below one ulp of |v|^2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = -np.stack([a11 * g0 - a01 * g1, a00 * g1 - a01 * g0], axis=1) / det[:, None]
        if not np.isfinite(step).all():  # such a pair retires where it stands
            finite = np.isfinite(step).all(axis=1)
            fails[active[~finite]] = 8
            active, step = active[finite], step[finite]
            if active.size == 0:
                continue
        u_try = u[active] + step
        v_t, d_t, c_t = batch(u_try)
        better = c_t < cost[active]
        # An accepted step that barely moves the cost is a stall, not
        # progress; a pair crawling along a tangency valley would otherwise
        # stay active for the whole iteration budget on every frame.
        crawling = c_t > 0.9 * cost[active]
        good = active[better]
        u[good] = u_try[better]
        v[good] = v_t[better]
        delta[good] = d_t[better]
        cost[good] = c_t[better]
        lam[good] = np.maximum(lam[good] / 3.0, 1e-12)
        fails[good] = np.where(crawling[better], fails[good] + 1, 0)
        bad = active[~better]
        lam[bad] *= 10.0
        fails[bad] += 1
    return [(float(u[i, 0]), float(u[i, 1]), float(np.sqrt(cost[i]))) for i in range(k)]


def _accepted_pairs(loop, seeds, rows, tol: float):
    """The refined seeds whose gap is at most tol, each canonical and off
    the diagonal."""
    n = loop.n
    pairs = []
    for r0, r1, gap in _refine_pairs(loop, seeds, rows):
        if gap > tol:
            continue
        r0, r1 = _canonical(r0, r1)
        if _circ_dist(r0, r1) < DIAGONAL_FINE_CELLS / n:
            continue
        pairs.append((r0, r1))
    return pairs


def _overlapping_pairs(lo: np.ndarray, hi: np.ndarray):
    """Index pairs (a, b), a < b, in no set order, whose closed intervals
    [lo, hi] overlap.  Callers sort the few pairs they keep.

    lo and hi are (axes, items): each row bounds the items one way, and a
    caller passes rows whose overlaps it may use interchangeably.  Each row
    is sorted by lo; the items after item p in that order that overlap it
    are exactly those whose lo is at most hi[p], a contiguous run that
    searchsorted finds.  The run lengths count a row's pairs before any
    pair is built, so only the row with the fewest pairs is expanded.
    """
    items = lo.shape[1]
    best = None
    for row_lo, row_hi in zip(lo, hi):
        order = np.argsort(row_lo)
        end = np.searchsorted(row_lo[order], row_hi[order], side="right")
        runs = end - np.arange(1, items + 1)
        if best is None or runs.sum() < best[1].sum():
            best = (order, runs)
    order, runs = best
    first = np.repeat(np.arange(items), runs)
    step = np.arange(first.size) - np.repeat(np.cumsum(runs) - runs, runs)
    a, b = order[first], order[first + 1 + step]
    return np.minimum(a, b), np.maximum(a, b)


def _row_major(m: int, i: np.ndarray, j: np.ndarray, *columns):
    """The cells (i, j), i < j < m, and their columns, in row-major order."""
    order = np.argsort(i * m + j)
    return tuple(a[order] for a in (i, j) + columns)


def _coarse_candidates(pts: np.ndarray, speed: np.ndarray):
    """Coarse cells (i, j), i < j, of the m samples pts (speeds speed)
    that may hold a coincidence, as row-major arrays (i, j, distance)."""
    m = pts.shape[0]
    reach = (CATCH_COARSE_CELLS / m) * speed

    def dist(i, j):
        # Components summed in x, y, z order, so every distance has the
        # same bits wherever it is computed.
        total = 0.0
        for col in pts.T:
            diff = col[i] - col[j]
            total = total + diff * diff
        return np.sqrt(total)

    # A candidate lies within max(reach_i, reach_j) <= reach_i + reach_j,
    # so on every axis the intervals p_i +- reach_i and p_j +- reach_j
    # overlap.  The pad covers the rounding of the distance and of the
    # interval ends, so no cell passing the float radius test is missed.
    pad = 4.0 * np.finfo(float).eps * (np.max(np.abs(pts)) + np.max(reach))
    ci, cj = _overlapping_pairs(pts.T - reach - pad, pts.T + reach + pad)
    gap = cj - ci
    keep = np.minimum(gap, m - gap) > EXCLUDE_COARSE_CELLS
    ci, cj = ci[keep], cj[keep]
    cd = dist(ci, cj)
    keep = cd < np.maximum(reach[ci], reach[cj])
    ci, cj, cd = ci[keep], cj[keep], cd[keep]
    # Only cells that are 8-neighbourhood minima of the sampled distance
    # can hold a basin bottom; without this filter every cell along a pair
    # of nearby strands passes the radius test and floods the refiner.  A
    # cell leaves at its first nearer neighbour.
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            if a or b:
                keep = cd <= dist((ci + a) % m, (cj + b) % m)
                ci, cj, cd = ci[keep], cj[keep], cd[keep]
    return _row_major(m, ci, cj, cd)


def coincident_pairs(loop):
    """Parameter pairs (s0, s1), s0 < s1, with gamma(s0) == gamma(s1).

    Acceptance is |gap| <= COINCIDENCE_TOL in the 3-space sup of the
    Euclidean norm.
    """
    g = loop.generator
    n = g.n
    idx, _, stride = _coarse_indices(n)
    pts = np.stack([g.x[idx], g.y[idx], np.asarray(loop.z)[idx]], axis=1)
    # z' = y x' by construction of the lift.
    speed = np.hypot(np.hypot(g.xp, g.yp), g.y * g.xp)[idx]

    ci, cj, _ = _coarse_candidates(pts, speed)
    seeds = np.stack([ci, cj], axis=1) * stride / n
    pairs = _accepted_pairs(loop, seeds, slice(None), COINCIDENCE_TOL)
    return _dedupe(pairs, MERGE_FINE_CELLS / n)


def _cross2(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _crossing_hits(q: np.ndarray):
    """Proper intersections between the segments q_i q_{i+1} of the closed
    polyline q, as row-major arrays (i, j, d1, d2, d3, d4), i < j at least
    EXCLUDE_COARSE_CELLS apart around the loop.

    d1, d2 are the orientations of q_j and q_{j+1} against segment i, d3,
    d4 those of q_i and q_{i+1} against segment j; a hit has both pairs of
    opposite sign.  Only segments whose padded x-extents overlap are
    tested, and the pad is what makes that safe.  In exact arithmetic a
    hit implies the segments meet, so their extents overlap.  In floating
    point a d can take the wrong sign only for a vertex within
    rho = 3 eps L of the other segment's line, where L is the larger of
    q's x and z ranges.  A hit between segments whose x-extents lie g
    apart then needs all four vertices within rho (1 + 3 L / g) of one
    line.  With a pad of 2^-20 max(L, max|q|) per side that is about
    1e-9 L: two strands straight and aligned to that accuracy, which
    curved fronts do not have, so every hit the sign test flags is swept.
    """
    m = q.shape[0]
    q_next = fourier.roll(q, -1, axis=0)
    e = q_next - q
    x0 = np.minimum(q[:, 0], q_next[:, 0])
    x1 = np.maximum(q[:, 0], q_next[:, 0])
    pad = 2.0**-20 * max(float(np.max(np.abs(q))), float(np.max(np.ptp(q, axis=0))))
    i, j = _overlapping_pairs((x0 - pad)[None], (x1 + pad)[None])
    circ = np.minimum(j - i, m - (j - i))
    keep = circ >= EXCLUDE_COARSE_CELLS
    i, j = i[keep], j[keep]
    ca = q[j] - q[i]  # C - A
    d1 = _cross2(e[i], ca)
    d2 = _cross2(e[i], q_next[j] - q[i])  # D - A
    d3 = _cross2(e[j], -ca)  # cross(D - C, A - C)
    d4 = _cross2(e[j], q_next[i] - q[j])
    hit = (d1 * d2 < 0.0) & (d3 * d4 < 0.0)
    return _row_major(m, i[hit], j[hit], d1[hit], d2[hit], d3[hit], d4[hit])


def front_crossings(loop):
    """Transverse double points of the front, as pairs (s0, s1), s0 < s1.

    A refined pair is accepted when its (x, z) gap is at most 1e-11 times
    the front's extent (at least 1).  Pairs at which the slopes agree to
    SLOPE_TOL are not crossings but tangencies; they are excluded here and
    belong to coincident_pairs.
    """
    g = loop.generator
    n = g.n
    idx, _, stride = _coarse_indices(n)
    # Half-cell offset: a crossing sitting exactly on a polyline vertex
    # (common for hand-built loops with crossings at dyadic parameters)
    # zeroes out the orientation products and slips through a strict
    # segment test.  Shifted vertices dodge that without a tolerance.
    shift = stride // 2
    idx = idx + shift
    q = np.stack([g.x[idx], np.asarray(loop.z)[idx]], axis=1)
    scale = max(
        1.0,
        float(np.max(g.x) - np.min(g.x)),
        float(np.max(loop.z) - np.min(loop.z)),
    )

    i, j, d1, d2, d3, d4 = _crossing_hits(q)
    seed0 = ((i + d3 / (d3 - d4)) * stride + shift) / n
    seed1 = ((j + d1 / (d1 - d2)) * stride + shift) / n
    # Rows x and z of the curve: the crossing equations of the front.
    pairs = _accepted_pairs(
        loop, np.stack([seed0, seed1], axis=1), slice(None, None, 2), 1e-11 * scale
    )
    pairs = [
        (s0, s1) for s0, s1 in pairs
        if abs(g.y_interp.value(s0) - g.y_interp.value(s1)) > SLOPE_TOL
    ]
    return _dedupe(pairs, MERGE_FINE_CELLS / n)
