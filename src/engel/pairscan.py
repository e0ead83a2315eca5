"""Self-intersection scans for sampled loops.

Two scans with different targets.  coincident_pairs finds parameter pairs
where the space curve (x, y, z) returns to the same point; these project
to self-tangencies of the front, since equal slope is exactly equality of
y.  front_crossings finds transverse double points of the (x, z) picture,
where the slopes differ.  Both do a coarse pass on a decimated grid and
polish every seed against the trigonometric interpolants, so the reported
parameters do not degrade with the sampling rate.

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
MERGE_COARSE_CELLS = 3.0  # seed clustering
DIAGONAL_FINE_CELLS = 4.0  # refined pairs this close to s0 == s1 are noise
MERGE_FINE_CELLS = 3.0  # refined pair deduplication

COINCIDENCE_TOL = 1e-10
SLOPE_TOL = 1e-6
# Near-miss cost (gap^2) below which a stalled pair earns a Newton polish.
POLISH_COST = 1e-8


def _circ_dist(a, b):
    d = np.abs(np.mod(a - b, 1.0))
    return np.minimum(d, 1.0 - d)


def _zp_samples(loop) -> np.ndarray:
    """Grid samples of z', with the closure-defect ramp handled exactly."""
    drift = loop.closure_defect_z
    z = np.asarray(loop.z)
    if drift == 0.0:
        return fourier.derivative(z)
    return fourier.derivative(z - drift * fourier.grid(z.shape[0])) + drift


def _coarse_indices(n: int):
    m = min(n, max(MIN_COARSE, n // DECIMATION))
    stride = n // m
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


def _eval3(loop, u: np.ndarray, orders=(0, 1)):
    """Points and velocities (and accelerations, with orders=(0, 1, 2)) of
    the space curve at a parameter vector, shaped (orders, len(u), 3)."""
    return np.swapaxes(loop.curve.value(u, orders), 1, 2)


def _refine_coincidences(loop, seeds, tol: float):
    """Damped least-squares polish of all seed pairs at once.

    The damping matters: a coincidence whose two velocities are parallel
    or anti-parallel has a rank-1 Jacobian, and the plain normal equations
    are singular there.  Each pair carries its own damping weight; a pair
    that fails to improve eight times in a row is abandoned where it is.
    Returns a list of (s0, s1, |gap|).
    """
    if len(seeds) == 0:
        return []
    u = np.array(seeds, dtype=float)  # (k, 2)
    k = u.shape[0]

    def batch(u_arr):
        p, v = _eval3(loop, u_arr.ravel())
        p = p.reshape(-1, 2, 3)
        v = v.reshape(-1, 2, 3)
        delta = p[:, 0, :] - p[:, 1, :]
        return v, delta, np.einsum("ij,ij->i", delta, delta)

    v, delta, cost = batch(u)
    lam = np.full(k, 1e-3)
    fails = np.zeros(k, dtype=int)
    target = (0.01 * tol) ** 2
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
        det = a00 * a11 - a01 * a01  # positive: lam keeps both rows alive
        step0 = -(a11 * g0 - a01 * g1) / det
        step1 = -(a00 * g1 - a01 * g0) / det
        u_try = u[active] + np.stack([step0, step1], axis=1)
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

    # A tangential meeting leaves the least-squares step blind along the
    # touch direction (the cost is quartic there), so close near-misses
    # stall above the target.  Polish those with the exact curvature.
    stalled = [i for i in range(k) if target < cost[i] <= POLISH_COST]
    for i in stalled:
        u[i], cost[i] = _newton_polish(loop, u[i], cost[i], target)
    return [(float(u[i, 0]), float(u[i, 1]), float(np.sqrt(cost[i]))) for i in range(k)]


def _newton_polish(loop, u0, c0, target: float):
    """Full Newton descent on the squared gap of one pair.

    Unlike the Gauss-Newton step above, the Hessian here keeps the
    d . gamma'' terms, which carry the only signal along a tangency
    valley.  The damping weight mu handles indefinite regions.
    """

    def measure(u):
        p, v, acc = _eval3(loop, u, (0, 1, 2))
        d = p[0] - p[1]
        return v, acc, d, float(d @ d)

    u = np.array(u0, dtype=float)
    v, acc, d, c = measure(u)
    if c >= c0:
        u, c = np.array(u0, dtype=float), c0
        v, acc, d, _ = measure(u)
    mu = 1e-9
    for _ in range(80):
        if c <= target:
            break
        grad = 2.0 * np.array([d @ v[0], -(d @ v[1])])
        h00 = v[0] @ v[0] + d @ acc[0]
        h11 = v[1] @ v[1] - d @ acc[1]
        h01 = -(v[0] @ v[1])
        scale = abs(h00) + abs(h11) + 1.0
        improved = False
        for _ in range(12):
            m = 2.0 * np.array([[h00 + mu * scale, h01], [h01, h11 + mu * scale]])
            try:
                step = np.linalg.solve(m, -grad)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            v_t, acc_t, d_t, c_t = measure(u + step)
            if c_t < c:
                u, v, acc, d, c = u + step, v_t, acc_t, d_t, c_t
                mu = max(mu / 3.0, 1e-12)
                improved = True
                break
            mu *= 10.0
        if not improved:
            break
    return u, c


def _coarse_candidates(pts: np.ndarray, speed: np.ndarray):
    """Coarse cells (i, j), i < j, of the m samples pts (speeds speed)
    that may hold a coincidence, as row-major arrays (i, j, distance)."""
    m = pts.shape[0]
    # Squared distances summed one component at a time: the same bits as
    # summing the (m, m, 3) difference cube, without building it.
    dist = np.zeros((m, m))
    for col in pts.T:
        diff = col[:, None] - col[None, :]
        dist += diff * diff
    dist = np.sqrt(dist)
    # Only cells that are 8-neighbourhood minima of the sampled distance
    # can hold a basin bottom; without this filter every cell along a pair
    # of nearby strands passes the radius test and floods the refiner.
    # Being no larger than any neighbour is being the minimum of the 3x3
    # window, which separates into a row pass and a column pass.
    window = np.minimum(np.minimum(np.roll(dist, 1, 0), dist), np.roll(dist, -1, 0))
    window = np.minimum(np.minimum(np.roll(window, 1, 1), window), np.roll(window, -1, 1))
    ci, cj = np.nonzero(dist == window)
    cd = dist[ci, cj]
    gap = cj - ci
    radius = (CATCH_COARSE_CELLS / m) * np.maximum(speed[ci], speed[cj])
    keep = (gap > 0) & (np.minimum(gap, m - gap) > EXCLUDE_COARSE_CELLS) & (cd < radius)
    return ci[keep], cj[keep], cd[keep]


def coincident_pairs(loop, tol: float = COINCIDENCE_TOL):
    """Parameter pairs (s0, s1), s0 < s1, with gamma(s0) == gamma(s1).

    Acceptance is |gap| <= tol in the 3-space sup of the Euclidean norm.
    """
    g = loop.generator
    n = g.n
    idx, m, stride = _coarse_indices(n)
    pts = np.stack([g.x[idx], g.y[idx], np.asarray(loop.z)[idx]], axis=1)
    speed = np.hypot(np.hypot(g.xp, g.yp), _zp_samples(loop))[idx]

    ci, cj, cd = _coarse_candidates(pts, speed)

    # Greedy cluster merge, nearest first.  Binning on the coarse index
    # keeps the membership test O(1) per candidate: an accepted seed can
    # only veto candidates in its own or an adjacent bin.
    order = np.argsort(cd)
    span = int(MERGE_COARSE_CELLS)
    bins = {}
    seeds = []
    for k in order:
        bi, bj = int(ci[k]) // span, int(cj[k]) // span
        taken = False
        for pi in (bi - 1, bi, bi + 1):
            for pj in (bj - 1, bj, bj + 1):
                for qi, qj in bins.get((pi % (m // span + 1), pj % (m // span + 1)), ()):
                    di = min(abs(int(ci[k]) - qi), m - abs(int(ci[k]) - qi))
                    dj = min(abs(int(cj[k]) - qj), m - abs(int(cj[k]) - qj))
                    if di <= span and dj <= span:
                        taken = True
                        break
                if taken:
                    break
            if taken:
                break
        if not taken:
            key = (bi % (m // span + 1), bj % (m // span + 1))
            bins.setdefault(key, []).append((int(ci[k]), int(cj[k])))
            seeds.append((ci[k] * stride / n, cj[k] * stride / n))

    pairs = []
    for r0, r1, gap in _refine_coincidences(loop, seeds, tol):
        if gap > tol:
            continue
        r0, r1 = _canonical(r0, r1)
        if _circ_dist(r0, r1) < DIAGONAL_FINE_CELLS / n:
            continue
        pairs.append((r0, r1))
    return _dedupe(pairs, MERGE_FINE_CELLS / n)


def _cross2(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _refine_crossing(loop, s0: float, s1: float, scale: float):
    u = np.array([s0, s1], dtype=float)
    for _ in range(40):
        (xv, _, zv), (xpv, _, zpv) = loop.curve.value(u, (0, 1))
        rhs = np.array([xv[0] - xv[1], zv[0] - zv[1]])
        jac = np.array([[xpv[0], -xpv[1]], [zpv[0], -zpv[1]]])
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        if abs(det) < 1e-12 * scale * scale:
            return None
        step = np.linalg.solve(jac, -rhs)
        if not np.all(np.isfinite(step)) or float(np.max(np.abs(step))) > 0.25:
            return None
        u = u + step
        if float(np.max(np.abs(step))) < 1e-13:
            break
    xv, _, zv = loop.curve.value(u)
    if max(abs(xv[0] - xv[1]), abs(zv[0] - zv[1])) > 1e-11 * scale:
        return None
    return float(u[0]), float(u[1])


def front_crossings(loop, slope_tol: float = SLOPE_TOL):
    """Transverse double points of the front, as pairs (s0, s1), s0 < s1.

    Pairs at which the slopes agree to slope_tol are not crossings but
    tangencies; they are excluded here and belong to coincident_pairs.
    """
    g = loop.generator
    n = g.n
    idx, m, stride = _coarse_indices(n)
    # Half-cell offset: a crossing sitting exactly on a polyline vertex
    # (common for hand-built loops with crossings at dyadic parameters)
    # zeroes out the orientation products and slips through a strict
    # segment test.  Shifted vertices dodge that without a tolerance.
    shift = stride // 2
    idx = idx + shift
    q = np.stack([g.x[idx], np.asarray(loop.z)[idx]], axis=1)
    q_next = np.roll(q, -1, axis=0)
    e = q_next - q
    scale = max(
        1.0,
        float(np.max(g.x) - np.min(g.x)),
        float(np.max(loop.z) - np.min(loop.z)),
    )

    # All-pairs proper-intersection test between coarse polyline segments.
    ca = q[None, :, :] - q[:, None, :]  # C - A at [i, j]
    da = q_next[None, :, :] - q[:, None, :]  # D - A
    d1 = _cross2(e[:, None, :], ca)
    d2 = _cross2(e[:, None, :], da)
    d3 = _cross2(e[None, :, :], -ca)  # cross(D - C, A - C)
    d4 = _cross2(e[None, :, :], q_next[:, None, :] - q[None, :, :])
    hit = (d1 * d2 < 0.0) & (d3 * d4 < 0.0)

    i_all, j_all = np.nonzero(hit)
    keep = j_all > i_all
    i_all, j_all = i_all[keep], j_all[keep]
    circ = np.minimum(j_all - i_all, m - (j_all - i_all))
    keep = circ >= EXCLUDE_COARSE_CELLS
    i_all, j_all = i_all[keep], j_all[keep]

    pairs = []
    for i, j in zip(i_all.tolist(), j_all.tolist()):
        t = d3[i, j] / (d3[i, j] - d4[i, j])
        v = d1[i, j] / (d1[i, j] - d2[i, j])
        seed0 = ((i + t) * stride + shift) / n
        seed1 = ((j + v) * stride + shift) / n
        refined = _refine_crossing(loop, seed0, seed1, scale)
        if refined is None:
            continue
        s0, s1 = _canonical(*refined)
        if _circ_dist(s0, s1) < DIAGONAL_FINE_CELLS / n:
            continue
        if abs(float(g.y_at(s0)) - float(g.y_at(s1))) <= slope_tol:
            continue
        pairs.append((s0, s1))
    return _dedupe(pairs, MERGE_FINE_CELLS / n)
