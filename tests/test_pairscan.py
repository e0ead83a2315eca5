import math
import warnings

import numpy as np
import pytest

from engel import lifting, models, pairscan
from engel.curves import LegendrianGenerator

from helpers import (
    dense_crossing_hits,
    fish_arrays,
    mirror_loop,
    mirror_x,
    mirror_y,
    mirror_z,
    plain_arrays,
    raw_loop,
)


def test_fish_front_has_one_transverse_crossing():
    x, y, z = fish_arrays(1024)
    loop = raw_loop(x, y, z)
    got = pairscan.front_crossings(loop)
    assert len(got) == 1
    s0, s1 = got[0]
    assert s0 == pytest.approx(0.25, abs=1e-9)
    assert s1 == pytest.approx(0.75, abs=1e-9)
    # distinct slopes, so it must not show up as a coincidence
    assert pairscan.coincident_pairs(loop) == []


def test_plain_loop_is_clean():
    x, y, z = plain_arrays(1024)
    loop = raw_loop(x, y, z)
    assert pairscan.front_crossings(loop) == []
    assert pairscan.coincident_pairs(loop) == []


def test_mirror_coincidence_found_despite_antiparallel_velocities():
    # The two branches meet at (0, 1/2) with exactly opposite velocity
    # directions, which makes the pair equations rank-deficient there.
    loop = mirror_loop(2048)
    pairs = pairscan.coincident_pairs(loop)
    assert len(pairs) == 1
    s0, s1 = pairs[0]
    assert s0 == pytest.approx(0.0, abs=1e-6)
    assert s1 == pytest.approx(0.5, abs=1e-6)


def test_mirror_coincidence_survives_the_symmetry_breaking_term():
    loop = mirror_loop(2048, beta=0.25)
    pairs = pairscan.coincident_pairs(loop)
    assert any(
        s0 == pytest.approx(0.0, abs=1e-6) and s1 == pytest.approx(0.5, abs=1e-6)
        for s0, s1 in pairs
    )


def test_refinement_retires_a_pair_whose_step_is_not_finite():
    # With y scaled by 2^20 the damping of some mirror seeds falls below
    # one ulp of |v|^2: det is 0 and the step infinite.  Such a pair
    # retires where it stands, so nothing divides by zero and the
    # interpolant is never asked for a nan parameter.  The double point
    # itself is lost at this scale (ROADMAP item 20).
    s = np.arange(1024) / 1024
    loop = lifting.lift(LegendrianGenerator(mirror_x(s), 2.0**20 * mirror_y(s)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pairs = pairscan.coincident_pairs(loop)
    assert np.isfinite(np.reshape(pairs, (-1, 2))).all()


def test_front_crossings_exclude_equal_slope_pairs():
    loop = mirror_loop(1024)
    crossings = pairscan.front_crossings(loop)
    assert len(crossings) == 5
    for s0, s1 in crossings:
        assert abs(loop.generator.y_interp.value(s0) - loop.generator.y_interp.value(s1)) > 0.1
    # the tangency pair (0, 1/2) is not among them
    for s0, s1 in crossings:
        assert not (abs(s0) < 1e-3 and abs(s1 - 0.5) < 1e-3)


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("beta, count", [(0.0, 5), (0.25, 6)])
def test_mirror_crossings_meet_in_the_closed_form(n, beta, count):
    # Each refined pair is a double point of the hand-derived front.
    crossings = pairscan.front_crossings(mirror_loop(n, beta))
    assert len(crossings) == count
    for s0, s1 in crossings:
        assert abs(mirror_x(s0, beta) - mirror_x(s1, beta)) <= 1e-11
        assert abs(mirror_z(s0, beta) - mirror_z(s1, beta)) <= 1e-11


def test_scans_are_stable_under_resolution_changes():
    for n in (512, 1024, 4096):
        x, y, z = fish_arrays(n)
        got = pairscan.front_crossings(raw_loop(x, y, z))
        assert len(got) == 1
        assert got[0][0] == pytest.approx(0.25, abs=1e-8)
        assert got[0][1] == pytest.approx(0.75, abs=1e-8)


def coarse_oracle(pts, speed):
    """The coarse-pass definition, one cell at a time: i < j more than
    EXCLUDE_COARSE_CELLS apart around the loop, distance below the catch
    radius, and no larger than any of the 8 (cyclic) neighbour cells."""
    m = len(pts)

    def dist(i, j):
        p, q = pts[i % m], pts[j % m]
        d0, d1, d2 = p[0] - q[0], p[1] - q[1], p[2] - q[2]
        return math.sqrt(d0 * d0 + d1 * d1 + d2 * d2)

    out = []
    for i in range(m):
        for j in range(i + 1, m):
            if min(j - i, m - (j - i)) <= pairscan.EXCLUDE_COARSE_CELLS:
                continue
            d = dist(i, j)
            if not d < (pairscan.CATCH_COARSE_CELLS / m) * max(speed[i], speed[j]):
                continue
            if all(d <= dist(i + a, j + b)
                   for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b):
                out.append((i, j, d))
    return out


def coarse_inputs(loop):
    """The decimated samples and speeds the coincidence scan hands to
    _coarse_candidates."""
    g = loop.generator
    idx, m, _ = pairscan._coarse_indices(g.n)
    pts = np.stack([g.x[idx], g.y[idx], np.asarray(loop.z)[idx]], axis=1)
    speed = np.hypot(np.hypot(g.xp, g.yp), g.y * g.xp)[idx]
    return pts, speed


def coarse_matches_oracle(pts, speed):
    ci, cj, cd = pairscan._coarse_candidates(pts, speed)
    got = list(zip(ci.tolist(), cj.tolist(), cd.tolist()))
    want = coarse_oracle(pts.tolist(), speed.tolist())
    assert got == want
    return [(i, j) for i, j, _ in want]


@pytest.mark.parametrize("make, m, cell", [
    # n = 512 decimates to m = 64 coarse cells (stride 8); the mirror
    # tangency (0, 1/2) sits on the coarse cell (0, 32).
    pytest.param(lambda: mirror_loop(512), 64, (0, 32), id="0.0"),
    pytest.param(lambda: mirror_loop(512, beta=0.25), 64, (0, 32), id="0.25"),
    # Speeds from 0.82 to 46 give per-sample catch radii 56x apart, and
    # the sweep runs on y, not x.
    pytest.param(lambda: models.model_front(0, samples=1024), 128, None,
                 id="varying-speed"),
])
def test_coarse_candidates_match_a_double_loop_oracle(make, m, cell):
    pts, speed = coarse_inputs(make())
    assert len(pts) == m
    cells = coarse_matches_oracle(pts, speed)
    if cell is None:
        assert speed.max() > 50 * speed.min()
    else:
        assert cell in cells


def test_coarse_candidates_keep_the_exclusion_and_radius_boundaries():
    # Samples 20 apart on a large circle, except for hand-placed returns:
    # q4 = q6 and q1 = q31 (circular gap 2, across the seam for the
    # second), q12 next to q9 and q29 next to q0 (gap 3, across the seam
    # for the second).  Each return is the minimum of its 3x3 window and
    # inside the catch radius, so only the exclusion decides it.  q24
    # returns 2.7 from q20, inside q24's catch radius of 3 but far outside
    # q20's 0.09: the larger of the two radii must decide.
    m = 32
    t = 2 * np.pi * np.arange(m) / m
    pts = 100.0 * np.stack([np.cos(t), np.sin(t), np.zeros(m)], axis=1)
    pts[6] = pts[4]
    pts[31] = pts[1]
    pts[12] = pts[9] + [0.01, 0.0, 0.005]
    pts[29] = pts[0] + [0.0, 0.01, -0.005]
    pts[24] = pts[20] + [2.7, 0.0, 0.0]
    speed = np.full(m, float(m))
    speed[20] = 1.0
    cells = coarse_matches_oracle(pts, speed)
    assert (9, 12) in cells and (0, 29) in cells and (20, 24) in cells
    assert (4, 6) not in cells and (1, 31) not in cells


LOOPS = {
    # crossing at (1/4, 3/4), a dyadic vertex of the unshifted polyline
    "fish": lambda: raw_loop(*fish_arrays(1024)),
    # tangential strands at (0, 1/2): near-collinear segments
    "mirror": lambda: mirror_loop(1024),
    "plain": lambda: raw_loop(*plain_arrays(1024)),
    "model": lambda: models.model_front(3, samples=4096),
}


@pytest.mark.parametrize("name", sorted(LOOPS))
@pytest.mark.parametrize("shifted", [False, True])
def test_crossing_hits_match_the_all_pairs_oracle(name, shifted):
    loop = LOOPS[name]()
    g = loop.generator
    idx, m, stride = pairscan._coarse_indices(g.n)
    if shifted:  # as front_crossings samples the polyline
        idx = idx + stride // 2
    q = np.stack([g.x[idx], np.asarray(loop.z)[idx]], axis=1)
    got = pairscan._crossing_hits(q)
    want = dense_crossing_hits(q, pairscan.EXCLUDE_COARSE_CELLS)
    for a, b in zip(got, want):
        assert a.tolist() == b.tolist()
    if name in ("fish", "mirror", "model"):
        assert len(want[0]) > 0


def test_crossing_hits_keep_segments_two_apart():
    # Segment 2, from (2, 1) to (1, -1), crosses segment 0 at (1.5, 0).
    q = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, -1.0],
                  [-1.0, -1.0], [-1.0, 0.5]])
    got = pairscan._crossing_hits(q)
    want = dense_crossing_hits(q, pairscan.EXCLUDE_COARSE_CELLS)
    for a, b in zip(got, want):
        assert a.tolist() == b.tolist()
    assert (0, 2) in zip(want[0].tolist(), want[1].tolist())


def test_sweep_order_does_not_reach_the_candidates(monkeypatch):
    # The sweep hands its pairs over in no set order; the coarse passes
    # sort what they keep, so a shuffled sweep changes nothing.
    rng = np.random.default_rng(0)
    real = pairscan._overlapping_pairs

    def shuffled(lo, hi):
        a, b = real(lo, hi)
        order = rng.permutation(len(a))
        return a[order], b[order]

    monkeypatch.setattr(pairscan, "_overlapping_pairs", shuffled)
    for make in (lambda: mirror_loop(512), lambda: models.model_front(0, samples=1024)):
        assert coarse_matches_oracle(*coarse_inputs(make()))
    for name in sorted(LOOPS):
        loop = LOOPS[name]()
        g = loop.generator
        idx, _, stride = pairscan._coarse_indices(g.n)
        q = np.stack([g.x[idx + stride // 2], np.asarray(loop.z)[idx + stride // 2]], axis=1)
        got = pairscan._crossing_hits(q)
        want = dense_crossing_hits(q, pairscan.EXCLUDE_COARSE_CELLS)
        for a, b in zip(got, want):
            assert a.tolist() == b.tolist()


def test_sweeps_expand_a_small_share_of_all_pairs(monkeypatch):
    loop = models.model_front(3, samples=16384)
    expanded = []
    real = pairscan._overlapping_pairs

    def counted(lo, hi):
        a, b = real(lo, hi)
        expanded.append((lo.shape[1], len(a)))
        return a, b

    monkeypatch.setattr(pairscan, "_overlapping_pairs", counted)
    pairscan.coincident_pairs(loop)
    pairscan.front_crossings(loop)
    assert len(expanded) == 2
    for items, pairs in expanded:
        assert items == 2048
        assert pairs < 0.1 * items * (items - 1) / 2


def test_seeds_of_one_basin_across_the_seam_give_one_pair(monkeypatch):
    # m = 64 coarse cells of stride 8: three seeds of the mirror's basin
    # at (0, 1/2), one of them past the 0/1 seam.  Each is refined on its
    # own, and the refined pairs merge into one.
    refined = []
    real = pairscan._refine_pairs

    def recorded(loop, seeds, rows):
        out = real(loop, seeds, rows)
        refined.extend(out)
        return out

    candidates = (np.array([0, 63, 1]), np.array([32, 31, 33]), np.array([0.1, 0.2, 0.3]))
    monkeypatch.setattr(pairscan, "_coarse_candidates", lambda pts, speed: candidates)
    monkeypatch.setattr(pairscan, "_refine_pairs", recorded)
    assert pairscan.coincident_pairs(mirror_loop(512)) == [(0.0, 0.5)]
    assert len(refined) == 3
    assert all(gap <= pairscan.COINCIDENCE_TOL for _, _, gap in refined)
    assert any(s0 > 0.5 for s0, _, _ in refined)


def _shifted_mirror(n, shift=0.3):
    s = np.arange(n) / n + shift
    return lifting.lift(LegendrianGenerator(mirror_x(s), mirror_y(s)))


@pytest.mark.parametrize("n", [128])
def test_coarse_samples_cover_the_whole_loop(n):
    # A coarse grid that stopped short of s = 1 would miss the double
    # point at (0.2, 0.7), whose w-gap is zero.
    idx, _, stride = pairscan._coarse_indices(n)
    assert n - idx[-1] < 2 * stride
    check = lifting.embedding_check(_shifted_mirror(n))
    assert not check.embedded
    assert len(check.double_points) == 1
    s0, s1, _ = check.double_points[0]
    assert (s0, s1) == (pytest.approx(0.2, abs=1e-6), pytest.approx(0.7, abs=1e-6))
