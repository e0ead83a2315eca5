import math

import numpy as np
import pytest

from engel import pairscan

from helpers import fish_arrays, mirror_loop, plain_arrays, raw_loop


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


def test_front_crossings_exclude_equal_slope_pairs():
    loop = mirror_loop(1024)
    crossings = pairscan.front_crossings(loop)
    assert len(crossings) == 5
    for s0, s1 in crossings:
        assert abs(float(loop.generator.y_at(s0)) - float(loop.generator.y_at(s1))) > 0.1
    # the tangency pair (0, 1/2) is not among them
    for s0, s1 in crossings:
        assert not (abs(s0) < 1e-3 and abs(s1 - 0.5) < 1e-3)


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


@pytest.mark.parametrize("beta", [0.0, 0.25])
def test_coarse_candidates_match_a_double_loop_oracle(beta):
    # n = 512 decimates to m = 64 coarse cells (stride 8); the mirror
    # tangency (0, 1/2) sits on the coarse cell (0, 32).
    loop = mirror_loop(512, beta=beta)
    g = loop.generator
    idx, m, _ = pairscan._coarse_indices(g.n)
    assert m == 64
    pts = np.stack([g.x[idx], g.y[idx], np.asarray(loop.z)[idx]], axis=1)
    speed = np.hypot(np.hypot(g.xp, g.yp), pairscan._zp_samples(loop))[idx]
    ci, cj, cd = pairscan._coarse_candidates(pts, speed)
    got = list(zip(ci.tolist(), cj.tolist(), cd.tolist()))
    want = coarse_oracle(pts.tolist(), speed.tolist())
    assert got == want
    assert (0, 32) in [(i, j) for i, j, _ in want]
