from importlib import resources

import numpy as np
import pytest

from engel import curves, fourier, frontlang, homotopy, invariants, lifting, models, pairscan, render
from engel.curves import (
    Cusp,
    LegendrianGenerator,
    LegendrianLoop,
    HorizontalLoop,
    Orientation,
    TrigSeries,
    find_cusps,
    sample_generator,
)
from engel.errors import BadDescription, DegenerateCusp, NotClosed, NotImmersed

from helpers import (
    TAU,
    StandardStructures,
    assert_channels_bitwise_equal,
    companion_derivative_roots,
    fish_arrays,
    horizontality_residual,
    mirror_loop,
    mirror_w,
    mirror_x,
    mirror_xp,
    mirror_y,
    mirror_yp,
    mirror_z,
    raw_loop,
    resample,
    trig_series_combined,
    trig_series_derivative,
)


def test_trig_series_evaluates_like_numpy():
    f = TrigSeries(0.5, cos={1: 2.0, 3: -1.0}, sin={2: 0.25})
    s = np.linspace(0.0, 1.0, 7)
    want = 0.5 + 2 * np.cos(TAU * s) - np.cos(3 * TAU * s) + 0.25 * np.sin(2 * TAU * s)
    assert np.allclose(f(s), want, atol=1e-15)
    assert f(0.3) == pytest.approx(float(want[0] * 0 + 0.5 + 2 * np.cos(TAU * 0.3)
                                         - np.cos(3 * TAU * 0.3)
                                         + 0.25 * np.sin(2 * TAU * 0.3)))


def test_trig_series_derivative_matches_finite_difference():
    f = TrigSeries(1.0, cos={2: 0.7}, sin={1: -0.4, 5: 0.1})
    s = np.linspace(0.0, 1.0, 11)
    h = 1e-6
    fd = (f(s + h) - f(s - h)) / (2 * h)
    assert np.allclose(trig_series_derivative(f, s), fd, atol=1e-5)


def test_trig_series_pruned_and_combined():
    f = TrigSeries(0.0, cos={1: 1.0, 2: 0.0}, sin={3: 0.0, 4: 2.0})
    p = f.pruned()
    assert p.cos == {1: 1.0} and p.sin == {4: 2.0}
    assert p.degree == 4
    g = TrigSeries(1.0, cos={1: -1.0}, sin={})
    c = trig_series_combined(p, g, factor=1.0)
    assert c.constant == 1.0 and c.cos == {} and c.sin == {4: 2.0}


def test_sample_generator_trig_series_exact():
    g = sample_generator(
        (TrigSeries(cos={1: 1.0}), TrigSeries(sin={1: 1.0})), 64)
    s = fourier.grid(64)
    assert np.allclose(g.x, np.cos(TAU * s), atol=0)
    assert np.allclose(g.y, np.sin(TAU * s), atol=0)
    assert np.allclose(g.xp, -TAU * np.sin(TAU * s), atol=1e-12)
    assert np.allclose(g.yp, TAU * np.cos(TAU * s), atol=1e-12)


def test_sample_generator_rejects_bad_sample_counts():
    circle = (TrigSeries(cos={1: 1.0}), TrigSeries(sin={1: 1.0}))
    for bad in (0, 8, 100, 1000):
        with pytest.raises(ValueError):
            sample_generator(circle, bad)


def test_sample_generator_refuses_aliased_series():
    # A harmonic at or past n/2 folds onto a lower one on the n-point grid.
    y = TrigSeries(sin={1: 1.0})
    with pytest.raises(BadDescription, match="degree 8; 16 samples"):
        sample_generator((TrigSeries(cos={8: 1.0}), y), 16)
    assert sample_generator((TrigSeries(cos={7: 1.0}), y), 16).n == 16


def test_sample_generator_rejects_malformed_descriptions():
    with pytest.raises(BadDescription):
        sample_generator("circle", 64)
    with pytest.raises(BadDescription):
        sample_generator({"x": np.zeros(16)}, 64)
    with pytest.raises(BadDescription):
        sample_generator((np.zeros((4, 4)), np.zeros(16)), 64)
    # Only series are sampled: callables and sample arrays are refused.
    s = fourier.grid(64)
    with pytest.raises(BadDescription):
        sample_generator((lambda u: np.cos(TAU * u), lambda u: np.sin(TAU * u)), 64)
    with pytest.raises(BadDescription):
        sample_generator((np.cos(TAU * s), np.sin(TAU * s)), 64)


def test_sample_generator_flags_non_immersed_input():
    with pytest.raises(NotImmersed) as info:
        sample_generator((TrigSeries(cos={1: 1.0}), TrigSeries(cos={1: 1.0})), 128)
    assert info.value.s is not None
    assert min(info.value.s, abs(info.value.s - 0.5)) < 1e-6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_generator_rejects_non_finite_samples(bad):
    # A NaN slips past every "defect > tolerance" guard, so it must not
    # get into a generator at all.
    s = fourier.grid(64)
    x, y = np.cos(TAU * s), np.sin(TAU * s)
    y_bad = y.copy()
    y_bad[5] = bad
    with pytest.raises(BadDescription):
        LegendrianGenerator(x, y_bad)
    with pytest.raises(BadDescription):
        LegendrianGenerator(y_bad, x)


def test_loops_compare_and_hash_by_identity():
    s = fourier.grid(256)
    g = LegendrianGenerator(np.cos(TAU * s), np.sin(2 * TAU * s))
    a, b = lifting.lift(g), lifting.lift(g)
    assert a == a
    assert a != b
    assert len({a, b, a}) == 2
    plain = LegendrianLoop(g, a.z, a.closure_defect_z)
    assert plain != LegendrianLoop(g, a.z, a.closure_defect_z)
    assert plain in {plain}


def _open_circle_loop():
    g = LegendrianGenerator(np.cos(TAU * fourier.grid(512)), np.sin(TAU * fourier.grid(512)))
    z, defect = fourier.antiderivative(g.y * g.xp)
    return LegendrianLoop(g, z, defect)


@pytest.mark.parametrize("make", [
    _open_circle_loop,
    lambda: mirror_loop(1024),
    lambda: models.model_front(3, seed=0, samples=2048),
], ids=["open-circle", "mirror", "model+3"])
def test_curve_keeps_each_channel_bit_for_bit(make):
    # One FFT over the stacked (x, y, z) rows chops and stores each row as
    # the single-channel interpolants do, drift included.
    loop = make()
    g = loop.generator
    assert_channels_bitwise_equal(loop.curve, [g.x_interp, g.y_interp, loop.z_interp])


def test_find_cusps_circle_is_exact():
    g = sample_generator((TrigSeries(cos={1: 1.0}), TrigSeries(sin={1: 1.0})), 256)
    assert find_cusps(g) == [(0.0, -1.0), (0.5, 1.0)]


def test_find_cusps_off_grid_roots():
    delta = 0.2345678901
    x = TrigSeries(cos={1: np.cos(TAU * delta)}, sin={1: np.sin(TAU * delta)})
    y = TrigSeries(sin={1: np.cos(TAU * delta)}, cos={1: -np.sin(TAU * delta)})
    g = sample_generator((x, y), 256)
    got = find_cusps(g)
    assert len(got) == 2
    (s0, d0), (s1, d1) = got
    assert s0 == pytest.approx(delta, abs=1e-10)
    assert s1 == pytest.approx(delta + 0.5, abs=1e-10)
    assert (d0, d1) == (-1.0, 1.0)


def test_find_cusps_rejects_flat_slope_at_cusp():
    s = fourier.grid(256)
    g = LegendrianGenerator(np.cos(TAU * s), np.cos(2 * TAU * s))
    with pytest.raises(DegenerateCusp):
        find_cusps(g)


def test_find_cusps_rejects_grid_touch_point():
    # x' = (1 - cos(2 pi s)) cos(4 pi s): a double root at s = 0 with no
    # sign change, plus four honest crossings.
    x = TrigSeries(sin={1: -1.0 / (2 * TAU), 2: 1.0 / (2 * TAU), 3: -1.0 / (6 * TAU)})
    s = fourier.grid(256)
    g = LegendrianGenerator(x(s), np.sin(TAU * s))
    with pytest.raises(DegenerateCusp, match="without sign change"):
        find_cusps(g)


def test_find_cusps_rejects_off_grid_touch_point():
    # Same shape shifted so the double root sits between samples, well
    # away from the four honest sign changes at odd multiples of 1/8;
    # the sign scan cannot see it, and no halving of its grid cell
    # certifies that cell.
    delta = 0.31
    phi = TAU * delta

    def x(s):
        a = TAU * np.asarray(s, float)
        return (np.sin(2 * a) / (2 * TAU)
                - np.sin(3 * a - phi) / (6 * TAU)
                - np.sin(a + phi) / (2 * TAU))

    s = fourier.grid(256)
    g = LegendrianGenerator(x(s), np.sin(TAU * s))
    with pytest.raises(DegenerateCusp):
        find_cusps(g)


def _circular_distance(a, b):
    d = np.abs(np.asarray(a) - np.asarray(b)) % 1.0
    return np.minimum(d, 1.0 - d)


def _balanced_degree_8(seed, n):
    rng = np.random.default_rng(seed)
    s = fourier.grid(n)
    x, y = np.cos(TAU * s), np.sin(2 * TAU * s)
    for k in range(1, 9):
        a, b, c, d = rng.uniform(-1, 1, 4) * 0.4 / (k * k)
        x = x + a * np.cos(k * TAU * s) + b * np.sin(k * TAU * s)
        y = y + c * np.cos(k * TAU * s) + d * np.sin(k * TAU * s)
    return lifting.balance_closure(LegendrianGenerator(x, y))


ORACLE_CASES = (
    [("mirror%g" % beta, beta) for beta in (0.0, 0.3, -0.45)]
    + [("degree8_seed%d" % seed, seed) for seed in range(4)]
    + [("model%d" % n_rot, n_rot) for n_rot in (-3, 0, 3, 5)]
)


@pytest.mark.parametrize("case, arg", ORACLE_CASES, ids=[c for c, _ in ORACLE_CASES])
def test_find_cusps_matches_companion_matrix_oracle(case, arg):
    if case.startswith("mirror"):
        s = fourier.grid(1024)
        g = LegendrianGenerator(mirror_x(s, arg), mirror_y(s))
    elif case.startswith("degree8"):
        g = _balanced_degree_8(arg, 4096)
    else:
        g = models.model_front(arg, seed=0, samples=4096).generator
    want = companion_derivative_roots(g.x)
    got = [s_c for s_c, _ in find_cusps(g)]
    assert len(got) == len(want)
    assert np.max(_circular_distance(np.sort(got), want)) < 1e-9


def _dense_roots(g, refine=16):
    """Sign changes of x' on a grid `refine` times finer, from the FFT
    upsampling of x rather than from the evaluator find_cusps uses."""
    m = refine * g.n
    xp = fourier.derivative(resample(g.x, m))
    positive = xp >= 0
    return np.flatnonzero(positive != np.roll(positive, -1)) / m, 1.0 / m


def _close_pair(s):
    # x' = cos(2 pi u) - a cos(4 pi u), u = s - 0.03, vanishes at
    # u = +-0.025 and is negative between: both roots lie in the cell
    # [0, 1/16] and x' is positive at its ends.
    a = np.cos(TAU * 0.025) / np.cos(2 * TAU * 0.025)
    u = s - 0.03
    return np.sin(TAU * u) / TAU - a * np.sin(2 * TAU * u) / (2 * TAU)


def _ripple(s):
    # A harmonic-7 ripple on the fundamental folds x' twice in the cell
    # [3/16, 4/16] (roots near 0.229 and 0.249), and likewise half a period
    # on.  Compared against half the bound, those cells would pass.
    return 1.7 * np.cos(TAU * s - 1.86) + 0.1 * np.cos(7 * TAU * s - 2.31)


@pytest.mark.parametrize("x, cell", [(_close_pair, 0), (_ripple, 3)], ids=["pair", "ripple"])
def test_find_cusps_refuses_two_roots_in_one_grid_cell(x, cell):
    # The sign scan sees no root in the cell; halving certifies each root
    # on its own piece, and the count of two roots refuses the front.
    n = 16
    s = fourier.grid(n)
    g = LegendrianGenerator(x(s), np.sin(TAU * s) + 0.5)
    assert g.xp[cell] * g.xp[cell + 1] > 0
    dense, _ = _dense_roots(g)
    assert np.count_nonzero((dense > cell / n) & (dense < (cell + 1) / n)) == 2
    with pytest.raises(DegenerateCusp, match="under-resolved cusp pair .* s=%.6f" % (cell / n)):
        find_cusps(g)


def _swallowtail_refusals(width, n):
    """Frames of swallowtail_birth at=0.12 on the balanced demo circle at
    n samples: every certified frame's cusps match _dense_roots.  Returns
    the refused frame indices and the end frame's cusp count."""
    doc = frontlang.parse(resources.files("engel.data").joinpath("demo.front").read_text())
    desc = doc.generator("circ")
    g0 = sample_generator((desc.x, desc.y), n)
    move = homotopy.Move("swallowtail_birth", {"at": 0.12, "width": width})
    refused = []
    for j, (_, loop, _) in enumerate(homotopy.script_frames(g0, [move])):
        g = loop.generator
        try:
            got = np.array([s_c for s_c, _ in find_cusps(g)])
        except DegenerateCusp:
            refused.append(j)
            continue
        dense, step = _dense_roots(g)
        assert len(got) == len(dense), j
        # Each cusp lies in a fine cell [d, d + step] with a sign change,
        # up to 1e-9: the two evaluations of x' may put a root that sits
        # on a sample (the circle's at s=0) on either side of it.
        gap = _circular_distance(got[:, None], dense + step / 2) - step / 2
        assert np.max(np.min(gap, axis=1)) <= 1e-9, j
    return refused, len(find_cusps(loop.generator))


@pytest.mark.parametrize("width", [0.04, 0.02])
def test_narrow_swallowtails_are_certified_or_refused(width):
    # x' has degree 173 and 336 here, above the companion oracle's 128.
    # The fold moment is a double root of x': it cannot be certified.
    assert _swallowtail_refusals(width, 4096) == ([32], 4)


def test_an_on_grid_cusp_is_judged_on_the_chopped_interpolant():
    # The circle has a cusp on the grid at s=0.  At 16384 samples x'(0) is
    # 7.7e-12 from the grid FFT but 1.4e-10 in the chopped interpolant,
    # above TOL_ROOT; a scan of the former stalled on frames 2, 6, 8, ...
    assert _swallowtail_refusals(0.01, 16384) == ([32], 4)


def test_cusps_refuse_a_nan_closure_defect():
    g = LegendrianGenerator(*fish_arrays(256)[:2])
    loop = LegendrianLoop(g, fish_arrays(256)[2], float("nan"))
    with pytest.raises(NotClosed):
        loop.cusps


def test_front_of_requires_closure():
    s = fourier.grid(128)
    g = LegendrianGenerator(np.cos(TAU * s), np.sin(TAU * s))
    z = np.zeros(128)
    loop = LegendrianLoop(g, z, -np.pi)
    assert not loop.closed
    with pytest.raises(NotClosed):
        loop.cusps


def test_front_of_mirror_fixture_census():
    front = mirror_loop(1024)
    assert all(isinstance(cusp, Cusp) for cusp in front.cusps)
    assert len(front.cusps) == 6
    # Orientation oracle, evaluated from the closed forms: a cusp points
    # up when y' and the sign of x' just after the root agree.
    for cusp in front.cusps:
        sigma = np.sign(mirror_xp(cusp.s + 1e-4))
        expect_up = mirror_yp(cusp.s) * sigma > 0
        assert (cusp.orientation is Orientation.UP) == expect_up
        assert cusp.position[0] == pytest.approx(mirror_x(cusp.s), abs=1e-9)
        assert cusp.position[1] == pytest.approx(mirror_z(cusp.s), abs=1e-9)
    ups = sum(c.orientation is Orientation.UP for c in front.cusps)
    downs = len(front.cusps) - ups
    assert downs - ups == 2
    assert len(front.double_points) == 5
    assert len(front.self_tangencies) == 1
    (s0, s1), = front.self_tangencies
    assert s0 == pytest.approx(0.0, abs=1e-6)
    assert s1 == pytest.approx(0.5, abs=1e-6)


def test_front_pair_scans_run_lazily_and_once(monkeypatch):
    calls = {"coincident_pairs": 0, "front_crossings": 0}

    def counted(name):
        real = getattr(pairscan, name)

        def scan(loop):
            calls[name] += 1
            return real(loop)

        return scan

    for name in calls:
        monkeypatch.setattr(pairscan, name, counted(name))
    front = mirror_loop(1024)
    assert len(front.cusps) == 6
    assert calls == {"coincident_pairs": 0, "front_crossings": 0}
    assert front.self_tangencies is front.self_tangencies
    assert front.double_points is front.double_points
    assert calls == {"coincident_pairs": 1, "front_crossings": 1}


def test_fronts_of_one_loop_share_one_cusp_search_and_scan(monkeypatch):
    # One lifted loop read by the report, the embedding check and the
    # picture: one cusp search and one run of each pair scan in total.
    calls = {"find_cusps": 0, "coincident_pairs": 0, "front_crossings": 0}

    def counted(module, name):
        real = getattr(module, name)

        def run(arg):
            calls[name] += 1
            return real(arg)

        monkeypatch.setattr(module, name, run)

    counted(curves, "find_cusps")
    counted(pairscan, "coincident_pairs")
    counted(pairscan, "front_crossings")
    s = fourier.grid(1024)
    loop = lifting.lift(LegendrianGenerator(mirror_x(s), mirror_y(s)))
    report = invariants.invariant_report(loop)
    check = lifting.embedding_check(loop)
    svg = render.front_svg_text(loop)
    assert report["c_plus"] + report["c_minus"] == 6
    assert len(check.double_points) == 1
    assert svg.count('class="tangency"') == 1
    assert calls == {"find_cusps": 1, "coincident_pairs": 1, "front_crossings": 1}


def test_front_needs_z_closed_and_not_w():
    # closed in z, open in w (the plain curve has ∮ z dx = pi/2): the
    # horizontal loop is not closed, but its front is still there.
    s = fourier.grid(1024)
    loop = lifting.lift(LegendrianGenerator(np.cos(TAU * s), np.sin(2 * TAU * s)))
    assert abs(loop.closure_defect_z) <= curves.TOL_CLOSURE
    assert loop.closure_defect_w == pytest.approx(np.pi / 2, abs=1e-12)
    assert not loop.closed
    assert [c.s for c in loop.cusps] == pytest.approx([0.0, 0.5], abs=1e-12)
    report = invariants.invariant_report(loop)
    assert report["rot_cusp"] == report["rot_winding"]
    assert report["c_plus"] + report["c_minus"] == 2


def test_horizontality_residual_accepts_true_lift_and_flags_fakes():
    n = 1024
    loop = mirror_loop(n)
    s = fourier.grid(n)
    good = HorizontalLoop(loop.generator, loop.z, 0.0, mirror_w(s), 0.0)
    r_z, r_w = horizontality_residual(good)
    assert r_z < 0.05
    assert r_w < 0.2
    fake = HorizontalLoop(loop.generator, loop.z, 0.0, loop.z.copy(), 0.0)
    _, r_bad = horizontality_residual(fake)
    assert r_bad > 1.0


def test_frame_coordinates_reconstruct_horizontal_vectors():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b, y, z = rng.normal(size=4)
        v = a * StandardStructures.e1(y, z) + b * StandardStructures.e2()
        ca, cb, res = StandardStructures.frame_coordinates(v, y, z)
        assert ca == pytest.approx(a, abs=1e-14)
        assert cb == pytest.approx(b, abs=1e-14)
        assert res < 1e-14
    _, _, res = StandardStructures.frame_coordinates([1.0, 0.0, 0.0, 0.0], 2.0, 3.0)
    assert res == pytest.approx(3.0)
