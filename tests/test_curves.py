import numpy as np
import pytest

from engel import curves, fourier, invariants, lifting, pairscan, render
from engel.curves import (
    Cusp,
    LegendrianGenerator,
    LegendrianLoop,
    HorizontalLoop,
    Orientation,
    TrigSeries,
    find_cusps,
    horizontality_residual,
    sample_generator,
)
from engel.errors import BadDescription, DegenerateCusp, NotClosed, NotImmersed

from helpers import (
    TAU,
    StandardStructures,
    fish_arrays,
    mirror_loop,
    mirror_w,
    mirror_x,
    mirror_xp,
    mirror_y,
    mirror_yp,
    mirror_z,
    raw_loop,
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


def test_sample_generator_callable_and_periodicity_check():
    g = sample_generator(
        (lambda s: np.cos(TAU * np.asarray(s)), lambda s: np.sin(TAU * np.asarray(s))),
        32,
    )
    assert np.allclose(g.x, np.cos(TAU * fourier.grid(32)))
    with pytest.raises(BadDescription):
        sample_generator(
            (lambda s: np.asarray(s, float), lambda s: np.sin(TAU * np.asarray(s))),
            32,
        )


def test_sample_generator_resamples_arrays():
    s64 = fourier.grid(64)
    x64 = np.cos(TAU * s64) + 0.2 * np.cos(5 * TAU * s64)
    y64 = np.sin(TAU * s64)
    g = sample_generator((x64, y64), 256)
    s = fourier.grid(256)
    assert np.allclose(g.x, np.cos(TAU * s) + 0.2 * np.cos(5 * TAU * s), atol=1e-12)
    assert g.n == 256


def test_sample_generator_rejects_bad_sample_counts():
    circle = (TrigSeries(cos={1: 1.0}), TrigSeries(sin={1: 1.0}))
    for bad in (0, 8, 100, 1000):
        with pytest.raises(ValueError):
            sample_generator(circle, bad)


def test_sample_generator_rejects_malformed_descriptions():
    with pytest.raises(BadDescription):
        sample_generator("circle", 64)
    with pytest.raises(BadDescription):
        sample_generator({"x": np.zeros(16)}, 64)
    with pytest.raises(BadDescription):
        sample_generator((np.zeros((4, 4)), np.zeros(16)), 64)


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
    with pytest.raises(BadDescription):
        sample_generator((x, y_bad), 64)


def test_loops_compare_and_hash_by_identity():
    s = fourier.grid(256)
    g = LegendrianGenerator(np.cos(TAU * s), np.sin(2 * TAU * s))
    a, b = lifting.lift(g), lifting.lift(g)
    assert a == a
    assert a != b
    assert len({a, b, a}) == 2
    plain = LegendrianLoop(g, a.z, 0.0, a.closure_defect_z)
    assert plain != LegendrianLoop(g, a.z, 0.0, a.closure_defect_z)
    assert plain in {plain}


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
    # only the companion-matrix cross-check can see it.
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


def test_front_of_requires_closure():
    s = fourier.grid(128)
    g = LegendrianGenerator(np.cos(TAU * s), np.sin(TAU * s))
    z = np.zeros(128)
    loop = LegendrianLoop(g, z, 0.0, -np.pi)
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
    good = HorizontalLoop(loop.generator, loop.z, 0.0, 0.0, mirror_w(s), 0.0, 0.0)
    r_z, r_w = horizontality_residual(good)
    assert r_z < 0.05
    assert r_w < 0.2
    fake = HorizontalLoop(loop.generator, loop.z, 0.0, 0.0, loop.z.copy(), 0.0, 0.0)
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
