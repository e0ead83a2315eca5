import itertools
import math
import re
from importlib import resources

import numpy as np
import pytest

from engel import curves, fourier, frontlang, homotopy, invariants, lifting, models, pairscan
from engel.curves import (
    LegendrianGenerator,
    TrigSeries,
    sample_generator,
)
from engel.errors import BadDescription, NotClosed, SingularSystem
from engel.homotopy import tangency_profile

from helpers import (
    TAU,
    ExactLift,
    all_half_max_runs,
    all_runs_supports,
    count_ffts,
    fish_arrays,
    hand_loop,
    mirror_loop,
    mirror_w,
    mirror_x,
    mirror_xp,
    mirror_y,
    mirror_z,
    plain_arrays,
    random_rational_series,
    raw_loop,
    series_value,
)


def riemann(f, a, b, cells=2_000_000):
    """Midpoint quadrature, the independent oracle for every integral here."""
    t = a + (b - a) * (np.arange(cells) + 0.5) / cells
    return float((b - a) * np.mean(f(t)))


def circle(n=4096):
    return sample_generator((TrigSeries(cos={1: 1.0}), TrigSeries(sin={1: 1.0})), n)


def mirror_generator(n, beta=0.0):
    s = fourier.grid(n)
    return LegendrianGenerator(mirror_x(s, beta), mirror_y(s))


def reversed_raw(x, y, z, defect=0.0):
    rx = np.roll(x[::-1], 1)
    ry = np.roll(y[::-1], 1)
    rz = np.roll(z[::-1], 1)
    return raw_loop(rx, ry, rz, defect)


def test_z_closure_defect_vanishes_for_constant_slope():
    n = 1024
    s = fourier.grid(n)
    g = LegendrianGenerator(np.cos(TAU * s) + 0.3 * np.cos(3 * TAU * s),
                            np.full(n, 0.7))
    assert abs(lifting.z_closure_defect(g)) < 1e-14


def test_z_closure_defect_reads_the_constant_term_of_y_dx():
    # With x = cos 2πs, y x' = -2π sin(2πs) y, whose constant term is
    # -π b_1 for b_1 the sin(2πs) coefficient of y: no other harmonic of y
    # reaches the mean.
    rng = np.random.default_rng(5)
    s = fourier.grid(64)
    a, b = rng.normal(size=11) / np.arange(1, 12), rng.normal(size=11) / np.arange(1, 12)
    k = np.arange(1, 11)[:, None]
    y = a[0] + a[1:] @ np.cos(TAU * k * s) + b[1:] @ np.sin(TAU * k * s)
    g = LegendrianGenerator(np.cos(TAU * s), y)
    assert lifting.z_closure_defect(g) == pytest.approx(-np.pi * b[1], abs=1e-14)


def test_z_closure_defect_circle_matches_riemann_oracle():
    oracle = riemann(lambda s: np.sin(TAU * s) * (-TAU * np.sin(TAU * s)), 0.0, 1.0)
    assert oracle == pytest.approx(-np.pi, abs=1e-10)
    defect = lifting.z_closure_defect(circle())
    assert defect == pytest.approx(oracle, abs=1e-10)
    assert defect == pytest.approx(-np.pi, abs=1e-12)


def test_lift_of_an_unbalanced_generator_does_not_close():
    # The raw circle's slope encloses area pi: lift integrates it all the
    # same, and the loop it returns judges itself open in z.  Its front
    # and its embedding check refuse; its winding needs no front.
    loop = lifting.lift(circle())
    assert loop.closure_defect_z == pytest.approx(-np.pi, abs=1e-12)
    assert loop.z_closed is False and loop.closed is False
    with pytest.raises(NotClosed):
        loop.cusps
    with pytest.raises(NotClosed):
        lifting.embedding_check(loop)
    assert invariants.invariant_report(loop) == {
        "rot_winding": 1, "rot_cusp": None, "c_plus": None, "c_minus": None,
    }


def test_lift_with_zero_slope_lifts_by_quadrature():
    n = 256
    s = fourier.grid(n)
    g = LegendrianGenerator(np.cos(TAU * s) - 0.5 * np.cos(2 * TAU * s), np.zeros(n))
    flat = lifting.lift(g)
    assert np.all(flat.z == 0.0)
    assert np.all(flat.w == 0.0)
    assert flat.closed


def test_lift_reproduces_hand_integrated_mirror_curve():
    n = 2048
    s = fourier.grid(n)
    loop = lifting.lift(mirror_generator(n))
    assert np.max(np.abs(loop.z - mirror_z(s))) < 1e-12
    assert np.max(np.abs(loop.w - mirror_w(s))) < 1e-12
    assert abs(loop.closure_defect_z) < 1e-14
    assert abs(loop.closure_defect_w) < 1e-14
    assert loop.closed


def test_area_integral_trivial_cases():
    n = 512
    s = fourier.grid(n)
    flat = raw_loop(np.cos(TAU * s), np.zeros(n), np.zeros(n))
    assert lifting.area_integral(flat, 0.1, 0.9) == 0.0
    loop = mirror_loop(n)
    assert lifting.area_integral(loop, 0.37, 0.37) == pytest.approx(0.0, abs=1e-15)


def test_area_integral_planar_circle_against_riemann_oracle():
    # Enclosed-area benchmark.  The lift of the unit circle x = cos,
    # y = sin has z = -pi s + sin(4 pi s)/4, and by parts its ∮ z dx is
    # z(1) x(1) - ∮ x y dx = -pi: the area that x = cos, z = sin encloses,
    # whose midpoint sum is the oracle.
    oracle = riemann(lambda s: np.sin(TAU * s) * (-TAU * np.sin(TAU * s)), 0.0, 1.0)
    assert abs(oracle - (-np.pi)) < 1e-10
    loop = lifting.lift(circle(4096))
    area = lifting.area_integral(loop, 0.0, 1.0)
    assert area == pytest.approx(oracle, abs=1e-10)


def test_area_integral_partial_interval_matches_riemann():
    loop = mirror_loop(2048)
    oracle = riemann(lambda s: mirror_z(s) * mirror_xp(s), 0.2, 0.7)
    got = lifting.area_integral(loop, 0.2, 0.7)
    assert got == pytest.approx(oracle, abs=5e-9)


def test_area_integral_is_additive():
    loop = mirror_loop(1024)
    a = lifting.area_integral(loop, 0.1, 0.37)
    b = lifting.area_integral(loop, 0.37, 0.81)
    c = lifting.area_integral(loop, 0.1, 0.81)
    assert a + b == pytest.approx(c, abs=1e-12)


def test_area_integral_handles_defect_ramp():
    # A loop that is NOT closed in z: the ramp term must integrate
    # exactly, not through the parameter seam.
    n = 1024
    loop = lifting.lift(circle(n))
    # z(s) = int_0^s -2 pi sin^2 = -pi s + sin(4 pi s)/4
    def z_exact(s):
        return -np.pi * s + np.sin(2 * TAU * s) / 4.0
    assert np.max(np.abs(loop.z - z_exact(fourier.grid(n)))) < 1e-12
    oracle = riemann(lambda s: z_exact(s) * (-TAU * np.sin(TAU * s)), 0.15, 0.85)
    got = lifting.area_integral(loop, 0.15, 0.85)
    assert got == pytest.approx(oracle, abs=5e-9)


def test_area_integral_reversal_antisymmetry():
    x, y, z = plain_arrays(1024)
    fwd = raw_loop(x, y, z)
    rev = reversed_raw(x, y, z)
    a_fwd = lifting.area_integral(fwd, 0.0, 1.0)
    a_rev = lifting.area_integral(rev, 0.0, 1.0)
    assert a_fwd == pytest.approx(np.pi / 2, abs=1e-12)
    assert a_rev == pytest.approx(-a_fwd, abs=1e-12)


def test_area_integral_rejects_reversed_interval():
    loop = mirror_loop(512)
    with pytest.raises(ValueError):
        lifting.area_integral(loop, 0.7, 0.2)


def _demo_frame_32():
    """The demo's middle frame of the strand passage, where the strands touch."""
    doc = frontlang.parse(resources.files("engel.data").joinpath("demo.front").read_text())
    desc = doc.generator("circ")
    g0 = curves.sample_generator((desc.x, desc.y), 4096)
    frames = homotopy.script_frames(g0, doc.script("pass_and_fold").moves)
    return next(itertools.islice(frames, 32, None))[1]


def _zero_area_mirror():
    doc = frontlang.parse(resources.files("engel.data").joinpath("zero_area.front").read_text())
    desc = doc.generator("mirror")
    return lifting.lift(curves.sample_generator((desc.x, desc.y), 4096))


def _exact_lift():
    rng = np.random.default_rng(2)
    exact = ExactLift(random_rational_series(rng, 6), random_rational_series(rng, 6))
    s = fourier.grid(1024)
    return lifting.lift(LegendrianGenerator(series_value(exact.x, s), series_value(exact.y, s)))


@pytest.mark.parametrize("make", [_demo_frame_32, _zero_area_mirror, _exact_lift],
                         ids=["demo frame 32", "zero-area mirror", "exact lift"])
def test_dw_between_grid_points_is_the_step_of_the_w_column(make, monkeypatch):
    # area_integral reads the transform of z x' that w is integrated from
    # (g.z_dx), so between grid parameters dw is w's step up to rounding:
    # the worst measured gap is 1.0e-14, on demo frame 32.  Once w is
    # read, each call makes 4 FFTs: two for ∫ z x' and two for the ramp
    # term's ∫ x, which every loop here takes (its z defect is not 0.0).
    loop = make()
    w, n = loop.w, loop.n
    assert loop.closure_defect_z != 0.0
    rng = np.random.default_rng(0)
    spans = [np.sort(rng.choice(n, 2, replace=False)) for _ in range(8)]
    ffts = count_ffts(monkeypatch)
    got = [lifting.area_integral(loop, k0 / n, k1 / n) for k0, k1 in spans]
    assert ffts["ffts"] == 4 * len(spans)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(w))))
    for (k0, k1), dw in zip(spans, got):
        assert abs(dw - (w[k1] - w[k0])) <= tol


def test_self_tangencies_spec_examples():
    x, y, z = plain_arrays(1024)
    assert pairscan.coincident_pairs(raw_loop(x, y, z)) == []
    x, y, z = fish_arrays(1024)
    assert pairscan.coincident_pairs(raw_loop(x, y, z)) == []
    # mirror-glued curve with (x, y, z)(1/4) = (x, y, z)(3/4)
    n = 1024
    s = fourier.grid(n)
    shifted = raw_loop(mirror_x(s + 0.25), mirror_y(s + 0.25), mirror_z(s + 0.25))
    pairs = pairscan.coincident_pairs(shifted)
    assert len(pairs) == 1
    assert pairs[0][0] == pytest.approx(0.25, abs=1e-6)
    assert pairs[0][1] == pytest.approx(0.75, abs=1e-6)


def test_embedding_check_requires_closed_loop():
    n = 1024
    s = fourier.grid(n)
    # closed in z, open in w: the plain curve has ∮ z dx = pi/2
    g = LegendrianGenerator(np.cos(TAU * s), np.sin(2 * TAU * s))
    assert lifting.w_closure_defect(g) == pytest.approx(np.pi / 2, abs=1e-12)
    with pytest.raises(NotClosed, match=r"^loop does not close up "
                       r"\(defects z -?\d\.\d{3}e(-\d\d|\+00), w 1\.571e\+00\)$"):
        lifting.embedding_check(lifting.lift(g))
    # open in z
    raw = hand_loop(circle(n), np.zeros(n), -np.pi, np.zeros(n), 0.0)
    with pytest.raises(NotClosed, match=r"^loop does not close up "
                       r"\(defects z -3\.142e\+00, w 0\.000e\+00\)$"):
        lifting.embedding_check(raw)


@pytest.mark.parametrize("defect_z, defect_w, which", [
    (float("nan"), 0.0, "z"),
    (0.0, float("nan"), "w"),
])
def test_embedding_check_refuses_a_nan_defect(defect_z, defect_w, which):
    n = 256
    raw = hand_loop(circle(n), np.zeros(n), defect_z, np.zeros(n), defect_w)
    # The nan sits in the slot of the defect that is open.
    printed = {"z": r"z nan, w 0\.000e\+00", "w": r"z 0\.000e\+00, w nan"}[which]
    with pytest.raises(NotClosed, match=r"^loop does not close up \(defects %s\)$" % printed):
        lifting.embedding_check(raw)


def test_embedding_check_clean_loop_reports_infinite_margin():
    n = 1024
    s = fourier.grid(n)
    g = lifting.balance_closure(
        LegendrianGenerator(np.cos(TAU * s), np.sin(2 * TAU * s))
    )
    report = lifting.embedding_check(lifting.lift(g))
    assert report.embedded
    assert report.margin == math.inf
    assert report.double_points == ()
    d = report.to_dict()
    assert d["embedded"] is True and d["double_points"] == []
    assert d["margin"] == math.inf


def test_embedding_check_rejects_zero_area_double_point():
    # Oracle first: the w-gap across the (0, 1/2) pair vanishes.
    oracle = riemann(lambda s: mirror_z(s) * mirror_xp(s), 0.0, 0.5)
    assert abs(oracle) < 1e-9
    loop = lifting.lift(mirror_generator(2048))
    report = lifting.embedding_check(loop)
    assert not report.embedded
    assert report.margin <= 1e-9
    (s0, s1, dw), = report.double_points
    assert s0 == pytest.approx(0.0, abs=1e-6)
    assert s1 == pytest.approx(0.5, abs=1e-6)
    assert abs(dw) <= 1e-9


def test_embedding_check_accepts_separated_double_point():
    beta = 0.25
    oracle = riemann(
        lambda s: mirror_z(s, beta) * mirror_xp(s, beta), 0.0, 0.5
    )
    assert abs(oracle) > 1e-2
    report = lifting.embedding_check(lifting.lift(mirror_generator(2048, beta)))
    assert report.embedded
    assert report.margin == pytest.approx(abs(oracle), abs=1e-8)


def test_embedding_margin_is_orientation_independent():
    n = 2048
    beta = 0.25
    fwd = lifting.lift(mirror_generator(n, beta))
    rep_f = lifting.embedding_check(fwd)
    s = fourier.grid(n)
    rg = LegendrianGenerator(
        np.roll(mirror_x(s, beta)[::-1], 1), np.roll(mirror_y(s)[::-1], 1)
    )
    rep_r = lifting.embedding_check(lifting.lift(rg))
    assert rep_r.margin == pytest.approx(rep_f.margin, abs=1e-12)
    assert rep_r.embedded == rep_f.embedded


def test_balance_closure_circle_zeroes_both_defects():
    g = circle(1024)
    out = lifting.balance_closure(g)
    assert abs(lifting.z_closure_defect(out)) <= 1e-12
    assert abs(lifting.w_closure_defect(out)) <= 1e-12
    # independent quadrature of the balanced slope integrand
    interp_y = fourier.Interpolant(out.y)
    interp_x = fourier.Interpolant(out.x)
    oracle = riemann(
        lambda s: np.asarray(interp_y.value(s)) * np.asarray(interp_x.value(s, 1)),
        0.0,
        1.0,
        cells=50_000,
    )
    assert abs(oracle) < 1e-9
    # x data untouched, with the transforms made from it, and the
    # correction localized
    assert out.x is g.x
    assert out.x_rfft is g.x_rfft and out.xp is g.xp and out.x_interp is g.x_interp
    supports = lifting.balance_supports(g)
    s = fourier.grid(g.n)
    far = np.ones(g.n, dtype=bool)
    for c, w in supports:
        d = np.abs(np.mod(s - c + 0.5, 1.0) - 0.5)
        far &= d > w
    assert np.max(np.abs(out.y - g.y)[far]) < 1e-6


def test_balance_closure_identity_on_balanced_input():
    g = circle()
    out = lifting.balance_closure(g)
    assert lifting.balance_closure(out) is out
    m = mirror_generator(1024)
    assert lifting.balance_closure(m) is m


@pytest.mark.parametrize("eps", [1e-11, 1e-8])
def test_balance_closure_skips_exactly_what_its_loop_calls_closed(eps):
    # eps sin 2 pi s added to a balanced circle's y moves both defects
    # by about -eps.  At 1e-11 the loop calls itself closed, and the
    # input comes back as the same object; at 1e-8 it does not, and it
    # is balanced.
    g0 = lifting.balance_closure(circle(1024))
    g = g0.with_y(g0.y + eps / np.pi * np.sin(TAU * fourier.grid(1024)))
    loop = lifting.lift(g)
    assert 0.5 * eps < abs(loop.closure_defect_z) < 2.0 * eps
    assert 0.5 * eps < abs(loop.closure_defect_w) < 2.0 * eps
    out = lifting.balance_closure(g)
    assert (out is g) == loop.closed == (eps < curves.TOL_CLOSURE)
    assert lifting.lift(out).closed


@pytest.mark.parametrize("width", [0.08, 0.3])
def test_bump_slope_is_the_derivative_of_the_bump(width):
    # Oracle: a centred difference of bump_samples, whose error at
    # h = 1e-6 is about 2e-9 of max|slope| for p = 285 and 20.
    s, h = np.linspace(0.0, 1.0, 2001), 1e-6
    slope = lifting.bump_slope(s, 0.3, width)
    ahead, behind = (lifting.bump_samples(s + d, 0.3, width) for d in (h, -h))
    diff = (ahead - behind) / (2 * h)
    assert np.max(np.abs(slope - diff)) <= 1e-7 * np.max(np.abs(slope))


def test_balance_closure_decoupled_supports_raise():
    # x' made of two localized humps; explicit supports far away from
    # them give numerically zero functional columns.
    n = 2048
    s = fourier.grid(n)
    xp = lifting.bump_samples(s, 0.25, 0.17) - lifting.bump_samples(s, 0.75, 0.17)
    x, m = fourier.antiderivative(xp)
    assert abs(m) < 1e-15
    g = LegendrianGenerator(x, np.sin(TAU * s))
    supports = ((0.0, 0.08), (0.5, 0.08))
    with pytest.raises(SingularSystem):
        lifting.balance_closure(g, supports=supports)
    # tangency profiles solve the same system and share its guards
    with pytest.raises(SingularSystem):
        tangency_profile(g, 0.25, 0.08, supports=supports)


def test_balance_closure_refuses_functionals_past_the_float_range():
    # A 1e200 circle has finite samples and derivatives, but its closure
    # functionals overflow: refused by name before any solve of the
    # system, a usage error rather than numpy's SVD failure.
    s = fourier.grid(1024)
    huge = LegendrianGenerator(1e200 * np.cos(TAU * s), 1e200 * np.sin(TAU * s))
    with pytest.raises(BadDescription, match="balancing bumps must be finite"):
        lifting.balance_closure(huge)


@pytest.mark.parametrize("scale", [1e-8, 1e8])
def test_balancing_system_judges_the_shape_of_its_matrix_not_its_size(scale):
    # The z row of the functional matrix scales as the curve and the w row
    # as its square: on the circle scaled by 1e-8 or 1e8 the raw matrix's
    # condition number is 2.5e8 or 2.9e8, past the limit, while the rows
    # divided by max|x'| and its square read 16.01 at every scale.
    s = fourier.grid(1024)
    g = LegendrianGenerator(scale * np.cos(TAU * s), scale * np.sin(TAU * s))
    phi1, phi2, matrix = lifting.balancing_system(g)
    assert np.linalg.cond(matrix) > lifting.CONDITION_LIMIT
    psi = tangency_profile(g, 0.55, 0.08, supports=lifting.balance_supports(g))
    dz, dw = lifting.closure_functionals(g, psi)
    assert abs(dz) <= 1e-15 * scale and abs(dw) <= 1e-15 * scale ** 2


def test_balance_closure_symmetric_centers_raise():
    # Dead-center bumps on the round generator cancel in the w row;
    # this is the reason balance_supports offsets its centers.
    supports = ((0.25, 0.08), (0.75, 0.08))
    with pytest.raises(SingularSystem):
        lifting.balance_closure(circle(), supports=supports)
    with pytest.raises(SingularSystem):
        tangency_profile(circle(), 0.55, 0.08, supports=supports)


@pytest.mark.parametrize("k", [0, 512, 549])
def test_balance_supports_move_with_the_samples(k):
    # |x'| clears half its maximum on one run only, about (0.327, 0.473),
    # which balance_supports splits in two; rolled by k = 549 samples the
    # run crosses the seam.  Oracle: rolling the samples by k moves the
    # supports by k / n, mod 1, and keeps their widths.
    n = 1024
    s = fourier.grid(n)
    b = ((1.0 + np.cos(TAU * (s - 0.4))) / 2.0) ** 10
    x, _ = fourier.antiderivative(b - np.mean(b))
    y = np.sin(TAU * s)
    base = lifting.balance_supports(LegendrianGenerator(x, y))
    g = LegendrianGenerator(np.roll(x, k), np.roll(y, k))
    (run,) = lifting._half_max_runs(g)
    assert (run[1] > 1.0) == (k == 549)
    supports = lifting.balance_supports(g)
    for (c, w), (c0, w0) in zip(supports, base, strict=True):
        assert abs(math.remainder(c - c0 - k / n, 1.0)) <= 1e-14
        assert abs(w - w0) <= 1e-14
    out = lifting.balance_closure(g, supports=supports)
    assert abs(lifting.z_closure_defect(out)) <= 1e-16
    assert abs(lifting.w_closure_defect(out)) <= 1e-16


def _counted_refine_edge(monkeypatch):
    """A list that counts lifting's _refine_edge calls from now on."""
    calls = []
    refine_edge = lifting._refine_edge

    def counted(*args):
        calls.append(args)
        return refine_edge(*args)

    monkeypatch.setattr(lifting, "_refine_edge", counted)
    return calls


def _check_lazy_supports(g, monkeypatch):
    """balance_supports(g) against the all-runs oracle, bit for bit, and
    the number of edges it refined: both edges of each run whose refined
    width, at most two cells over its grid width and padded by a cell,
    can reach the second widest grid width less a cell.  Returns the
    number of runs and of refined edges."""
    cells, runs = all_half_max_runs(g, lifting._refine_edge)
    want = all_runs_supports(g, lifting._refine_edge)
    calls = _counted_refine_edge(monkeypatch)
    got_runs = lifting._half_max_runs(g)
    refined = len(calls)
    assert lifting.balance_supports(g) == want
    monkeypatch.undo()
    assert got_runs[:2] == runs[:2]
    spans = sorted((k1 - k0 for k0, k1 in cells), reverse=True)
    assert refined == 2 * sum(k1 - k0 + 3 >= spans[:2][-1] - 1 for k0, k1 in cells)
    return len(cells), refined


@pytest.mark.parametrize("rot, runs", [(-3, 8), (0, 4), (3, 8), (5, 13)])
def test_the_models_refine_only_the_runs_that_can_be_widest(rot, runs, monkeypatch):
    # The four 16384-sample models of the benchmark have 33 half-maximum
    # runs between them; only the two widest of each get their edges
    # bisected, and the supports are the all-runs oracle's, bit for bit.
    g = models.model_front(rot, seed=0, samples=16384).generator
    assert _check_lazy_supports(g, monkeypatch) == (runs, 4)


def _many_runs(seed, n=2048):
    """A generator whose |x'| clears half its maximum on many runs: x'
    is a random trigonometric polynomial of degree 24."""
    rng = np.random.default_rng(seed)
    s = fourier.grid(n)
    k = np.arange(1, 25)[:, None]
    amplitude = rng.normal(size=(24, 1))
    xp = np.sum(amplitude * np.cos(TAU * k * s + rng.uniform(0, TAU, (24, 1))), axis=0)
    x, _ = fourier.antiderivative(xp)
    return x, np.sin(TAU * s)


@pytest.mark.parametrize("seed", range(6))
def test_balance_supports_match_the_all_runs_oracle(seed, monkeypatch):
    x, y = _many_runs(seed)
    runs, refined = _check_lazy_supports(LegendrianGenerator(x, y), monkeypatch)
    assert runs >= 8 and refined < 2 * runs


@pytest.mark.parametrize("seed", range(3))
def test_a_widest_run_across_the_seam_is_refined_and_placed(seed, monkeypatch):
    # Rolled so that the widest run's middle sits at sample 0, that run
    # crosses the seam: its end passes n - 1.
    x, y = _many_runs(seed)
    cells, runs = all_half_max_runs(LegendrianGenerator(x, y), lifting._refine_edge)
    k0, k1 = max(cells, key=lambda c: c[1] - c[0])
    k = len(x) - (k0 + k1) // 2
    g = LegendrianGenerator(np.roll(x, k), np.roll(y, k))
    cells, runs = all_half_max_runs(g, lifting._refine_edge)
    assert runs[0][0] < 1.0 < runs[0][1]
    _check_lazy_supports(g, monkeypatch)


def test_balance_closure_fixes_w_only_defect():
    n = 2048
    s = fourier.grid(n)
    g = LegendrianGenerator(np.cos(TAU * s), np.sin(2 * TAU * s))
    assert abs(lifting.z_closure_defect(g)) < 1e-14
    out = lifting.balance_closure(g)
    assert abs(lifting.z_closure_defect(out)) <= 1e-12
    assert abs(lifting.w_closure_defect(out)) <= 1e-12


def _wide_generator(a, n=1024):
    s = fourier.grid(n)
    return LegendrianGenerator(a * np.cos(TAU * s), a * (np.sin(TAU * s) + 0.3 * np.cos(2 * TAU * s)))


@pytest.mark.parametrize("a", [20.0, 50.0, 200.0, 400.0])
def test_balancing_accepts_what_the_loop_would_call_closed(a):
    # The w defect grows as a**3, so at a = 20 the balanced residual is
    # -2.3e-12: above any fixed rounding bound, far inside TOL_CLOSURE.
    # Balancing refuses only what the loop itself would not call closed.
    # At a = 400 the residual is -1.3e-10, judged by the loop's own rfft
    # means; by the grid means np.mean takes it was -5.6e-9, and refused.
    loop = lifting.lift(lifting.balance_closure(_wide_generator(a)))
    assert loop.closed
    assert lifting.embedding_check(loop).embedded
    report = invariants.invariant_report(loop)
    assert report["rot_winding"] == report["rot_cusp"] == 1


def test_balancing_refuses_a_residual_above_the_closure_tolerance():
    # At a = 1000 the balanced w residual, rounding error scaled by a**3,
    # is about 2e-8 (-1.717e-08 with numpy 2.4).
    with pytest.raises(SingularSystem, match=r"^balanced defects \((\S+), (\S+)\) "
                       r"above the closure tolerance 1e-09$") as refused:
        lifting.balance_closure(_wide_generator(1000.0))
    res_z, res_w = (float(v) for v in re.match(r"^balanced defects \((\S+), (\S+)\)",
                                               str(refused.value)).groups())
    assert abs(res_z) < 1e-9 < abs(res_w)


def test_a_speed_level_everywhere_is_one_run_split_in_two():
    # x = cos 8 pi s + sin 8 pi s has |x'| = 8 pi sqrt 2 |cos(8 pi s + pi/4)|,
    # which is 8 pi = 25.13 at every one of 16 samples: the
    # whole circle is one half-maximum run, and the supports split it
    # at 1/2, each 0.08 wide and centered 0.7 of the way along its half.
    s = fourier.grid(16)
    g = LegendrianGenerator(np.cos(4 * TAU * s) + np.sin(4 * TAU * s), np.sin(TAU * s))
    assert np.allclose(np.abs(g.xp), 8 * np.pi, rtol=0, atol=1e-12)
    assert lifting._half_max_runs(g) == [(0.0, 1.0)]
    (c1, w1), (c2, w2) = lifting.balance_supports(g)
    assert (c1, w1) == (pytest.approx(0.35, abs=1e-15), 0.08)
    assert (c2, w2) == (pytest.approx(0.85, abs=1e-15), 0.08)


def test_a_loop_integrates_w_only_when_it_is_read(monkeypatch):
    # Balancing read the balanced generator's y dx integral and the
    # transform of z dx, so both rotation numbers of its lift, and its
    # closure verdict, need no antiderivative at all.  w is integrated
    # from that transform on first read, and kept.
    g = lifting.balance_closure(circle(1024))
    calls = []
    real = fourier.antiderivative

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fourier, "antiderivative", counted)
    loop = lifting.lift(g)
    report = invariants.invariant_report(loop)
    assert report["rot_winding"] == report["rot_cusp"] == 1
    assert len(calls) == 0
    assert loop.closed
    assert len(calls) == 0
    assert not loop.w.flags.writeable
    assert len(calls) == 2  # z x' and x
    assert abs(loop.closure_defect_w) <= 1e-12
    assert loop.w is loop.w
    assert len(calls) == 2


@pytest.mark.parametrize("seed, n", [(0, 256), (1, 1024), (2, 4096), (3, 256),
                                     (4, 1024), (5, 4096), (6, 16384), (7, 1024)])
def test_the_lift_matches_the_exact_rational_lift(seed, n):
    # Oracle: for x and y rational trigonometric polynomials of degree
    # <= 12, z, w and both defects are exact rational expressions
    # (helpers.ExactLift), rounded only when evaluated.  The random series
    # leave both integrals open, so z and w carry ramps and area_integral
    # takes its drift branch.  Measured error: below 1e-14 of the scale.
    rng = np.random.default_rng(seed)
    degree = int(rng.integers(1, 13))
    exact = ExactLift(random_rational_series(rng, degree), random_rational_series(rng, degree))
    s = fourier.grid(n)
    g = LegendrianGenerator(series_value(exact.x, s), series_value(exact.y, s))
    loop = lifting.lift(g)
    z, w = exact.z(s), exact.w(s)
    tol_z = 1e-13 * max(1.0, float(np.max(np.abs(z))))
    tol_w = 1e-13 * max(1.0, float(np.max(np.abs(w))))
    assert exact.defect_z != 0.0 and exact.defect_w != 0.0
    assert abs(loop.closure_defect_z - exact.defect_z) <= 1e-13 * max(1.0, abs(exact.defect_z))
    assert abs(loop.closure_defect_w - exact.defect_w) <= 1e-13 * max(1.0, abs(exact.defect_w))
    assert np.max(np.abs(loop.z - z)) <= tol_z
    assert np.max(np.abs(loop.w - w)) <= tol_w
    for s0, s1 in [(0.0, 1.0), tuple(np.sort(rng.uniform(0.0, 1.0, 2))), (0.75, 1.5)]:
        want = exact.w(s1) - exact.w(s0)
        assert abs(lifting.area_integral(loop, s0, s1) - want) <= tol_w
