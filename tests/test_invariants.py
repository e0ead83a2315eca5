import re
import types

import numpy as np
import pytest

from engel import fourier, invariants, lifting, models, pairscan, render
from engel.curves import (
    Cusp,
    LegendrianGenerator,
    Orientation,
    TrigSeries,
    sample_generator,
)
from engel.errors import BadDescription, OddCuspImbalance, Unresolved

from helpers import (
    TAU,
    count_ffts,
    count_z_interps,
    dense_winding,
    fish_arrays,
    mirror_x,
    mirror_y,
    raw_loop,
    trig_series_derivative,
)


def circle_cover(k, n=1024):
    return sample_generator((TrigSeries(cos={k: 1.0}), TrigSeries(sin={k: 1.0})), n)


def test_rot_winding_circle_and_covers():
    assert invariants.rot_winding(circle_cover(1)) == 1
    assert invariants.rot_winding(circle_cover(2)) == 2
    assert invariants.rot_winding(circle_cover(3)) == 3


def test_rot_winding_orientation_reversal():
    s = fourier.grid(1024)
    g = LegendrianGenerator(
        np.roll(np.cos(TAU * s)[::-1], 1), np.roll(np.sin(TAU * s)[::-1], 1)
    )
    assert invariants.rot_winding(g) == -1


def test_rot_winding_refines_coarse_grids():
    # 5 turns over 16 samples put each angle step at 5pi/8 > pi/2, so the
    # grid cells must be halved before they certify; the answer is exact.
    g = circle_cover(5, n=16)
    assert invariants.rot_winding(g) == 5


def pinch(n, miss, s0=0.0, k=8):
    """Velocity (sin 2pi(s - s0), cos 2pi k(s - s0) - (1 - miss) cos 2pi(s - s0)),
    passing `miss` from the origin at s0, as (generator, x', y')."""
    def xp(s):
        return np.sin(TAU * (s - s0))

    def yp(s):
        return np.cos(TAU * k * (s - s0)) - (1 - miss) * np.cos(TAU * (s - s0))

    s = fourier.grid(n) - s0
    x = -np.cos(TAU * s) / TAU
    y = np.sin(TAU * k * s) / (TAU * k) - (1 - miss) * np.sin(TAU * s) / TAU
    return LegendrianGenerator(x, y).require_immersed(), xp, yp


def test_rot_winding_certifies_a_pinch_at_a_grid_point():
    # Velocity passes within 2e-6 of the origin at s = 0, where its
    # direction flips by ~pi inside a window far smaller than one grid
    # cell.  The pinch sits on the grid, so halving certifies the cells
    # around it; the dense angle sum agrees.
    g, xp, yp = pinch(1024, 2e-6)
    turns, largest = dense_winding(xp, yp, 1 << 23)
    assert largest < 0.5 and abs(turns) < 1e-9
    assert invariants.rot_winding(g) == 0


def test_rot_winding_rejects_unresolvable_pinch():
    # A 1e-8 miss halfway along grid cell 0: every piece touching it spans
    # a turn near pi, and 12 halvings stay far wider than the pinch.
    n = 1024
    g, _, _ = pinch(n, 1e-8, s0=0.5 / n)
    with pytest.raises(Unresolved,
                       match="velocity under-resolved near s=0.000488: .* after 12 halvings"):
        invariants.rot_winding(g)


def test_rot_winding_matches_a_dense_oracle():
    # Degree 14 with amplitude 0.9 brings the speed down to 0.036 near
    # s = 0.25 and 0.75, where |v'| is near 7000.
    x, y = TrigSeries(cos={1: 1.0, 14: 0.9}), TrigSeries(sin={1: 1.0})
    turns, largest = dense_winding(lambda s: trig_series_derivative(x, s),
                                   lambda s: trig_series_derivative(y, s), 1 << 22)
    assert largest < 0.5 and abs(turns - round(turns)) < 1e-9
    for n in (4096, 16384):
        assert invariants.rot_winding(sample_generator((x, y), n)) == round(turns) == 1


def test_balanced_circle_report():
    g = lifting.balance_closure(circle_cover(1, n=4096))
    report = invariants.invariant_report(lifting.lift(g))
    assert report == {"rot_winding": 1, "rot_cusp": 1, "c_plus": 0, "c_minus": 2}


def test_invariant_report_runs_no_pair_scan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("invariant_report ran a pair scan")

    monkeypatch.setattr(pairscan, "coincident_pairs", refuse)
    monkeypatch.setattr(pairscan, "front_crossings", refuse)
    g = lifting.balance_closure(circle_cover(1, n=1024))
    report = invariants.invariant_report(lifting.lift(g))
    assert report == {"rot_winding": 1, "rot_cusp": 1, "c_plus": 0, "c_minus": 2}


def test_rot_invariant_under_balancing():
    for k in (1, 2):
        g = circle_cover(k, n=2048)
        assert invariants.rot_winding(lifting.balance_closure(g)) == k


def test_mirror_fixture_consistency():
    n = 2048
    s = fourier.grid(n)
    loop = lifting.lift(LegendrianGenerator(mirror_x(s), mirror_y(s)))
    report = invariants.invariant_report(loop)
    assert report["rot_winding"] == report["rot_cusp"] == 1
    assert (report["c_plus"], report["c_minus"]) == (2, 4)

    skewed = lifting.lift(LegendrianGenerator(mirror_x(s, 0.25), mirror_y(s)))
    report = invariants.invariant_report(skewed)
    assert report["rot_winding"] == report["rot_cusp"] == -1
    assert (report["c_plus"], report["c_minus"]) == (4, 2)


def test_fish_front_consistency():
    x, y, z = fish_arrays(1024)
    loop = raw_loop(x, y, z)
    assert invariants.rot_cusp(loop) == invariants.rot_winding(loop.generator)
    c_plus, c_minus = invariants.classify_cusps(loop)
    assert c_plus + c_minus == len(loop.cusps) == 2


def test_rot_cusp_rejects_odd_imbalance():
    fake = types.SimpleNamespace(
        cusps=[
            Cusp(0.1, 1.0, Orientation.UP),
            Cusp(0.5, -1.0, Orientation.DOWN),
            Cusp(0.9, 1.0, Orientation.DOWN),
        ],
    )
    assert invariants.classify_cusps(fake) == (1, 2)
    with pytest.raises(OddCuspImbalance):
        invariants.rot_cusp(fake)


def test_rot_winding_refuses_a_velocity_whose_squares_overflow():
    # x' and y' are finite, their squares are not; the refusal comes
    # before any cell test squares them (a numpy warning fails the suite).
    s = fourier.grid(1024)
    big = LegendrianGenerator(1e300 * np.cos(TAU * s), 1e300 * np.sin(TAU * s))
    with pytest.raises(BadDescription, match="squares leave the float range"):
        invariants.rot_winding(big)
    # At 1e150 every square stays finite, and the circle winds once.
    large = LegendrianGenerator(1e150 * np.cos(TAU * s), 1e150 * np.sin(TAU * s))
    assert invariants.rot_winding(large) == 1


def corpus_generator(seed, n=4096):
    """A balanced degree-8 generator, as in the acceptance corpus."""
    rng = np.random.default_rng(seed)
    s = fourier.grid(n)
    x, y = np.cos(TAU * s), 2.0 * np.sin(2 * TAU * s)
    for k in range(1, 9):
        a, b, c, d = 0.5 * rng.uniform(-1, 1, size=4) / k**2
        x += a * np.cos(k * TAU * s) + b * np.sin(k * TAU * s)
        y += c * np.cos(k * TAU * s) + d * np.sin(k * TAU * s)
    return lifting.balance_closure(LegendrianGenerator(x, y))


def test_a_corpus_item_transforms_each_sample_array_once(monkeypatch):
    # A balanced degree-8 generator at 4096 samples.  Balancing and both
    # rotation numbers transform x, y and each integrand once, the w
    # defect's z x' included (its rfft mean is the loop's
    # closure_defect_w).  No one reads w, so the lift integrates none,
    # and no one places a cusp, so z is never interpolated: at most 9 FFT
    # calls.  Evaluations: the cusp search's three Newton steps, then x'
    # and y' once at the roots, whose y' the orientations read, and two
    # halvings of the winding certificate at two channels each: 9.
    balanced = corpus_generator(1)
    g = LegendrianGenerator(balanced.x, balanced.y)
    ffts = count_ffts(monkeypatch)
    placed = count_z_interps(monkeypatch)
    values = {"calls": 0}
    real_value = fourier.Interpolant.value

    def value(self, *args):
        values["calls"] += 1
        return real_value(self, *args)

    monkeypatch.setattr(fourier.Interpolant, "value", value)
    assert lifting.balance_closure(g) is g
    report = invariants.invariant_report(lifting.lift(g))
    assert report["rot_winding"] == report["rot_cusp"]
    assert ffts["ffts"] <= 9
    assert values["calls"] <= 9
    assert placed == {"z_interp": 0}


def _finite_difference_orientations(loop):
    """Each cusp's orientation from the sign of direction times y', with
    y' interpolated linearly between the centred finite differences of
    the y samples at the two grid points around the cusp.  Returns the
    orientations and the smallest |y'| so found."""
    n, y = loop.n, loop.y
    yp = (np.roll(y, -1) - np.roll(y, 1)) * (n / 2.0)
    out, smallest = [], np.inf
    for cusp in loop.cusps:
        k = int(np.floor(cusp.s * n)) % n
        t = cusp.s * n - np.floor(cusp.s * n)
        slope = (1.0 - t) * yp[k] + t * yp[(k + 1) % n]
        smallest = min(smallest, abs(slope))
        out.append(Orientation.UP if slope * cusp.direction > 0 else Orientation.DOWN)
    return out, smallest


ORIENTATION_CASES = {
    # demo.front's circ, cos(1) and sin(1), balanced
    "demo-circle": lambda: lifting.lift(lifting.balance_closure(circle_cover(1, 4096))),
    "model3": lambda: models.model_front(3, seed=0, samples=4096),
    **{"degree8-seed%d" % seed: (lambda seed=seed: lifting.lift(corpus_generator(seed)))
       for seed in range(6)},
}


@pytest.mark.parametrize("case", sorted(ORIENTATION_CASES))
def test_counted_orientations_match_finite_differences_and_placed_cusps(case):
    loop = ORIENTATION_CASES[case]()
    counted = [c.orientation for c in loop.cusps]
    want, smallest = _finite_difference_orientations(loop)
    # The differences are O(1/n^2) off y'; the signs are far from that.
    assert smallest > 1e-3
    assert counted == want
    drawn = re.findall(r'class="cusp-(up|down)"', render.front_svg_text(loop))
    assert [o.value for o in counted] == drawn
    ups = counted.count(Orientation.UP)
    assert invariants.classify_cusps(loop) == (ups, len(counted) - ups)
