import types

import numpy as np
import pytest

from engel import fourier, invariants, lifting, pairscan
from engel.curves import (
    LegendrianGenerator,
    Cusp,
    Orientation,
    TrigSeries,
    sample_generator,
)
from engel.errors import AmbiguousWinding, OddCuspImbalance

from helpers import TAU, fish_arrays, mirror_x, mirror_y, raw_loop


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
    # 5 turns over 16 samples puts each angle step at 5pi/8 > pi/2, so the
    # first pass must refuse and resample; the answer is still exact.
    g = circle_cover(5, n=16)
    assert invariants.rot_winding(g) == 5


def test_rot_winding_rejects_unresolvable_pinch():
    # Velocity passes within 2e-6 of the origin at s = 0, where its
    # direction flips by ~pi inside a window far smaller than one grid
    # cell.  Two resamplings cannot fix that.
    n = 1024
    s = fourier.grid(n)
    k = 8
    y = np.sin(TAU * k * s) / (TAU * k) - (1 - 2e-6) * np.sin(TAU * s) / TAU
    x = -np.cos(TAU * s) / TAU
    g = LegendrianGenerator(x, y)
    g.require_immersed()
    with pytest.raises(AmbiguousWinding, match="refinements"):
        invariants.rot_winding(g)


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
            Cusp(0.1, (0.0, 0.0), Orientation.UP),
            Cusp(0.5, (0.0, 0.0), Orientation.DOWN),
            Cusp(0.9, (0.0, 0.0), Orientation.DOWN),
        ],
    )
    assert invariants.classify_cusps(fake) == (1, 2)
    with pytest.raises(OddCuspImbalance):
        invariants.rot_cusp(fake)
