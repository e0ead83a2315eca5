"""Front moves and verified homotopies: paths, events, and verdicts.

The structural tests run on a coarse grid (n=1024) where everything
they measure is already converged; the tangency tests that depend on a
calibrated amplitude use the default 4096-point grid the calibration
was done on.
"""

import inspect
import json
import math

import numpy as np
import pytest

from engel import curves, fourier, invariants, lifting, models, pairscan
from engel import homotopy
from engel.errors import EngelError, ImmersionLost, MoveRefused, UnsupportedOverlap
from engel.homotopy import (
    HomotopyTrace,
    Move,
    MoveScript,
    apply_move,
    run_script,
    tangency_profile,
    verify_isotopy,
)

# Tangency amplitude calibrated so the middle frame of the pass touches
# the opposite strand exactly (the same value ships in data/demo.front).
TOUCH_AMPLITUDE = 1.5078800081746633


def circle(n=1024):
    s = fourier.grid(n)
    return curves.LegendrianGenerator(
        np.cos(fourier.TAU * s), np.sin(fourier.TAU * s)
    )


def mirror(n=1024):
    """Closed generator whose lone double point has exactly zero w-gap."""
    s = fourier.grid(n)
    return curves.LegendrianGenerator(
        np.cos(fourier.TAU * s) - np.cos(3 * fourier.TAU * s),
        np.sin(5 * fourier.TAU * s),
    )


def cusp_count(loop):
    return len(loop.cusps)


# ---------------------------------------------------------------- paths


def test_zero_amplitude_deform_repeats_the_frame():
    g = mirror()
    path = apply_move(g, Move("deform", {"at": 0.3, "width": 0.05, "frames": 4}))
    assert len(path) == 5
    for gen in path:
        assert np.array_equal(gen.x, g.x)
        assert np.array_equal(gen.y, g.y)


def test_deform_moves_linearly_in_time():
    g = circle()
    k = 6
    ax, ay = 0.07, -0.04
    move = Move("deform", {"at": 0.6, "width": 0.05, "ax": ax, "ay": ay, "frames": k})
    path = apply_move(g, move)
    phi = lifting.bump_samples(fourier.grid(g.n), 0.6, 0.05)
    for j, gen in enumerate(path):
        r = j / k
        assert np.array_equal(gen.x, g.x + (r * ax) * phi)
        assert np.array_equal(gen.y, g.y + (r * ay) * phi)


def test_balance_move_restores_closure():
    g = circle()
    path = apply_move(g, Move("balance"))
    assert len(path) == 2
    assert path[0] is g
    assert abs(lifting.z_closure_defect(path[1])) <= 1e-12
    assert abs(lifting.w_closure_defect(path[1])) <= 1e-12


def test_stalled_frame_raises_immersion_lost_at_the_degenerate_step():
    # The circle's velocity at s=1/4 is purely horizontal, so pushing x
    # with a bump whose slope there cancels x' stalls the curve at the
    # middle frame of the ramp and nowhere else.
    g = circle()
    phi = lifting.bump_samples(fourier.grid(g.n), 0.28, 0.1)
    slope = fourier.Interpolant(phi).derivative(0.25)
    a = -float(fourier.Interpolant(g.x).derivative(0.25)) / float(slope)
    move = Move("deform", {"at": 0.28, "width": 0.1, "ax": 2 * a, "frames": 8})
    with pytest.raises(ImmersionLost) as err:
        apply_move(g, move)
    assert err.value.frame == 4


# ----------------------------------------------------------- validation


def test_unknown_move_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown move kind"):
        apply_move(circle(), Move("slide"))


def test_stray_parameter_is_rejected():
    with pytest.raises(ValueError, match="does not take"):
        apply_move(circle(), Move("deform", {"at": 0.1, "width": 0.05, "amplitude": 1.0}))


def test_tangency_pass_requires_an_amplitude():
    move = Move("tangency_pass", {"at": 0.55, "width": 0.08})
    with pytest.raises(ValueError, match="amplitude"):
        apply_move(lifting.balance_closure(circle()), move)


@pytest.mark.parametrize("frames", [0, 3, -2])
def test_frames_must_be_a_positive_even_count(frames):
    move = Move("deform", {"at": 0.1, "width": 0.05, "frames": frames})
    with pytest.raises(ValueError, match="even count"):
        apply_move(circle(), move)


# --------------------------------------------------------- swallowtails


def test_birth_adds_a_cusp_pair_and_keeps_rot():
    sc = [Move("swallowtail_birth", {"at": 0.12, "width": 0.06, "frames": 8})]
    trace = run_script(circle(), sc)
    first, last = trace.frames[0], trace.frames[-1]
    assert cusp_count(first) == 2
    assert cusp_count(last) == 4
    assert invariants.rot_winding(first.generator) == 1
    assert invariants.rot_winding(last.generator) == 1


def test_death_undoes_a_birth():
    sc = [
        Move("swallowtail_birth", {"at": 0.12, "width": 0.06, "frames": 6}),
        Move("swallowtail_death", {"at": 0.12, "width": 0.06, "frames": 6}),
    ]
    trace = run_script(circle(), sc)
    first, mid, last = trace.frames[0], trace.frames[6], trace.frames[-1]
    assert cusp_count(first) == 2
    assert cusp_count(mid) == 4
    assert cusp_count(last) == 2
    assert invariants.rot_winding(last.generator) == 1
    # The default death amplitude retracts the same fold the birth made,
    # so the x profile comes back to within the threshold solver's slack.
    assert np.max(np.abs(last.generator.x - first.generator.x)) <= 1e-5


def test_birth_rejects_a_window_holding_a_cusp():
    move = Move("swallowtail_birth", {"at": 0.0, "width": 0.06, "frames": 4})
    with pytest.raises(UnsupportedOverlap, match="contains a cusp"):
        apply_move(lifting.balance_closure(circle()), move)


def test_death_needs_exactly_two_cusps():
    move = Move("swallowtail_death", {"at": 0.12, "width": 0.06, "frames": 4})
    with pytest.raises(UnsupportedOverlap, match="found 0"):
        apply_move(lifting.balance_closure(circle()), move)


def test_amplitude_below_the_fold_threshold_is_rejected():
    move = Move(
        "swallowtail_birth",
        {"at": 0.12, "width": 0.06, "amplitude": 1e-3, "frames": 4},
    )
    with pytest.raises(ValueError, match="fold threshold"):
        apply_move(lifting.balance_closure(circle()), move)


def test_no_fold_direction_is_a_refusal_not_a_usage_error():
    # x' vanishes on the whole support, so no amplitude folds it.
    n = 256
    s = fourier.grid(n)
    g = curves.LegendrianGenerator(np.full(n, 0.5), np.sin(fourier.TAU * s))
    with pytest.raises(MoveRefused, match="no fold direction") as err:
        homotopy._birth_threshold(g, 0.12, 0.06)
    assert isinstance(err.value, EngelError)
    assert not isinstance(err.value, ValueError)


def test_death_amplitude_past_the_ceiling_is_refused():
    sc = [Move("swallowtail_birth", {"at": 0.12, "width": 0.06, "frames": 2})]
    g = run_script(circle(), sc).frames[-1].generator
    move = Move("swallowtail_death", {"at": 0.12, "width": 0.06, "amplitude": 50.0, "frames": 2})
    with pytest.raises(MoveRefused, match="opposite flank"):
        apply_move(g, move)


# ------------------------------------------------------------ tangencies


def test_tangency_profile_preserves_both_closures():
    bal = lifting.balance_closure(circle())
    supports = lifting.balance_supports(bal)
    psi = tangency_profile(bal, 0.55, 0.08, supports=supports)
    pushed = bal.with_y(bal.y + 0.3 * psi)
    assert abs(lifting.z_closure_defect(pushed)) <= 1e-12
    assert abs(lifting.w_closure_defect(pushed)) <= 1e-12


def test_deform_keeps_the_crossing_count():
    sc = [Move("deform", {"at": 0.6, "width": 0.05, "ax": 0.04, "ay": 0.03, "frames": 4})]
    trace = run_script(circle(), sc)
    counts = [len(pairscan.front_crossings(f)) for f in trace.frames]
    assert counts == [counts[0]] * len(counts)
    assert counts[0] > 0


def test_tangency_event_changes_the_crossing_count_by_two():
    sc = [
        Move(
            "tangency_pass",
            {"at": 0.55, "width": 0.08, "amplitude": TOUCH_AMPLITUDE, "frames": 4},
        )
    ]
    trace = run_script(circle(4096), sc)
    before = pairscan.front_crossings(trace.frames[0])
    after = pairscan.front_crossings(trace.frames[-1])
    assert len(after) == len(before) + 2

    # At the event frame the front touches itself, yet the lift stays
    # embedded: the near pair separates in w by three decades more than
    # the certification tolerance.
    check = lifting.embedding_check(trace.frames[2])
    assert check.embedded
    assert math.isfinite(check.margin)
    assert 1e-5 < check.margin < 1e-3
    (s0, s1, dw) = min(check.double_points, key=lambda p: abs(p[2]))
    assert abs(s0 - 0.4442) < 1e-3
    assert abs(s1 - 0.5558) < 1e-3


def test_zero_area_tangency_is_rejected_at_the_event_frame():
    # Push the strands of the mirror generator apart with a balanced
    # profile, then run a pass that closes the gap again: the middle
    # frame reproduces the original curve, whose double point has zero
    # w-gap, and verification must refuse it there.
    bal = lifting.balance_closure(mirror())
    supports = lifting.balance_supports(bal)
    psi = tangency_profile(bal, 0.25, 0.08, supports=supports)
    a0 = 0.05
    g0 = bal.with_y(bal.y - a0 * psi)
    sc = [
        Move(
            "tangency_pass",
            {"at": 0.25, "width": 0.08, "amplitude": 2 * a0, "frames": 16},
        )
    ]
    report = verify_isotopy(run_script(g0, sc))
    assert not report.ok
    assert report.code == "NOT_EMBEDDED"
    assert report.frame == 8
    assert report.margin <= 1e-9
    (s0, s1, dw) = report.double_points[0]
    assert abs(s0 - 0.0) < 1e-6
    assert abs(s1 - 0.5) < 1e-6

    payload = report.to_dict()
    assert payload["embedded"] is False
    assert payload["code"] == "NOT_EMBEDDED"
    assert payload["frame"] == 8
    json.dumps(payload)


# ------------------------------------------------------------ the trace


def test_run_script_times_land_on_the_uniform_grid():
    sc = [
        Move("deform", {"at": 0.6, "width": 0.05, "ax": 0.02, "ay": 0.03, "frames": 4}),
        Move("balance"),
    ]
    trace = run_script(circle(), sc)
    assert len(trace.frames) == 6
    assert trace.times == tuple(k / 5 for k in range(6))
    assert trace.events == ()
    for frame in trace.frames:
        assert abs(frame.closure_defect_z) <= 1e-9
        assert abs(frame.closure_defect_w) <= 1e-9


def test_event_time_sits_at_the_middle_frame():
    sc = [
        Move("deform", {"at": 0.6, "width": 0.05, "ax": 0.02, "frames": 4}),
        Move("swallowtail_birth", {"at": 0.12, "width": 0.06, "frames": 4}),
    ]
    trace = run_script(circle(), sc)
    assert trace.events == ((0.75, "swallowtail_birth"),)
    assert trace.times[6] == 0.75


def test_empty_script_gives_a_single_verified_frame():
    trace = run_script(circle(4096), MoveScript("nothing", ()))
    assert len(trace.frames) == 1
    assert trace.times == (0.0,)
    assert trace.events == ()
    report = verify_isotopy(trace)
    assert report.ok
    assert report.code is None
    assert report.frame is None
    payload = report.to_dict()
    assert payload["ok"] is True
    assert payload["embedded"] is True
    json.dumps(payload)


def test_rot_change_between_frames_is_flagged():
    plain = lifting.lift(lifting.balance_closure(circle(4096)))
    doubled = models.model_front(2, seed=0, samples=4096)
    trace = HomotopyTrace(frames=(plain, doubled), times=(0.0, 1.0), events=())
    report = verify_isotopy(trace)
    assert not report.ok
    assert report.code == "ROT_CHANGED"
    assert report.frame == 1
    assert report.rot == 1
    assert not report.rot_constant


@pytest.mark.parametrize("func, params", [
    (verify_isotopy, ["trace"]),
    (run_script, ["g0", "script"]),
    (pairscan.coincident_pairs, ["loop"]),
    (pairscan.front_crossings, ["loop"]),
], ids=lambda v: getattr(v, "__name__", None))
def test_certificates_take_no_tolerance_arguments(func, params):
    # Each certificate has one verdict, against the module constants.
    assert list(inspect.signature(func).parameters) == params
