"""Front moves and verified homotopies: paths, events, and verdicts.

The structural tests run on a coarse grid (n=1024) where everything
they measure is already converged; the tangency tests that depend on a
calibrated amplitude use the default 4096-point grid the calibration
was done on.
"""

import inspect
import json
import math
from importlib import resources

import numpy as np
import pytest

from engel import cli, curves, fourier, frontlang, invariants, lifting, models, pairscan
from engel import homotopy
from engel.errors import EngelError, MoveRefused, NotImmersed
from engel.homotopy import (
    Move,
    script_frames,
    tangency_profile,
    verify_isotopy,
)

from helpers import count_ffts, golden_text, hand_loop, move_frames

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
    path = move_frames(g, Move("deform", {"at": 0.3, "width": 0.05, "frames": 4}))
    assert len(path) == 5
    for gen in path:
        assert np.array_equal(gen.x, g.x)
        assert np.array_equal(gen.y, g.y)


def test_deform_moves_linearly_in_time():
    g = circle()
    k = 6
    ax, ay = 0.07, -0.04
    move = Move("deform", {"at": 0.6, "width": 0.05, "ax": ax, "ay": ay, "frames": k})
    path = move_frames(g, move)
    assert len(path) == k + 1
    phi = lifting.bump_samples(fourier.grid(g.n), 0.6, 0.05)
    for j, gen in enumerate(path):
        r = j / k
        assert np.array_equal(gen.x, g.x + (r * ax) * phi)
        assert np.array_equal(gen.y, g.y + (r * ay) * phi)


def test_stalled_frame_raises_immersion_lost_at_the_degenerate_step():
    # The circle's velocity at s=1/4 is purely horizontal, so pushing x
    # with a bump whose slope there cancels x' stalls the curve at the
    # middle frame of the ramp and nowhere else.
    g = circle()
    phi = lifting.bump_samples(fourier.grid(g.n), 0.28, 0.1)
    slope = fourier.Interpolant(phi).value(0.25, 1)
    a = -float(fourier.Interpolant(g.x).value(0.25, 1)) / float(slope)
    move = Move("deform", {"at": 0.28, "width": 0.1, "ax": 2 * a, "frames": 8})
    with pytest.raises(
        NotImmersed, match="^frame 4: velocity norm .* is below the immersion floor$"
    ) as err:
        move_frames(g, move)
    assert err.value.s == 0.25


# ----------------------------------------------------------- validation


def test_unknown_move_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown move kind"):
        script_frames(circle(), [Move("slide")])


def test_stray_parameter_is_rejected():
    with pytest.raises(ValueError, match="does not take"):
        script_frames(circle(), [Move("deform", {"at": 0.1, "width": 0.05, "amplitude": 1.0})])


def test_tangency_pass_requires_an_amplitude():
    move = Move("tangency_pass", {"at": 0.55, "width": 0.08})
    with pytest.raises(ValueError, match="amplitude"):
        script_frames(lifting.balance_closure(circle()), [move])


@pytest.mark.parametrize("frames", [0, 3, -2, 2.5])
def test_frames_must_be_a_positive_even_count(frames):
    move = Move("deform", {"at": 0.1, "width": 0.05, "frames": frames})
    with pytest.raises(ValueError, match="even count"):
        script_frames(circle(), [move])


# --------------------------------------------------------- swallowtails


def test_birth_adds_a_cusp_pair_and_keeps_rot():
    sc = [Move("swallowtail_birth", {"at": 0.12, "width": 0.06, "frames": 8})]
    loops = [loop for _, loop, _ in script_frames(circle(), sc)]
    first, last = loops[0], loops[-1]
    assert cusp_count(first) == 2
    assert cusp_count(last) == 4
    assert invariants.rot_winding(first.generator) == 1
    assert invariants.rot_winding(last.generator) == 1


def test_death_undoes_a_birth():
    sc = [
        Move("swallowtail_birth", {"at": 0.12, "width": 0.06, "frames": 6}),
        Move("swallowtail_death", {"at": 0.12, "width": 0.06, "frames": 6}),
    ]
    loops = [loop for _, loop, _ in script_frames(circle(), sc)]
    first, mid, last = loops[0], loops[6], loops[-1]
    assert cusp_count(first) == 2
    assert cusp_count(mid) == 4
    assert cusp_count(last) == 2
    assert invariants.rot_winding(last.generator) == 1
    # The default death amplitude retracts the same fold the birth made,
    # so the x profile comes back to within the threshold solver's slack.
    assert np.max(np.abs(last.generator.x - first.generator.x)) <= 1e-5


def test_birth_rejects_a_window_holding_a_cusp():
    move = Move("swallowtail_birth", {"at": 0.0, "width": 0.06, "frames": 4})
    with pytest.raises(MoveRefused, match="^swallowtail_birth support .* contains a cusp at"):
        list(script_frames(lifting.balance_closure(circle()), [move]))


def test_death_needs_exactly_two_cusps():
    move = Move("swallowtail_death", {"at": 0.12, "width": 0.06, "frames": 4})
    with pytest.raises(MoveRefused, match="^swallowtail_death needs exactly the two cusps .*; found 0$"):
        list(script_frames(lifting.balance_closure(circle()), [move]))


def test_amplitude_below_the_fold_threshold_is_rejected():
    move = Move(
        "swallowtail_birth",
        {"at": 0.12, "width": 0.06, "amplitude": 1e-3, "frames": 4},
    )
    with pytest.raises(ValueError, match="fold threshold"):
        list(script_frames(lifting.balance_closure(circle()), [move]))


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
    sc = [
        Move("swallowtail_birth", {"at": 0.12, "width": 0.06, "frames": 2}),
        Move("swallowtail_death", {"at": 0.12, "width": 0.06, "amplitude": 50.0, "frames": 2}),
    ]
    with pytest.raises(MoveRefused, match="opposite flank"):
        list(script_frames(circle(), sc))


# ------------------------------------------------------------ tangencies


def test_tangency_profile_preserves_both_closures():
    bal = lifting.balance_closure(circle())
    supports = lifting.balance_supports(bal)
    psi = tangency_profile(bal, 0.55, 0.08, supports=supports)
    pushed = curves.LegendrianGenerator(bal.x, bal.y + 0.3 * psi)
    assert abs(lifting.z_closure_defect(pushed)) <= 1e-12
    assert abs(lifting.w_closure_defect(pushed)) <= 1e-12


def test_deform_keeps_the_crossing_count():
    sc = [Move("deform", {"at": 0.6, "width": 0.05, "ax": 0.04, "ay": 0.03, "frames": 4})]
    counts = [len(pairscan.front_crossings(f)) for _, f, _ in script_frames(circle(), sc)]
    assert counts == [counts[0]] * len(counts)
    assert counts[0] > 0


def test_tangency_event_changes_the_crossing_count_by_two():
    sc = [
        Move(
            "tangency_pass",
            {"at": 0.55, "width": 0.08, "amplitude": TOUCH_AMPLITUDE, "frames": 4},
        )
    ]
    loops = [loop for _, loop, _ in script_frames(circle(4096), sc)]
    before = pairscan.front_crossings(loops[0])
    after = pairscan.front_crossings(loops[-1])
    assert len(after) == len(before) + 2

    # At the event frame the front touches itself, yet the lift stays
    # embedded: the near pair separates in w by three decades more than
    # the certification tolerance.
    check = lifting.embedding_check(loops[2])
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
    g0 = curves.LegendrianGenerator(bal.x, bal.y - a0 * psi)
    sc = [
        Move(
            "tangency_pass",
            {"at": 0.25, "width": 0.08, "amplitude": 2 * a0, "frames": 16},
        )
    ]
    report = verify_isotopy(script_frames(g0, sc))
    assert not report.ok
    assert report.code == "NOT_EMBEDDED"
    assert report.frame == 8
    assert report.embedding.margin <= 1e-9
    (s0, s1, dw) = report.embedding.double_points[0]
    assert abs(s0 - 0.0) < 1e-6
    assert abs(s1 - 0.5) < 1e-6

    payload = report.to_dict()
    assert payload["embedded"] is False
    assert payload["code"] == "NOT_EMBEDDED"
    assert payload["frame"] == 8
    assert cli._json_text(payload) == golden_text("verification_zero_area_tangency.json")


# ------------------------------------------------------------ the trace


def test_frame_times_land_on_the_uniform_grid():
    sc = [
        Move("deform", {"at": 0.6, "width": 0.05, "ax": 0.02, "ay": 0.03, "frames": 4}),
        Move("deform", {"at": 0.2, "width": 0.05, "ay": -0.03, "frames": 2}),
    ]
    trace = list(script_frames(circle(), sc))
    assert [(t, kind) for t, _, kind in trace] == [(k / 6, None) for k in range(7)]
    for _, frame, _ in trace:
        assert abs(frame.closure_defect_z) <= 1e-9
        assert abs(frame.closure_defect_w) <= 1e-9


def test_event_time_sits_at_the_middle_frame():
    sc = [
        Move("deform", {"at": 0.6, "width": 0.05, "ax": 0.02, "frames": 4}),
        Move("swallowtail_birth", {"at": 0.12, "width": 0.06, "frames": 4}),
    ]
    events = [(j, t, kind) for j, (t, _, kind) in enumerate(script_frames(circle(), sc)) if kind]
    assert events == [(6, 0.75, "swallowtail_birth")]


def test_a_script_past_max_steps_is_refused_before_any_frame(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a frame was built")

    monkeypatch.setattr(lifting, "balance_closure", unreachable)
    half = Move("deform", {"at": 0.3, "width": 0.1, "ax": 0.01, "frames": 5000})
    with pytest.raises(ValueError, match="script takes 10000 steps, more than 9999"):
        script_frames(circle(), [half, half])


def test_frames_are_built_one_at_a_time_in_order(monkeypatch):
    lifted = []
    real_lift = lifting.lift

    def lift(g):
        lifted.append(g)
        return real_lift(g)

    monkeypatch.setattr(lifting, "lift", lift)
    sc = [
        Move("deform", {"at": 0.6, "width": 0.05, "ax": 0.02, "frames": 2}),
        Move("swallowtail_birth", {"at": 0.12, "width": 0.06, "frames": 2}),
    ]
    frames = script_frames(circle(), sc)
    assert lifted == []
    handed = []
    for j, triple in enumerate(frames):
        assert len(lifted) == j + 1
        handed.append(triple)
    assert len(lifted) == 5
    assert [(t, kind) for t, _, kind in handed] == [
        (0.0, None), (0.25, None), (0.5, None), (0.75, "swallowtail_birth"), (1.0, None)
    ]


def test_verification_reads_a_one_shot_stream_to_its_end(monkeypatch):
    # The mirror's double point fails frame 0.  The four frames after it
    # are read and counted, and none of them is checked.
    checked = []
    real_check = lifting.embedding_check

    def embedding_check(loop):
        checked.append(loop)
        return real_check(loop)

    monkeypatch.setattr(lifting, "embedding_check", embedding_check)
    sc = [Move("deform", {"at": 0.3, "width": 0.1, "ax": 0.01, "frames": 4})]
    frames = script_frames(mirror(), sc)
    report = verify_isotopy(frames)
    assert (report.code, report.frame, report.frames) == ("NOT_EMBEDDED", 0, 5)
    assert len(checked) == 1
    assert next(frames, None) is None
    assert report.to_dict() == verify_isotopy(list(script_frames(mirror(), sc))).to_dict()


def test_each_move_and_each_frame_winding_is_checked_once(monkeypatch):
    # The demo's two moves are checked when the script is, its 129
    # frames each certify their winding number once, frame 0 included,
    # and the balancing supports are placed once for the run.  Each
    # generator transforms its x, y and integrands once, a rebalanced
    # frame takes its x transforms from the frame it balances, and the
    # two balancing bumps are transformed as one stack: at most 13 FFT
    # calls a frame on average.
    ffts = count_ffts(monkeypatch)
    calls = {"_step_count": 0, "rot_winding": 0, "balance_supports": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(homotopy, "_step_count")
    counted(invariants, "rot_winding")
    counted(lifting, "balance_supports")
    doc = frontlang.parse(resources.files("engel.data").joinpath("demo.front").read_text())
    desc = doc.generator("circ")
    g0 = curves.sample_generator((desc.x, desc.y), 1024)
    report = verify_isotopy(script_frames(g0, doc.script("pass_and_fold").moves))
    assert (report.ok, report.frames) == (True, 129)
    assert calls == {"_step_count": 2, "rot_winding": 129, "balance_supports": 1}
    assert ffts["ffts"] <= 13 * 129


@pytest.mark.parametrize("move, message", [
    (Move("tangency_pass", {"at": 0.55, "width": 0.08, "frames": 2}), "needs a 'amplitude'"),
    (Move("deform", {"width": 0.1, "ax": 0.01, "frames": 2}), "needs a 'at'"),
    (Move("swallowtail_birth", {"at": 0.12, "width": 0.0, "frames": 2}), "width must be"),
], ids=["tangency_pass", "deform", "swallowtail_birth"])
def test_the_whole_script_is_checked_before_any_frame(monkeypatch, move, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("a frame was built")

    monkeypatch.setattr(lifting, "balance_closure", unreachable)
    first = Move("deform", {"at": 0.3, "width": 0.1, "ax": 0.01, "frames": 2})
    with pytest.raises(ValueError, match=message):
        script_frames(circle(), [first, move])


def test_empty_script_gives_a_single_verified_frame():
    trace = list(script_frames(circle(4096), ()))
    assert [(t, kind) for t, _, kind in trace] == [(0.0, None)]
    report = verify_isotopy(trace)
    assert report.ok
    assert report.code is None
    assert report.frame is None
    payload = report.to_dict()
    assert payload["ok"] is True
    assert payload["embedded"] is True
    json.dumps(payload)


def test_an_empty_trace_is_refused():
    with pytest.raises(ValueError, match="^cannot verify an empty trace$"):
        verify_isotopy([])


@pytest.mark.parametrize("frame, defects", [
    (0, {"dw": float("nan")}),
    (0, {"dz": 1e-6}),
    (1, {"dz": 1e-6}),
], ids=["w_nan_at_frame_0", "z_open_at_frame_0", "z_open_at_frame_1"])
def test_a_loop_carrying_an_open_defect_is_not_closed(frame, defects):
    # The generator's defects are closed; the loop's own do not, and the
    # verdict, read from the loop alone, is report content, not a
    # NotClosed raised from embedding_check.
    ((_, loop, _),) = script_frames(circle(1024), ())
    defects = {"dz": loop.closure_defect_z, "dw": loop.closure_defect_w, **defects}
    edited = hand_loop(loop.generator, loop.z, defects["dz"], loop.w, defects["dw"])
    trace = [(0.0, loop, None)] * frame + [(1.0, edited, None)]
    report = verify_isotopy(trace)
    assert (report.ok, report.code, report.frame) == (False, "NOT_CLOSED", frame)
    if frame == 0:
        text = cli._json_text(report.to_dict())
        assert text == golden_text("verification_nan_closure_defect.json")


def test_rot_change_between_frames_is_flagged():
    plain = lifting.lift(lifting.balance_closure(circle(4096)))
    doubled = models.model_front(2, seed=0, samples=4096)
    report = verify_isotopy([(0.0, plain, None), (1.0, doubled, None)])
    assert not report.ok
    assert report.code == "ROT_CHANGED"
    assert report.frame == 1
    assert report.rot == 1
    payload = report.to_dict()
    assert payload["rot_constant"] is False
    assert cli._json_text(payload) == golden_text("verification_rot_changed.json")


@pytest.mark.parametrize("func, params", [
    (verify_isotopy, ["trace"]),
    (script_frames, ["g0", "moves"]),
    (pairscan.coincident_pairs, ["loop"]),
    (pairscan.front_crossings, ["loop"]),
], ids=lambda v: getattr(v, "__name__", None))
def test_certificates_take_no_tolerance_arguments(func, params):
    # Each certificate has one verdict, against the module constants.
    assert list(inspect.signature(func).parameters) == params
