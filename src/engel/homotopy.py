"""Front moves and scripted, verifiable homotopies of horizontal loops.

A move carries an immersed generator through a short path of immersed
generators.  Executing a script chains such paths, re-balances the two
closure integrals on every frame, lifts every frame from the same base
values, and records each singular event at the middle frame of its move.
Verification is a separate pass that re-derives every certificate per
frame: closure of the lift, embeddedness (through tangency events via
the w-separation at the double point), and constancy of the rotation
number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fourier, invariants, lifting
from .curves import (
    SPEED_FLOOR,
    TOL_CLOSURE,
    LegendrianGenerator,
    find_cusps,
)
from .errors import ImmersionLost, MoveRefused, UnsupportedOverlap

DEFAULT_FRAMES = 64

MOVE_KINDS = (
    "deform",
    "swallowtail_birth",
    "swallowtail_death",
    "tangency_pass",
    "balance",
)

# Moves whose middle frame is a singular event of the front homotopy.
EVENT_KINDS = ("swallowtail_birth", "swallowtail_death", "tangency_pass")

_ALLOWED_PARAMS = {
    "deform": frozenset({"at", "width", "ax", "ay", "frames"}),
    "swallowtail_birth": frozenset({"at", "width", "amplitude", "frames"}),
    "swallowtail_death": frozenset({"at", "width", "amplitude", "frames"}),
    "tangency_pass": frozenset({"at", "width", "amplitude", "frames"}),
    "balance": frozenset(),
}


@dataclass(frozen=True)
class Move:
    """One front move: a kind plus its numeric parameters.

    The parameter names are the script fields: ``at`` and ``width``
    place the support bump, ``amplitude`` scales the perturbation
    (swallowtail moves calibrate their fold threshold themselves when it
    is omitted), ``ax``/``ay`` split a deform between the coordinates,
    and ``frames`` is the even step count (default 64).
    """

    kind: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MoveScript:
    name: str
    moves: tuple


@dataclass(frozen=True)
class HomotopyTrace:
    """A discretely sampled homotopy: lifted frames at increasing times.

    ``events`` holds (time, kind) for each singular moment; every event
    time lies on the frame grid.
    """

    frames: tuple
    times: tuple
    events: tuple


def _param(move: Move, name: str, default=None) -> float:
    value = move.params.get(name, default)
    if value is None:
        raise ValueError("%s move needs a %r parameter" % (move.kind, name))
    return float(value)


def _check_move(move: Move):
    if move.kind not in _ALLOWED_PARAMS:
        raise ValueError(
            "unknown move kind %r (choose from %s)" % (move.kind, ", ".join(MOVE_KINDS))
        )
    stray = set(move.params) - _ALLOWED_PARAMS[move.kind]
    if stray:
        raise ValueError(
            "%s move does not take %s" % (move.kind, ", ".join(sorted(stray)))
        )


def _step_count(move: Move) -> int:
    if move.kind == "balance":
        return 1
    k = int(_param(move, "frames", DEFAULT_FRAMES))
    if k < 2 or k % 2 != 0:
        raise ValueError("frames must be an even count of at least 2, got %d" % k)
    return k


def _circular_gap(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def _cusps_in_window(g: LegendrianGenerator, center: float, width: float):
    """Cusp parameters of g within circular distance `width` of `center`."""
    return [s for s, _ in find_cusps(g) if _circular_gap(s, center) <= width]


def _require_frame_immersed(gen: LegendrianGenerator, index: int):
    s, v = gen.min_speed()
    if v < SPEED_FLOOR:
        raise ImmersionLost(
            "frame %d: velocity norm %.3e at s=%.6f is below the immersion floor"
            % (index, v, s),
            frame=index,
        )


def _bump_derivative(s, center: float, width: float) -> np.ndarray:
    p = lifting.bump_power(width)
    u = fourier.TAU * (np.asarray(s, dtype=float) - center)
    base = (1.0 + np.cos(u)) / 2.0
    return -p * (fourier.TAU / 2.0) * np.sin(u) * base ** (p - 1)


def _shaped_ramp(j: int, k: int, crossing: float, final: float) -> float:
    """Piecewise-linear amplitude: 0, then `crossing` exactly at the
    middle frame, then on to `final`."""
    if 2 * j == k:
        return crossing
    if 2 * j < k:
        return crossing * (2.0 * j / k)
    return crossing + (final - crossing) * (2.0 * j / k - 1.0)


def _birth_threshold(g: LegendrianGenerator, center: float, width: float) -> float:
    """Smallest a > 0 at which x' - a B' develops a root in the support."""
    ss = center + np.linspace(-0.75 * width, 0.75 * width, 1601)
    xp = np.asarray(g.xp_at(ss), dtype=float)
    bp = _bump_derivative(ss, center, width)
    moving = bp != 0.0
    ratio = xp[moving] / bp[moving]
    positive = ratio[ratio > 0.0]
    if positive.size == 0:
        raise MoveRefused("no fold direction inside the swallowtail support")
    return float(np.min(positive))


def _death_threshold(g, center: float, width: float, cusps):
    """(threshold, ceiling) for annihilating the cusp pair in the window.

    The threshold is the smallest a > 0 at which x' + a B' loses both
    roots; the ceiling is where further growth would fold the opposite
    flank of the bump and create a fresh pair instead.
    """
    offsets = [math.remainder(s - center, 1.0) for s in cusps]
    s1, s2 = sorted(center + d for d in offsets)
    mid = 0.5 * (s1 + s2)
    sign_out = -float(np.sign(g.xp_at(mid)))
    if sign_out == 0.0:
        raise MoveRefused("degenerate dip between the cusps to annihilate")

    inner = np.linspace(s1, s2, 801)[1:-1]
    xp_in = sign_out * np.asarray(g.xp_at(inner), dtype=float)
    bp_in = sign_out * _bump_derivative(inner, center, width)
    if np.any(bp_in <= 0.0):
        raise MoveRefused(
            "support cannot annihilate the cusp pair; recenter it so the "
            "rising flank of the bump covers both cusps"
        )
    threshold = float(np.max(-xp_in / bp_in))
    if threshold <= 0.0:
        raise MoveRefused("cusp pair is not a dip of x' inside the support")

    span = np.linspace(center - 0.75 * width, center + 0.75 * width, 1601)
    outside = (span < s1) | (span > s2)
    xp_out = sign_out * np.asarray(g.xp_at(span[outside]), dtype=float)
    bp_out = sign_out * _bump_derivative(span[outside], center, width)
    falling = bp_out < 0.0
    if np.any(falling):
        ceiling = float(np.min(xp_out[falling] / -bp_out[falling]))
    else:
        ceiling = math.inf
    if ceiling <= threshold:
        raise MoveRefused(
            "annihilating the pair would fold the opposite flank first "
            "(threshold %.6g, ceiling %.6g)" % (threshold, ceiling)
        )
    return threshold, ceiling


def tangency_profile(g: LegendrianGenerator, center: float, width: float, supports=None):
    """Bump at the given support, made invisible to both closure integrals.

    Subtracting the right mix of the two balancing bumps orthogonalizes
    the profile against the z and w closure functionals, so adding any
    multiple of the result to y slides a strand without opening the
    lifted loop.  Returns the profile sampled on the generator's grid;
    raises SingularSystem when the balancing supports cannot absorb it.
    """
    phi1, phi2, matrix = lifting.balancing_system(g, supports)
    psi = lifting.bump_samples(fourier.grid(g.n), center, width)
    alpha = np.linalg.solve(matrix, np.array(lifting.closure_functionals(g, psi)))
    return psi - alpha[0] * phi1 - alpha[1] * phi2


def _deform_path(g: LegendrianGenerator, move: Move):
    k = _step_count(move)
    center = _param(move, "at")
    width = _param(move, "width")
    ax = float(move.params.get("ax", 0.0))
    ay = float(move.params.get("ay", 0.0))
    phi = lifting.bump_samples(fourier.grid(g.n), center, width)
    path = []
    for j in range(k + 1):
        r = j / k
        gen = LegendrianGenerator(g.x + (r * ax) * phi, g.y + (r * ay) * phi)
        _require_frame_immersed(gen, j)
        path.append(gen)
    return path


def _swallowtail_path(g: LegendrianGenerator, move: Move, direction: int):
    k = _step_count(move)
    center = _param(move, "at")
    width = _param(move, "width")
    inside = _cusps_in_window(g, center, width)
    if direction > 0:
        if inside:
            raise UnsupportedOverlap(
                "swallowtail_birth support (%.4f +- %.4f) contains a cusp at "
                "s=%.6f" % (center, width, inside[0])
            )
        crossing = _birth_threshold(g, center, width)
        ceiling = math.inf
    else:
        if len(inside) != 2:
            raise UnsupportedOverlap(
                "swallowtail_death needs exactly the two cusps it merges "
                "inside its support; found %d" % len(inside)
            )
        crossing, ceiling = _death_threshold(g, center, width, inside)

    final = move.params.get("amplitude")
    if final is None:
        final = 2.0 * crossing if 2.0 * crossing < ceiling else 0.5 * (crossing + ceiling)
    else:
        final = float(final)
        if final <= crossing:
            raise ValueError(
                "amplitude %.6g does not reach the fold threshold %.6g"
                % (final, crossing)
            )
        if final >= ceiling:
            raise MoveRefused(
                "amplitude %.6g would fold the opposite flank (limit %.6g)"
                % (final, ceiling)
            )

    phi = lifting.bump_samples(fourier.grid(g.n), center, width)
    path = []
    for j in range(k + 1):
        a = _shaped_ramp(j, k, crossing, final)
        gen = g.with_x(g.x - (direction * a) * phi)
        _require_frame_immersed(gen, j)
        path.append(gen)
    return path


def _tangency_path(g: LegendrianGenerator, move: Move, supports):
    k = _step_count(move)
    center = _param(move, "at")
    width = _param(move, "width")
    amplitude = _param(move, "amplitude")
    psi = tangency_profile(g, center, width, supports=supports)
    path = []
    for j in range(k + 1):
        gen = g.with_y(g.y + (amplitude * j / k) * psi)
        _require_frame_immersed(gen, j)
        path.append(gen)
    return path


def apply_move(g: LegendrianGenerator, move: Move, supports=None):
    """Path of immersed generators realizing one move, endpoints included.

    The path has frames at t = j/K for j = 0..K where K is the move's
    even step count; frame 0 is g itself.  Event-bearing moves place
    their singular moment exactly at the middle frame: a tangency pass
    reaches half its amplitude there, and a swallowtail shapes its ramp
    so the fold threshold lands there.  `supports`, when given, pins the
    balancing bumps a tangency profile is orthogonalized against.

    Raises ImmersionLost (with the frame index) if any frame stalls,
    UnsupportedOverlap when a swallowtail support disagrees with the
    cusps already present, and MoveRefused when a swallowtail cannot fold
    the generator as asked.  Malformed moves raise ValueError.
    """
    _check_move(move)
    g.require_immersed()
    if move.kind == "deform":
        return _deform_path(g, move)
    if move.kind == "swallowtail_birth":
        return _swallowtail_path(g, move, +1)
    if move.kind == "swallowtail_death":
        return _swallowtail_path(g, move, -1)
    if move.kind == "tangency_pass":
        return _tangency_path(g, move, supports)
    return [g, lifting.balance_closure(g, supports=supports)]


def run_script(g0: LegendrianGenerator, script):
    """Execute a move script from g0: balance, move, re-balance, lift.

    g0 is balanced first; the two balancing supports are then frozen for
    the whole run so consecutive frames solve the same 2x2 system.  The
    end state of each move feeds the next, every frame is re-balanced
    and lifted from the base point z = w = 0, and each event-bearing move
    records (time, kind) at its middle frame.  An empty script yields
    the single-frame trace of g0's lift.
    """
    moves = tuple(script.moves) if isinstance(script, MoveScript) else tuple(script)
    for move in moves:
        _check_move(move)
    current = lifting.balance_closure(g0)
    supports = lifting.balance_supports(current)

    frames = [lifting.lift(current)]
    times = [0.0]
    events = []
    total = sum(_step_count(m) for m in moves)
    done = 0
    for move in moves:
        path = apply_move(current, move, supports=supports)
        k = len(path) - 1
        for j in range(1, k + 1):
            gen = lifting.balance_closure(path[j], supports=supports)
            loop = lifting.lift(gen)
            t = (done + j) / total
            frames.append(loop)
            times.append(t)
        if move.kind in EVENT_KINDS:
            events.append(((done + k // 2) / total, move.kind))
        current = frames[-1].generator
        done += k
    return HomotopyTrace(frames=tuple(frames), times=tuple(times), events=tuple(events))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a trace frame by frame.

    Verification stops at the first offense, so the fields describe the
    frames examined up to that point: `margin` is the smallest embedding
    margin seen and `double_points` belongs to the frame attaining it.
    `code` is None on a pass, else NOT_CLOSED, NOT_EMBEDDED or
    ROT_CHANGED with `frame` the first offending index.
    """

    ok: bool
    code: str | None
    frame: int | None
    rot: int
    rot_constant: bool
    margin: float
    double_points: tuple
    frames: int
    events: tuple

    def to_dict(self) -> dict:
        embedding = lifting.EmbeddingReport(
            self.double_points, self.margin, self.code != "NOT_EMBEDDED"
        )
        return {
            **embedding.to_dict(),
            "rot_constant": self.rot_constant,
            "frames": self.frames,
            "events": [{"t": t, "kind": kind} for t, kind in self.events],
            "ok": self.ok,
            "code": self.code,
            "frame": self.frame,
        }


def verify_isotopy(trace: HomotopyTrace) -> VerificationReport:
    """Re-derive every frame certificate of a trace from its samples.

    Per frame: both closure defects, recomputed from the generator, at
    most curves.TOL_CLOSURE; the lift embedded by lifting.embedding_check,
    whose margin must exceed lifting.TOL_EMBED (at a tangency event the
    front has a double point and the w-separation must still clear that
    margin); and the winding rotation number equal to frame 0's.  Both
    tolerances are fixed.  Failures are report content, never exceptions.
    """
    frames = trace.frames
    if not frames:
        raise ValueError("cannot verify an empty trace")
    rot0 = invariants.rot_winding(frames[0].generator)
    worst = lifting.EmbeddingReport((), math.inf, True)

    def verdict(code=None, frame=None):
        return VerificationReport(
            ok=code is None,
            code=code,
            frame=frame,
            rot=rot0,
            rot_constant=code != "ROT_CHANGED",
            margin=worst.margin,
            double_points=worst.double_points,
            frames=len(frames),
            events=trace.events,
        )

    for idx, loop in enumerate(frames):
        g = loop.generator
        dz = lifting.z_closure_defect(g)
        dw = lifting.w_closure_defect(g)
        if max(abs(dz), abs(dw)) > TOL_CLOSURE:
            return verdict("NOT_CLOSED", idx)
        check = lifting.embedding_check(loop)
        if check.margin < worst.margin:
            worst = check
        if not check.embedded:
            return verdict("NOT_EMBEDDED", idx)
        if invariants.rot_winding(g) != rot0:
            return verdict("ROT_CHANGED", idx)
    return verdict()
