"""Front moves and scripted, verifiable homotopies of horizontal loops.

A move carries an immersed generator through a short path of immersed
generators.  Executing a script chains such paths, re-balances the two
closure integrals on every frame, lifts every frame from the same base
values, and marks each singular event at the middle frame of its move.
The frames come as one stream, each built only when it is asked for, so
a run holds a frame or two whatever its length.  Verification is one
in-order pass over that stream that certifies every frame: closure, as
the lifted loop judges it from its own defects, embeddedness (through
tangency events via the w-separation at the double point), and
constancy of the rotation number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fourier, invariants, lifting
from .curves import LegendrianGenerator, find_cusps
from .errors import MoveRefused, NotImmersed

DEFAULT_FRAMES = 64
# A run's steps, summed over its moves: frames are numbered 0..steps, and
# frame files carry that number in four digits.
MAX_STEPS = 9999

# Each move kind and the parameters it takes, in the order emit writes them.
MOVE_PARAMS = {
    "deform": ("at", "width", "ax", "ay", "frames"),
    "swallowtail_birth": ("at", "width", "amplitude", "frames"),
    "swallowtail_death": ("at", "width", "amplitude", "frames"),
    "tangency_pass": ("at", "width", "amplitude", "frames"),
}

# Moves whose middle frame is a singular event of the front homotopy.
EVENT_KINDS = ("swallowtail_birth", "swallowtail_death", "tangency_pass")


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


def _param(move: Move, name: str, default=None) -> float:
    value = move.params.get(name, default)
    if value is None:
        raise ValueError("%s move needs a %r parameter" % (move.kind, name))
    return float(value)


def _check_move(move: Move):
    if move.kind not in MOVE_PARAMS:
        raise ValueError(
            "unknown move kind %r (choose from %s)" % (move.kind, ", ".join(MOVE_PARAMS))
        )
    stray = set(move.params).difference(MOVE_PARAMS[move.kind])
    if stray:
        raise ValueError(
            "%s move does not take %s" % (move.kind, ", ".join(sorted(stray)))
        )


def _step_count(move: Move) -> int:
    """The move's even step count k, once the move is checked: its kind
    and field names, then frames, at, width, a tangency pass's amplitude
    and a width no bump can take, in the order the builders read them."""
    _check_move(move)
    k = _param(move, "frames", DEFAULT_FRAMES)
    if not (k >= 2 and k % 2 == 0):
        raise ValueError("frames must be an even count of at least 2, got %.15g" % k)
    _param(move, "at")
    width = _param(move, "width")
    if move.kind == "tangency_pass":
        _param(move, "amplitude")
    lifting.bump_power(width)
    return int(k)


def _cusps_in_window(g: LegendrianGenerator, center: float, width: float):
    """Cusp parameters of g within circular distance `width` of `center`."""
    return [c.s for c in find_cusps(g) if abs(math.remainder(c.s - center, 1.0)) <= width]


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
    xp = g.x_interp.value(ss, 1)
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
    sign_out = -float(np.sign(g.x_interp.value(mid, 1)))
    if sign_out == 0.0:
        raise MoveRefused("degenerate dip between the cusps to annihilate")

    inner = np.linspace(s1, s2, 801)[1:-1]
    xp_in = sign_out * g.x_interp.value(inner, 1)
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
    xp_out = sign_out * g.x_interp.value(span[outside], 1)
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


def tangency_profile(g: LegendrianGenerator, center: float, width: float, supports):
    """Bump at the given support, made invisible to both closure integrals.

    Subtracting the right mix of the two balancing bumps orthogonalizes
    the profile against the z and w closure functionals, so adding any
    multiple of the result to y slides a strand without opening the
    lifted loop.  `supports` are the balancing supports, a run's frozen
    pair.  Returns the profile sampled on the generator's grid; raises
    SingularSystem when the balancing supports cannot absorb it.
    """
    phi1, phi2, matrix = lifting.balancing_system(g, supports)
    psi = lifting.bump_samples(fourier.grid(g.n), center, width)
    alpha = np.linalg.solve(matrix, np.array(lifting.closure_functionals(g, psi)))
    return psi - alpha[0] * phi1 - alpha[1] * phi2


def _deform(g: LegendrianGenerator, move: Move, k: int, supports):
    params = move.params
    ax = float(params.get("ax", 0.0))
    ay = float(params.get("ay", 0.0))
    phi = lifting.bump_samples(fourier.grid(g.n), float(params["at"]), float(params["width"]))
    return lambda j: LegendrianGenerator(g.x + (j / k * ax) * phi, g.y + (j / k * ay) * phi)


def _swallowtail(g: LegendrianGenerator, move: Move, k: int, supports):
    direction = 1 if move.kind == "swallowtail_birth" else -1
    center = float(move.params["at"])
    width = float(move.params["width"])
    inside = _cusps_in_window(g, center, width)
    if direction > 0:
        if inside:
            raise MoveRefused(
                "swallowtail_birth support (%.4f +- %.4f) contains a cusp at "
                "s=%.6f" % (center, width, inside[0])
            )
        crossing = _birth_threshold(g, center, width)
        ceiling = math.inf
    else:
        if len(inside) != 2:
            raise MoveRefused(
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
    return lambda j: LegendrianGenerator(
        g.x - (direction * _shaped_ramp(j, k, crossing, final)) * phi, g.y
    )


def _tangency(g: LegendrianGenerator, move: Move, k: int, supports):
    amplitude = float(move.params["amplitude"])
    psi = tangency_profile(
        g, float(move.params["at"]), float(move.params["width"]), supports=supports
    )
    return lambda j: g.with_y(g.y + (amplitude * j / k) * psi)


# Each move kind's frame builder, for a move that _step_count passed with
# step count k: (g, move, k, supports) -> (j -> unchecked frame j).  An
# event-bearing move puts its singular moment exactly at frame k / 2.
_BUILDERS = {"deform": _deform, "tangency_pass": _tangency,
             "swallowtail_birth": _swallowtail, "swallowtail_death": _swallowtail}


def _path(k: int, frame, done: int):
    """Frames 1..k, each checked immersed; a stall at j names frame done + j."""
    for j in range(1, k + 1):
        try:
            yield frame(j).require_immersed()
        except NotImmersed as err:
            raise NotImmersed("frame %d: %s" % (done + j, err), s=err.s) from err


def script_frames(g0: LegendrianGenerator, moves):
    """Execute a sequence of Move from g0: balance, move, re-balance, lift.

    A document's MoveScript passes its `moves`.  Returns an iterator
    over (t, loop, kind) per frame in time order: kind is the
    event-bearing move's kind at its middle frame, else None.  Each
    frame is built when it is read, and nothing keeps it.

    The two balancing supports are placed once, on g0, and frozen for
    the whole run, so every frame, g0 included, balances on the same two
    bumps.  The end state of each move feeds the next, and every frame
    is re-balanced and lifted from the base point z = w = 0.  An empty
    script yields g0's lift alone.  The moves are checked by the call
    itself, before any frame is built: a malformed move, a missing or
    unusable field, or more than MAX_STEPS steps raises ValueError.  A
    move that its start frame refuses raises when the stream reaches it,
    and so does a frame that stalls: NotImmersed names its trace frame.
    """
    moves = tuple(moves)
    steps = [_step_count(move) for move in moves]
    total = sum(steps)
    if total > MAX_STEPS:
        raise ValueError("script takes %d steps, more than %d" % (total, MAX_STEPS))
    return _script_frames(g0, zip(moves, steps), total)


def _script_frames(g0: LegendrianGenerator, moves, total: int):
    supports = lifting.balance_supports(g0)  # reads x alone, which balancing keeps
    current = lifting.balance_closure(g0, supports=supports)
    loop = lifting.lift(current)
    yield 0.0, loop, None
    if total:
        current.require_immersed()  # later moves start on frames _path or balancing checked
    done = 0
    for move, k in moves:
        path = _path(k, _BUILDERS[move.kind](current, move, k, supports), done)
        event = move.kind if move.kind in EVENT_KINDS else None
        for j, gen in enumerate(path, 1):
            loop = lifting.lift(lifting.balance_closure(gen, supports=supports))
            yield (done + j) / total, loop, event if 2 * j == k else None
        current = loop.generator
        done += k


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a trace frame by frame.

    Verification checks no frame after the first offense, so `embedding`
    is the lifting.EmbeddingReport of the smallest margin among the
    frames examined up to that point, or of the frame that failed it.
    `code` is None on a pass, else NOT_CLOSED, NOT_EMBEDDED or
    ROT_CHANGED with `frame` the first offending index.  `frames` counts
    every frame of the trace, checked or not.
    """

    code: str | None
    frame: int | None
    rot: int
    embedding: lifting.EmbeddingReport
    frames: int
    events: tuple

    @property
    def ok(self) -> bool:
        return self.code is None

    def to_dict(self) -> dict:
        return {
            **self.embedding.to_dict(),
            "rot_constant": self.code != "ROT_CHANGED",
            "frames": self.frames,
            "events": [{"t": t, "kind": kind} for t, kind in self.events],
            "ok": self.ok,
            "code": self.code,
            "frame": self.frame,
        }


def verify_isotopy(trace) -> VerificationReport:
    """Re-derive every frame certificate of a trace from its samples.

    `trace` is any iterable of the (t, loop, kind) triples of
    script_frames.  It is read once, in order, and no frame is kept
    once it is checked; after the first offense the remaining
    frames are read, counted and not checked.

    Per frame: the loop closed, read from the loop alone
    (HorizontalLoop.closed: both of its own defects at most
    curves.TOL_CLOSURE, the one formula balancing also used); the lift
    embedded by lifting.embedding_check, whose margin must exceed
    lifting.TOL_EMBED (at a tangency event the front has a double point
    and the w-separation must still clear that margin); and the winding
    rotation number equal to frame 0's, which is certified once, first,
    and reported as `rot` whatever frame 0's other certificates say.
    Both tolerances are fixed.  A failed certificate is report content.
    A winding number that cannot be certified is not: rot_winding's
    Unresolved propagates, as does ValueError on an empty trace.
    """
    rot0 = code = None
    worst = lifting.EmbeddingReport((), math.inf, True)
    events = []
    count = 0
    for count, (t, loop, kind) in enumerate(trace, 1):
        if kind is not None:
            events.append((t, kind))
        if code is None:
            frame = count - 1
            if not frame:
                rot0 = invariants.rot_winding(loop.generator)
            code, worst = _check_frame(loop, rot0 if frame else None, worst)
    if not count:
        raise ValueError("cannot verify an empty trace")
    return VerificationReport(
        code, None if code is None else frame, rot0, worst, count, tuple(events)
    )


def _check_frame(loop, rot0, worst):
    """(offense, worst): the frame's verification code or None, and the
    report of the smallest margin so far.  rot0 None skips the winding
    check, for frame 0, which sets rot0."""
    if not loop.closed:
        return "NOT_CLOSED", worst
    check = lifting.embedding_check(loop)
    if not check.embedded:
        return "NOT_EMBEDDED", check
    if check.margin < worst.margin:
        worst = check
    if rot0 is not None and invariants.rot_winding(loop.generator) != rot0:
        return "ROT_CHANGED", worst
    return None, worst
