"""Command line front end.

Subcommands operate on documents in the front description language and
write their artifacts (CSV tables, SVG pictures, JSON reports) to the
output directory.  Exit codes are a contract:

    0   success, certificates hold
    1   internal error
    2   parse or usage error (bad document, bad flag, unknown name)
    3   certificate failure (not closed, not embedded, synthesis or
        verification failed)

Every JSON float is serialized with repr precision, so values survive a
decimal round trip exactly; an infinite embedding margin (no double
points at all) appears as null.
"""

import argparse
import json
import math
import os
import sys
import traceback

from . import curves, frontlang, homotopy, invariants, lifting, models, render
from .errors import EngelError, FrontlangError, ZNotClosed

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_CERTIFICATE = 3


def _json_ready(obj):
    """Replace non-finite floats (JSON has no spelling for them) by None."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _json_text(payload: dict) -> str:
    return json.dumps(_json_ready(payload), indent=2, sort_keys=True) + "\n"


def _emit_json(payload: dict) -> None:
    sys.stdout.write(_json_text(payload))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _load_document(path: str) -> frontlang.Document:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise ValueError("cannot read document %r: %s" % (path, err)) from err
    return frontlang.parse(text)


def _realize(doc, name: str, samples: int):
    g = doc.generator(name)
    return curves.sample_generator((g.x, g.y), samples)


def _try_lift(gen):
    """The lift of gen, or None when z does not close up."""
    try:
        return lifting.lift(gen)
    except ZNotClosed:
        return None


def _closure_payload(gen, loop) -> dict:
    """Both closure defects and the loop's verdict on them.  `loop` is
    gen's lift, or None when there is none; the defects then come from
    the generator and the verdict is "not closed"."""
    if loop is None:
        dz, dw = lifting.z_closure_defect(gen), lifting.w_closure_defect(gen)
    else:
        dz, dw = loop.closure_defect_z, loop.closure_defect_w
    return {
        "defect_z": float(dz),
        "defect_w": float(dw),
        "closed": loop is not None and loop.closed,
    }


def _invariants_payload(gen, loop) -> dict:
    """Rotation numbers: the winding form always exists, the cusp form
    needs a closed lift."""
    if loop is not None and loop.closed:
        return invariants.invariant_report(loop)
    return {
        "rot_winding": invariants.rot_winding(gen),
        "rot_cusp": None,
        "c_plus": None,
        "c_minus": None,
    }


def _cmd_lift(args) -> int:
    gen = _realize(_load_document(args.document), args.name, args.samples)
    loop = lifting.lift(gen)
    payload = {
        "name": args.name,
        "samples": args.samples,
        "closure": _closure_payload(gen, loop),
        "invariants": _invariants_payload(gen, loop),
        "embedding": lifting.embedding_check(loop).to_dict() if loop.closed else None,
    }
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, args.name)
    _write_text(stem + ".csv", render.loop_csv_text(loop))
    _write_text(stem + ".json", _json_text(payload))
    _emit_json(payload)
    return EXIT_OK


def _cmd_rot(args) -> int:
    gen = _realize(_load_document(args.document), args.name, args.samples)
    _emit_json({"name": args.name, **_invariants_payload(gen, _try_lift(gen))})
    return EXIT_OK


def _cmd_check(args) -> int:
    gen = _realize(_load_document(args.document), args.name, args.samples)
    loop = _try_lift(gen)
    closure = _closure_payload(gen, loop)
    embedding = lifting.embedding_check(loop).to_dict() if closure["closed"] else None
    _emit_json({"name": args.name, "closure": closure, "embedding": embedding})
    return EXIT_OK if embedding is not None and embedding["embedded"] else EXIT_CERTIFICATE


def _cmd_model(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("ENGEL_SEED", "0"))
    loop = models.model_front(args.n, seed=seed, samples=args.samples)
    payload = {
        "n": args.n,
        "seed": seed,
        "samples": args.samples,
        "closure": _closure_payload(loop.generator, loop),
        "invariants": invariants.invariant_report(loop),
        "embedding": lifting.embedding_check(loop).to_dict(),
    }
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, "model_rot%d_seed%d" % (args.n, seed))
    _write_text(stem + ".csv", render.loop_csv_text(loop))
    render.render_svg(loop, stem + ".svg")
    _write_text(stem + ".json", _json_text(payload))
    _emit_json(payload)
    return EXIT_OK


def _cmd_homotopy(args) -> int:
    doc = _load_document(args.document)
    gen = _realize(doc, args.generator, args.samples)
    moves = []
    for move in doc.script(args.script).moves:
        if move.kind != "balance" and "frames" not in move.params:
            move = homotopy.Move(move.kind, {**move.params, "frames": float(args.frames)})
        moves.append(move)

    trace = homotopy.run_script(gen, moves)

    out_dir = os.path.join(args.out, "%s_trace" % args.script)
    os.makedirs(out_dir, exist_ok=True)
    for idx, loop in enumerate(trace.frames):
        path = os.path.join(out_dir, "frame_%04d.csv" % idx)
        _write_text(path, render.loop_csv_text(loop))
    events = {
        "times": list(trace.times),
        "events": [{"t": t, "kind": kind} for t, kind in trace.events],
        "frames": [
            {"t": t, "defect_z": loop.closure_defect_z, "defect_w": loop.closure_defect_w}
            for t, loop in zip(trace.times, trace.frames)
        ],
    }
    _write_text(os.path.join(out_dir, "events.json"), _json_text(events))
    report = homotopy.verify_isotopy(trace)
    verification = report.to_dict()
    _write_text(os.path.join(out_dir, "verification.json"), _json_text(verification))
    _emit_json(verification)
    return EXIT_OK if report.ok else EXIT_CERTIFICATE


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--samples", type=int, default=4096,
        help="grid size, a power of two (default 4096)",
    )
    common.add_argument(
        "--out", default=".", help="directory for artifacts (default: current)"
    )

    parser = argparse.ArgumentParser(
        prog="engel",
        description="Lift planar fronts to horizontal loops and verify them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, run, summary in (
        ("lift", _cmd_lift, "lift a generator, write CSV and report"),
        ("rot", _cmd_rot, "rotation number report"),
        ("check", _cmd_check, "closure and embedding certificates"),
    ):
        p_one = sub.add_parser(command, parents=[common], help=summary)
        p_one.add_argument("document")
        p_one.add_argument("name")
        p_one.set_defaults(run=run)

    p_model = sub.add_parser("model", parents=[common], help="synthesize a loop of given rotation number")
    p_model.add_argument("-n", type=int, required=True, help="target rotation number")
    p_model.add_argument("--seed", type=int, default=None,
                         help="synthesis seed (default: ENGEL_SEED or 0)")
    p_model.set_defaults(run=_cmd_model)

    p_hom = sub.add_parser("homotopy", parents=[common], help="execute and verify a move script")
    p_hom.add_argument("action", choices=["run"])
    p_hom.add_argument("document")
    p_hom.add_argument("generator")
    p_hom.add_argument("script")
    p_hom.add_argument(
        "--frames", type=int, default=homotopy.DEFAULT_FRAMES,
        help="frame count for moves that do not set one (default %d)"
        % homotopy.DEFAULT_FRAMES,
    )
    p_hom.set_defaults(run=_cmd_homotopy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (FrontlangError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_USAGE
    except EngelError as err:
        print("certificate failure: %s" % err, file=sys.stderr)
        return EXIT_CERTIFICATE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
