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


def _closure_payload(loop, tol_closure: float) -> dict:
    dz = float(loop.closure_defect_z)
    dw = float(loop.closure_defect_w)
    return {
        "defect_z": dz,
        "defect_w": dw,
        "closed": max(abs(dz), abs(dw)) <= tol_closure,
    }


def _embedding_payload(loop, tol_embed: float) -> dict:
    report = lifting.embedding_check(loop)
    payload = report.to_dict()
    payload["embedded"] = report.margin > tol_embed
    return payload


def _invariants_payload(gen, loop=None) -> dict:
    """Rotation numbers: the winding form always exists, the cusp form
    needs the closed lift `loop`."""
    if loop is not None:
        return invariants.invariant_report(loop)
    return {
        "rot_winding": invariants.rot_winding(gen),
        "rot_cusp": None,
        "c_plus": None,
        "c_minus": None,
    }


def _cmd_lift(args) -> int:
    doc = _load_document(args.document)
    gen = _realize(doc, args.name, args.samples)
    loop = lifting.lift(gen)
    closure = _closure_payload(loop, args.tol_closure)
    payload = {
        "name": args.name,
        "samples": args.samples,
        "closure": closure,
        "invariants": _invariants_payload(gen, loop if closure["closed"] else None),
        "embedding": (
            _embedding_payload(loop, args.tol_embed) if closure["closed"] else None
        ),
    }
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, args.name)
    _write_text(stem + ".csv", render.loop_csv_text(loop))
    _write_text(stem + ".json", _json_text(payload))
    _emit_json(payload)
    return EXIT_OK


def _cmd_rot(args) -> int:
    doc = _load_document(args.document)
    gen = _realize(doc, args.name, args.samples)
    dz = lifting.z_closure_defect(gen)
    dw = lifting.w_closure_defect(gen)
    closed = max(abs(dz), abs(dw)) <= args.tol_closure
    payload = _invariants_payload(gen, lifting.lift(gen) if closed else None)
    _emit_json({"name": args.name, **payload})
    return EXIT_OK


def _cmd_check(args) -> int:
    doc = _load_document(args.document)
    gen = _realize(doc, args.name, args.samples)
    try:
        loop = lifting.lift(gen)
    except ZNotClosed:
        payload = {
            "name": args.name,
            "closure": {
                "defect_z": float(lifting.z_closure_defect(gen)),
                "defect_w": float(lifting.w_closure_defect(gen)),
                "closed": False,
            },
            "embedding": None,
        }
        _emit_json(payload)
        return EXIT_CERTIFICATE
    closure = _closure_payload(loop, args.tol_closure)
    payload = {"name": args.name, "closure": closure}
    ok = closure["closed"]
    if closure["closed"]:
        embedding = _embedding_payload(loop, args.tol_embed)
        payload["embedding"] = embedding
        ok = ok and embedding["embedded"]
    else:
        payload["embedding"] = None
    _emit_json(payload)
    return EXIT_OK if ok else EXIT_CERTIFICATE


def _cmd_model(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("ENGEL_SEED", "0"))
    loop = models.model_front(args.n, seed=seed, samples=args.samples)
    payload = {
        "n": args.n,
        "seed": seed,
        "samples": args.samples,
        "closure": _closure_payload(loop, args.tol_closure),
        "invariants": invariants.invariant_report(loop),
        "embedding": _embedding_payload(loop, args.tol_embed),
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
    script = doc.script(args.script)
    moves = []
    for move in script.moves:
        if move.kind != "balance" and "frames" not in move.params:
            move = homotopy.Move(move.kind, {**move.params, "frames": float(args.frames)})
        moves.append(move)
    script = homotopy.MoveScript(script.name, tuple(moves))

    trace = homotopy.run_script(gen, script)

    out_dir = os.path.join(args.out, "%s_trace" % script.name)
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
    report = homotopy.verify_isotopy(
        trace, tol_closure=args.tol_closure, tol_embed=args.tol_embed
    )
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
        "--tol-closure", type=float, default=curves.TOL_CLOSURE,
        help="closure defect tolerance (default %g)" % curves.TOL_CLOSURE,
    )
    common.add_argument(
        "--tol-embed", type=float, default=lifting.TOL_EMBED,
        help="embedding margin tolerance (default %g)" % lifting.TOL_EMBED,
    )
    common.add_argument(
        "--frames", type=int, default=homotopy.DEFAULT_FRAMES,
        help="frame count for moves that do not set one (default %d)"
        % homotopy.DEFAULT_FRAMES,
    )
    common.add_argument(
        "--out", default=".", help="directory for artifacts (default: current)"
    )

    parser = argparse.ArgumentParser(
        prog="engel",
        description="Lift planar fronts to horizontal loops and verify them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lift = sub.add_parser("lift", parents=[common], help="lift a generator, write CSV and report")
    p_lift.add_argument("document")
    p_lift.add_argument("name")
    p_lift.set_defaults(run=_cmd_lift)

    p_rot = sub.add_parser("rot", parents=[common], help="rotation number report")
    p_rot.add_argument("document")
    p_rot.add_argument("name")
    p_rot.set_defaults(run=_cmd_rot)

    p_check = sub.add_parser("check", parents=[common], help="closure and embedding certificates")
    p_check.add_argument("document")
    p_check.add_argument("name")
    p_check.set_defaults(run=_cmd_check)

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
    p_hom.set_defaults(run=_cmd_homotopy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except FrontlangError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_USAGE
    except ValueError as err:
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
