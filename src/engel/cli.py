"""Command line front end.

Subcommands operate on documents in the front description language and
print a JSON report; lift, model and homotopy also write their artifacts
(CSV tables, SVG pictures, JSON) to --out.  Exit codes are a contract:

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
import collections
import json
import math
import os
import sys
import traceback

from . import curves, frontlang, homotopy, invariants, lifting, models, render
from .errors import BadDescription, EngelError, FrontlangError, ZNotClosed

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


def _write_lines(path: str, lines) -> None:
    """Write an iterable of strings to a file as they come."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


def _load_document(path: str) -> frontlang.Document:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise ValueError("cannot read document %r: %s" % (path, err)) from err
    return frontlang.parse(text)


def _realize(doc, name: str, samples: int):
    """Sample a document's generator on the grid of the given size."""
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


def _report_loop(out: str, stem: str, head: dict, loop, drawings) -> int:
    """Print a lifted loop's report: `head`, then its closure, invariants
    and embedding.  Write, in this order, out/stem.csv, draw(loop) to
    out/stem + suffix for each (suffix, draw) of `drawings`, and the
    report to out/stem.json."""
    gen = loop.generator
    payload = {
        **head,
        "closure": _closure_payload(gen, loop),
        "invariants": _invariants_payload(gen, loop),
        "embedding": lifting.embedding_check(loop).to_dict() if loop.closed else None,
    }
    os.makedirs(out, exist_ok=True)
    stem = os.path.join(out, stem)
    _write_lines(stem + ".csv", next(render.loop_csv_lines([loop])))
    for suffix, draw in drawings:
        _write_lines(stem + suffix, [draw(loop)])
    _write_lines(stem + ".json", [_json_text(payload)])
    _emit_json(payload)
    return EXIT_OK


def _cmd_lift(args) -> int:
    gen = _realize(_load_document(args.document), args.name, args.samples)
    head = {"name": args.name, "samples": args.samples}
    return _report_loop(args.out, args.name, head, lifting.lift(gen), ())


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
    loop = models.model_front(args.n, seed=args.seed, samples=args.samples)
    head = {"n": args.n, "seed": args.seed, "samples": args.samples}
    stem = "model_rot%d_seed%d" % (args.n, args.seed)
    return _report_loop(args.out, stem, head, loop, [(".svg", render.front_svg_text)])


def _written(frames, out_dir: str, records: list):
    """Pass on each (t, loop, kind) of `frames` once its CSV is written to
    out_dir, appending its time and closure defects to `records`.  out_dir
    is made with the first CSV, so a run that stops before has none."""
    held = collections.deque()

    def loops():
        for triple in frames:
            held.append(triple)
            yield triple[1]

    # Each table comes once the next frame is built, so `held` keeps two.
    for idx, lines in enumerate(render.loop_csv_lines(loops())):
        if idx == 0:
            os.makedirs(out_dir, exist_ok=True)
        _write_lines(os.path.join(out_dir, "frame_%04d.csv" % idx), lines)
        t, loop, kind = held.popleft()
        records.append(
            {"t": t, "defect_z": loop.closure_defect_z, "defect_w": loop.closure_defect_w}
        )
        yield t, loop, kind


def _cmd_homotopy(args) -> int:
    doc = _load_document(args.document)
    gen = _realize(doc, args.generator, args.samples)
    frames = homotopy.script_frames(gen, doc.script(args.script).moves)
    out_dir = os.path.join(args.out, "%s_trace" % args.script)
    records = []
    report = homotopy.verify_isotopy(_written(frames, out_dir, records))
    events = {
        "times": [record["t"] for record in records],
        "events": [{"t": t, "kind": kind} for t, kind in report.events],
        "frames": records,
    }
    _write_lines(os.path.join(out_dir, "events.json"), [_json_text(events)])
    verification = report.to_dict()
    _write_lines(os.path.join(out_dir, "verification.json"), [_json_text(verification)])
    _emit_json(verification)
    return EXIT_OK if report.ok else EXIT_CERTIFICATE


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--samples", type=int, default=4096,
        help="grid size, a power of two (default 4096)",
    )
    writes = argparse.ArgumentParser(add_help=False, parents=[common])
    writes.add_argument(
        "--out", default=".", help="directory for artifacts (default: current)"
    )

    parser = argparse.ArgumentParser(
        prog="engel",
        description="Lift planar fronts to horizontal loops and verify them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, run, parent, summary in (
        ("lift", _cmd_lift, writes, "lift a generator, write CSV and report"),
        ("rot", _cmd_rot, common, "rotation number report"),
        ("check", _cmd_check, common, "closure and embedding certificates"),
    ):
        p_one = sub.add_parser(command, parents=[parent], help=summary)
        p_one.add_argument("document")
        p_one.add_argument("name")
        p_one.set_defaults(run=run)

    p_model = sub.add_parser("model", parents=[writes], help="synthesize a loop of given rotation number")
    p_model.add_argument("-n", type=int, required=True, help="target rotation number")
    p_model.add_argument("--seed", type=int, default=0, help="synthesis seed (default 0)")
    p_model.set_defaults(run=_cmd_model)

    p_hom = sub.add_parser("homotopy", parents=[writes], help="execute and verify a move script")
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
    except (BadDescription, FrontlangError, ValueError) as err:
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
