"""Command line front end.

Subcommands operate on documents in the front description language and
print a JSON report; lift, model and homotopy also write their artifacts
(CSV tables, SVG pictures, JSON) to --out.  Exit codes are a contract:

    0   success, certificates hold
    1   internal error
    2   parse or usage error (bad document, bad flag, unknown name, an
        --out that cannot be written)
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
from .errors import BadDescription, EngelError, FrontSyntaxError, NotClosed

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
    """Write an iterable of strings to a file as they come, making the
    file's directory first when the path names one."""
    try:
        if os.path.dirname(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
        handle = open(path, "w", encoding="utf-8")
    except OSError as err:
        raise ValueError("cannot write %r: %s" % (path, err)) from err
    with handle:
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


def _closure_payload(loop) -> dict:
    """A lifted loop's two closure defects and its verdict on them."""
    return {
        "defect_z": loop.closure_defect_z,
        "defect_w": loop.closure_defect_w,
        "closed": loop.closed,
    }


def _report_loop(out: str, stem: str, head: dict, loop, drawings) -> int:
    """Print a lifted loop's report: `head`, then its closure, invariants
    and embedding.  Write, in this order, out/stem.csv, draw(loop) to
    out/stem + suffix for each (suffix, draw) of `drawings`, and the
    report to out/stem.json."""
    payload = {
        **head,
        "closure": _closure_payload(loop),
        "invariants": invariants.invariant_report(loop),
        "embedding": lifting.embedding_check(loop).to_dict() if loop.closed else None,
    }
    stem = os.path.join(out, stem)
    _write_lines(stem + ".csv", render.loop_csv_lines(loop))
    for suffix, draw in drawings:
        _write_lines(stem + suffix, [draw(loop)])
    _write_lines(stem + ".json", [_json_text(payload)])
    _emit_json(payload)
    return EXIT_OK


def _cmd_lift(args) -> int:
    loop = lifting.lift(_realize(_load_document(args.document), args.name, args.samples))
    if not loop.z_closed:
        raise NotClosed(
            "∮ y dx = %.6e exceeds the closure tolerance %g; balance the generator first"
            % (loop.closure_defect_z, curves.TOL_CLOSURE)
        )
    head = {"name": args.name, "samples": args.samples}
    return _report_loop(args.out, args.name, head, loop, ())


def _cmd_rot(args) -> int:
    loop = lifting.lift(_realize(_load_document(args.document), args.name, args.samples))
    _emit_json({"name": args.name, **invariants.invariant_report(loop)})
    return EXIT_OK


def _cmd_check(args) -> int:
    loop = lifting.lift(_realize(_load_document(args.document), args.name, args.samples))
    embedding = lifting.embedding_check(loop).to_dict() if loop.closed else None
    _emit_json({"name": args.name, "closure": _closure_payload(loop), "embedding": embedding})
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
    kept = []
    for idx, (t, loop, kind) in enumerate(frames):
        _write_lines(
            os.path.join(out_dir, "frame_%04d.csv" % idx), render.loop_csv_lines(loop, kept)
        )
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
    except (BadDescription, FrontSyntaxError, ValueError) as err:
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
