"""Run the shipped move script and verify the whole homotopy.

The packaged document demo.front deforms a balanced circle through two
front moves: a tangency pass (two strands cross through each other,
changing the crossing count by two) and a swallowtail birth (a new cusp
pair folds out).  Both moves keep every intermediate lift closed and
embedded, so the verifier certifies the full path frame by frame,
tangency event included.
"""

import importlib.resources
import pathlib

from engel import curves, frontlang, render
from engel.homotopy import run_script, verify_isotopy

OUT = pathlib.Path(__file__).resolve().parent / "out"


def main():
    OUT.mkdir(exist_ok=True)
    text = importlib.resources.files("engel").joinpath("data", "demo.front").read_text()
    doc = frontlang.parse(text)
    gen = doc.generator("circ")
    g0 = curves.sample_generator((gen.x, gen.y), 4096)

    print("running script 'pass_and_fold' (129 frames; takes a few seconds)")
    trace = run_script(g0, doc.script("pass_and_fold"))
    for t, kind in trace.events:
        print("  event %-18s at t=%.4f" % (kind, t))

    report = verify_isotopy(trace)
    print("verified: ok=%s  rot=%+d  smallest margin %.3e over %d frames"
          % (report.ok, report.rot, report.embedding.margin, report.frames))

    for tag, frame in (("start", trace.frames[0]), ("end", trace.frames[-1])):
        path = OUT / ("moves_%s.svg" % tag)
        path.write_text(render.front_svg_text(frame), encoding="utf-8")
        print("%-5s %d cusps, %d crossings -> %s"
              % (tag, len(frame.cusps), len(frame.double_points), path))


if __name__ == "__main__":
    main()
