"""Every integer is the rotation number of an embedded horizontal loop.

model_front builds, for an integer n with |n| <= models.MAX_ROT (64), a
front whose lift is embedded with rot = n: the cusp surplus carries the
rotation number, and a seeded perturbation keeps the double points
honestly separated in w.  Inside that range it can still refuse with
SynthesisFailed (at 4096 samples and seed 0, n = 26 and 40 do); ROADMAP
item 4 plans a synthesis that covers the whole range.  This demo walks n
from -3 to 3 and certifies each loop.
"""

import pathlib

from engel import invariants, lifting, models, render

OUT = pathlib.Path(__file__).resolve().parent / "out"


def main():
    OUT.mkdir(exist_ok=True)
    for n in range(-3, 4):
        loop = models.model_front(n, seed=0, samples=2048)
        report = invariants.invariant_report(loop)
        check = lifting.embedding_check(loop)
        margin = "inf" if check.margin == float("inf") else "%.2e" % check.margin
        print("n=%+d  rot %+d/%+d  cusps %d  margin %s"
              % (n, report["rot_winding"], report["rot_cusp"],
                 report["c_plus"] + report["c_minus"], margin))
        svg = render.front_svg_text(loop)
        (OUT / ("model_rot%+d.svg" % n)).write_text(svg, encoding="utf-8")
    print("fronts written to", OUT)


if __name__ == "__main__":
    main()
