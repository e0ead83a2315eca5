"""Lift a planar front to a curve tangent to the standard plane fields.

A front is a closed plane curve (x(s), z(s)) whose slope recovers the
missing coordinate: y = z'/x'.  Here we start one step earlier, from a
generator (x, y) with y playing the slope role, close its two line
integrals with localized slope corrections, and integrate upward to the
4-dimensional curve (x, y, z, w) with z' = y x' and w' = z x'.
"""

import pathlib

import numpy as np

from engel import curves, fourier, lifting, render

OUT = pathlib.Path(__file__).resolve().parent / "out"


def main():
    OUT.mkdir(exist_ok=True)
    n = 4096
    s = fourier.grid(n)
    g = curves.LegendrianGenerator(
        np.cos(fourier.TAU * s), np.sin(fourier.TAU * s)
    )
    print("raw closure defects: z %.6f  w %.6f"
          % (lifting.z_closure_defect(g), lifting.w_closure_defect(g)))
    print("(the z defect is the enclosed area -pi; the lift would spiral)")

    balanced = lifting.balance_closure(g)
    print("after balancing:     z %.2e  w %.2e"
          % (lifting.z_closure_defect(balanced),
             lifting.w_closure_defect(balanced)))

    loop = lifting.lift(balanced)

    # Check z' = y x' and w' = z x' by second-order centered differences,
    # which share nothing with the spectral integrals that built the loop.
    # The ramp drift*s of a sample vector that does not close is taken out
    # before differencing and its rate added back.
    def centered(values, drift):
        p = values - drift * s
        return (np.roll(p, -1) - np.roll(p, 1)) * (0.5 * n) + drift

    dx = centered(loop.x, 0.0)
    r_z = np.max(np.abs(centered(loop.z, loop.closure_defect_z) - loop.y * dx))
    r_w = np.max(np.abs(centered(loop.w, loop.closure_defect_w) - loop.z * dx))
    print("horizontality residuals (finite-difference check): %.2e %.2e"
          % (r_z, r_w))

    print("front: %d cusps, %d crossings"
          % (len(loop.cusps), len(loop.double_points)))

    svg, csv = OUT / "lifted_front.svg", OUT / "lifted_loop.csv"
    svg.write_text(render.front_svg_text(loop), encoding="utf-8")
    csv.write_text("".join(render.loop_csv_lines(loop)), encoding="utf-8")
    print("wrote", svg, "and", csv)


if __name__ == "__main__":
    main()
