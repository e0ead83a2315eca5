"""Two ways a certificate is refused, built on the same curve.

The mirror generator is symmetric under a half-period flip of (x, y).
That symmetry forces its front's only double point to bound zero signed
area, so the lifted curve meets itself: the w-coordinates of the two
strands agree to machine precision.  Such a loop is immersed and closed
but not embedded, and everything downstream must say so.
"""

import numpy as np

from engel import curves, fourier, lifting
from engel.homotopy import Move, script_frames, tangency_profile, verify_isotopy

TAU = fourier.TAU


def mirror(n=1024):
    s = fourier.grid(n)
    return curves.LegendrianGenerator(
        np.cos(TAU * s) - np.cos(3 * TAU * s), np.sin(5 * TAU * s)
    )


def main():
    loop = lifting.lift(mirror())
    check = lifting.embedding_check(loop)
    (s0, s1, dw) = check.double_points[0]
    print("static check: embedded=%s" % check.embedded)
    print("  double point at (%.3f, %.3f), w-gap %.2e" % (s0, s1, dw))

    # The same failure caught mid-homotopy: pull the strands apart with
    # a balanced slope push, then script a pass that closes the gap
    # again.  The event frame reproduces the original curve, and the
    # verifier pins the refusal to exactly that frame.
    bal = lifting.balance_closure(mirror())
    psi = tangency_profile(bal, 0.25, 0.08,
                           supports=lifting.balance_supports(bal))
    g0 = curves.LegendrianGenerator(bal.x, bal.y - 0.05 * psi)
    trace = list(script_frames(g0, [Move("tangency_pass", {
        "at": 0.25, "width": 0.08, "amplitude": 0.1, "frames": 16})]))
    report = verify_isotopy(trace)
    event_frame = [kind for _, _, kind in trace].index("tangency_pass")
    print("homotopy check: ok=%s  code=%s" % (report.ok, report.code))
    print("  refused at frame %d (the event frame is %d), margin %.2e"
          % (report.frame, event_frame, report.embedding.margin))


if __name__ == "__main__":
    main()
