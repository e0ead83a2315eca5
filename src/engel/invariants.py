"""Rotation number two ways, and the cusp bookkeeping connecting them.

The winding computation counts full turns of the velocity (x', y') in the
plane field frame.  The cusp computation reads the same number off the
front diagram as half the surplus of down cusps over up cusps.  Agreement
of the two is a theorem, and the test suite leans on it heavily.
"""

import numpy as np

from . import fourier
from .curves import LegendrianGenerator, LegendrianLoop, Orientation
from .errors import AmbiguousWinding, OddCuspImbalance

# A winding sum farther than this from an integer signals resolution
# failure rather than roundoff.
INTEGER_GUARD = 1e-6
MAX_REFINEMENTS = 2


def _angle_steps(xp: np.ndarray, yp: np.ndarray) -> np.ndarray:
    v = xp + 1j * yp
    return np.angle(np.roll(v, -1) / v)


def rot_winding(g: LegendrianGenerator) -> int:
    """Winding number of s -> (x'(s), y'(s)) around the origin.

    Angle increments are accumulated sample to sample.  Each increment
    must stay below pi/2; if one does not, the velocity is resampled at
    double resolution (exact for band-limited data) and the scan retried,
    at most twice, before the input is declared under-resolved.
    """
    g.require_immersed()
    xp, yp = g.xp, g.yp
    for _ in range(MAX_REFINEMENTS + 1):
        steps = _angle_steps(xp, yp)
        if np.max(np.abs(steps)) < np.pi / 2:
            total = float(np.sum(steps)) / fourier.TAU
            nearest = round(total)
            if abs(total - nearest) > INTEGER_GUARD:
                raise AmbiguousWinding(
                    "winding sum %.9f is not within %g of an integer"
                    % (total, INTEGER_GUARD)
                )
            return int(nearest)
        xp = fourier.resample(xp, 2 * xp.shape[0])
        yp = fourier.resample(yp, 2 * yp.shape[0])
    raise AmbiguousWinding(
        "velocity direction jumps by >= pi/2 between samples even after "
        "%d refinements" % MAX_REFINEMENTS
    )


def classify_cusps(loop: LegendrianLoop):
    """(c_plus, c_minus): the front's cusp counts by orientation."""
    c_plus = sum(1 for c in loop.cusps if c.orientation is Orientation.UP)
    return c_plus, len(loop.cusps) - c_plus


def rot_cusp(loop: LegendrianLoop) -> int:
    """Rotation number read off the front: (c_minus - c_plus) / 2."""
    c_plus, c_minus = classify_cusps(loop)
    if (c_minus - c_plus) % 2:
        raise OddCuspImbalance(
            "c_minus - c_plus = %d is odd; a cusp was missed or spurious"
            % (c_minus - c_plus)
        )
    return (c_minus - c_plus) // 2


def invariant_report(loop: LegendrianLoop) -> dict:
    """Both rotation computations for a closed loop, as a JSON-ready dict."""
    c_plus, c_minus = classify_cusps(loop)
    return {
        "rot_winding": rot_winding(loop.generator),
        "rot_cusp": rot_cusp(loop),
        "c_plus": c_plus,
        "c_minus": c_minus,
    }
