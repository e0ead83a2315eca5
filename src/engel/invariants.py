"""Rotation number two ways, and the cusp bookkeeping connecting them.

The winding computation counts full turns of the velocity (x', y') in the
plane field frame, certified on the continuum cell by cell like the cusps.
The cusp computation reads the same number off the front diagram as half
the surplus of down cusps over up cusps.  Agreement of the two is a
theorem, and the test suite leans on it heavily.
"""

import numpy as np

from . import fourier
from .curves import HorizontalLoop, LegendrianGenerator, Orientation, certify_cells
from .errors import BadDescription, OddCuspImbalance, Unresolved

# A winding sum farther than this from an integer signals resolution
# failure rather than roundoff.
INTEGER_GUARD = 1e-6
# Below this, a square, or a sum of two squares, stays finite.
SQUARE_LIMIT = float(np.sqrt(np.finfo(float).max / 2.0))


def rot_winding(g: LegendrianGenerator) -> int:
    """Winding number of s -> v(s) = (x'(s), y'(s)) around the origin.

    On a piece [a, a + h], v stays within h (max |v'| at the ends +
    (h/2) max |v''|) of v(a), max |v''| <= hypot of the bound(3)s.  If
    |v(a)| exceeds that reach, v misses the origin there and turns by the
    principal angle between its end values; certify_cells halves the
    other pieces and sums the turns.  Unresolved when a piece stays
    uncertified, or when the turns sum off an integer; BadDescription,
    before any cell is tested, when a square the test forms would leave
    the float range.
    """
    g.require_immersed()
    xi, yi = g.x_interp, g.y_interp
    b3 = float(np.hypot(xi.bound(3), yi.bound(3)))
    # Every square and product below is at most the square of |v|, of |v'|
    # or of a cell's reach, and b3 / 2 pi bounds all three (each harmonic
    # k >= 1 gains a factor 2 pi k per order).
    if not b3 / fourier.TAU <= SQUARE_LIMIT:
        raise BadDescription("x' and y' are too large: their squares leave the float range")

    def misses_origin(lt, rt, h):
        reach = np.sqrt(np.maximum(lt[1] ** 2 + lt[3] ** 2, rt[1] ** 2 + rt[3] ** 2))
        reach = h * (reach + 0.5 * h * b3)
        return lt[0] ** 2 + lt[2] ** 2 > reach * reach

    def turn(cell, lt, rt, done):
        cross, dot = lt[0] * rt[2] - lt[2] * rt[0], lt[0] * rt[0] + lt[2] * rt[2]
        return float(np.arctan2(cross, dot) @ done) / fourier.TAU

    rows = np.concatenate([xi.samples((1, 2)), yi.samples((1, 2))])
    total = certify_cells((xi, yi), rows, misses_origin, turn, "velocity")
    if abs(total - round(total)) > INTEGER_GUARD:
        raise Unresolved("winding sum %.9f is not within %g of an integer"
                         % (total, INTEGER_GUARD))
    return round(total)


def classify_cusps(loop: HorizontalLoop):
    """(c_plus, c_minus): the front's cusp counts by orientation, read
    off loop.cusps, so no cusp is placed in (x, z)."""
    cusps = loop.cusps
    c_plus = sum(1 for c in cusps if c.orientation is Orientation.UP)
    return c_plus, len(cusps) - c_plus


def rot_cusp(loop: HorizontalLoop) -> int:
    """Rotation number read off the front: (c_minus - c_plus) / 2."""
    c_plus, c_minus = classify_cusps(loop)
    if (c_minus - c_plus) % 2:
        raise OddCuspImbalance(
            "c_minus - c_plus = %d is odd; a cusp was missed or spurious"
            % (c_minus - c_plus)
        )
    return (c_minus - c_plus) // 2


def invariant_report(loop: HorizontalLoop) -> dict:
    """Both rotation computations for a loop, as a JSON-ready dict.  The
    cusp fields (rot_cusp, c_plus, c_minus) read the front, so they are
    None while z is open; rot_winding needs only the generator."""
    c_plus, c_minus = classify_cusps(loop) if loop.z_closed else (None, None)
    return {
        "rot_winding": rot_winding(loop.generator),
        "rot_cusp": None if c_plus is None else rot_cusp(loop),
        "c_plus": c_plus,
        "c_minus": c_minus,
    }
