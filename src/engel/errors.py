"""Exception types shared across the package.

Everything raised on purpose derives from :class:`EngelError`, so callers
(and the CLI) can distinguish domain failures from genuine bugs.
"""

from __future__ import annotations


class EngelError(Exception):
    """Base class for all deliberate failures in this package."""


class BadDescription(EngelError):
    """A generator description is malformed or not periodic."""


class NotImmersed(EngelError):
    """The velocity (x', y') vanishes (within tolerance) somewhere.

    Carries the offending parameter value in ``s`` when known.
    """

    def __init__(self, message: str, s: float | None = None):
        super().__init__(message)
        self.s = s


class DegenerateCusp(EngelError):
    """A root of x' that is not a generic cusp: zeros on consecutive
    samples, a touch without sign change, a refinement that stalls, or
    |y'| below the floor."""


class Unresolved(EngelError):
    """The grid cannot decide: no halving certifies a cell, or a sum is off an integer."""


class NotClosed(EngelError):
    """An operation that needs a closed loop, or a closed z for the
    front, received an open one."""


class SingularSystem(EngelError):
    """The 2x2 closure-balancing system is too ill-conditioned to solve."""


class OddCuspImbalance(EngelError):
    """c_minus - c_plus came out odd, which a genuine closed front forbids."""


class SynthesisFailed(EngelError):
    """Model construction exhausted its retry budget."""


class MoveRefused(EngelError):
    """A swallowtail cannot fold the generator as asked: its support
    disagrees with the cusps already there, or no amplitude folds it."""


class FrontSyntaxError(EngelError):
    """The one refusal of frontlang.parse: a malformed document, with the
    line and column (both 1-based) of the token where it went wrong.

    The one name for it; it is not called SyntaxError so that it does not
    shadow the builtin.
    """

    def __init__(self, line: int, col: int, expected: str, found: str):
        super().__init__(
            "line %d, col %d: expected %s, found %s" % (line, col, expected, found)
        )
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
