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
    """A root of x' where |y'| is below the genericity floor."""


class ZNotClosed(EngelError):
    """Lift requested for a generator whose z closure defect is too large."""


class NotClosed(EngelError):
    """An operation that needs a closed loop received an open one."""


class SingularSystem(EngelError):
    """The 2x2 closure-balancing system is too ill-conditioned to solve."""


class ImmersionLost(EngelError):
    """A correction or move frame dropped the velocity below the floor.

    ``frame`` is the index of the offending frame when raised by a move.
    """

    def __init__(self, message: str, frame: int | None = None):
        super().__init__(message)
        self.frame = frame


class AmbiguousWinding(EngelError):
    """Angle steps stayed too coarse after refinement; winding unreliable."""


class OddCuspImbalance(EngelError):
    """c_minus - c_plus came out odd, which a genuine closed front forbids."""


class SynthesisFailed(EngelError):
    """Model construction exhausted its retry budget."""


class UnsupportedOverlap(EngelError):
    """A move support collides with existing cusps."""


class MoveRefused(EngelError):
    """A swallowtail cannot fold the generator as asked (numerical refusal)."""


class FrontlangError(EngelError):
    """Base class for parser failures (never an uncontrolled crash)."""


class FrontSyntaxError(FrontlangError):
    """Tokenizer/parser rejection with a precise location.

    Exposed as ``frontlang.SyntaxError`` as well; the class name avoids
    shadowing the builtin inside this package's own code.
    """

    def __init__(self, line: int, col: int, expected: str, found: str):
        super().__init__(
            "line %d, col %d: expected %s, found %s" % (line, col, expected, found)
        )
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found


class DuplicateName(FrontlangError):
    """Two document entries share a name."""


class UnknownMoveKind(FrontlangError):
    """A script uses a move kind the engine does not define."""
