"""Text format for generator descriptions and move scripts.

The grammar is deliberately tiny and LL(1):

    doc       := (generator | script)*
    generator := "generator" NAME "{" "x" ":" series ";" "y" ":" series ";" "}"
    series    := term ("+" term)*
    term      := NUMBER? ("cos" | "sin") "(" INT ")" | NUMBER
    script    := "script" NAME "{" (move ";")* "}"
    move      := KIND (PARAM "=" NUMBER)*

The token rules are the alternatives of the one pattern ``_TOKEN``:
NAME is ASCII, NUMBER an ASCII decimal literal with optional sign and
exponent (one that overflows a double is rejected), ``#`` starts a
comment that runs to the end of the line, and whitespace is free.  INT
(a harmonic index) is a NUMBER of bare digits between 1 and 64.  KIND
and the PARAMs each kind takes are the keys and entries of
``homotopy.MOVE_PARAMS``.

``parse`` returns a Document whose generators carry canonical
TrigSeries (duplicate harmonics summed, zero coefficients dropped), so
``parse(emit(doc)) == doc`` holds structurally for every Document built
from canonical series.  All rejection paths raise a FrontlangError
subclass; no input crashes or hangs the process.
"""

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from .curves import TrigSeries
from .errors import DuplicateName, FrontSyntaxError, UnknownMoveKind
from .homotopy import MOVE_PARAMS, Move, MoveScript, _check_move

MAX_HARMONIC = 64


@dataclass(frozen=True)
class GeneratorDescription:
    """A named analytic front description: x and y as trigonometric series."""

    name: str
    x: TrigSeries
    y: TrigSeries


@dataclass(frozen=True)
class Document:
    generators: tuple = ()
    scripts: tuple = ()

    def generator(self, name: str) -> GeneratorDescription:
        for g in self.generators:
            if g.name == name:
                return g
        raise ValueError("no generator named %r in document" % (name,))

    def script(self, name: str) -> MoveScript:
        for s in self.scripts:
            if s.name == name:
                return s
        raise ValueError("no script named %r in document" % (name,))


class _Token(NamedTuple):
    kind: str  # "name" | "number" | one of the punctuation marks | "end"
    text: str
    line: int
    col: int

    def describe(self) -> str:
        if self.kind == "end":
            return "end of input"
        return "'%s'" % self.text


# Tried in order at each position.  Digits and letters are ASCII only
# ('²' is a digit to str.isdigit, not to float()).  A '-' or '.' that
# starts no number, and any other character, are the two error classes.
_TOKEN = re.compile(
    r"""
    (?P<newline>\n)
  | (?P<skip>[ \t\r]+|\#[^\n]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<punct>[{}():;=+])
  | (?P<not_number>[-.])
  | (?P<stray>.)
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    """Token list with line/column positions (both 1-based)."""
    tokens = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, value, col = match.lastgroup, match.group(), match.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "not_number":
            raise FrontSyntaxError(line, col, "a number", "'%s'" % value)
        elif kind == "stray":
            raise FrontSyntaxError(line, col, "a token", "'%s'" % value)
        elif kind == "number" and not math.isfinite(float(value)):
            raise FrontSyntaxError(line, col, "a finite number", "'%s'" % value)
        elif kind != "skip":
            tokens.append(_Token(value if kind == "punct" else kind, value, line, col))
    tokens.append(_Token("end", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise FrontSyntaxError(tok.line, tok.col, what, tok.describe())
        return self.take()

    def expect_name(self, value: str) -> _Token:
        tok = self.peek()
        if tok.kind != "name" or tok.text != value:
            raise FrontSyntaxError(tok.line, tok.col, "'%s'" % value, tok.describe())
        return self.take()

    # grammar productions

    def document(self) -> Document:
        generators, scripts, names = [], [], set()
        while True:
            tok = self.peek()
            if tok.kind == "end":
                break
            if tok.kind != "name" or tok.text not in ("generator", "script"):
                raise FrontSyntaxError(
                    tok.line, tok.col, "'generator' or 'script'", tok.describe()
                )
            self.take()
            name = self.expect("name", "a name").text
            if name in names:
                raise DuplicateName("name %r declared twice" % (name,))
            names.add(name)
            if tok.text == "generator":
                generators.append(self.generator_body(name))
            else:
                scripts.append(self.script_body(name))
        return Document(tuple(generators), tuple(scripts))

    def generator_body(self, name: str) -> GeneratorDescription:
        self.expect("{", "'{'")
        self.expect_name("x")
        self.expect(":", "':'")
        x = self.series()
        self.expect(";", "';'")
        self.expect_name("y")
        self.expect(":", "':'")
        y = self.series()
        self.expect(";", "';'")
        self.expect("}", "'}'")
        return GeneratorDescription(name, x, y)

    def series(self) -> TrigSeries:
        constant = 0.0
        cos, sin = {}, {}
        while True:
            constant = self.term(constant, cos, sin)
            if self.peek().kind != "+":
                break
            self.take()
        return TrigSeries(constant, cos, sin).pruned()

    def term(self, constant: float, cos: dict, sin: dict) -> float:
        tok = self.peek()
        if tok.kind == "number":
            self.take()
            value = float(tok.text)
            nxt = self.peek()
            if nxt.kind == "name" and nxt.text in ("cos", "sin"):
                self.trig_term(value, cos, sin)
                return constant
            return constant + value
        if tok.kind == "name" and tok.text in ("cos", "sin"):
            self.trig_term(1.0, cos, sin)
            return constant
        raise FrontSyntaxError(
            tok.line, tok.col, "a number, 'cos' or 'sin'", tok.describe()
        )

    def trig_term(self, coefficient: float, cos: dict, sin: dict):
        which = self.take().text
        self.expect("(", "'('")
        tok = self.expect("number", "a harmonic index")
        if not tok.text.isdigit() or not 1 <= int(tok.text) <= MAX_HARMONIC:
            raise FrontSyntaxError(
                tok.line,
                tok.col,
                "an integer harmonic between 1 and %d" % MAX_HARMONIC,
                tok.describe(),
            )
        k = int(tok.text)
        self.expect(")", "')'")
        table = cos if which == "cos" else sin
        table[k] = table.get(k, 0.0) + coefficient

    def script_body(self, name: str) -> MoveScript:
        self.expect("{", "'{'")
        moves = []
        while self.peek().kind != "}":
            moves.append(self.move())
            self.expect(";", "';'")
        self.take()
        return MoveScript(name, tuple(moves))

    def move(self) -> Move:
        tok = self.expect("name", "a move kind")
        if tok.text not in MOVE_PARAMS:
            raise UnknownMoveKind(
                "line %d, col %d: unknown move kind %r (one of %s)"
                % (tok.line, tok.col, tok.text, ", ".join(sorted(MOVE_PARAMS)))
            )
        kind = tok.text
        allowed = MOVE_PARAMS[kind]
        params = {}
        while self.peek().kind == "name":
            ptok = self.take()
            if ptok.text not in allowed:
                raise FrontSyntaxError(
                    ptok.line,
                    ptok.col,
                    "a parameter of %s (%s)" % (kind, ", ".join(sorted(allowed)) or "none"),
                    ptok.describe(),
                )
            if ptok.text in params:
                raise DuplicateName(
                    "parameter %r given twice for %s" % (ptok.text, kind)
                )
            self.expect("=", "'='")
            vtok = self.expect("number", "a number")
            params[ptok.text] = float(vtok.text)
        return Move(kind, params)


def parse(text: str) -> Document:
    """Parse a document, raising FrontlangError subclasses on bad input."""
    return _Parser(text).document()


def _format_number(v: float) -> str:
    v = float(v)
    if v.is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _format_series(series: TrigSeries) -> str:
    terms = []
    if series.constant != 0.0:
        terms.append(_format_number(series.constant))
    for which in ("cos", "sin"):
        table = getattr(series, which)
        for k in sorted(table):
            coefficient = table[k]
            if coefficient == 1.0:
                terms.append("%s(%d)" % (which, k))
            else:
                terms.append("%s %s(%d)" % (_format_number(coefficient), which, k))
    if not terms:
        return "0"
    return " + ".join(terms)


def _format_move(move: Move) -> str:
    _check_move(move)
    params = ["%s=%s" % (key, _format_number(move.params[key]))
              for key in MOVE_PARAMS[move.kind] if key in move.params]
    return " ".join([move.kind] + params)


def emit(doc: Document) -> str:
    """Canonical text for a Document; parse(emit(doc)) == doc.  A move
    the engine refuses (unknown kind or parameter) raises ValueError."""
    blocks = []
    for g in doc.generators:
        blocks.append(
            "generator %s {\n    x: %s;\n    y: %s;\n}"
            % (g.name, _format_series(g.x), _format_series(g.y))
        )
    for s in doc.scripts:
        lines = ["script %s {" % s.name]
        for move in s.moves:
            lines.append("    %s;" % _format_move(move))
        lines.append("}")
        blocks.append("\n".join(lines))
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"
