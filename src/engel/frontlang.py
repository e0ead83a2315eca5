"""Text format for generator descriptions and move scripts.

The grammar is deliberately tiny and LL(1):

    doc       := (generator | script)*
    generator := "generator" NAME "{" "x" ":" series ";" "y" ":" series ";" "}"
    series    := term ("+" term)*
    term      := NUMBER? ("cos" | "sin") "(" INT ")" | NUMBER
    script    := "script" NAME "{" (move ";")* "}"
    move      := KIND (PARAM "=" NUMBER)*
    KIND      := "deform" | "swallowtail_birth" | "swallowtail_death"
               | "tangency_pass" | "balance"

NUMBER is a decimal literal with optional sign and exponent; one that
overflows a double is rejected.  INT (a harmonic index) is a bare
unsigned integer between 1 and 64.  ``#`` starts a comment that runs to
the end of the line.  Whitespace is free.

``parse`` returns a Document whose generators carry canonical
TrigSeries (duplicate harmonics summed, zero coefficients dropped), so
``parse(emit(doc)) == doc`` holds structurally for every Document built
from canonical series.  All rejection paths raise a FrontlangError
subclass; no input crashes or hangs the process.
"""

import math
from dataclasses import dataclass

from .curves import TrigSeries
from .errors import DuplicateName, FrontSyntaxError, UnknownMoveKind
from .homotopy import _ALLOWED_PARAMS, MOVE_KINDS, Move, MoveScript

# Callers catch parser rejections as frontlang.SyntaxError; the class
# itself lives in errors.py under a name that does not shadow the builtin.
SyntaxError = FrontSyntaxError

MAX_HARMONIC = 64

_PARAM_ORDER = ("at", "width", "amplitude", "ax", "ay", "frames")

# ASCII only: str.isdigit also accepts digits such as '²' that float() refuses.
_DIGITS = set("0123456789")
_NUMBER_START = _DIGITS | set(".-")
_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_BODY = _NAME_START | _DIGITS
_PUNCT = set("{}():;=+")


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


@dataclass(frozen=True)
class _Token:
    kind: str  # "name" | "number" | one of the punctuation marks | "end"
    text: str
    line: int
    col: int

    def describe(self) -> str:
        if self.kind == "end":
            return "end of input"
        return "'%s'" % self.text


def _tokenize(text: str):
    """Token list with line/column positions (both 1-based)."""
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _NAME_START:
            j = i
            while j < n and text[j] in _NAME_BODY:
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _NUMBER_START:
            j = i
            if text[j] == "-":
                j += 1
            digits_before = 0
            while j < n and text[j] in _DIGITS:
                j += 1
                digits_before += 1
            digits_after = 0
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
                    digits_after += 1
            if digits_before + digits_after == 0:
                raise FrontSyntaxError(line, col, "a number", "'%s'" % ch)
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k] in _DIGITS:
                    while k < n and text[k] in _DIGITS:
                        k += 1
                    j = k
            if not math.isfinite(float(text[i:j])):
                raise FrontSyntaxError(line, col, "a finite number", "'%s'" % text[i:j])
            tokens.append(_Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise FrontSyntaxError(line, col, "a token", "'%s'" % ch)
    tokens.append(_Token("end", "", line, col))
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
        if tok.text not in MOVE_KINDS:
            raise UnknownMoveKind(
                "line %d, col %d: unknown move kind %r (one of %s)"
                % (tok.line, tok.col, tok.text, ", ".join(sorted(MOVE_KINDS)))
            )
        kind = tok.text
        allowed = _ALLOWED_PARAMS[kind]
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
    parts = [move.kind]
    seen = set(_PARAM_ORDER)
    for key in _PARAM_ORDER:
        if key in move.params:
            parts.append("%s=%s" % (key, _format_number(move.params[key])))
    for key in sorted(move.params):
        if key not in seen:
            parts.append("%s=%s" % (key, _format_number(move.params[key])))
    return " ".join(parts)


def emit(doc: Document) -> str:
    """Canonical text for a Document; parse(emit(doc)) == doc."""
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
