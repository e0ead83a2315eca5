"""Parser and serializer for the front description language.

The contractual properties are the round-trip law (parse of an emitted
document reproduces it structurally) and total, crash-free rejection of
arbitrary input.  Expected ASTs below are written out by hand from the
grammar; nothing is compared against the code's own output except where
the law itself is the subject.
"""

import string

import pytest
from hypothesis import given, settings, strategies as st

from engel import frontlang
from engel.curves import TrigSeries
from engel.errors import DuplicateName, FrontlangError, FrontSyntaxError, UnknownMoveKind
from engel.frontlang import Document, GeneratorDescription
from engel.homotopy import Move, MoveScript


def test_single_generator_ast():
    doc = frontlang.parse("generator circ { x: cos(1); y: sin(1); }")
    assert doc == Document(
        generators=(
            GeneratorDescription(
                "circ",
                TrigSeries(0.0, {1: 1.0}, {}),
                TrigSeries(0.0, {}, {1: 1.0}),
            ),
        ),
        scripts=(),
    )


def test_script_with_two_moves():
    doc = frontlang.parse(
        "script demo { swallowtail_birth at=0.25 width=0.05 frames=64; balance; }"
    )
    assert doc.scripts == (
        MoveScript(
            "demo",
            (
                Move("swallowtail_birth", {"at": 0.25, "width": 0.05, "frames": 64.0}),
                Move("balance", {}),
            ),
        ),
    )


def test_missing_semicolon_reported_at_closing_brace():
    with pytest.raises(FrontSyntaxError) as err:
        frontlang.parse("generator bad { x: cos(1) }")
    assert "expected ';'" in str(err.value)
    assert "'}'" in str(err.value)


def test_error_location_is_line_and_column_accurate():
    text = "generator g {\n    x: cos(1);\n    y: sin(oops);\n}"
    with pytest.raises(FrontSyntaxError) as err:
        frontlang.parse(text)
    assert err.value.line == 3
    assert err.value.col == 12


def test_duplicate_names_rejected_across_kinds():
    with pytest.raises(DuplicateName):
        frontlang.parse("generator a { x: 0; y: 0; } script a { }")


def test_unknown_move_kind():
    with pytest.raises(UnknownMoveKind):
        frontlang.parse("script s { frobnicate at=1; }")


def test_stray_parameter_rejected():
    with pytest.raises(FrontSyntaxError):
        frontlang.parse("script s { balance at=1; }")


def test_duplicate_parameter_rejected():
    with pytest.raises(DuplicateName):
        frontlang.parse("script s { deform at=1 at=2; }")


@pytest.mark.parametrize("harmonic", ["0", "65", "2.0", "-3", "1e1"])
def test_harmonic_bounds(harmonic):
    with pytest.raises(FrontlangError):
        frontlang.parse("generator g { x: cos(%s); y: 0; }" % harmonic)


@pytest.mark.parametrize("text, line, col", [
    ("script s { deform at=0.3 width=0.1 frames=1e400; }", 1, 43),
    ("script s { deform at=1e400 width=0.1; }", 1, 22),
    ("generator g {\n  x: -1e400 cos(1);\n  y: 0;\n}", 2, 6),
    ("generator g { x: 1\u00b2; y: 0; }", 1, 19),
])
def test_numbers_must_be_finite_ascii_literals(text, line, col):
    # An overflowing literal reads as inf; a superscript digit is a digit
    # to str.isdigit but not to float().  Both are syntax errors at the
    # number, never a crash downstream.
    with pytest.raises(FrontSyntaxError) as err:
        frontlang.parse(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_comments_and_whitespace_are_free():
    doc = frontlang.parse(
        "# heading\ngenerator g {  # trailing\n  x: 2 cos(1) ; # mid\n  y: 0;\n}\n"
    )
    assert doc.generators[0].x == TrigSeries(0.0, {1: 2.0}, {})


def test_duplicate_harmonics_are_summed():
    doc = frontlang.parse("generator g { x: cos(2) + 2 cos(2); y: 0; }")
    assert doc.generators[0].x == TrigSeries(0.0, {2: 3.0}, {})


def test_zero_coefficients_are_pruned():
    doc = frontlang.parse("generator g { x: 0 cos(2) + 1; y: 0; }")
    assert doc.generators[0].x == TrigSeries(1.0, {}, {})


def test_negative_coefficient_via_signed_number():
    doc = frontlang.parse("generator g { x: cos(1) + -1 cos(3); y: -0.5; }")
    assert doc.generators[0].x == TrigSeries(0.0, {1: 1.0, 3: -1.0}, {})
    assert doc.generators[0].y == TrigSeries(-0.5, {}, {})


def test_empty_document_round_trip():
    assert frontlang.emit(Document()) == ""
    assert frontlang.parse("") == Document()


def test_scientific_notation_survives_round_trip():
    doc = frontlang.parse("generator g { x: 0.00125 cos(2); y: 0; }")
    again = frontlang.parse(frontlang.emit(doc))
    assert again.generators[0].x.cos[2] == 1.25e-3


def test_shipped_fixtures_parse():
    from importlib import resources

    for name, gen_name in (("demo.front", "circ"), ("zero_area.front", "mirror")):
        text = resources.files("engel.data").joinpath(name).read_text()
        doc = frontlang.parse(text)
        assert doc.generator(gen_name).name == gen_name
    demo = frontlang.parse(
        resources.files("engel.data").joinpath("demo.front").read_text()
    )
    kinds = [m.kind for m in demo.script("pass_and_fold").moves]
    assert kinds == ["tangency_pass", "swallowtail_birth"]


# randomized structural law

_names = st.text(string.ascii_lowercase + "_", min_size=1, max_size=8).filter(
    lambda s: s not in ("generator", "script", "cos", "sin", "x", "y")
)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_tables = st.dictionaries(st.integers(1, 64), _floats.filter(lambda v: v != 0.0), max_size=5)
_series = st.builds(
    lambda c, cos, sin: TrigSeries(c, cos, sin).pruned(), _floats, _tables, _tables
)
_params_for = {
    "deform": ("at", "width", "ax", "ay", "frames"),
    "swallowtail_birth": ("at", "width", "amplitude", "frames"),
    "swallowtail_death": ("at", "width", "amplitude", "frames"),
    "tangency_pass": ("at", "width", "amplitude", "frames"),
    "balance": (),
}


@st.composite
def _moves(draw):
    kind = draw(st.sampled_from(sorted(_params_for)))
    keys = draw(st.sets(st.sampled_from(_params_for[kind])) if _params_for[kind] else st.just(set()))
    return Move(kind, {k: draw(_floats) for k in sorted(keys)})


@st.composite
def _documents(draw):
    names = draw(st.lists(_names, unique=True, max_size=6))
    k = draw(st.integers(0, len(names)))
    generators = tuple(
        GeneratorDescription(nm, draw(_series), draw(_series)) for nm in names[:k]
    )
    scripts = tuple(
        MoveScript(nm, tuple(draw(st.lists(_moves(), max_size=4)))) for nm in names[k:]
    )
    return Document(generators, scripts)


@settings(max_examples=300, deadline=None)
@given(_documents())
def test_parse_emit_round_trip(doc):
    assert frontlang.parse(frontlang.emit(doc)) == doc


@settings(max_examples=400, deadline=None)
@given(st.text(max_size=120))
def test_arbitrary_text_never_aborts(text):
    try:
        frontlang.parse(text)
    except FrontlangError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=80))
def test_binary_noise_never_aborts(blob):
    try:
        frontlang.parse(blob.decode("latin-1"))
    except FrontlangError:
        pass
