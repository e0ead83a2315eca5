"""SVG and CSV emission: counts, bounds, and byte-level determinism."""

import math
import tracemalloc
import types
import xml.etree.ElementTree as ET

import numpy as np
from hypothesis import given, settings, strategies as st

from engel import curves, fourier, lifting, models, render

from helpers import csv_repr_table, hand_loop, mirror_loop, mirror_w


def csv_text(loop):
    """The CSV table of one loop, as the CLI writes it."""
    return "".join(render.loop_csv_lines(loop))


def csv_tables(loops):
    """The line iterators of a run of tables, each one reusing the text
    its predecessor left in one kept list, as the CLI writes frames."""
    kept = []
    return [render.loop_csv_lines(loop, kept) for loop in loops]


def balanced_circle(n=1024):
    s = fourier.grid(n)
    g = curves.LegendrianGenerator(np.cos(fourier.TAU * s), np.sin(fourier.TAU * s))
    return lifting.lift(lifting.balance_closure(g))


def test_two_cusp_front_draws_two_cusp_glyphs():
    front = balanced_circle()
    assert len(front.cusps) == 2
    text = render.front_svg_text(front)
    assert text.count('class="cusp-') == 2


def test_crossings_get_annotated():
    front = balanced_circle()
    text = render.front_svg_text(front)
    assert text.count('class="crossing"') == len(front.double_points)
    assert len(front.double_points) > 0


def test_orientation_surplus_matches_rotation_number():
    front = models.model_front(3, seed=0, samples=2048)
    text = render.front_svg_text(front)
    down = text.count('class="cusp-down"')
    up = text.count('class="cusp-up"')
    assert down - up == 6


def test_svg_is_well_formed_and_viewbox_fits_with_margin():
    front = balanced_circle()
    text = render.front_svg_text(front)
    root = ET.fromstring(text)
    x0, y0, w, h = (float(v) for v in root.attrib["viewBox"].split())
    x = np.asarray(front.x, dtype=float)
    z = np.asarray(front.z, dtype=float)
    span = max(x.max() - x.min(), z.max() - z.min())
    pad = 0.05 * span
    assert abs(x0 - (x.min() - pad)) < 1e-5
    assert abs(w - ((x.max() - x.min()) + 2 * pad)) < 1e-5
    # drawing flips z; the box top must sit above the flipped data
    assert abs(y0 - (-(z.max() + pad))) < 1e-5
    assert abs(h - ((z.max() - z.min()) + 2 * pad)) < 1e-5


def test_identical_input_gives_byte_identical_svg():
    a = render.front_svg_text(balanced_circle())
    b = render.front_svg_text(balanced_circle())
    assert a.encode("utf-8") == b.encode("utf-8")


def test_csv_values_round_trip_exactly():
    loop = balanced_circle(n=256)
    text = csv_text(loop)
    lines = text.strip().split("\n")
    assert lines[0] == "s,x,y,z,w"
    assert len(lines) == 257
    g = loop.generator
    z = np.asarray(loop.z)
    w = np.asarray(loop.w)
    for k in (0, 17, 101, 255):
        s_v, x_v, y_v, z_v, w_v = (float(p) for p in lines[1 + k].split(","))
        assert s_v == k / 256
        assert x_v == g.x[k]
        assert y_v == g.y[k]
        assert z_v == z[k]
        assert w_v == w[k]


def test_csv_round_trips_hand_built_loop():
    n = 64
    s = fourier.grid(n)
    leg = mirror_loop(n)
    loop = hand_loop(leg.generator, leg.z, 0.0, mirror_w(s), 0.0)
    lines = csv_text(loop).strip().split("\n")
    assert lines[0] == "s,x,y,z,w"
    assert len(lines) == n + 1
    row = lines[1 + 7].split(",")
    assert float(row[0]) == 7 / 64
    assert float(row[1]) == loop.x[7]
    assert float(row[3]) == loop.z[7]
    assert float(row[4]) == loop.w[7]


def test_csv_matches_a_per_value_repr_oracle_byte_for_byte():
    n = 16
    x = np.linspace(-3.0, 3.0, n)
    x[[0, 3]] = -0.0
    x[5] = 7.25e-5
    y = np.cos(np.arange(n)) * 1e-9
    y[2] = 3.0e17
    z = np.arange(n) * 1e16 + 0.1
    w = -np.exp(-np.arange(n, dtype=float))
    w[9] = -1.5e-300
    loop = hand_loop(curves.LegendrianGenerator(x, y), z, 0.0, w, 0.0)
    want = csv_repr_table(loop)
    got = csv_text(loop)
    assert got == want
    assert "-0.0," in got and "e-05," in got and "e+17," in got


def _bits(v):
    return np.array([v], dtype=np.float64).view(np.int64)[0]


def _float_of_bits(b):
    return float(np.array([b], dtype=np.int64).view(np.float64)[0])


# Finite values on both sides of repr's switches to exponent form (at
# 1e16 and below 1e-4), signed zeros, subnormals and the ends of the
# float64 range.
_EDGES = [
    0.0, -0.0, 1.0, -1.0, 0.1,
    1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf), -1e16,
    1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), -1e-4,
    5e-324, -5e-324, 1.5e-310, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0),
    1.7976931348623157e308, -1.7976931348623157e308,
]
# z and w are not checked for finiteness, so they also carry NaNs (with
# payloads and either sign, which all print as "nan") and infinities.
_NON_FINITE = [
    math.nan, -math.nan, math.inf, -math.inf,
    _float_of_bits(0x7FF8000000000001), _float_of_bits(-0x0007FFFFFFFFFFFF),
]
_FINITE = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False, allow_infinity=False))
_ANY = st.one_of(_FINITE, st.sampled_from(_NON_FINITE))


def _hand_loop(x, y, z, w):
    return hand_loop(curves.LegendrianGenerator(x, y), z, 0.0, w, 0.0)


@st.composite
def _loop_sequences(draw):
    """Hand-built loops in which each loop keeps, negates or redraws the
    previous loop's value at each index of each column; now and then the
    same loop twice, or a new sample count."""
    loops = []
    for _ in range(draw(st.integers(1, 4))):
        step = draw(st.sampled_from(["fresh", "edit", "edit", "edit", "repeat"]))
        if not loops or step == "fresh":
            n = draw(st.sampled_from([16, 32]))
            cols = [
                np.array(draw(st.lists(kind, min_size=n, max_size=n)))
                for kind in (_FINITE, _FINITE, _ANY, _ANY)
            ]
        elif step == "repeat":
            loops.append(loops[-1])
            continue
        else:
            last = loops[-1]
            cols = []
            for kind, old in zip((_FINITE, _FINITE, _ANY, _ANY), (last.x, last.y, last.z, last.w)):
                n = old.size
                edits = np.array(draw(st.lists(st.sampled_from("kknr"), min_size=n, max_size=n)))
                col = np.where(edits == "n", -old, old)
                redraw = edits == "r"
                m = int(redraw.sum())
                col[redraw] = draw(st.lists(kind, min_size=m, max_size=m))
                cols.append(col)
        if draw(st.booleans()):
            cols[3] = draw(st.lists(st.integers(-3, 3), min_size=cols[3].size, max_size=cols[3].size))
        loops.append(_hand_loop(*cols))
    return loops


@settings(deadline=None)  # examples: the profile's, from tests/conftest.py
@given(_loop_sequences())
def test_csv_sequence_writer_matches_the_per_loop_oracle(loops):
    # Every table is taken from the writer before any is read, so a table
    # must not change when the writer moves on to the next loop.
    tables = csv_tables(loops)
    for loop, lines in zip(loops, tables):
        assert "".join(lines) == csv_repr_table(loop)


def test_csv_sequence_writer_formats_changed_bits_not_changed_values():
    n = 16
    s = fourier.grid(n)
    x, y = np.cos(fourier.TAU * s), np.sin(fourier.TAU * s)
    z = np.zeros(n)
    z[1] = 1e16
    z[2] = 1e-4
    w = np.zeros(n)
    w[5] = math.nan
    first = _hand_loop(x, y, z, w)

    z2 = z.copy()
    z2[0] = -0.0  # == 0.0, but prints differently
    z2[1] = np.nextafter(1e16, 0.0)  # last positional value below 1e16
    z2[2] = np.nextafter(1e-4, 0.0)  # first exponent value below 1e-4
    z2[3] = 5e-324
    w2 = w.copy()
    w2[5] = _float_of_bits(0x7FF8000000000001)  # another NaN: same text
    w2[6] = -math.inf
    second = _hand_loop(x, y, z2, w2)
    assert z2[0] == z[0] and _bits(z2[0]) != _bits(z[0])

    # A loop of another size, then a duck-typed loop with an integer w.
    s32 = fourier.grid(32)
    third = _hand_loop(np.cos(fourier.TAU * s32), np.sin(fourier.TAU * s32), np.zeros(32), np.ones(32))
    fourth = types.SimpleNamespace(n=32, x=third.x, y=third.y, z=third.z, w=np.arange(32))

    loops = [first, second, second, third, fourth]
    texts = ["".join(lines) for lines in csv_tables(loops)]
    assert texts == [csv_repr_table(loop) for loop in loops]
    rows = texts[1].split("\n")
    assert rows[1].split(",")[3] == "-0.0"
    assert rows[2].split(",")[3] == "9999999999999998.0"
    assert rows[3].split(",")[3] == "9.999999999999999e-05"
    assert rows[7].endswith(",-inf")
    assert texts[4].split("\n")[2].endswith(",1.0")
    assert csv_text(fourth) == texts[4]


def test_csv_tables_longer_than_a_block_match_the_oracle():
    # A table written alone is formatted a block of rows at a time; one
    # written after another reuses its text.
    n = 2 * render._CSV_BLOCK
    s = fourier.grid(n)
    first = _hand_loop(np.cos(fourier.TAU * s), np.sin(fourier.TAU * s), np.zeros(n), s)
    z = np.zeros(n)
    z[::7] = -0.0
    z[-1] = 1e-300
    second = _hand_loop(first.x, first.y + (s > 0.5) * 1e-3, z, s)
    loops = [first, second, second]
    texts = ["".join(lines) for lines in csv_tables(loops)]
    assert texts == [csv_repr_table(loop) for loop in loops]
    assert [csv_text(loop) for loop in loops] == texts


def test_csv_sequence_writer_formats_only_the_moved_values(monkeypatch):
    n = 2 * render._CSV_BLOCK
    s = fourier.grid(n)
    first = _hand_loop(np.cos(fourier.TAU * s), np.sin(fourier.TAU * s), np.zeros(n), s)
    y = np.array(first.y)
    y[100:300] += 1.0
    z = np.zeros(n)
    z[::7] = -0.0
    second = _hand_loop(first.x, y, z, s)
    formatted = []
    float_cells = render._float_cells

    def counted(values):
        formatted.append(len(values))
        return float_cells(values)

    # Every value is formatted by _float_cells, looked up in the module's globals.
    monkeypatch.setattr(render, "_float_cells", counted)
    for loops in ([first, second], [first, second, second]):
        formatted.clear()
        for lines in csv_tables(loops):
            "".join(lines)
        assert sum(formatted) == 5 * n + 200 + len(z[::7])
    formatted.clear()
    "".join(render.loop_csv_lines(second))
    assert sum(formatted) == 5 * n


def _float_cells_text(values):
    cells, lengths = render._float_cells(values)
    return [bytes(cell[:length]).decode("ascii") for cell, length in zip(cells, lengths)]


def test_float_cells_are_the_repr_of_each_value(monkeypatch):
    rng = np.random.default_rng(20261021)
    patterns = rng.integers(-(2**63), 2**63, size=100_000, dtype=np.int64).view(np.float64)
    tens = np.array([10.0**k for k in range(-30, 31)])
    values = np.concatenate([
        patterns, _EDGES, _NON_FINITE,
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        np.arange(-4 * 4096, 4 * 4096 + 1) / 4096,
        # Every power of two: the gap below it is half the gap above.
        np.ldexp(1.0, np.arange(-1074, 1024)),
    ])
    oracle = [repr(float(v)) for v in values]
    fallbacks = []

    def counted(v):
        fallbacks.append(v)
        return repr(v)

    # The formatter's fallback calls repr, looked up in the module's globals.
    monkeypatch.setattr(render, "repr", counted, raising=False)
    assert _float_cells_text(values) == oracle
    # Zeros, non-finite values and magnitudes outside [1e-280, 1e280] fall
    # back.  Of the others, under 1% do: large integral values whose
    # interval ends land on integers.
    a = np.abs(values)
    assert 0 <= len(fallbacks) - np.sum(~((a >= 1e-280) & (a <= 1e280))) < 0.01 * values.size
    fallbacks.clear()
    assert _float_cells_text(np.array([5e-324, -0.0, 1.0])) == ["5e-324", "-0.0", "1.0"]
    assert _bits(fallbacks[0]) == _bits(5e-324) and _bits(fallbacks[1]) == _bits(-0.0)
    assert len(fallbacks) == 2


def test_a_table_written_alone_is_never_held_whole():
    # Under tracemalloc, 16384 rows peak at about 5.2 MB when their cells
    # are held whole (as a kept table's are) and at about 1.6 MB a block
    # at a time.
    n = 16384
    s = fourier.grid(n)
    loop = _hand_loop(np.cos(fourier.TAU * s), np.sin(fourier.TAU * s), s / 3.0, s / 7.0)
    tracemalloc.start()
    try:
        size = sum(map(len, render.loop_csv_lines(loop)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 16384 * 50
    assert peak < 4_000_000


def test_a_kept_table_is_held_as_bytes():
    # Under tracemalloc, two 16384-row tables written with one kept list
    # peaked at 9.9 MB when a kept table was held as str objects, and
    # peak at about 7.3 MB with its bits and cells held as bytes.
    n = 16384
    s = fourier.grid(n)
    first = _hand_loop(np.cos(fourier.TAU * s), np.sin(fourier.TAU * s), s / 3.0, s / 7.0)
    second = _hand_loop(first.x, first.y, s / 5.0, s / 7.0)
    kept = []
    tracemalloc.start()
    try:
        # Each table is read before the next is made, as the CLI writes frames.
        sizes = [sum(map(len, render.loop_csv_lines(loop, kept))) for loop in (first, second)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert min(sizes) > 16384 * 50
    assert peak < 8_500_000


def _six_oracle(values, separators):
    """The "%.6f" text of each value and its separator, one at a time."""
    k = len(separators)
    return "".join("%.6f%s" % (float(v), separators[i % k]) for i, v in enumerate(values))


# Exact ties of the sixth place: k/2^7 is half way between two of its
# sixth places for odd k, and its neighbours are not; from 2^52 / 10^6 on,
# v * 10^6 = p + 1/2 with p already an integer.  Then negatives that round
# to zero, carries into a new digit, and both sides of 2^53 / 10^6, past
# which a block is formatted by "%".
_TIES = [k / 2**7 for k in (1, 3, 5, 127, 129, 1001, 576460752305, 576460752307, 1152921504605)]
_SIX_EDGES = [
    *_TIES, *np.nextafter(_TIES, 0.0), *np.nextafter(_TIES, np.inf), *(-t for t in _TIES),
    -0.0, -1e-7, -4.9999999e-7, -5e-7, -5.000001e-7, -1e-300, -5e-324,
    0.9999995, 0.99999949999, 9.9999995, 999999.9999995, -999999.9999995,
    2.0**53 / 1e6, np.nextafter(2.0**53 / 1e6, 0.0), np.nextafter(2.0**53 / 1e6, np.inf),
    2.0**52 / 1e6, np.nextafter(2.0**52 / 1e6, 0.0), np.nextafter(2.0**52 / 1e6, np.inf),
    1e10, np.nextafter(1e10, 0.0),
]
_BITS = st.integers(-(2**63), 2**63 - 1).map(_float_of_bits)
_SIX_ANY = st.one_of(st.sampled_from(_EDGES + _NON_FINITE + _SIX_EDGES), st.floats(), _BITS)
# Finite values below 2^53 / 10^6, which the rows always hold.
_SIX_HELD = st.one_of(
    st.sampled_from([v for v in _EDGES + _SIX_EDGES if abs(v) < 9e9]),
    st.floats(-9e9, 9e9),
    st.integers(-1152921504605, 1152921504605).map(lambda k: k / 2**7),
    # Random bits below 2^33: a sign, an exponent field up to 1023 + 32
    # (subnormals included) and any mantissa.
    st.builds(
        lambda sign, exponent, mantissa: sign * _float_of_bits((exponent << 52) | mantissa),
        st.sampled_from([1.0, -1.0]), st.integers(0, 1023 + 32), st.integers(0, 2**52 - 1),
    ),
)
_SIX_SEPARATORS = st.sampled_from([(" ",), (" ", " L "), (",", ", ", "\n")])


@settings(deadline=None)  # examples: the profile's, from tests/conftest.py
@given(st.lists(_SIX_ANY, min_size=1, max_size=24), _SIX_SEPARATORS)
def test_six_places_match_the_percent_oracle(values, separators):
    assert render._six_places(values, separators) == _six_oracle(values, separators)


@settings(deadline=None)  # examples: the profile's, from tests/conftest.py
@given(st.lists(_SIX_HELD, min_size=1, max_size=24), _SIX_SEPARATORS)
def test_six_place_rows_hold_every_value_below_two_to_the_53(values, separators):
    # No block of these falls back to "%": the rows make every byte.
    assert render._six_place_rows(np.array(values))[-1].all()
    assert render._six_places(values, separators) == _six_oracle(values, separators)


def test_six_places_match_the_percent_oracle_on_a_hundred_thousand_values():
    rng = np.random.default_rng(20261022)
    patterns = rng.integers(-(2**63), 2**63, size=40_000, dtype=np.int64).view(np.float64)
    held = patterns[np.abs(patterns) < 9e9]
    values = np.concatenate([
        held, rng.uniform(-1.0, 1.0, 20_000) * 10.0 ** rng.integers(-8, 10, 20_000),
        np.arange(-20_000, 20_000) / 2**7, np.arange(576460752300, 576460752400) / 2**7,
        np.array(_SIX_EDGES),
    ])
    values = values[np.abs(values) < 9e9]
    assert render._six_place_rows(values[: render._CHUNK])[-1].all()
    assert render._six_places(values, (" ", " L ")) == _six_oracle(values, (" ", " L "))
    assert render._six_place_texts(values[:100]) == ["%.6f" % v for v in values[:100]]


def test_a_block_past_the_rows_is_formatted_whole_by_percent():
    # 2^53 / 10^6 and up, and non-finite values, send their block to "%";
    # the block before keeps the rows.
    n = render._CHUNK
    values = np.linspace(-3.0, 3.0, 2 * n)
    values[n + 5] = 1e300
    values[n + 9] = -math.inf
    assert render._six_place_rows(values[:n])[-1].all()
    assert not render._six_place_rows(values[n:])[-1].all()
    assert render._six_places(values, (" ",)) == _six_oracle(values, (" ",))
