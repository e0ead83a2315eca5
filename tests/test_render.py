"""SVG and CSV emission: counts, bounds, and byte-level determinism."""

import math
import tracemalloc
import types
import xml.etree.ElementTree as ET

import numpy as np
from hypothesis import given, settings, strategies as st

from engel import curves, fourier, lifting, models, render

from helpers import csv_repr_table, mirror_loop, mirror_w


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
    loop = curves.HorizontalLoop(leg.generator, leg.z, 0.0, mirror_w(s), 0.0)
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
    loop = curves.HorizontalLoop(
        curves.LegendrianGenerator(x, y), z, 0.0, w, 0.0
    )
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
    return curves.HorizontalLoop(curves.LegendrianGenerator(x, y), z, 0.0, w, 0.0)


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


@settings(max_examples=200, deadline=None)
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
    calls = []

    def counted(fmt):
        def wrapper(v):
            calls.append(v)
            return fmt(v)
        return wrapper

    monkeypatch.setattr(render, "_CSV_FORMATS", tuple(map(counted, render._CSV_FORMATS)))
    for loops in ([first, second], [first, second, second]):
        calls.clear()
        for lines in csv_tables(loops):
            "".join(lines)
        assert len(calls) == 5 * n + 200 + len(z[::7])
    calls.clear()
    "".join(render.loop_csv_lines(second))
    assert len(calls) == 5 * n


def test_a_table_written_alone_is_never_held_whole():
    # Under tracemalloc, 16384 rows peak at about 7.6 MB when their text
    # is held whole (as a kept table is) and at about 0.6 MB a block at a
    # time.
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
