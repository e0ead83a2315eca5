"""Deterministic SVG pictures of fronts and CSV tables of lifted loops.

Output is a pure function of the input data: no timestamps, no
randomness, so identical inputs give byte-identical files.  Every number
written here goes through one bulk fixed-point layout, _fixed_rows: a
block of values, each an integer over a power of ten, becomes one row of
4-byte ASCII words per value, made by one gather from a table of words
("0000" to "9999", and ".000" to ".999" for the word after the whole
part), with no per-value Python and no loop over digits.  Two digit
sources feed it:

- CSV values are the shortest round-trip `repr` of each float64, byte
  for byte: _shortest_digits finds the digits, and each value's cell is
  the window of its row from its text's first byte (_fixed_cells).  A
  value whose digits that arithmetic cannot decide (zeros, non-finite
  values, a rare near-tie) is formatted by `repr` itself.
- SVG numbers (the path, the viewBox, the stroke widths and the glyphs)
  are `"%.6f" %` of each value, exact by construction: 10^6 is a double,
  so Dekker's product gives v * 10^6 exactly as p + e, which is rounded
  half to even with the sign bit kept, so -0.0 and small negatives print
  "-0.000000".  The text is read straight from the rows.  A block
  holding a non-finite value, or one whose v * 10^6 reaches 2^53, is
  formatted by `%` whole.

Blocks hold at most _CHUNK values, so a table's temporaries stay near
1.5 MB whatever its size.  The text of a value is a function of its 64
bits alone, so a caller that writes a run of tables (the frames of a
homotopy) keeps each table's bits and cells and the next table reuses
them at every value whose bits are unchanged, formatting only the values
that moved.  A table written alone is formatted a block of rows at a
time as it is read.  The z axis is flipped when mapping to SVG user
units (SVG y grows downward).
"""

import itertools

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import fourier

_GLYPH = {
    "up": "M {x} {yt} L {xl} {yb} L {xr} {yb} Z",
    "down": "M {x} {yb} L {xl} {yt} L {xr} {yt} Z",
}

_CSV_HEADER = "s,x,y,z,w\n"

# Rows joined into one string at a time.  A table written alone is also
# formatted a block at a time, as it is read: no later table reuses its
# text, so it is never held whole.
_CSV_BLOCK = 1024
_CHUNK = 5 * _CSV_BLOCK  # values formatted per call: temporaries stay near 1.5 MB

# A cell holds a value's text and the separator after it.  `repr` of a
# float64 is at most 24 bytes ("-2.2250738585072014e-308").
_CELL = 25
_CELL_COLUMNS = np.arange(_CELL, dtype=np.uint8)
_CSV_SEPARATORS = np.frombuffer(b",,,,\n", dtype=np.uint8)

# A value's row is 4-byte words of ASCII, one gather from this table:
# "0000" to "9999", then ".000" to ".999" for the word that carries the
# point.
_POINT = 10**4
_WORDS = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
for _place in range(4):
    _WORDS[..., _place] = np.arange(ord("0"), ord("9") + 1).reshape((10,) + (1,) * (3 - _place))
_WORDS = _WORDS.reshape(_POINT, 4)
_WORDS = np.concatenate([_WORDS, _WORDS[:1000]])
_WORDS[_POINT:, 0] = ord(".")
_WORDS = _WORDS.view(np.uint32).ravel()
del _place

# Magnitudes outside [_LEAST, _MOST] go to `repr`: scaled by 10^k, both
# they and their neighbours stay normal floats.
_LEAST, _MOST = 1e-280, 1e280
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a float64 into two 26-bit halves
_UNDECIDED = 1e-9  # the scaled values' computed error is below 1e-13
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _quads(x, out):
    """The last len(out) four-digit groups of the integers x, most
    significant first, into the rows of `out`."""
    for j in range(len(out) - 1, 0, -1):
        q = x // 10**4
        np.subtract(x, q * 10**4, out=out[j])
        x = q
    out[0] = x


def _fixed_rows(neg, number, scale, fraction_words):
    """Fixed-point text of the values -number / 10^scale where the bool
    `neg` is set and number / 10^scale elsewhere, one row of table words
    per value: a (values + 1) x R uint8 matrix whose last row is spare,
    the column of the point, and each text's first column.

    number is below 10^17 and its whole part below 10^16, scale is 0 to
    23 and fraction_words 1 to 6.  A row holds the whole part in as many
    words as the block's widest needs, with a leading zero to spare for
    the "-", then the point and 4 * fraction_words - 1 places: the
    fraction's integer (number mod 10^scale) shifted to the left of 23
    places, split at place 15 so that each half fits an int64.  The
    groups of four digits are worked out a word at a time over the
    block, and one gather from _WORDS writes every row.
    """
    n = number.size
    unit = _POW10[np.minimum(scale, 17)]
    whole = number // unit
    fraction = number - whole * unit
    shift = 23 - scale  # the fraction's places past its last digit
    cut = _POW10[np.maximum(8 - shift, 0)]
    top = fraction // cut
    low = (fraction - top * cut) * _POW10[np.minimum(shift, 8)]  # places 16 to 23
    top *= _POW10[np.maximum(shift - 8, 0)]  # places 1 to 15
    width = 1 + np.searchsorted(_POW10[1:16], whole, side="right")
    whole_words = 1 + int(width.max(initial=0)) // 4
    groups = np.empty((whole_words + 6, n), dtype=np.intp)
    _quads(whole, groups[:whole_words])
    _quads(top, groups[whole_words : whole_words + 4])
    _quads(low, groups[whole_words + 4 :])
    groups[whole_words] += _POINT
    groups = groups[: whole_words + fraction_words]
    rows = np.empty((n + 1, groups.shape[0]), dtype=np.uint32)
    rows[:-1] = np.take(_WORDS, groups).T
    rows = rows.view(np.uint8)
    point = 4 * whole_words
    digit = np.arange(point - 1, point - 1 + rows.shape[1] * n, rows.shape[1]) - width
    rows.reshape(-1)[digit] = np.where(neg, ord("-"), ord("0"))  # a zero's place
    return rows, point, point - width - neg


def _fixed_cells(neg, number, scale, places):
    """_fixed_rows' text of the values with `places` digits after the
    point (and no point where `places` is 0), at most 23: a
    (values x _CELL) uint8 cell matrix and the length of each cell's
    text.  Each cell is the _CELL bytes from its text's first, a window
    that the spare row keeps inside the rows."""
    rows, point, first = _fixed_rows(neg, number, scale, 6)
    flat = rows.reshape(-1)
    windows = as_strided(flat, (flat.size - _CELL + 1, _CELL), (1, 1), writeable=False)
    cells = windows[np.arange(0, rows.shape[1] * number.size, rows.shape[1]) + first]
    return cells, point - first + (places > 0) + places


def _interval(a):
    """(half, half_lo, k) of positive normal floats a: half the gaps up
    and down to a's neighbours (the lower one halves at a power of two),
    and the power of ten k that scales that interval's width into [1, 10)."""
    m, e = np.frexp(a)
    half = np.ldexp(1.0, e - 54)
    half_lo = np.where(m == 0.5, 0.5 * half, half)
    return half, half_lo, np.ceil(-np.log10(half + half_lo)).astype(np.intp)


def _double_double_tens(ks):
    """10^k for k in ks as float64 pairs (hi, lo) with hi + lo = 10^k to
    106 bits: each one a correctly rounded quotient of exact integers."""
    hi, lo = [], []
    for k in ks:
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    return np.array(hi), np.array(lo)


_K_LO = int(_interval(_MOST)[2])
_TEN_HI, _TEN_LO = _double_double_tens(range(_K_LO, int(_interval(_LEAST)[2]) + 1))


def _shortest_digits(a):
    """The shortest decimal digits that read back as each float of `a`
    (positive, within [_LEAST, _MOST]), and the nearest to it among
    those: (digits, count, decpt, ok).  The value is 0.d1d2... x 10^decpt
    for the first `count` of the 17 places of the integer `digits`.
    Where `ok` is False the arithmetic could not decide.

    a and both ends of its round-to-nearest interval are scaled by a
    double-double 10^k that makes the interval 1 to 10 wide; the
    integers A..B inside it are the candidates.  A multiple of 10 among
    them is the one shorter candidate (its trailing zeros go), otherwise
    the candidate nearest the scaled value is.  Undecided are an
    interval end within _UNDECIDED of an integer, the scaled value as
    near a tie, and an interval not holding 1 to 10 integers.
    """
    half, half_lo, k = _interval(a)
    ten_hi, ten_lo = _TEN_HI[k - _K_LO], _TEN_LO[k - _K_LO]

    # a * 10^k as the integer `whole` plus the fraction `scaled`: the
    # product a * ten_hi is exactly p + err (Dekker).
    p = a * ten_hi
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = ten_hi * _SPLIT
    t_hi = c - (c - ten_hi)
    t_lo = ten_hi - t_hi
    err = ((a_hi * t_hi - p) + a_hi * t_lo + a_lo * t_hi) + a_lo * t_lo
    whole = np.floor(p)
    scaled = (p - whole) + (err + a * ten_lo)
    up = scaled + (half * ten_hi + half * ten_lo)
    down = scaled - (half_lo * ten_hi + half_lo * ten_lo)
    ends = (up, down, scaled + 0.5)
    floors = [np.floor(x) for x in ends]
    ok = np.ones(a.shape, dtype=bool)
    for x, f in zip(ends, floors):
        x -= f
        ok &= (x > _UNDECIDED) & (x < 1.0 - _UNDECIDED)
    whole = whole.astype(np.int64)
    hi, lo, near = (whole + f.astype(np.int64) for f in floors)
    lo += 1
    ok &= (lo <= hi) & (hi - lo < 10)
    tens = hi - hi % 10
    shorter = (tens >= lo) & ok
    digits = np.where(shorter, tens, np.clip(near, lo, hi))
    digits[~ok] = 10**16

    # The candidates fill 16 or 17 places; a shorter one drops its
    # trailing zeros.
    width = 16 + (digits >= 10**16)
    trailing = np.zeros(a.shape, dtype=np.int64)
    stripped = np.flatnonzero(shorter)
    while stripped.size:
        trailing[stripped] += 1
        stripped = stripped[digits[stripped] % _POW10[trailing[stripped] + 1] == 0]
    return digits * _POW10[17 - width], width - trailing, width - k, ok


def _float_cells(values):
    """The text of each float64 of `values`, byte for byte its `repr`, as
    a (values x _CELL) uint8 cell matrix and the length of each cell's text.

    The digits are _shortest_digits', laid out by _fixed_cells as `repr`
    does: exponent form when the decimal point would sit at or below -4
    or past 16, a two-digit minimum exponent, and ".0" on integral fixed
    values.  A value _shortest_digits cannot decide is formatted by
    `repr` itself, as are zeros, non-finite values and magnitudes
    outside [_LEAST, _MOST].
    """
    v = np.asarray(values, dtype=np.float64)
    a = np.abs(v)
    ok = (a >= _LEAST) & (a <= _MOST)
    digits, count, decpt, decided = _shortest_digits(np.where(ok, a, 1.0))
    ok &= decided
    fixed = (decpt > -4) & (decpt <= 16)
    # An exponent form's mantissa is laid out with its point after one digit.
    point = np.where(fixed, decpt, 1)
    places = np.where(fixed, np.maximum(count - decpt, 1), count - 1)
    cells, lengths = _fixed_cells(np.signbit(v), digits, 17 - point, places)

    # Exponent form: "e", the sign and two or three digits after the mantissa.
    at = np.flatnonzero(~fixed & ok)
    if at.size:
        exponent = decpt[at] - 1
        mag = np.abs(exponent)
        three = mag >= 100
        end = lengths[at]
        cells[at, end] = ord("e")
        cells[at, end + 1] = np.where(exponent < 0, ord("-"), ord("+"))
        cells[at, end + 2] = np.where(three, mag // 100, mag // 10) + ord("0")
        cells[at, end + 3] = np.where(three, mag // 10, mag) % 10 + ord("0")
        cells[at[three], end[three] + 4] = mag[three] % 10 + ord("0")
        lengths[at] += 4 + three

    for i in np.flatnonzero(~ok).tolist():
        text = repr(float(v[i])).encode("ascii")
        cells[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
        lengths[i] = len(text)
    return cells, lengths


def _csv_cells(values, at):
    """_float_cells of `values`, a table's values at the flat indices
    `at`, each text followed by its separator ("," or, after the fifth
    column, a newline): the cells and their lengths."""
    cells, lengths = _float_cells(values)
    cells[np.arange(cells.shape[0]), lengths] = _CSV_SEPARATORS[at % 5]
    return cells, lengths + 1


def _text(cells, lengths):
    """The text of a run of cells: each cell's first `lengths` bytes."""
    return cells[_CELL_COLUMNS < lengths.astype(np.uint8)[:, None]].tobytes().decode("ascii")


def _six_place_rows(values):
    """`"%.6f" % v` of each float64 v of `values` as _fixed_rows' rows
    with three fraction words, the point's column, each text's first
    column, and where the rows hold the value: False for a non-finite
    value or one whose v * 10^6 rounds to 2^53 or more.

    10^6 is a double, so Dekker's product gives |v| * 10^6 exactly as
    p + err.  Rounding half to even, the integer nearest p + err is p's
    own, r = rint(p), unless p lies half way (|p - r| = 1/2) and err
    leans away from r.  From 2^52 up p is itself an integer and
    |err| <= 1/2, and where err = ±1/2 the product's own rounding has
    already taken the even neighbour.
    """
    v = np.asarray(values, dtype=np.float64)
    a = np.abs(v)
    ok = a < 1e10  # finite, and kept from overflowing the split
    a = np.where(ok, a, 0.0)
    p = a * 1e6
    c = a * _SPLIT
    a_hi = c - (c - a)
    err = (a_hi * 1e6 - p) + (a - a_hi) * 1e6  # 10^6 splits as itself and 0
    r = np.rint(p)
    off = p - r
    number = r.astype(np.int64)
    number += (off == 0.5) & (err > 0.0)
    number -= (off == -0.5) & (err < 0.0)
    ok &= p < 2.0**53
    return (*_fixed_rows(np.signbit(v), number, 6, 3), ok)


def _six_places(values, separators):
    """The text of each value as `"%.6f" %` writes it, each followed by
    a separator of at most five bytes (value i by separators[i % k] of
    the k), formatted _CHUNK values at a time.  A block holding a value
    its rows cannot hold is formatted by `%` whole."""
    values = np.asarray(values, dtype=np.float64).ravel()
    count = len(separators)
    out = []
    for k in range(0, values.size, _CHUNK):
        block = values[k : k + _CHUNK]
        rows, point, first, ok = _six_place_rows(block)
        if not ok.all():
            out.append("".join(
                "%.6f%s" % (v, separators[i % count]) for i, v in enumerate(block.tolist(), k)
            ))
            continue
        # Each separator goes after the sixth place, where the row has
        # room for five bytes; the text is read straight from the rows.
        rows = rows[:-1]
        ends = np.full(block.size, point + 7, dtype=np.uint8)
        for j, mark in enumerate(separators):
            at = slice((j - k) % count, None, count)
            mark = np.frombuffer(mark.encode("ascii"), dtype=np.uint8)
            rows[at, point + 7 : point + 7 + mark.size] = mark
            ends[at] += mark.size
        columns = np.arange(rows.shape[1], dtype=np.uint8)
        text = (columns >= first.astype(np.uint8)[:, None]) & (columns < ends[:, None])
        out.append(rows[text].tobytes().decode("ascii"))
    return "".join(out)


def _six_place_texts(values):
    """`"%.6f" %` of each value, as a list of strings."""
    return _six_places(values, (" ",)).split(" ")[:-1]


def loop_csv_lines(loop, kept=None):
    """An iterator over the text of the loop's CSV table s,x,y,z,w: the
    header line, then one string per block of rows, each row ending in
    a newline.

    A value is written as the `repr` of its float64, made by
    _float_cells: up to _CHUNK values at a time become a matrix of
    fixed-width cells, and a block's text is the compaction of its cells
    to their lengths.  A value that formatter's arithmetic cannot
    decide, and every zero and non-finite value, is formatted by `repr`
    itself.  Without `kept` the table is formatted a block of rows at a
    time as it is read.  `kept` is a list the caller owns, empty at
    first: the table is then formatted within the call, reusing the
    cells that `kept` holds from the previous table at every value with
    the same bits (the int64 view, so 0.0 and -0.0 differ) and
    formatting only the others, and it leaves this table's bits and
    cells in `kept` for the next one.
    """
    columns = [
        np.asarray(c, dtype=np.float64)
        for c in (fourier.grid(loop.n), loop.x, loop.y, loop.z, loop.w)
    ]
    if kept is None:

        def block(k):
            """Rows k.. of one block, formatted as they are read."""
            values = np.column_stack([c[k : k + _CSV_BLOCK] for c in columns]).ravel()
            return _text(*_csv_cells(values, np.arange(values.size)))

    else:
        values = np.column_stack(columns).ravel()
        bits = values.view(np.int64)
        if kept and kept[0].shape == bits.shape:
            moved = np.flatnonzero(bits != kept[0])
            cells, lengths = kept[1].copy(), kept[2].copy()
        else:
            moved = np.arange(bits.size)
            cells = np.empty((bits.size, _CELL), dtype=np.uint8)
            lengths = np.empty(bits.size, dtype=np.uint8)
        for k in range(0, moved.size, _CHUNK):
            at = moved[k : k + _CHUNK]
            cells[at], lengths[at] = _csv_cells(values[at], at)
        kept[:] = (bits, cells, lengths)

        def block(k):
            """Rows k.. of one block, from this table's cells."""
            at = slice(5 * k, 5 * (k + _CSV_BLOCK))
            return _text(cells[at], lengths[at])

    return itertools.chain((_CSV_HEADER,), map(block, range(0, columns[0].size, _CSV_BLOCK)))


def _placed(loop, s):
    """(x, z) at the front parameters s, one evaluation of each."""
    return loop.generator.x_interp.value(s), loop.z_interp.value(s)


def front_svg_text(loop) -> str:
    """SVG for the front of a closed loop: polyline, cusp glyphs, meeting marks.

    Cusps pointing up and down get distinct triangle glyphs (classes
    cusp-up / cusp-down), transverse crossings get circles (class
    crossing), tangential meetings get diamonds (class tangency).
    """
    x = np.asarray(loop.x, dtype=float)
    z = np.asarray(loop.z, dtype=float)

    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    z_lo, z_hi = float(np.min(z)), float(np.max(z))
    span = max(x_hi - x_lo, z_hi - z_lo, 1e-9)
    pad = 0.05 * span
    # z flips sign so that larger z is drawn higher
    vb = (x_lo - pad, -(z_hi + pad), (x_hi - x_lo) + 2 * pad, (z_hi - z_lo) + 2 * pad)

    texts = _six_place_texts([*vb, 0.006 * span, 0.004 * span])
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="%s %s %s %s">' % tuple(texts[:4]),
        "<style>path.front{fill:none;stroke:#1b3b6f;stroke-width:%s}"
        ".cusp-up{fill:#b3001b}.cusp-down{fill:#0a7d33}"
        ".crossing{fill:none;stroke:#444;stroke-width:%s}"
        ".tangency{fill:#e0a800}</style>" % tuple(texts[4:]),
    ]

    # The interleaved x, -z values, each followed by " " or " L ".
    points = np.empty(2 * x.shape[0])
    points[0::2], points[1::2] = x, -z
    steps = _six_places(points, (" ", " L "))
    parts.append('<path class="front" d="M %s Z"/>' % steps[: -len(" L ")])

    r = 0.018 * span
    cusps = loop.cusps
    cx, cz = _placed(loop, [c.s for c in cusps])
    texts = _six_place_texts(np.stack([cx, cx - r, cx + r, -cz - r, -cz + r], axis=1))
    for k, cusp in enumerate(cusps):
        kind = cusp.orientation.value
        x0, xl, xr, yt, yb = texts[5 * k : 5 * k + 5]
        d = _GLYPH[kind].format(x=x0, xl=xl, xr=xr, yt=yt, yb=yb)
        parts.append('<path class="cusp-%s" d="%s"/>' % (kind, d))

    cx, cz = _placed(loop, [s0 for s0, _s1 in loop.double_points])
    texts = _six_place_texts(np.stack([cx, -cz, np.full_like(cx, r)], axis=1))
    for k in range(0, len(texts), 3):
        parts.append('<circle class="crossing" cx="%s" cy="%s" r="%s"/>' % tuple(texts[k : k + 3]))
    cx, cz = _placed(loop, [s0 for s0, _s1 in loop.self_tangencies])
    texts = _six_place_texts(
        np.stack([cx - r, -cz, cx, -cz - r, cx + r, -cz, cx, -cz + r], axis=1)
    )
    for k in range(0, len(texts), 8):
        parts.append(
            '<path class="tangency" d="M %s %s L %s %s L %s %s L %s %s Z"/>'
            % tuple(texts[k : k + 8])
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
