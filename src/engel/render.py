"""Deterministic SVG pictures of fronts and CSV tables of lifted loops.

Output is a pure function of the input data: no timestamps, no
randomness, so identical inputs give byte-identical files.  SVG
coordinates are fixed-point with six decimals.  CSV values are Python's
shortest round-trip `repr` of each float64 sample, byte for byte, found
for a whole block of values at once by one vectorized formatter that
writes each value's text into a fixed-width byte cell; a value whose
digits its arithmetic cannot decide (zeros, non-finite values, a rare
near-tie) is formatted by `repr` itself.  The text of a value is a
function of its 64 bits alone, so a caller that writes a run of tables
(the frames of a homotopy) keeps each table's bits and cells and the
next table reuses them at every value whose bits are unchanged,
formatting only the values that moved.  A table written alone is
formatted a block of rows at a time as it is read.  The z axis is
flipped when mapping to SVG user units (SVG y grows downward).
"""

import itertools

import numpy as np

from . import fourier

_GLYPH = {
    "up": "M {x} {yt} L {xl} {yb} L {xr} {yb} Z",
    "down": "M {x} {yb} L {xl} {yt} L {xr} {yt} Z",
}


def _fmt(v: float) -> str:
    return "%.6f" % float(v)


_CSV_HEADER = "s,x,y,z,w\n"

# Rows joined into one string at a time.  A table written alone is also
# formatted a block at a time, as it is read: no later table reuses its
# text, so it is never held whole.
_CSV_BLOCK = 1024
_CSV_CHUNK = 5 * _CSV_BLOCK  # values formatted per call: temporaries stay near 1.5 MB
_CSV_SEPARATORS = np.frombuffer(b",,,,\n", dtype=np.uint8)

# A cell holds a value's text and the separator after it.  `repr` of a
# float64 is at most 24 bytes ("-2.2250738585072014e-308").
_CELL = 26
_CELL_COLUMNS = np.arange(_CELL, dtype=np.int8)

# Magnitudes outside [_LEAST, _MOST] go to `repr`: scaled by 10^k, both
# they and their neighbours stay normal floats.
_LEAST, _MOST = 1e-280, 1e280
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a float64 into two 26-bit halves
_UNDECIDED = 1e-9  # the scaled values' computed error is below 1e-13
_POW10 = 10 ** np.arange(19, dtype=np.int64)


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


def _blend(mask, a, b):
    """a where the uint8 mask is 0xFF, b where it is 0."""
    return b ^ ((a ^ b) & mask)


def _float_cells(values):
    """The text of each float64 of `values`, byte for byte its `repr`, as
    a (values x _CELL) uint8 cell matrix and the length of each cell's text.

    The digits are _shortest_digits', laid out as `repr` does: exponent
    form when the decimal point would sit at or below -4 or past 16, a
    two-digit minimum exponent, and ".0" on integral fixed values.  A
    value _shortest_digits cannot decide is formatted by `repr` itself,
    as are zeros, non-finite values and magnitudes outside
    [_LEAST, _MOST].
    """
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    a = np.abs(v)
    ok = (a >= _LEAST) & (a <= _MOST)
    digits, count, decpt, decided = _shortest_digits(np.where(ok, a, 1.0))
    ok &= decided
    fixed = (decpt > -4) & (decpt <= 16)
    zeros = np.where(fixed & (decpt < 1), 1 - decpt, 0)  # the leading "0.00"
    dot = np.where(fixed, np.maximum(decpt, 1), 1)

    # The digits shifted right by `zeros` in a 27-place field of three
    # 9-digit limbs, then written out a place at a time.
    head, tail = np.divmod(digits, 10**8)
    first, carry = np.divmod(head, _POW10[zeros])
    second, third = np.divmod(tail * _POW10[10 - zeros], 10**9)
    second += carry * _POW10[9 - zeros]
    limbs = np.stack([first, second, third], axis=1).astype(np.int32)
    field = np.empty((n, 3, 9), dtype=np.uint8)
    for place in range(8, -1, -1):
        q = limbs // 10
        field[:, :, place] = limbs - q * 10
        limbs = q
    field = field.reshape(n, 27)[:, :_CELL]
    field += ord("0")

    # Columns before `dot` keep the field, `dot` takes the point and the
    # columns after it the field one byte on; negative values shift
    # right behind a "-".  A shift moves the whole flat matrix one byte.
    flat = np.empty(n * _CELL + 1, dtype=np.uint8)
    flat[1:] = field.ravel()
    rel = _CELL_COLUMNS - dot.astype(np.int8)[:, None]
    cells = _blend((rel >> 7).view(np.uint8), field, flat[:-1].reshape(n, _CELL))
    cells = _blend((rel == 0).view(np.uint8) * np.uint8(255), np.uint8(ord(".")), cells)
    neg = np.signbit(v)
    if neg.any():
        flat[1:] = cells.ravel()
        shifted = flat[:-1].reshape(n, _CELL)
        shifted[:, 0] = ord("-")
        cells = _blend(neg.view(np.uint8)[:, None] * np.uint8(255), shifted, cells)
    # A fixed value's text has at least one digit after its point; a lone
    # digit before an exponent has no point.
    lengths = neg + np.where(
        fixed, dot + 1 + np.maximum(count + zeros - dot, 1), count + (count > 1)
    )

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
    return cells[_CELL_COLUMNS < lengths[:, None]].tobytes().decode("ascii")


def loop_csv_lines(loop, kept=None):
    """An iterator over the text of the loop's CSV table s,x,y,z,w: the
    header line, then one string per block of rows, each row ending in
    a newline.

    A value is written as the `repr` of its float64, made by
    _float_cells: up to _CSV_CHUNK values at a time become a matrix of
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
        for k in range(0, moved.size, _CSV_CHUNK):
            at = moved[k : k + _CSV_CHUNK]
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

    parts = []
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="%s %s %s %s">'
        % tuple(_fmt(v) for v in vb)
    )
    parts.append(
        "<style>path.front{fill:none;stroke:#1b3b6f;stroke-width:%s}"
        ".cusp-up{fill:#b3001b}.cusp-down{fill:#0a7d33}"
        ".crossing{fill:none;stroke:#444;stroke-width:%s}"
        ".tangency{fill:#e0a800}</style>"
        % (_fmt(0.006 * span), _fmt(0.004 * span))
    )

    # One format over the interleaved x, -z values, each as _fmt writes it.
    points = np.empty(2 * x.shape[0])
    points[0::2], points[1::2] = x, -z
    steps = "M %.6f %.6f" + " L %.6f %.6f" * (x.shape[0] - 1) + " Z"
    parts.append('<path class="front" d="%s"/>' % (steps % tuple(points.tolist())))

    r = 0.018 * span
    cusps = loop.cusps
    for cusp, cx, cz in zip(cusps, *_placed(loop, [c.s for c in cusps])):
        kind = cusp.orientation.value
        d = _GLYPH[kind].format(
            x=_fmt(cx), xl=_fmt(cx - r), xr=_fmt(cx + r),
            yt=_fmt(-cz - r), yb=_fmt(-cz + r),
        )
        parts.append('<path class="cusp-%s" d="%s"/>' % (kind, d))

    for cx, cz in zip(*_placed(loop, [s0 for s0, _s1 in loop.double_points])):
        parts.append(
            '<circle class="crossing" cx="%s" cy="%s" r="%s"/>'
            % (_fmt(cx), _fmt(-cz), _fmt(r))
        )
    for cx, cz in zip(*_placed(loop, [s0 for s0, _s1 in loop.self_tangencies])):
        parts.append(
            '<path class="tangency" d="M %s %s L %s %s L %s %s L %s %s Z"/>'
            % (
                _fmt(cx - r), _fmt(-cz), _fmt(cx), _fmt(-cz - r),
                _fmt(cx + r), _fmt(-cz), _fmt(cx), _fmt(-cz + r),
            )
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
