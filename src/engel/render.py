"""Deterministic SVG pictures of fronts and CSV tables of lifted loops.

Output is a pure function of the input data: no timestamps, no
randomness, so identical inputs give byte-identical files.  SVG
coordinates are fixed-point with six decimals.  CSV values are Python's
shortest round-trip `repr` of each float64 sample.  The text of a value
is a function of its 64 bits alone, so a table that follows another
(the frames of a homotopy) reuses the previous table's text at every row
where a column's bits are unchanged and formats only the values that
moved.  The z axis is flipped when mapping to SVG user units (SVG y
grows downward).
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

# Column formatters; the last one ends the row.
_CSV_FORMATS = (repr, repr, repr, repr, "{!r}\n".format)

# Rows of a last table formatted at a time: no later table reuses its
# text, so it is formatted as it is read and never held whole.
_CSV_BLOCK = 1024


def _column_text(fmt, values, bits, old):
    """One column's text as an object array: the previous table's text
    where the bits did not move, fmt(value) elsewhere.  `old` is that
    column's (text, bits), or None to format every value."""
    if old is None:
        text, moved = np.empty(values.size, dtype=object), slice(None)
    else:
        text, moved = old[0].copy(), np.flatnonzero(bits != old[1])
    text[moved] = list(map(fmt, values[moved].tolist()))
    return text


def _table_text(columns, bits, old, rows):
    """The text of every column over `rows` (a slice)."""
    return [
        _column_text(fmt, c[rows], b[rows], None if o is None else (o[0][rows], o[1][rows]))
        for fmt, c, b, o in zip(_CSV_FORMATS, columns, bits, old)
    ]


def _lines(text):
    return map(",".join, zip(*(t.tolist() for t in text)))


def _block_lines(columns, bits, old):
    for start in range(0, columns[0].size, _CSV_BLOCK):
        yield from _lines(_table_text(columns, bits, old, slice(start, start + _CSV_BLOCK)))


def loop_csv_lines(loops):
    """For each loop in turn, an iterator over the lines of its CSV table
    s,x,y,z,w (header first, each line ending in a newline).

    A value is written as the `repr` of its float64.  A column reuses the
    previous loop's text at every row whose value has the same bits (the
    int64 view, so 0.0 and -0.0 differ) and formats only the others.
    A table's lines may be read after later tables have been yielded.
    """
    loops = iter(loops)
    loop, old = next(loops, None), [None] * 5
    while loop is not None:
        following = next(loops, None)
        columns = [
            np.asarray(c, dtype=np.float64)
            for c in (fourier.grid(loop.n), loop.x, loop.y, loop.z, loop.w)
        ]
        bits = [c.view(np.int64).copy() for c in columns]
        if old[0] is not None and old[0][1].shape != bits[0].shape:
            old = [None] * 5
        if following is None:
            lines = _block_lines(columns, bits, old)
        else:
            text = _table_text(columns, bits, old, slice(None))
            old = list(zip(text, bits))
            lines = _lines(text)
        yield itertools.chain((_CSV_HEADER,), lines)
        loop = following


def front_svg_text(loop) -> str:
    """SVG for the front of a closed loop: polyline, cusp glyphs, meeting marks.

    Cusps pointing up and down get distinct triangle glyphs (classes
    cusp-up / cusp-down), transverse crossings get circles (class
    crossing), tangential meetings get diamonds (class tangency).
    """
    x = np.asarray(loop.x, dtype=float)
    z = np.asarray(loop.z, dtype=float)
    x_of, z_of = loop.generator.x_interp.value, loop.z_interp.value

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
    for cusp in loop.cusps:
        cx, cz = cusp.position
        kind = cusp.orientation.value
        d = _GLYPH[kind].format(
            x=_fmt(cx), xl=_fmt(cx - r), xr=_fmt(cx + r),
            yt=_fmt(-cz - r), yb=_fmt(-cz + r),
        )
        parts.append('<path class="cusp-%s" d="%s"/>' % (kind, d))

    for s0, _s1 in loop.double_points:
        cx, cz = x_of(s0), z_of(s0)
        parts.append(
            '<circle class="crossing" cx="%s" cy="%s" r="%s"/>'
            % (_fmt(cx), _fmt(-cz), _fmt(r))
        )
    for s0, _s1 in loop.self_tangencies:
        cx, cz = x_of(s0), z_of(s0)
        parts.append(
            '<path class="tangency" d="M %s %s L %s %s L %s %s L %s %s Z"/>'
            % (
                _fmt(cx - r), _fmt(-cz), _fmt(cx), _fmt(-cz - r),
                _fmt(cx + r), _fmt(-cz), _fmt(cx), _fmt(-cz + r),
            )
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
