"""Deterministic SVG pictures of fronts and CSV tables of lifted loops.

Output is a pure function of the input data: no timestamps, no
randomness, so identical inputs give byte-identical files.  SVG
coordinates are fixed-point with six decimals.  CSV values are Python's
shortest round-trip `repr` of each float64 sample.  The text of a value
is a function of its 64 bits alone, so a caller that writes a run of
tables (the frames of a homotopy) keeps each table's text and the next
table reuses it at every value whose bits are unchanged, formatting only
the values that moved.  A table written alone is formatted a block of
rows at a time as it is read.  The z axis is flipped when mapping to
SVG user units (SVG y grows downward).
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


def _column_text(values, bits=None, old=None):
    """One column's text as an object array: the previous table's text
    where the bits did not move, repr(value) elsewhere.  `old` is that
    column's (text, bits), or None to format every value."""
    if old is None:
        text, moved = np.empty(values.size, dtype=object), slice(None)
    else:
        text, moved = old[0].copy(), np.flatnonzero(bits != old[1])
    text[moved] = list(map(repr, values[moved].tolist()))
    return text


def loop_csv_lines(loop, kept=None):
    """An iterator over the text of the loop's CSV table s,x,y,z,w: the
    header line, then one string per block of rows, each row ending in
    a newline.

    A value is written as the `repr` of its float64.  Without `kept` the
    table is formatted a block of rows at a time as it is read.  `kept`
    is a list the caller owns, empty at first: the table is then
    formatted within the call, reusing the text that `kept` holds from
    the previous table at every row whose value has the same bits (the
    int64 view, so 0.0 and -0.0 differ) and formatting only the others,
    and it leaves this table's text in `kept` for the next one.
    """
    columns = [
        np.asarray(c, dtype=np.float64)
        for c in (fourier.grid(loop.n), loop.x, loop.y, loop.z, loop.w)
    ]
    text = None
    if kept is not None:
        bits = [c.view(np.int64).copy() for c in columns]
        old = kept if kept and kept[0][1].shape == bits[0].shape else [None] * 5
        text = [_column_text(c, b, o) for c, b, o in zip(columns, bits, old)]
        kept[:] = zip(text, bits)

    def block(rows):
        """The rows' lines as one string: one format over their interleaved cells."""
        cells = [_column_text(c[rows]) for c in columns] if text is None else [t[rows] for t in text]
        return ("%s,%s,%s,%s,%s\n" * cells[0].size) % tuple(np.stack(cells, axis=1).ravel().tolist())

    starts = range(0, columns[0].size, _CSV_BLOCK)
    return itertools.chain((_CSV_HEADER,), (block(slice(k, k + _CSV_BLOCK)) for k in starts))


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
