"""Deterministic SVG pictures of fronts and CSV tables of lifted loops.

Output is a pure function of the input data: fixed float formatting, no
timestamps, no randomness, so identical inputs give byte-identical
files.  The z axis is flipped when mapping to SVG user units (SVG y
grows downward).
"""

import numpy as np

from . import fourier

_GLYPH = {
    "up": "M {x} {yt} L {xl} {yb} L {xr} {yb} Z",
    "down": "M {x} {yb} L {xl} {yt} L {xr} {yt} Z",
}


def _fmt(v: float) -> str:
    return "%.6f" % float(v)


def loop_csv_text(loop) -> str:
    """CSV table s,x,y,z,w of a horizontal loop, full decimal precision."""
    g = loop.generator
    columns = (fourier.grid(g.n), g.x, g.y, loop.legendrian.z, loop.w)
    rows = zip(*(map(repr, np.asarray(c, dtype=float).tolist()) for c in columns))
    return "s,x,y,z,w\n" + "".join(",".join(row) + "\n" for row in rows)


def front_svg_text(front) -> str:
    """SVG for a front diagram: polyline, cusp glyphs, meeting marks.

    Cusps pointing up and down get distinct triangle glyphs (classes
    cusp-up / cusp-down), transverse crossings get circles (class
    crossing), tangential meetings get diamonds (class tangency).
    """
    x = np.asarray(front.x, dtype=float)
    z = np.asarray(front.z, dtype=float)
    x_at, z_at = front.loop.generator.x_at, front.loop.z_at

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

    steps = ["M %s %s" % (_fmt(x[0]), _fmt(-z[0]))]
    for k in range(1, x.shape[0]):
        steps.append("L %s %s" % (_fmt(x[k]), _fmt(-z[k])))
    steps.append("Z")
    parts.append('<path class="front" d="%s"/>' % " ".join(steps))

    r = 0.018 * span
    for cusp in front.cusps:
        cx, cz = cusp.position
        kind = cusp.orientation.value
        d = _GLYPH[kind].format(
            x=_fmt(cx), xl=_fmt(cx - r), xr=_fmt(cx + r),
            yt=_fmt(-cz - r), yb=_fmt(-cz + r),
        )
        parts.append('<path class="cusp-%s" d="%s"/>' % (kind, d))

    for s0, _s1 in front.double_points:
        cx, cz = x_at(s0), z_at(s0)
        parts.append(
            '<circle class="crossing" cx="%s" cy="%s" r="%s"/>'
            % (_fmt(cx), _fmt(-cz), _fmt(r))
        )
    for s0, _s1 in front.self_tangencies:
        cx, cz = x_at(s0), z_at(s0)
        parts.append(
            '<path class="tangency" d="M %s %s L %s %s L %s %s L %s %s Z"/>'
            % (
                _fmt(cx - r), _fmt(-cz), _fmt(cx), _fmt(-cz - r),
                _fmt(cx + r), _fmt(-cz), _fmt(cx), _fmt(-cz + r),
            )
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_svg(front, path) -> None:
    """Write the SVG picture of a front diagram to a file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(front_svg_text(front))
