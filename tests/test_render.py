"""SVG and CSV emission: counts, bounds, and byte-level determinism."""

import xml.etree.ElementTree as ET

import numpy as np

from engel import curves, fourier, lifting, models, render

from helpers import mirror_loop, mirror_w


def balanced_circle(n=1024):
    s = fourier.grid(n)
    g = curves.LegendrianGenerator(np.cos(fourier.TAU * s), np.sin(fourier.TAU * s))
    return lifting.lift(lifting.balance_closure(g))


def test_two_cusp_front_draws_two_cusp_glyphs():
    front = curves.front_of(balanced_circle())
    assert len(front.cusps) == 2
    text = render.front_svg_text(front)
    assert text.count('class="cusp-') == 2


def test_crossings_get_annotated():
    front = curves.front_of(balanced_circle())
    text = render.front_svg_text(front)
    assert text.count('class="crossing"') == len(front.double_points)
    assert len(front.double_points) > 0


def test_orientation_surplus_matches_rotation_number():
    front = curves.front_of(models.model_front(3, seed=0, samples=2048))
    text = render.front_svg_text(front)
    down = text.count('class="cusp-down"')
    up = text.count('class="cusp-up"')
    assert down - up == 6


def test_svg_is_well_formed_and_viewbox_fits_with_margin():
    front = curves.front_of(balanced_circle())
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


def test_identical_input_gives_byte_identical_svg(tmp_path):
    front = curves.front_of(balanced_circle())
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    render.render_svg(front, a)
    render.render_svg(front, b)
    assert a.read_bytes() == b.read_bytes()


def test_csv_values_round_trip_exactly():
    loop = balanced_circle(n=256)
    text = render.loop_csv_text(loop)
    lines = text.strip().split("\n")
    assert lines[0] == "s,x,y,z,w"
    assert len(lines) == 257
    g = loop.generator
    z = np.asarray(loop.legendrian.z)
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
    loop = curves.HorizontalLoop(mirror_loop(n), mirror_w(s), 0.0, 0.0)
    lines = render.loop_csv_text(loop).strip().split("\n")
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
    leg = curves.LegendrianLoop(curves.LegendrianGenerator(x, y), z, 0.1, 0.0)
    loop = curves.HorizontalLoop(leg, w, 0.0, 0.0)
    want = "s,x,y,z,w\n"
    for k in range(n):
        values = (k / n, x[k], y[k], z[k], w[k])
        want += ",".join(repr(float(v)) for v in values) + "\n"
    got = render.loop_csv_text(loop)
    assert got == want
    assert "-0.0," in got and "e-05," in got and "e+17," in got
