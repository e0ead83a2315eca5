"""The exact symmetries of the Engel structure as a standing oracle.

A symmetry of D = ker(dz - y dx) ∩ ker(dw - z dx) that is exact on the
sampling grid acts on every certificate in a known way, so a certificate
that breaks that action is wrong in at least one of the two images.  The
oracle is the program run twice; it knows no answer of its own.

The images here are exact on the samples at N = 1024:

- rolls s -> s + j/N (the samples rolled back by j);
- the reversal s -> -s (the samples reversed, then rolled by 1);
- the sign flips (-x, y) and (x, -y), the Engel dilations
  (x, y, z, w) -> (lx, my, lm z, l^2 m w) with (l, m) = (-1, 1), (1, -1).

The known action:

- `closed`, the embedded verdict and the cusp count are kept;
- rot is negated by the reversal and by each sign flip;
- a double point (s0, s1) maps to (s0 - j/N, s1 - j/N) mod 1 under a
  roll, and to (-s1, -s0) mod 1 under the reversal;
- dw = w(s1) - w(s0) is kept by a roll, negated by the reversal and
  multiplied by l^2 m under a flip.  A pair reported with its two ends
  in the other order (as at the seam, where s0 = 0 may read 1) has its
  dw negated too.

Equivariance is not truth: `shifted` is wrong in the same way in every
image (its tangent double point is missed), so for it only the verdicts
are compared.  Dilations by other powers of two are exact as well, but
the tolerances are absolute today (ROADMAP item 20), and the two false
certificates that this exposes are pinned as strict xfails.
"""

import json
import os
from importlib import resources

import numpy as np
import pytest

from engel import cli, curves, frontlang, invariants, lifting
from engel.curves import LegendrianGenerator, TrigSeries
from engel.frontlang import Document, GeneratorDescription

N = 1024
ZERO_AREA = str(resources.files("engel.data").joinpath("zero_area.front"))
DEMO = str(resources.files("engel.data").joinpath("demo.front"))
SHIFTED = os.path.join(os.path.dirname(__file__), "data", "shifted_symmetric.front")
# A double point is found to about 5e-14 in s, and dw to rounding level.
PAIR_TOL = 1e-9
DW_TOL = 1e-12


def described(path, name):
    with open(path, "r", encoding="utf-8") as handle:
        return frontlang.parse(handle.read()).generator(name)


def sampled(desc):
    return curves.sample_generator((desc.x, desc.y), N)


# (input, its generator, whether its double points are trusted)
INPUTS = {
    "mirror": (lambda: sampled(described(ZERO_AREA, "mirror")), True),
    "circ": (lambda: lifting.balance_closure(sampled(described(DEMO, "circ"))), True),
    "shifted": (lambda: sampled(described(SHIFTED, "shifted")), False),
}


def certificates(g):
    """What `engel check` and `engel rot` certify about g's lift."""
    loop = lifting.lift(g)
    report = invariants.invariant_report(loop)
    embedding = lifting.embedding_check(loop) if loop.closed else None
    return {
        "closed": loop.closed,
        "embedded": embedding is not None and embedding.embedded,
        "double_points": () if embedding is None else embedding.double_points,
        "rot": (report["rot_winding"], report["rot_cusp"]),
        "cusps": report["c_plus"] + report["c_minus"],
    }


def rolled(g, j):
    return LegendrianGenerator(np.roll(g.x, -j), np.roll(g.y, -j))


def reversed_(g):
    return LegendrianGenerator(np.roll(g.x[::-1], 1), np.roll(g.y[::-1], 1))


# (image, its rot sign, its map of one double point (s0, s1, dw))
IMAGES = {
    "roll 1": (lambda g: rolled(g, 1), 1, lambda s0, s1, dw: (s0 - 1 / N, s1 - 1 / N, dw)),
    "roll 7": (lambda g: rolled(g, 7), 1, lambda s0, s1, dw: (s0 - 7 / N, s1 - 7 / N, dw)),
    "roll N/2": (lambda g: rolled(g, N // 2), 1, lambda s0, s1, dw: (s0 - 0.5, s1 - 0.5, dw)),
    "reversal": (reversed_, -1, lambda s0, s1, dw: (-s1, -s0, -dw)),
    "(-x, y)": (lambda g: LegendrianGenerator(-g.x, g.y), -1, lambda s0, s1, dw: (s0, s1, dw)),
    "(x, -y)": (lambda g: LegendrianGenerator(g.x, -g.y), -1, lambda s0, s1, dw: (s0, s1, -dw)),
}


def circular_gap(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def assert_pairs_match(got, want):
    """Each wanted (s0, s1, dw) is one got triple, matched circularly in
    either order of its ends; the swapped order negates dw."""
    assert len(got) == len(want)
    for s0, s1, dw in want:
        (match,) = [sign * t[2] for t in got for sign, a, b in ((1, *t[:2]), (-1, t[1], t[0]))
                    if circular_gap(a, s0) <= PAIR_TOL and circular_gap(b, s1) <= PAIR_TOL]
        assert match == pytest.approx(dw, rel=1e-9, abs=DW_TOL)


@pytest.fixture(scope="module")
def bases():
    return {name: (make(), trusted) for name, (make, trusted) in INPUTS.items()}


@pytest.mark.parametrize("image", sorted(IMAGES))
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_an_exact_symmetry_acts_on_the_certificates_as_known(bases, name, image):
    g, trusted = bases[name]
    act, rot_sign, move = IMAGES[image]
    base, seen = certificates(g), certificates(act(g))
    assert seen["closed"] == base["closed"]
    assert seen["embedded"] == base["embedded"]
    assert seen["cusps"] == base["cusps"]
    assert seen["rot"] == tuple(rot_sign * r for r in base["rot"])
    if trusted:
        want = [move(*t) for t in base["double_points"]]
        assert_pairs_match(seen["double_points"], want)


def dilated(desc, lam, mu):
    """desc with x scaled by lam and y by mu, coefficient by coefficient."""
    def scaled(series, c):
        return TrigSeries(c * series.constant, {k: c * v for k, v in series.cos.items()},
                          {k: c * v for k, v in series.sin.items()})
    return GeneratorDescription(desc.name, scaled(desc.x, lam), scaled(desc.y, mu))


def engel_check(tmp_path, capsys, desc):
    """`engel check` at N samples on a document holding desc alone:
    (exit code, JSON report)."""
    path = tmp_path / ("%s.front" % desc.name)
    path.write_text(frontlang.emit(Document(generators=(desc,))), encoding="utf-8")
    code = cli.main(["check", str(path), desc.name, "--samples", str(N)])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0)])
@pytest.mark.parametrize("name", ["mirror", "shifted"])
def test_engel_check_on_a_flipped_document_is_the_library_certificate(
    tmp_path, capsys, name, lam, mu
):
    desc = dilated(described(ZERO_AREA if name == "mirror" else SHIFTED, name), lam, mu)
    code, payload = engel_check(tmp_path, capsys, desc)
    loop = lifting.lift(sampled(desc))
    assert payload["closure"] == {
        "defect_z": loop.closure_defect_z, "defect_w": loop.closure_defect_w, "closed": True,
    }
    embedding = lifting.embedding_check(loop)
    assert payload["embedding"]["double_points"] == [
        {"s0": s0, "s1": s1, "dw": dw} for s0, s1, dw in embedding.double_points
    ]
    assert code == (0 if embedding.embedded else 3)
    assert embedding.embedded == (name == "shifted")


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 20: the closure tolerance is absolute, so the 2^-16 image "
    "of a curve with z defect -pi, whose defect is -pi 2^-32, is called closed",
)
def test_a_dilation_keeps_an_open_curve_open(tmp_path, capsys):
    base = GeneratorDescription(
        "open", TrigSeries(cos={1: 1.0, 2: 0.4}), TrigSeries(sin={1: 1.0, 3: 0.3})
    )
    code, payload = engel_check(tmp_path, capsys, base)
    assert payload["closure"]["defect_z"] == pytest.approx(-np.pi, rel=1e-12)
    assert (code, payload["closure"]["closed"]) == (3, False)
    code, payload = engel_check(tmp_path, capsys, dilated(base, 2.0**-16, 2.0**-16))
    assert payload["closure"]["defect_z"] == pytest.approx(-np.pi * 2.0**-32, rel=1e-12)
    assert (code, payload["closure"]["closed"]) == (3, False)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 20: the pair scan's tolerance and damping are absolute, so "
    "the mirror with y scaled by 2^20 loses its double point and is called embedded",
)
def test_a_dilation_keeps_the_mirror_not_embedded(tmp_path, capsys):
    mirror = dilated(described(ZERO_AREA, "mirror"), 1.0, 2.0**20)
    code, payload = engel_check(tmp_path, capsys, mirror)
    assert payload["closure"]["closed"] is True
    assert code == 3
    (pair,) = payload["embedding"]["double_points"]
    assert (pair["s0"], pair["s1"]) == (0.0, 0.5)
