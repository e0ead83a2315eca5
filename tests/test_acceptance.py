"""Acceptance gate: one test and one printed verdict line per criterion.

Every tolerance is pinned here as a module constant.  Each test gathers
its violations into a list and prints a single "criterion N (...):
PASS/FAIL" line before asserting, so a full run of this module reads as
a seven-line scorecard (pytest -s shows the lines as they happen).
"""

import contextlib
import importlib.resources
import io
import json
import random
import time

import numpy as np

from engel import cli, curves, fourier, frontlang, invariants, lifting, models
from engel.errors import FrontSyntaxError
from engel.homotopy import Move, script_frames, tangency_profile, verify_isotopy

from helpers import horizontality_residual

TAU = fourier.TAU

TOL_DEFECT = 1e-9
TOL_MARGIN = 1e-7
RATIO_FLOOR = 3.5
CUSP_DERIVATIVE_BOUND = 1e-8
MODEL_BUDGET_SECONDS = 60.0
WORKING_GRID = 4096

# Frozen output of the sample-only quadrature oracle, computed without
# this package before wiring the test:
#   M = 1_000_000; s = arange(M) / M
#   x = cos(2 pi s); z = sin(2 pi s)
#   oracle = dot(z, roll(x, -1) - x) = -3.1415926535691217
# The sum itself sits 2.07e-11 from -pi, so agreement with both the
# oracle and -pi is demanded at 1e-10.
RIEMANN_ORACLE = -3.1415926535691217
QUADRATURE_TOL = 1e-10


def conclude(num, title, problems):
    verdict = "PASS" if not problems else "FAIL: " + "; ".join(problems)
    print("criterion %d (%s): %s" % (num, title, verdict))
    assert not problems, problems


def circle_generator(n):
    s = fourier.grid(n)
    return curves.LegendrianGenerator(
        np.cos(TAU * s), np.sin(TAU * s)
    )


def mirror_generator(n):
    s = fourier.grid(n)
    return curves.LegendrianGenerator(
        np.cos(TAU * s) - np.cos(3 * TAU * s), np.sin(5 * TAU * s)
    )


def fish_generator(n):
    s = fourier.grid(n)
    return curves.LegendrianGenerator(np.cos(TAU * s), np.sin(3 * TAU * s))


def data_path(name):
    return str(importlib.resources.files("engel").joinpath("data", name))


def test_criterion_1_models_realize_every_rotation_number():
    problems = []
    t0 = time.monotonic()
    for n in range(-5, 6):
        for seed in (0, 1, 2):
            tag = "n=%d seed=%d" % (n, seed)
            loop = models.model_front(n, seed=seed, samples=WORKING_GRID)
            report = invariants.invariant_report(loop)
            if report["rot_winding"] != n or report["rot_cusp"] != n:
                problems.append(
                    "%s: rot (%d, %d)" % (tag, report["rot_winding"], report["rot_cusp"])
                )
            dz = loop.closure_defect_z
            dw = loop.closure_defect_w
            if max(abs(dz), abs(dw)) > TOL_DEFECT:
                problems.append("%s: defects (%.2e, %.2e)" % (tag, dz, dw))
            margin = lifting.embedding_check(loop).margin
            if not margin > TOL_MARGIN:
                problems.append("%s: margin %.2e" % (tag, margin))
    elapsed = time.monotonic() - t0
    if elapsed > MODEL_BUDGET_SECONDS:
        problems.append("runtime %.1fs exceeds %.0fs" % (elapsed, MODEL_BUDGET_SECONDS))
    conclude(1, "model realization, 33 loops in %.1fs" % elapsed, problems)


def test_criterion_2_both_rotation_routes_agree_on_a_random_corpus():
    # Corpus members are balanced by construction: the sampled slope is
    # corrected along two fixed profiles (x' and the second sine) whose
    # closure functionals make a well-conditioned 2x2 system, so the
    # harmonic content stays within degree 8.  Samples needing a large
    # correction or lacking a uniform speed floor are redrawn; both are
    # input-tameness constraints, independent of the identity under test.
    problems = []
    rng = random.Random(20260816)
    n = WORKING_GRID
    s = fourier.grid(n)

    def closure_pair(x, y):
        g = curves.LegendrianGenerator(x, y)
        return np.array(
            [lifting.z_closure_defect(g), lifting.w_closure_defect(g)]
        )

    accepted = 0
    for tried in range(2000):
        if accepted == 100:
            break
        x = np.cos(TAU * s)
        y = 2.0 * np.sin(rng.randint(1, 4) * TAU * s)
        for k in range(1, 9):
            x += 0.5 * (
                rng.uniform(-1, 1) * np.cos(k * TAU * s)
                + rng.uniform(-1, 1) * np.sin(k * TAU * s)
            ) / (k * k)
            y += 0.5 * (
                rng.uniform(-1, 1) * np.cos(k * TAU * s)
                + rng.uniform(-1, 1) * np.sin(k * TAU * s)
            ) / (k * k)
        eta1 = fourier.derivative(x)
        eta2 = np.sin(2 * TAU * s)
        matrix = np.column_stack([closure_pair(x, eta1), closure_pair(x, eta2)])
        if abs(np.linalg.det(matrix)) < 1e-9:
            continue
        coeff = np.linalg.solve(matrix, closure_pair(x, y))
        if abs(coeff[0]) > 1.0 or abs(coeff[1]) > 2.0:
            continue
        y = y - coeff[0] * eta1 - coeff[1] * eta2
        g = curves.LegendrianGenerator(x, y)
        if g.min_speed()[1] < 1.0:
            continue
        accepted += 1
        try:
            bal = lifting.balance_closure(g)
            via_winding = invariants.rot_winding(bal)
            via_cusps = invariants.rot_cusp(lifting.lift(bal))
        except Exception as err:
            problems.append("sample %d raised %s" % (tried, type(err).__name__))
            continue
        if via_winding != via_cusps:
            problems.append(
                "sample %d: winding %d vs cusps %d" % (tried, via_winding, via_cusps)
            )
    if accepted != 100:
        problems.append("only %d corpus members in 2000 draws" % accepted)
    conclude(2, "rotation-number consistency on 100 generators", problems)


def test_criterion_3_lift_converges_at_second_order_and_cusps_are_flat():
    problems = []
    families = (
        ("circle", circle_generator),
        ("mirror", mirror_generator),
        ("fish", fish_generator),
    )
    for name, family in families:
        residuals = []
        for n in (512, 1024, 2048):
            loop = lifting.lift(lifting.balance_closure(family(n)))
            residuals.append(horizontality_residual(loop))
        for which in (0, 1):
            for step in (0, 1):
                ratio = residuals[step][which] / residuals[step + 1][which]
                if ratio < RATIO_FLOOR:
                    problems.append(
                        "%s residual %d ratio %.2f at doubling %d"
                        % (name, which, ratio, step)
                    )
    cusp_cases = (
        ("circle", lifting.lift(lifting.balance_closure(circle_generator(2048)))),
        ("model+3", models.model_front(3, seed=1, samples=2048)),
        ("model-2", models.model_front(-2, seed=0, samples=2048)),
    )
    for name, loop in cusp_cases:
        z_rate = fourier.Interpolant(np.asarray(loop.z))
        w_rate = fourier.Interpolant(np.asarray(loop.w))
        for cusp in loop.cusps:
            flatness = max(
                abs(float(z_rate.value(cusp.s, 1))),
                abs(float(w_rate.value(cusp.s, 1))),
            )
            if flatness > CUSP_DERIVATIVE_BOUND:
                problems.append("%s cusp at %.4f: %.2e" % (name, cusp.s, flatness))
    conclude(3, "lift correctness", problems)


def test_criterion_4_quadrature_matches_the_frozen_riemann_oracle():
    problems = []
    n = WORKING_GRID
    s = fourier.grid(n)
    x = np.cos(TAU * s)
    z = np.sin(TAU * s)
    direct = float(np.mean(z * fourier.derivative(x)))
    # area_integral reads the lift: that of x = cos, y = sin, whose
    # ∮ z dx is z(1) x(1) - ∮ x y dx = -pi as well.
    routed = lifting.area_integral(lifting.lift(circle_generator(n)), 0.0, 1.0)
    for label, value in (("mean of z x'", direct), ("area_integral", routed)):
        if abs(value - RIEMANN_ORACLE) > QUADRATURE_TOL:
            problems.append("%s vs oracle: %.3e" % (label, value - RIEMANN_ORACLE))
        if abs(value - (-np.pi)) > QUADRATURE_TOL:
            problems.append("%s vs -pi: %.3e" % (label, value + np.pi))
    conclude(4, "quadrature oracle", problems)


def test_criterion_5_embedding_verdicts(capsys):
    problems = []
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        code = cli.main(["check", data_path("zero_area.front"), "mirror"])
    payload = json.loads(stream.getvalue())
    if code != 3:
        problems.append("fixture exit code %d" % code)
    if payload["embedding"]["embedded"]:
        problems.append("fixture accepted")
    margin = payload["embedding"]["margin"]
    if margin is not None and margin > 1e-9:
        problems.append("fixture margin %.2e" % margin)
    for n in (-3, 0, 4):
        loop = models.model_front(n, seed=0, samples=WORKING_GRID)
        dz = loop.closure_defect_z
        dw = loop.closure_defect_w
        check = lifting.embedding_check(loop)
        ok = max(abs(dz), abs(dw)) <= TOL_DEFECT and check.margin > TOL_MARGIN
        if not ok:
            problems.append("model n=%d not accepted" % n)
    conclude(5, "embedding criterion", problems)


def test_criterion_6_the_shipped_demo_verifies_and_the_zero_area_trace_fails():
    problems = []
    doc = frontlang.parse(
        importlib.resources.files("engel").joinpath("data", "demo.front").read_text()
    )
    gen = doc.generator("circ")
    g0 = curves.sample_generator((gen.x, gen.y), WORKING_GRID)
    trace = list(script_frames(g0, doc.script("pass_and_fold").moves))
    report = verify_isotopy(trace)
    if not report.ok:
        problems.append("demo verdict %s at frame %s" % (report.code, report.frame))
    if report.code == "ROT_CHANGED":
        problems.append("demo rot drifted")
    if not report.embedding.margin > TOL_MARGIN:
        problems.append("demo margin %.2e" % report.embedding.margin)
    if len(report.events) != 2:
        problems.append("demo saw %d events" % len(report.events))
    for t, frame, _ in trace:
        if max(abs(frame.closure_defect_z), abs(frame.closure_defect_w)) > TOL_DEFECT:
            problems.append("frame at t=%.3f not closed" % t)
            break
    first, last = trace[0][1], trace[-1][1]
    cusps = (len(first.cusps), len(last.cusps))
    if invariants.rot_winding(first.generator) != 1 or cusps[0] == cusps[1]:
        problems.append("endpoints not two distinct rot=1 loops (cusps %s)" % (cusps,))

    # The engineered failing homotopy: pull the mirror strands apart,
    # then pass them back through each other; the event frame restores
    # the zero-gap double point and must be refused.
    bal = lifting.balance_closure(mirror_generator(1024))
    supports = lifting.balance_supports(bal)
    psi = tangency_profile(bal, 0.25, 0.08, supports=supports)
    g0 = curves.LegendrianGenerator(bal.x, bal.y - 0.05 * psi)
    bad = list(script_frames(
        g0,
        [Move("tangency_pass", {"at": 0.25, "width": 0.08, "amplitude": 0.1, "frames": 16})],
    ))
    verdict = verify_isotopy(bad)
    event_frame = [kind for _, _, kind in bad].index("tangency_pass")
    if verdict.ok or verdict.code != "NOT_EMBEDDED":
        problems.append("zero-area trace verdict %s" % verdict.code)
    elif verdict.frame != event_frame:
        problems.append(
            "zero-area trace failed at frame %s, event at %d"
            % (verdict.frame, event_frame)
        )
    conclude(6, "homotopy verification", problems)


def _random_series(rng):
    constant = round(rng.uniform(-2, 2), rng.randint(0, 3)) if rng.random() < 0.4 else 0.0
    cos = {}
    sin = {}
    for _ in range(rng.randint(0, 4)):
        cos[rng.randint(1, 64)] = round(rng.uniform(-3, 3), rng.randint(0, 6))
    for _ in range(rng.randint(0, 4)):
        sin[rng.randint(1, 64)] = round(rng.uniform(-3, 3), rng.randint(0, 6))
    return curves.TrigSeries(constant, cos, sin).pruned()


def _random_document(rng, stamp):
    kinds = {
        "deform": ("at", "width", "ax", "ay", "frames"),
        "swallowtail_birth": ("at", "width", "amplitude", "frames"),
        "swallowtail_death": ("at", "width", "amplitude", "frames"),
        "tangency_pass": ("at", "width", "amplitude", "frames"),
    }
    generators = tuple(
        frontlang.GeneratorDescription(
            "g%d_%d" % (stamp, i), _random_series(rng), _random_series(rng)
        )
        for i in range(rng.randint(0, 3))
    )
    scripts = []
    for i in range(rng.randint(0, 3)):
        moves = []
        for _ in range(rng.randint(0, 4)):
            kind = rng.choice(sorted(kinds))
            params = {
                name: round(rng.uniform(-4, 4), rng.randint(0, 6))
                for name in kinds[kind]
                if rng.random() < 0.7
            }
            moves.append(Move(kind, params))
        scripts.append(frontlang.MoveScript("s%d_%d" % (stamp, i), tuple(moves)))
    return frontlang.Document(generators, tuple(scripts))


def test_criterion_7_parser_round_trip_and_fuzz():
    problems = []
    rng = random.Random(404)
    for stamp in range(1000):
        doc = _random_document(rng, stamp)
        back = frontlang.parse(frontlang.emit(doc))
        if back != doc:
            problems.append("round trip diverged at document %d" % stamp)
            break

    palette = "gs{}();=+#.eE-_ \n\tcosin0123456789xyabzw"
    seeds = [
        frontlang.emit(_random_document(rng, 1000 + i)) for i in range(20)
    ]
    crashes = 0
    for case in range(10_000):
        if case % 3 == 0:
            text = "".join(
                rng.choice(palette) for _ in range(rng.randint(0, 120))
            )
        else:
            text = list(rng.choice(seeds))
            for _ in range(rng.randint(1, 6)):
                if not text:
                    break
                j = rng.randrange(len(text))
                op = rng.random()
                if op < 0.4:
                    del text[j]
                elif op < 0.8:
                    text.insert(j, rng.choice(palette))
                else:
                    text[j] = rng.choice(palette)
            text = "".join(text)
        try:
            frontlang.parse(text)
        except FrontSyntaxError:
            pass
        except Exception as err:
            crashes += 1
            if crashes == 1:
                problems.append(
                    "case %d: %s: %r" % (case, type(err).__name__, text[:60])
                )
    if crashes:
        problems.append("%d fuzz cases aborted" % crashes)
    conclude(7, "parser laws", problems)
