"""The three benchmark workloads: inputs, one timed pass, output checks.

A workload builds its inputs once (set-up), then runs passes over its
items.  ``run_pass`` is the timed part and returns raw outcomes;
``check`` is untimed and compares those outcomes with the reference
checked in beside the benchmark.  Every workload runs in one process
with no extra threads.

Why these three:

- ``homotopy_demo`` is the headline CLI run: 129 frames, each scanned
  for coincidences with off-grid spectral refinement, then written as
  CSV.  The spectral evaluator and CSV output show here and hardly
  anywhere else.  Its input is the shipped document, so the seed does
  not apply.
- ``rot_corpus`` is acceptance criterion 2's random corpus of degree-8
  generators.  Most of a pass goes to pair scans whose results the
  report never reads, while the evaluator and the companion-matrix cusp
  check stay nearly idle: it exercises lazy scans and bypasses the
  evaluator and cusp-exclusion work.
- ``model_cli_16k`` synthesizes four loops at 16384 samples through the
  CLI: dense m=2048 coarse passes, companion eigenvalues and SVG output,
  the large working set.
"""

import contextlib
import hashlib
import io
import json
import os
import random

import numpy as np

CORPUS_BASE_SEED = 20260816  # acceptance criterion 2 draws from this seed
TAU = 2.0 * np.pi
TOL_MARGIN = 1e-7

SMOKE_DOC = """\
generator circ { x: cos(1); y: sin(1); }
script smoke {
    deform at=0.3 width=0.1 ax=0.05 ay=0.05 frames=4;
    swallowtail_birth at=0.12 width=0.06 frames=4;
}
"""


def _sha(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
    return h.hexdigest()[:16]


def _file_digest(paths):
    def contents():
        for path in paths:
            with open(path, "rb") as handle:
                yield handle.read()

    return _sha(contents())


def _call_cli(cli, argv):
    """(exit code, stdout) of one CLI call; a raise counts as exit None."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except Exception as err:  # the CLI's own guard failed; record it
            return None, "%s: %s" % (type(err).__name__, err)
    return code, buf.getvalue()


def _samples_winding(x, y):
    """Rotation number of (x', y') from samples alone.

    Centered differences and summed angle increments; independent of the
    package's spectral winding computation.
    """
    dx = np.roll(x, -1) - np.roll(x, 1)
    dy = np.roll(y, -1) - np.roll(y, 1)
    v = dx + 1j * dy
    return int(round(float(np.sum(np.angle(np.roll(v, -1) / v))) / TAU))


class HomotopyDemo:
    name = "homotopy_demo"

    def __init__(self, engel, seed, smoke, reference):
        self.cli = engel["cli"]
        data = os.path.join(os.path.dirname(self.cli.__file__), "data")
        self.expect = reference["homotopy_demo_smoke" if smoke else "homotopy_demo"]
        self.samples = 1024 if smoke else 4096
        self.document = None if smoke else os.path.join(data, "demo.front")
        self.script = "smoke" if smoke else "pass_and_fold"
        self.items = 1

    def run_pass(self, out_dir):
        doc = self.document
        if doc is None:
            doc = os.path.join(out_dir, "smoke.front")
            with open(doc, "w", encoding="utf-8") as handle:
                handle.write(SMOKE_DOC)
        argv = ["homotopy", "run", doc, "circ", self.script,
                "--samples", str(self.samples), "--out", out_dir]
        return [_call_cli(self.cli, argv)]

    def check(self, outcomes, out_dir):
        (code, text), = outcomes
        trace_dir = os.path.join(out_dir, "%s_trace" % self.script)
        problems = []
        if code != 0:
            return [(0, "exit %r: %s" % (code, text[-300:]))], {"exit": code}, {}
        report = json.loads(text)
        exp = self.expect
        if report.get("ok") is not True or report.get("code") is not None:
            problems.append("verification ok=%r code=%r" % (report.get("ok"), report.get("code")))
        if report.get("frames") != exp["frames"]:
            problems.append("frames %r, expected %d" % (report.get("frames"), exp["frames"]))
        if len(report.get("events", ())) != exp["events"]:
            problems.append("%d events, expected %d" % (len(report.get("events", ())), exp["events"]))
        margin = report.get("margin")
        if margin is not None and not margin > TOL_MARGIN:
            problems.append("margin %r not above %g" % (margin, TOL_MARGIN))
        if report.get("rot_constant") is not True:
            problems.append("rotation number not constant")
        frames = sorted(f for f in os.listdir(trace_dir) if f.startswith("frame_"))
        if len(frames) != exp["frames"]:
            problems.append("%d frame files, expected %d" % (len(frames), exp["frames"]))
        for name in (frames[0], frames[-1]) if frames else ():
            table = np.loadtxt(os.path.join(trace_dir, name), delimiter=",", skiprows=1)
            rot = _samples_winding(table[:, 1], table[:, 2])
            if rot != exp["rot"]:
                problems.append("%s: rot %d from samples, expected %d" % (name, rot, exp["rot"]))
        digests = {
            "json": _sha([text]),
            "csv": _file_digest([os.path.join(trace_dir, f) for f in frames]),
        }
        return [(0, p) for p in problems], {"exit": code, "report": report}, digests


class RotCorpus:
    name = "rot_corpus"

    def __init__(self, engel, seed, smoke, reference):
        self.curves = engel["curves"]
        self.fourier = engel["fourier"]
        self.lifting = engel["lifting"]
        self.invariants = engel["invariants"]
        self.samples = 1024 if smoke else 4096
        self.items = 5 if smoke else 100
        self.expect = None
        if seed == 0 and not smoke:
            self.expect = [tuple(row) for row in reference["rot_corpus_seed0"]]
        self.corpus = self._draw(random.Random(CORPUS_BASE_SEED + seed))

    def _closure_pair(self, x, y):
        g = self.curves.LegendrianGenerator(x, y)
        return np.array([self.lifting.z_closure_defect(g), self.lifting.w_closure_defect(g)])

    def _draw(self, rng):
        """Acceptance criterion 2's corpus: balanced generators of degree 8.

        The slope is corrected along x' and sin(2 tau s) so both closure
        integrals vanish; draws needing a large correction or lacking a
        unit speed floor are redrawn.  Returns (x, y) sample arrays.
        """
        n = self.samples
        s = np.arange(n) / n
        corpus = []
        for _ in range(2000):
            if len(corpus) == self.items:
                break
            x = np.cos(TAU * s)
            y = 2.0 * np.sin(rng.randint(1, 4) * TAU * s)
            for k in range(1, 9):
                x += 0.5 * (rng.uniform(-1, 1) * np.cos(k * TAU * s)
                            + rng.uniform(-1, 1) * np.sin(k * TAU * s)) / (k * k)
                y += 0.5 * (rng.uniform(-1, 1) * np.cos(k * TAU * s)
                            + rng.uniform(-1, 1) * np.sin(k * TAU * s)) / (k * k)
            eta1 = self.fourier.derivative(x)
            eta2 = np.sin(2 * TAU * s)
            matrix = np.column_stack([self._closure_pair(x, eta1), self._closure_pair(x, eta2)])
            if abs(np.linalg.det(matrix)) < 1e-9:
                continue
            coeff = np.linalg.solve(matrix, self._closure_pair(x, y))
            if abs(coeff[0]) > 1.0 or abs(coeff[1]) > 2.0:
                continue
            y = y - coeff[0] * eta1 - coeff[1] * eta2
            g = self.curves.LegendrianGenerator(x, y)
            if g.min_speed()[1] < 1.0:
                continue
            corpus.append((x, y))
        if len(corpus) != self.items:
            raise RuntimeError("only %d corpus members in 2000 draws" % len(corpus))
        return corpus

    def run_pass(self, out_dir):
        curves, lifting, invariants = self.curves, self.lifting, self.invariants
        outcomes = []
        for x, y in self.corpus:
            try:
                bal = lifting.balance_closure(curves.LegendrianGenerator(x, y))
                report = invariants.invariant_report(lifting.lift(bal))
                outcomes.append((report["rot_winding"], report["rot_cusp"],
                                 report["c_plus"], report["c_minus"]))
            except Exception as err:  # one failed item must not end the pass
                outcomes.append("%s: %s" % (type(err).__name__, err))
        return outcomes

    def check(self, outcomes, out_dir):
        problems = []
        for i, got in enumerate(outcomes):
            if isinstance(got, str):
                problems.append((i, "generator %d raised %s" % (i, got)))
            elif self.expect is not None and got != self.expect[i]:
                problems.append((i, "generator %d: %r, reference %r" % (i, got, self.expect[i])))
            elif got[0] != got[1]:
                problems.append((i, "generator %d: winding %d vs cusps %d" % (i, got[0], got[1])))
        return problems, {"reports": outcomes}, {"reports": _sha([repr(outcomes)])}


class ModelCli:
    name = "model_cli_16k"

    def __init__(self, engel, seed, smoke, reference):
        self.cli = engel["cli"]
        self.seed = seed
        self.samples = 1024 if smoke else 16384
        self.rots = (0, 3) if smoke else (-3, 0, 3, 5)
        self.items = len(self.rots)

    def run_pass(self, out_dir):
        return [
            _call_cli(self.cli, ["model", "-n", str(n), "--samples", str(self.samples),
                                 "--seed", str(self.seed), "--out", out_dir])
            for n in self.rots
        ]

    def check(self, outcomes, out_dir):
        problems = []
        payloads = []
        files = []
        for i, (n, (code, text)) in enumerate(zip(self.rots, outcomes)):
            if code != 0:
                problems.append((i, "n=%d: exit %r: %s" % (n, code, text[-300:])))
                payloads.append(None)
                continue
            payload = json.loads(text)
            payloads.append(payload)
            inv = payload["invariants"]
            if payload["closure"]["closed"] is not True:
                problems.append((i, "n=%d: not closed" % n))
            if payload["embedding"]["embedded"] is not True:
                problems.append((i, "n=%d: not embedded" % n))
            if (inv["rot_winding"], inv["rot_cusp"]) != (n, n):
                problems.append((i, "n=%d: rot (%r, %r)" % (n, inv["rot_winding"], inv["rot_cusp"])))
            stem = os.path.join(out_dir, "model_rot%d_seed%d" % (n, self.seed))
            files.append(stem)
        digests = {
            "json": _sha([text for _, text in outcomes]),
            "csv": _file_digest([f + ".csv" for f in files]),
            "svg": _file_digest([f + ".svg" for f in files]),
        }
        return problems, {"payloads": payloads}, digests


WORKLOADS = {w.name: w for w in (HomotopyDemo, RotCorpus, ModelCli)}
