"""Exit codes, report schemas, and artifacts of the command line tool.

The exit code contract: 0 success, 1 internal error, 2 parse/usage
error, 3 certificate failure.  Most tests drive main() in process; one
subprocess case pins the module entry point at the OS level.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from importlib import resources

import pytest

import engel
from engel import cli, curves, frontlang, homotopy, lifting, pairscan

from helpers import count_z_interps, dense_winding, golden_text, trig_series_derivative

DEMO = str(resources.files("engel.data").joinpath("demo.front"))
ZERO_AREA = str(resources.files("engel.data").joinpath("zero_area.front"))
SHIFTED = os.path.join(os.path.dirname(__file__), "data", "shifted_symmetric.front")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rot_circle_reports_winding_one(capsys):
    code, out, _ = run_cli(capsys, "rot", DEMO, "circ")
    assert code == 0
    payload = json.loads(out)
    assert payload["rot_winding"] == 1
    # the raw circle is not area balanced, so there is no front to read
    assert payload["rot_cusp"] is None


def test_rot_on_closed_front_reports_both(capsys):
    code, out, _ = run_cli(capsys, "rot", ZERO_AREA, "mirror")
    assert code == 0
    payload = json.loads(out)
    assert payload["rot_cusp"] == payload["rot_winding"]
    assert payload["c_plus"] is not None


def test_a_front_open_only_in_w_reports_its_cusp_rotation(tmp_path, capsys):
    # ∮ y dx = 0 and ∮ z dx = pi/2: the lift exists, its front closes,
    # and the loop is not closed.  The front still carries rot_cusp.
    doc = tmp_path / "w_open.front"
    doc.write_text("generator g { x: cos(1); y: sin(2); }\n", encoding="utf-8")
    expected = {"rot_winding": 0, "rot_cusp": 0, "c_plus": 1, "c_minus": 1}
    code, out, _ = run_cli(capsys, "rot", str(doc), "g", "--samples", "1024")
    assert code == 0
    assert json.loads(out) == {"name": "g", **expected}
    code, out, _ = run_cli(capsys, "lift", str(doc), "g", "--samples", "1024",
                           "--out", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["closure"]["closed"] is False
    assert abs(payload["closure"]["defect_z"]) <= curves.TOL_CLOSURE
    assert payload["closure"]["defect_w"] == pytest.approx(1.5707963267948966, abs=1e-12)
    assert payload["invariants"] == expected
    assert payload["embedding"] is None


def test_check_rejects_zero_area_fixture(capsys):
    code, out, _ = run_cli(capsys, "check", ZERO_AREA, "mirror")
    assert code == 3
    payload = json.loads(out)
    assert payload["closure"]["closed"] is True
    assert payload["embedding"]["embedded"] is False
    assert payload["embedding"]["margin"] <= 1e-9
    pair = payload["embedding"]["double_points"][0]
    assert (pair["s0"], pair["s1"]) == (0.0, 0.5)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the pair scan keeps no coarse cell near the tangent "
    "double point of this document and calls it embedded",
)
@pytest.mark.parametrize("samples", ["1024", "4096"])
def test_check_refuses_the_shifted_symmetric_document(capsys, samples):
    code, out, _ = run_cli(capsys, "check", SHIFTED, "shifted", "--samples", samples)
    assert json.loads(out)["closure"]["closed"] is True
    assert code == 3


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 13: the demo's bumps (p = 285 and 507) alias on a 16-point "
    "grid, so the run certifies a different curve and calls it embedded",
)
def test_the_demo_script_is_refused_on_a_grid_its_bumps_alias_on(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "homotopy", "run", DEMO, "circ", "pass_and_fold",
        "--samples", "16", "--out", str(tmp_path),
    )
    assert code != 0


def test_check_unbalanced_circle_fails_on_closure(capsys):
    code, out, _ = run_cli(capsys, "check", DEMO, "circ")
    assert code == 3
    payload = json.loads(out)
    assert payload["closure"]["closed"] is False
    assert payload["embedding"] is None


def test_model_writes_artifacts_and_reports_invariants(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "model", "-n", "3", "--seed", "7", "--out", str(tmp_path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["invariants"]["rot_winding"] == 3
    assert payload["invariants"]["rot_cusp"] == 3
    assert payload["embedding"]["embedded"] is True
    stem = tmp_path / "model_rot3_seed7"
    assert stem.with_suffix(".csv").exists()
    assert stem.with_suffix(".svg").exists()
    assert stem.with_suffix(".json").exists()
    on_disk = json.loads(stem.with_suffix(".json").read_text())
    assert on_disk == json.loads(out)


def test_model_builds_one_front(tmp_path, capsys, monkeypatch):
    # The synthesis, the invariants and the SVG share the loop's one front:
    # one cusp search and one coincidence scan for a first-try model.
    calls = {"find_cusps": 0, "coincident_pairs": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(arg):
            calls[name] += 1
            return real(arg)

        monkeypatch.setattr(module, name, wrapper)

    counted(curves, "find_cusps")
    counted(pairscan, "coincident_pairs")
    code, _, _ = run_cli(
        capsys, "model", "-n", "3", "--samples", "2048", "--out", str(tmp_path)
    )
    assert code == 0
    assert calls == {"find_cusps": 1, "coincident_pairs": 1}


@pytest.mark.parametrize("command", ["rot", "lift"])
@pytest.mark.parametrize("doc, name", [(DEMO, "circ"), (ZERO_AREA, "mirror")],
                         ids=["demo-circ", "zero-area-mirror"])
def test_reports_count_cusps_without_placing_them(tmp_path, capsys, monkeypatch,
                                                  command, doc, name):
    # The reports read each cusp's orientation alone: short of a pair
    # scan (lift's embedding check of a closed loop reads z through
    # loop.curve), no z interpolant.
    calls = count_z_interps(monkeypatch)
    argv = [command, doc, name] + (["--out", str(tmp_path)] if command == "lift" else [])
    code, out, _ = run_cli(capsys, *argv)
    assert code == (3 if (command, name) == ("lift", "circ") else 0)
    if name == "mirror":
        report = json.loads(out)
        report = report.get("invariants", report)
        assert report["rot_cusp"] == report["rot_winding"] == 1
    scans = int(command == "lift" and name == "mirror")
    assert calls == {"z_interp": scans}


def test_model_places_its_cusps_for_the_picture_alone(tmp_path, capsys, monkeypatch):
    # model's candidate checks count cusps; only the SVG places them, once.
    calls = count_z_interps(monkeypatch)
    code, out, _ = run_cli(
        capsys, "model", "-n", "3", "--samples", "2048", "--out", str(tmp_path)
    )
    assert code == 0
    report = json.loads(out)["invariants"]
    svg, = tmp_path.glob("*.svg")
    assert svg.read_text().count('class="cusp-') == report["c_plus"] + report["c_minus"]
    assert calls == {"z_interp": 1}


def test_env_seed_is_ignored(tmp_path, capsys, monkeypatch):
    # The seed comes from --seed alone; a variable left in the shell
    # does not change what model writes.
    monkeypatch.setenv("ENGEL_SEED", "5")
    code, out, _ = run_cli(
        capsys, "model", "-n", "-2", "--samples", "2048", "--out", str(tmp_path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 0
    assert payload["invariants"]["rot_winding"] == -2


def test_explicit_seed_beats_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ENGEL_SEED", "5")
    code, out, _ = run_cli(
        capsys, "model", "-n", "1", "--seed", "2", "--samples", "2048",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert json.loads(out)["seed"] == 2


def test_parse_error_exits_2_with_location(tmp_path, capsys):
    doc = tmp_path / "bad.front"
    doc.write_text("generator g { x: cos(1) }")
    code, _, err = run_cli(capsys, "rot", str(doc), "g")
    assert code == 2
    assert "line 1" in err and "expected ';'" in err


def test_unknown_generator_name_exits_2(capsys):
    code, _, err = run_cli(capsys, "rot", DEMO, "nosuch")
    assert code == 2
    assert "nosuch" in err


def test_unknown_script_name_exits_2(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "homotopy", "run", DEMO, "circ", "nosuch", "--out", str(tmp_path)
    )
    assert (code, out) == (2, "")
    assert err == "error: no script named 'nosuch' in document\n"
    assert list(tmp_path.iterdir()) == []


def test_bad_sample_count_exits_2(capsys):
    code, out, err = run_cli(capsys, "rot", DEMO, "circ", "--samples", "1000")
    assert (code, out) == (2, "")
    assert err == "error: grid size must be a power of two >= 16, got 1000\n"


# The other commands that take --samples refuse the same way, before any
# file is written.
@pytest.mark.parametrize("argv", [
    ["lift", DEMO, "circ"],
    ["check", DEMO, "circ"],
    ["model", "-n", "3"],
    ["homotopy", "run", DEMO, "circ", "pass_and_fold"],
], ids=lambda argv: argv[0])
def test_a_grid_size_off_the_rule_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--samples", "1000")
    assert (code, out) == (2, "")
    assert err == "error: grid size must be a power of two >= 16, got 1000\n"
    assert list(tmp_path.iterdir()) == []


def test_rot_bound_violation_exits_2(capsys):
    code, _, err = run_cli(capsys, "model", "-n", "99")
    assert code == 2
    assert "64" in err


def test_negative_model_seed_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "model", "-n", "3", "--seed", "-1", "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert "seed" in err and "-1" in err


ALIASED_DOC = "generator g { x: cos(1) + 0.5 cos(15); y: sin(1); }\n"


def test_rot_refuses_a_series_the_grid_aliases(tmp_path, capsys):
    # 16 samples fold cos(15) onto cos(1): the sampled curve winds the
    # other way, so the document is refused rather than misread.
    doc = tmp_path / "aliased.front"
    doc.write_text(ALIASED_DOC)
    code, out, err = run_cli(capsys, "rot", str(doc), "g", "--samples", "16")
    assert code == 2 and out == ""
    assert "degree 15" in err


@pytest.mark.parametrize("samples", ["32", "64", "4096"])
def test_rot_winding_agrees_with_a_dense_oracle(tmp_path, capsys, samples):
    x = curves.TrigSeries(cos={1: 1.0, 15: 0.5})
    y = curves.TrigSeries(sin={1: 1.0})
    turns, largest = dense_winding(lambda s: trig_series_derivative(x, s),
                                   lambda s: trig_series_derivative(y, s), 1 << 22)
    assert largest < 0.5 and round(turns) == -1
    doc = tmp_path / "aliased.front"
    doc.write_text(ALIASED_DOC)
    code, out, _ = run_cli(capsys, "rot", str(doc), "g", "--samples", samples)
    assert code == 0
    assert json.loads(out)["rot_winding"] == round(turns)


def test_missing_document_exits_2(capsys):
    code, _, err = run_cli(capsys, "rot", "does_not_exist.front", "g")
    assert code == 2
    assert "does_not_exist" in err


def test_lift_writes_csv_and_json(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "lift", ZERO_AREA, "mirror", "--out", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["closure"]["closed"] is True
    csv_text = (tmp_path / "mirror.csv").read_text()
    assert csv_text.startswith("s,x,y,z,w\n")
    assert len(csv_text.strip().split("\n")) == 4097


def test_homotopy_run_writes_trace_directory(tmp_path, capsys):
    doc = tmp_path / "doc.front"
    doc.write_text(
        "generator circ { x: cos(1); y: sin(1); }\n"
        "script nudge { deform at=0.3 width=0.1 ax=0.05 ay=0.05 frames=4; }\n"
    )
    code, out, _ = run_cli(
        capsys, "homotopy", "run", str(doc), "circ", "nudge", "--out", str(tmp_path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    trace_dir = tmp_path / "nudge_trace"
    frames = sorted(p.name for p in trace_dir.glob("frame_*.csv"))
    assert frames == ["frame_%04d.csv" % k for k in range(5)]
    events = json.loads((trace_dir / "events.json").read_text())
    assert events["times"] == [0.0, 0.25, 0.5, 0.75, 1.0]
    verification = json.loads((trace_dir / "verification.json").read_text())
    assert verification == payload


def test_a_move_without_frames_takes_the_default_count(tmp_path, capsys):
    # Step counts come from the document alone: 64 steps, 65 frames.
    doc = tmp_path / "doc.front"
    doc.write_text(
        "generator circ { x: cos(1); y: sin(1); }\n"
        "script nudge { deform at=0.3 width=0.1 ax=0.02 ay=0.0; }\n"
    )
    code, out, _ = run_cli(
        capsys, "homotopy", "run", str(doc), "circ", "nudge",
        "--samples", "1024", "--out", str(tmp_path),
    )
    assert code == 0
    assert json.loads(out)["frames"] == 65


ZW_DOC = "generator g { x: cos(1); y: sin(2); }\n"  # z closes, w does not


def test_check_reports_an_open_w_as_json(tmp_path, capsys):
    doc = tmp_path / "zw.front"
    doc.write_text(ZW_DOC)
    code, out, _ = run_cli(capsys, "check", str(doc), "g")
    assert code == 3
    payload = json.loads(out)
    assert payload["closure"]["closed"] is False
    assert abs(payload["closure"]["defect_z"]) <= curves.TOL_CLOSURE
    assert payload["embedding"] is None


# Open in z, where the two means of y x' round apart: ∮ y dx is
# -2.764601535159018 by the rfft mean and -2.7646015351590183 by np.mean.
OPEN_DOC = "generator g { x: cos(1) + 0.2 sin(2); y: sin(1) + 0.3 cos(2); }\n"


def test_check_on_an_open_document_prints_the_lifts_defects(tmp_path, capsys):
    doc = tmp_path / "open.front"
    doc.write_text(OPEN_DOC)
    code, out, err = run_cli(capsys, "check", str(doc), "g")
    loop = lifting.lift(cli._realize(frontlang.parse(OPEN_DOC), "g", 4096))
    assert (code, err) == (3, "")
    assert out == cli._json_text({
        "name": "g",
        "closure": {
            "defect_z": loop.closure_defect_z,
            "defect_w": loop.closure_defect_w,
            "closed": False,
        },
        "embedding": None,
    })


@pytest.mark.parametrize("argv", [
    ("rot", DEMO, "circ", "--frames", "7"),
    ("check", "ZW", "g", "--tol-closure", "10"),
    ("lift", ZERO_AREA, "mirror", "--tol-embed", "0", "--out", "OUT"),
    ("model", "-n", "1", "--frames", "4", "--out", "OUT"),
    ("homotopy", "run", DEMO, "circ", "pass_and_fold", "--tol-closure", "1",
     "--out", "OUT"),
    ("homotopy", "run", DEMO, "circ", "pass_and_fold", "--frames", "2", "--out", "OUT"),
    ("rot", DEMO, "circ", "--out", "OUT"),
    ("check", "ZW", "g", "--out", "OUT"),
], ids=["rot-frames", "check-tol-closure", "lift-tol-embed", "model-frames",
        "homotopy-tol-closure", "homotopy-frames", "rot-out", "check-out"])
def test_removed_options_are_usage_errors(tmp_path, capsys, argv):
    # The certificates' tolerances are fixed, step counts come from each
    # move's frames= in the document, and rot and check write no files, so
    # take no --out; argparse refuses the rest before anything runs.
    doc = tmp_path / "zw.front"
    doc.write_text(ZW_DOC)
    places = {"ZW": str(doc), "OUT": str(tmp_path)}
    with pytest.raises(SystemExit) as info:
        cli.main([places.get(a, a) for a in argv])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def readme_text():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def readme_flags():
    """{subcommand: set of flags} from the README's table under "Flags, by
    subcommand", each flag taken from its `--name VALUE` cell."""
    rows = readme_text().split("Flags, by subcommand:", 1)[1].strip().split("\n\n", 1)[0]
    table = {}
    for row in rows.splitlines()[2:]:
        command, flags = (cell.strip() for cell in row.strip("|").split("|"))
        table[command.strip("`")] = {cell.split()[0] for cell in re.findall(r"`([^`]+)`", flags)}
    return table


def test_readme_flags_table_matches_the_parser():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        command: {flag for action in sub._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for command, sub in subparsers.choices.items()
    }
    assert readme_flags() == parsed


def test_readme_move_kinds_match_the_move_table():
    # Every backticked name in the paragraph that starts "Move kinds:".
    paragraph = readme_text().split("\nMove kinds:", 1)[1].split("\n\n", 1)[0]
    assert set(re.findall(r"`([^`]+)`", paragraph)) == set(homotopy.MOVE_PARAMS)


def run_module(*argv, cwd=None):
    """The CLI as its own process, importing the same engel as this suite.
    Warnings print to stderr there instead of failing the suite."""
    src = os.path.dirname(os.path.dirname(engel.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-m", "engel.cli", *argv],
        capture_output=True, text=True, encoding="utf-8", env=env, cwd=cwd,
    )


def test_module_entry_point_subprocess():
    proc = run_module("check", ZERO_AREA, "mirror")
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["embedding"]["embedded"] is False


def test_lift_refuses_a_nan_closure_defect(tmp_path):
    # y x' overflows, so the z defect is nan: not closed, exit 3, no CSV.
    doc = tmp_path / "nan.front"
    doc.write_text("generator g { x: 1e300 cos(1); y: 1e300 sin(1); }\n")
    out = tmp_path / "out"
    proc = run_module("lift", str(doc), "g", "--out", str(out))
    assert proc.returncode == 3
    assert proc.stderr.splitlines()[0] == (
        "certificate failure: ∮ y dx = nan exceeds the closure tolerance 1e-09; "
        "balance the generator first"
    )
    assert proc.stdout == ""
    assert not out.exists()


def test_check_on_an_overflowing_document_prints_no_warnings(tmp_path):
    # In a subprocess, where a RuntimeWarning would print to stderr.
    doc = tmp_path / "nan.front"
    doc.write_text("generator g { x: 1e300 cos(1); y: 1e300 sin(1); }\n")
    proc = run_module("check", str(doc), "g")
    assert (proc.returncode, proc.stderr) == (3, "")
    closure = json.loads(proc.stdout)["closure"]
    assert closure == {"closed": False, "defect_w": None, "defect_z": None}


def test_a_document_that_samples_to_inf_is_a_usage_error(tmp_path):
    doc = tmp_path / "inf.front"
    doc.write_text(
        "generator g { x: 1e308 cos(1) + 1e308 cos(2) + 1e308 cos(3); y: sin(1); }\n"
    )
    proc = run_module("rot", str(doc), "g")
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[0] == "error: x and y samples must be finite"
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["rot", "lift", "check"])
def test_a_derivative_past_the_float_range_is_a_usage_error(tmp_path, command):
    # The samples are finite but the rfft behind x' and y' overflows; the
    # generator refuses them before any numpy warning prints.
    doc = tmp_path / "big.front"
    doc.write_text("generator g { x: 1e307 cos(1); y: 1e307 sin(1); }\n")
    proc = run_module(command, str(doc), "g", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "error: x' and y' samples must be finite\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("command, code, message", [
    ("rot", 2, "error: x' and y' are too large: their squares leave the float range"),
    ("lift", 3, "certificate failure: ∮ y dx = nan exceeds the closure tolerance 1e-09; "
                "balance the generator first"),
], ids=["rot", "lift"])
def test_a_velocity_whose_squares_overflow_is_refused_without_warnings(tmp_path, command, code, message):
    # x' and y' are finite but their squares are not.  The winding
    # certificate squares them, so rot refuses the document; lift stops
    # first, at the z it cannot close.
    doc = tmp_path / "big.front"
    doc.write_text("generator g { x: 1e300 cos(1); y: 1e300 sin(1); }\n")
    proc = run_module(command, str(doc), "g", "--samples", "1024", cwd=tmp_path)
    assert (proc.returncode, proc.stderr, proc.stdout) == (code, message + "\n", "")


def run_script_doc(tmp_path, capsys, script):
    doc = tmp_path / "doc.front"
    doc.write_text("generator circ { x: cos(1); y: sin(1); }\nscript s { %s }\n" % script)
    return run_cli(capsys, "homotopy", "run", str(doc), "circ", "s", "--out", str(tmp_path))


def test_fold_past_the_ceiling_is_a_certificate_failure_exit_3(tmp_path, capsys):
    # The death move is refused once the stream reaches it.  Every frame
    # built by then is written, those of the birth alone, and no JSON is.
    birth = "swallowtail_birth at=0.12 width=0.06 frames=2; "
    code, out, err = run_script_doc(
        tmp_path, capsys, birth + "swallowtail_death at=0.12 width=0.06 amplitude=50 frames=2;"
    )
    assert (code, out) == (3, "")
    assert err == (
        "certificate failure: amplitude 50 would fold the opposite flank (limit 0.216698)\n"
    )
    trace_dir = tmp_path / "s_trace"
    assert not (trace_dir / "events.json").exists()
    assert not (trace_dir / "verification.json").exists()
    written = sorted(p.name for p in trace_dir.glob("frame_*.csv"))
    assert written == ["frame_0000.csv", "frame_0001.csv", "frame_0002.csv"]

    alone = tmp_path / "alone"
    alone.mkdir()
    assert run_script_doc(alone, capsys, birth)[0] == 0
    assert written == sorted(p.name for p in (alone / "s_trace").glob("frame_*.csv"))
    for name in written:
        assert (trace_dir / name).read_bytes() == (alone / "s_trace" / name).read_bytes()


@pytest.mark.parametrize("death, message", [
    ("at=0.1", "annihilating the pair would fold the opposite flank first "
               "(threshold 3.61985, ceiling 0.0613312)"),
    ("at=0.14", "support cannot annihilate the cusp pair; recenter it so the "
                "rising flank of the bump covers both cusps"),
])
def test_a_death_off_its_pair_is_a_certificate_failure_exit_3(tmp_path, capsys, death, message):
    # The birth grows a cusp pair about s = 0.12.  A death support that
    # is shifted a little either way cannot merge it with the rising
    # flank of its bump alone.
    doc = tmp_path / "doc.front"
    doc.write_text(
        "generator circ { x: cos(1); y: sin(1); }\n"
        "script s { swallowtail_birth at=0.12 width=0.06 frames=4; "
        "swallowtail_death %s width=0.06; }\n" % death
    )
    code, out, err = run_cli(
        capsys, "homotopy", "run", str(doc), "circ", "s", "--samples", "1024",
        "--out", str(tmp_path),
    )
    assert (code, out, err) == (3, "", "certificate failure: %s\n" % message)


def test_a_wide_generator_balances_and_runs(tmp_path, capsys):
    # Its w defect scales as the cube of the size, so each balanced frame
    # keeps a w residual near 1e-11: inside the closure tolerance, by
    # which every frame is then certified closed.
    doc = tmp_path / "doc.front"
    doc.write_text(
        "generator g { x: 50 cos(1); y: 50 sin(1) + 6 cos(2); }\n"
        "script s { deform at=0.3 width=0.1 ax=0.05 ay=0.05 frames=4; }\n"
    )
    code, out, err = run_cli(
        capsys, "homotopy", "run", str(doc), "g", "s", "--out", str(tmp_path)
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["ok"], payload["frames"], payload["embedded"]) == (True, 5, True)
    frames = json.loads((tmp_path / "s_trace" / "events.json").read_text())["frames"]
    worst = max(max(abs(f["defect_z"]), abs(f["defect_w"])) for f in frames)
    assert 1e-12 < worst <= 1e-9


def test_an_uncertifiable_winding_stops_the_run_exit_3(tmp_path, capsys):
    # At 64 samples the velocity comes too near zero for the winding of
    # frame 0 to be certified.  That is no verdict: the run stops with
    # nothing on stdout and no JSON, as a refused move does.
    doc = tmp_path / "doc.front"
    doc.write_text(
        "generator g { x: cos(1) + 0.9 cos(14); y: sin(1); }\nscript nothing { }\n"
    )
    code, out, err = run_cli(
        capsys, "homotopy", "run", str(doc), "g", "nothing", "--samples", "64",
        "--out", str(tmp_path),
    )
    assert (code, out) == (3, "")
    assert err.startswith("certificate failure: velocity under-resolved near s=0.000000: ")
    assert [p.name for p in (tmp_path / "nothing_trace").iterdir()] == ["frame_0000.csv"]


def test_a_stall_names_its_trace_frame(tmp_path, capsys):
    # The second move stalls at its own frame 2, which is frame 6 of the
    # trace: 4 steps of the first move, then frame 5 is written.
    doc = tmp_path / "doc.front"
    doc.write_text(
        "generator circ { x: cos(1); y: sin(1); }\n"
        "script s {\n"
        "    deform at=0.7 width=0.05 frames=4;\n"
        "    deform at=0.3 width=0.1 ax=-0.16177184678954407 ay=-2.897846907903074 frames=2;\n"
        "}\n"
    )
    code, out, err = run_cli(
        capsys, "homotopy", "run", str(doc), "circ", "s", "--samples", "1024",
        "--out", str(tmp_path),
    )
    assert (code, out) == (3, "")
    assert err == (
        "certificate failure: frame 6: velocity norm 7.421e-11 at s=0.314453 "
        "is below the immersion floor\n"
    )
    written = sorted(p.name for p in (tmp_path / "s_trace").iterdir())
    assert written == ["frame_%04d.csv" % j for j in range(6)]


@pytest.mark.parametrize("script, message", [
    ("slide at=0.3;", "expected a move kind (one of"),
    # Running a script re-balances every frame, so no move does it.
    ("deform at=0.3 width=0.1 ax=0.02 frames=2; balance;",
     "line 2, col 54: expected a move kind (one of deform, swallowtail_birth, "
     "swallowtail_death, tangency_pass), found 'balance'"),
    ("deform at=0.3 width=0.1 amplitude=1 frames=2;", "amplitude"),
    ("tangency_pass at=0.55 width=0.08 frames=2;", "needs a 'amplitude'"),
    ("deform at=0.3 width=0.1 ax=0.05 frames=3;", "even count"),
    ("deform at=0.3 width=0.1 ax=0.05 frames=2.5;", "even count"),
])
def test_malformed_moves_are_usage_errors_exit_2(tmp_path, capsys, script, message):
    code, _, err = run_script_doc(tmp_path, capsys, script)
    assert code == 2
    assert message in err
    assert not (tmp_path / "s_trace").exists()


def test_a_script_past_four_digit_frame_numbers_is_a_usage_error(tmp_path, capsys):
    # Frame files are numbered in four digits, so a run takes at most 9999
    # steps; the document is refused before any frame is built.
    doc = tmp_path / "doc.front"
    doc.write_text(
        "generator circ { x: cos(1); y: sin(1); }\n"
        "script s { deform at=0.3 width=0.1 ax=0.01 frames=1e15; }\n"
    )
    code, out, err = run_cli(
        capsys, "homotopy", "run", str(doc), "circ", "s", "--samples", "16",
        "--out", str(tmp_path),
    )
    assert (code, out) == (2, "")
    assert "more than 9999" in err
    assert not (tmp_path / "s_trace").exists()


@pytest.mark.parametrize("width", ["0", "1e-200"])
@pytest.mark.parametrize("move", [
    "deform at=0.3 width=%s ax=0.05 frames=2;",
    "tangency_pass at=0.55 width=%s amplitude=0.01 frames=2;",
    "swallowtail_birth at=0.12 width=%s frames=2;",
])
def test_a_width_no_bump_can_take_is_a_usage_error(tmp_path, capsys, move, width):
    # A zero or underflowing width has no finite bump power.
    code, out, err = run_script_doc(tmp_path, capsys, move % width)
    assert (code, out) == (2, "")
    assert err.startswith("error: width must be positive")
    assert not (tmp_path / "s_trace").exists()


# Each move, and what of its second frame leaves the float range.
OVERFLOWING_MOVES = {
    "deform at=0.3 width=0.1 ax=1e308 frames=2;": "x' and y' samples",
    "tangency_pass at=0.55 width=0.08 amplitude=1e308 frames=2;": "x' and y' samples",
    # finite samples and derivatives, whose balancing functionals overflow
    "deform at=0.3 width=0.1 ax=1e300 frames=2;": "closure functionals of the balancing bumps",
}


@pytest.mark.parametrize("move", list(OVERFLOWING_MOVES))
def test_a_move_that_overflows_a_frame_is_a_usage_error(tmp_path, capsys, move):
    # The frame's numbers leave the float range: the document is at
    # fault, not a certificate, wherever in the run that is found.
    # Frame 0 was built and written before frame 1 overflowed.
    code, out, err = run_script_doc(tmp_path, capsys, move)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err == "error: %s must be finite\n" % OVERFLOWING_MOVES[move]
    assert [p.name for p in (tmp_path / "s_trace").iterdir()] == ["frame_0000.csv"]


@pytest.mark.parametrize("argv, written", [
    (["lift", ZERO_AREA, "mirror"], "mirror.csv"),
    (["model", "-n", "1"], "model_rot1_seed0.csv"),
    (["homotopy", "run", DEMO, "circ", "pass_and_fold"], "pass_and_fold_trace/frame_0000.csv"),
], ids=["lift", "model", "homotopy"])
def test_an_out_that_is_a_file_is_a_usage_error(tmp_path, capsys, argv, written):
    # The first artifact cannot be written under a regular file: one
    # error line, exit 2, no report, and the file is left as it was.
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    code, out, err = run_cli(capsys, *argv, "--samples", "256", "--out", str(blocker))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write %r: " % os.path.join(str(blocker), written))
    assert len(err.splitlines()) == 1
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("argv, written", [
    (["lift", ZERO_AREA, "mirror"], ["mirror.csv", "mirror.json"]),
    (["model", "-n", "1"],
     ["model_rot1_seed0.csv", "model_rot1_seed0.json", "model_rot1_seed0.svg"]),
    (["homotopy", "run", DEMO, "circ", "pass_and_fold"], ["pass_and_fold_trace"]),
], ids=["lift", "model", "homotopy"])
def test_an_empty_out_writes_to_the_current_directory(tmp_path, capsys, monkeypatch,
                                                     argv, written):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv, "--samples", "1024", "--out", "")
    assert (code, err) == (0, "")
    assert sorted(os.listdir(tmp_path)) == written


def test_an_internal_error_exits_1_with_a_traceback(capsys, monkeypatch):
    def boom(gen):
        raise RuntimeError("boom")

    monkeypatch.setattr(lifting, "lift", boom)
    code, out, err = run_cli(capsys, "rot", ZERO_AREA, "mirror")
    assert (code, out) == (1, "")
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.splitlines()[-1] == "RuntimeError: boom"


@pytest.mark.parametrize("command", ["lift", "rot", "check"])
@pytest.mark.parametrize("document, name", [("demo", "circ"), ("zero_area", "mirror")])
def test_output_matches_golden_bytes(tmp_path, capsys, monkeypatch, command, document, name):
    # The CLI's bytes for the shipped documents are a contract: stdout,
    # stderr and the exit code match the golden files exactly.  lift
    # writes its files to the current directory.
    monkeypatch.chdir(tmp_path)
    path = str(resources.files("engel.data").joinpath(document + ".front"))
    code, out, err = run_cli(capsys, command, path, name)

    stem = "%s_%s_%s" % (command, document, name)
    assert out == golden_text(stem + ".out")
    assert err == golden_text(stem + ".err")
    assert code == int(golden_text(stem + ".code"))


def test_demo_homotopy_matches_golden_bytes(tmp_path, capsys):
    # Both JSON files verbatim, and the 129 frame CSVs through one sha256
    # of their bytes concatenated in frame order.
    code, out, err = run_cli(
        capsys, "homotopy", "run", DEMO, "circ", "pass_and_fold", "--out", str(tmp_path)
    )
    stem = "homotopy_demo_circ_pass_and_fold"
    trace_dir = tmp_path / "pass_and_fold_trace"
    assert (code, err) == (0, "")
    assert out == (trace_dir / "verification.json").read_text(encoding="utf-8")
    assert out == golden_text(stem + ".verification.json")
    assert (trace_dir / "events.json").read_text(encoding="utf-8") == golden_text(
        stem + ".events.json"
    )
    frames = sorted(trace_dir.glob("frame_*.csv"))
    assert len(frames) == 129
    digest = hashlib.sha256(b"".join(path.read_bytes() for path in frames)).hexdigest()
    assert digest + "\n" == golden_text(stem + ".frames.sha256")


# Runs two homotopies in one process and prints its peak RSS in KiB after
# each.  The peak is VmHWM, that of the process's own address space:
# Linux carries ru_maxrss over fork and exec, so there it would start at
# the RSS of the test process that started the child.
PEAK_RSS_CHILD = """
import contextlib, io, sys
from engel import cli

def peak_kib():
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])

peaks = []
for script in ("short", "long"):
    argv = ["homotopy", "run", sys.argv[1], "circ", script, "--samples", "1024",
            "--out", sys.argv[2]]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv):
            raise SystemExit("homotopy run %s failed" % script)
    peaks.append(peak_kib())
print(*peaks)
"""


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs Linux /proc/self/status"
)
def test_a_longer_homotopy_takes_no_more_memory(tmp_path):
    # Frames are written and verified as they are built, so 96 more frames
    # of 1024 samples leave the peak where the 16-frame run put it.  A run
    # that kept every frame grew it by about 7 MB.
    doc = tmp_path / "doc.front"
    doc.write_text(
        "generator circ { x: cos(1); y: sin(1); }\n"
        "script short { deform at=0.3 width=0.1 ax=0.01 frames=16; }\n"
        "script long { deform at=0.3 width=0.1 ax=0.01 frames=112; }\n"
    )
    src = os.path.dirname(os.path.dirname(engel.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, str(doc), str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    short_kib, long_kib = map(int, proc.stdout.split())
    assert long_kib - short_kib < 2048


@pytest.mark.parametrize(
    "argv, csv_name, golden",
    [
        (["lift", ZERO_AREA, "mirror"], "mirror.csv", "lift_zero_area_mirror"),
        (
            ["model", "-n", "3", "--samples", "1024", "--seed", "0"],
            "model_rot3_seed0.csv",
            "model_n3_samples1024_seed0",
        ),
    ],
    ids=["lift-zero_area-mirror", "model-3-1024"],
)
def test_single_loop_csv_matches_golden_sha256(tmp_path, capsys, argv, csv_name, golden):
    code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 0
    digest = hashlib.sha256((tmp_path / csv_name).read_bytes()).hexdigest()
    assert digest + "\n" == golden_text(golden + ".csv.sha256")


def test_model_svg_and_report_match_golden(tmp_path, capsys):
    # The report verbatim and the SVG through its sha256; the SVG's five
    # crossing marks are front_crossings' pairs.
    code, out, err = run_cli(
        capsys, "model", "-n", "3", "--samples", "1024", "--seed", "0", "--out", str(tmp_path)
    )
    stem = "model_n3_samples1024_seed0"
    assert (code, err) == (0, "")
    assert out == golden_text(stem + ".out")
    svg = (tmp_path / "model_rot3_seed0.svg").read_bytes()
    assert svg.count(b'class="crossing"') == 5
    assert hashlib.sha256(svg).hexdigest() + "\n" == golden_text(stem + ".svg.sha256")


@pytest.mark.parametrize("n", [-3, 0, 3, 5])
def test_the_16384_sample_models_match_golden(tmp_path, capsys, n):
    # The large models the benchmark writes, pinned like the 1024-sample
    # one: the report verbatim, the CSV and the SVG through their sha256.
    code, out, err = run_cli(
        capsys, "model", "-n", str(n), "--samples", "16384", "--seed", "0", "--out", str(tmp_path)
    )
    stem = "model_n%d_samples16384_seed0" % n
    assert (code, err) == (0, "")
    assert out == golden_text(stem + ".out")
    for suffix in ("csv", "svg"):
        data = (tmp_path / ("model_rot%d_seed0.%s" % (n, suffix))).read_bytes()
        assert hashlib.sha256(data).hexdigest() + "\n" == golden_text("%s.%s.sha256" % (stem, suffix))
