"""Exit codes, report schemas, and artifacts of the command line tool.

The exit code contract: 0 success, 2 parse/usage error, 3 certificate
failure.  Most tests drive main() in process; one subprocess case pins
the module entry point at the OS level.
"""

import json
import os
import subprocess
import sys
from importlib import resources

import pytest

from engel import cli

DEMO = str(resources.files("engel.data").joinpath("demo.front"))
ZERO_AREA = str(resources.files("engel.data").joinpath("zero_area.front"))


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


def test_check_rejects_zero_area_fixture(capsys):
    code, out, _ = run_cli(capsys, "check", ZERO_AREA, "mirror")
    assert code == 3
    payload = json.loads(out)
    assert payload["closure"]["closed"] is True
    assert payload["embedding"]["embedded"] is False
    assert payload["embedding"]["margin"] <= 1e-9
    pair = payload["embedding"]["double_points"][0]
    assert (pair["s0"], pair["s1"]) == (0.0, 0.5)


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


def test_env_seed_is_the_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ENGEL_SEED", "5")
    code, out, _ = run_cli(
        capsys, "model", "-n", "-2", "--samples", "2048", "--out", str(tmp_path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 5
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


def test_bad_sample_count_exits_2(capsys):
    code, _, err = run_cli(capsys, "rot", DEMO, "circ", "--samples", "1000")
    assert code == 2
    assert "power of two" in err


def test_rot_bound_violation_exits_2(capsys):
    code, _, err = run_cli(capsys, "model", "-n", "99")
    assert code == 2
    assert "64" in err


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


def test_frames_flag_fills_unset_moves(tmp_path, capsys):
    doc = tmp_path / "doc.front"
    doc.write_text(
        "generator circ { x: cos(1); y: sin(1); }\n"
        "script nudge { deform at=0.3 width=0.1 ax=0.02 ay=0.0; }\n"
    )
    code, out, _ = run_cli(
        capsys, "homotopy", "run", str(doc), "circ", "nudge",
        "--frames", "2", "--out", str(tmp_path),
    )
    assert code == 0
    assert json.loads(out)["frames"] == 3


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "engel.cli", "check", ZERO_AREA, "mirror"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["embedding"]["embedded"] is False


def run_script_doc(tmp_path, capsys, script):
    doc = tmp_path / "doc.front"
    doc.write_text("generator circ { x: cos(1); y: sin(1); }\nscript s { %s }\n" % script)
    return run_cli(capsys, "homotopy", "run", str(doc), "circ", "s", "--out", str(tmp_path))


def test_fold_past_the_ceiling_is_a_certificate_failure_exit_3(tmp_path, capsys):
    code, _, err = run_script_doc(
        tmp_path, capsys,
        "swallowtail_birth at=0.12 width=0.06 frames=2; "
        "swallowtail_death at=0.12 width=0.06 amplitude=50 frames=2;",
    )
    assert code == 3
    assert "fold the opposite flank" in err


@pytest.mark.parametrize("script, message", [
    ("slide at=0.3;", "unknown move kind"),
    ("deform at=0.3 width=0.1 amplitude=1 frames=2;", "amplitude"),
    ("tangency_pass at=0.55 width=0.08 frames=2;", "needs a 'amplitude'"),
    ("deform at=0.3 width=0.1 ax=0.05 frames=3;", "even count"),
])
def test_malformed_moves_are_usage_errors_exit_2(tmp_path, capsys, script, message):
    code, _, err = run_script_doc(tmp_path, capsys, script)
    assert code == 2
    assert message in err
