"""Every script in demos/ runs to completion, and README's library quick
start prints what its comments say.

Each demo runs from a copy in a temporary directory, so the artifacts it
writes next to itself land there and not in demos/out.
"""

import contextlib
import io
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_to_completion(tmp_path, demo):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def readme_library_quick_start():
    """(code, expected lines) of README's "Quick start, library" block;
    each print's expected line is the `# ...` comment under it."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = text.split("## Quick start, library", 1)[1].split("```python\n", 1)[1]
    code = code.split("```", 1)[0]
    lines = code.splitlines()
    expected = [after[2:] for line, after in zip(lines, lines[1:])
                if line.startswith("print(") and after.startswith("# ")]
    return code, expected


def test_readme_library_quick_start_prints_its_comments():
    code, expected = readme_library_quick_start()
    assert len(expected) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
