"""Every script in demos/ runs to completion, and every python block of
README prints what its comments say.

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


def readme_python_blocks():
    """(code, expected lines) of each python block in README; each
    print's expected line is the `# ...` comment under it."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = []
    for block in text.split("```python\n")[1:]:
        code = block.split("```", 1)[0]
        lines = code.splitlines()
        expected = [after[2:] for line, after in zip(lines, lines[1:])
                    if line.startswith("print(") and after.startswith("# ")]
        blocks.append((code, expected))
    return blocks


def test_readme_library_quick_start_prints_its_comments():
    # Both blocks sit in "Quick start, library": the first lifts a circle,
    # the second streams and verifies the shipped move script.
    blocks = readme_python_blocks()
    assert [len(expected) for _, expected in blocks] == [3, 1]
    for code, expected in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, "README.md", "exec"), {})
        assert out.getvalue().splitlines() == expected
