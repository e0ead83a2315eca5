"""The benchmark's self-test runs clean against this checkout.

bench/run.py calls into the package by name (min_speed,
z_closure_defect, fourier.derivative, ...) and checks every workload's
certificates; --smoke runs each workload at tiny size, untraced and
traced, in temporary directories that it removes.  A change to src/
that breaks one of those names or checks fails here.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAILED" not in proc.stdout
