"""Benchmark for the engel package: certificate workloads, end to end and per layer.

    python3 bench/run.py --workload homotopy_demo --seed 0 --seconds 30 --trace 0
    python3 bench/run.py                 # every workload, one after another
    python3 bench/run.py --smoke         # self-test at tiny sizes, see smoke()

Each workload runs in a fresh Python process (bench/worker.py) that
imports ``engel`` from this checkout's ``src/``.  With ``--trace 0`` the
run reports the end-to-end metrics:

    setup_s      process start to the first timed item (import, parsing,
                 input generation); median over several fresh processes
    wall_s       one full pass over the workload's items; median of passes
    peak_rss_mb  peak resident set size of the workload process

Every item's certificates are checked, against reference values in
bench/reference.json where they exist.  ``failed``/``attempted`` in the
result line count the items whose check failed or raised, and
``fail_frac`` is printed beside the metrics.  With ``--trace 1`` the run
alternates untraced and traced passes in one process and reports the
per-layer metrics of bench/tracer.py instead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Artifacts go to a temporary
directory inside the checkout that is removed before exit.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import layer_metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("homotopy_demo", "rot_corpus", "model_cli_16k")
SETUP_PROCESSES = 4  # fresh processes timed for setup_s, the main worker included
DEADLINE_S = 170.0  # one workload's run must end within 180 s
ACCOUNTING_TOL = 0.02  # traced self times must cover the traced wall time to 2%
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker(args, tmp, extra, timeout):
    result = os.path.join(tmp, "result.json")
    # Sources compile on every import, whatever the caller's environment, so
    # setup_s measures the same thing everywhere and no bytecode is written.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.update({name: "1" for name in THREAD_ENV})
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0), "--tmp", tmp, "--result", result] + extra
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise BenchError("worker for %s timed out" % args.workload) from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError("worker for %s exited with %d" % (args.workload, code))
    with open(result, encoding="utf-8") as handle:
        out = json.load(handle)
    os.remove(result)
    return out


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


@contextlib.contextmanager
def scratch_dir():
    """A temporary directory inside the checkout, removed on exit."""
    parent = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=parent)
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(parent)


def run_workload(args, tmp, smoke=False):
    """Metrics and check counts of one workload; raises BenchError."""
    deadline = time.monotonic() + DEADLINE_S
    extra = ["--smoke"] if smoke else []
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROCESSES - 1):
            setups.append(_worker(args, tmp, ["--setup-only"] + extra,
                                  deadline - time.monotonic())["setup_s"])
    out = _worker(args, tmp, extra, deadline - time.monotonic())
    setups.append(out["setup_s"])
    env = dict(out["env"], cpu=_cpu_model(), nproc=os.cpu_count(),
               commit=_git_commit(), seed=args.seed)
    if args.trace:
        units = layer_metric_units()
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in sorted(out["layers"].items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(out["wall_s"]), "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "metrics": metrics,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "failures": out["failures"],
        "digests": out["digests"],
        "missing": out.get("missing", []),
        "missing_names": out.get("missing_names", []),
        "samples": {"setup_s": setups, "wall_s": out["wall_s"],
                    "traced_wall_s": out["traced_wall_s"]},
        "env": env,
    }


def _report(name, res):
    print("== %s" % name)
    for metric, entry in res["metrics"].items():
        print("%-44s %14.6g %s" % (metric, entry["value"], entry["unit"]))
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print("%-44s %14.6g ratio (%d of %d items)" % ("fail_frac", frac, res["failed"],
                                                    res["attempted"]))
    if res["missing_names"]:
        print("missing names: %s; layers reported as 0: %s"
              % (", ".join(res["missing_names"]), ", ".join(res["missing"]) or "none"))
    for failure in res["failures"]:
        print("FAILED: %s" % failure)
    print("samples: %s" % json.dumps(res["samples"]))
    print("digests: %s" % json.dumps(res["digests"], sort_keys=True))
    print("env: %s" % json.dumps(res["env"], sort_keys=True))


def smoke(args):
    """Self-test: every workload at tiny size, untraced and traced.

    Sizes: a 5-generator corpus at N=1024, a 2-move script of 9 frames,
    two models at 1024 samples.  Asserts that every metric BENCHMARK.json
    names is emitted (per-layer metrics of missing layers excepted), that
    no item failed, and that the layer self times plus the benchmark's own
    time account for the traced wall time.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    try:
        with scratch_dir() as tmp:
            for name in WORKLOADS:
                for trace in (0, 1):
                    args.workload, args.trace, args.seconds = name, trace, 0
                    tag = "%s trace=%d" % (name, trace)
                    found = list(_smoke_problems(run_workload(args, tmp, smoke=True),
                                                 wanted[trace]))
                    problems.extend("%s: %s" % (tag, p) for p in found)
                    print("smoke %-28s %s" % (tag, "FAIL" if found else "ok"))
    except BenchError as err:
        problems.append(str(err))
    for problem in problems:
        print("FAILED: %s" % problem)
    return 1 if problems else 0


def _smoke_problems(res, wanted):
    got = set(res["metrics"])
    absent = {m for m in wanted - got
              if not any(m.startswith(layer + ".") for layer in res["missing"])}
    if absent:
        yield "metrics not emitted: %s" % sorted(absent)
    if got - wanted:
        yield "metrics not in BENCHMARK.json: %s" % sorted(got - wanted)
    if res["failed"]:
        yield "%d failed: %s" % (res["failed"], res["failures"])
    if "trace.wall_s" in got:
        m = {k: v["value"] for k, v in res["metrics"].items()}
        covered = (m["trace.layers_self_s"] + m["trace.bench_self_s"]) / m["trace.wall_s"]
        if abs(covered - 1.0) > ACCOUNTING_TOL:
            yield "self times cover %.4f of the traced wall time" % covered


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 reproduces acceptance criterion 2 and model seed 0")
    parser.add_argument("--seconds", type=int, default=30, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test: every workload at tiny size, traced and untraced")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "engel", "__init__.py")):
        print("error: no engel package under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        with scratch_dir() as tmp:
            for name in names:
                args.workload = name
                results[name] = run_workload(args, tmp)
                _report(name, results[name])
    except BenchError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {"%s.%s" % (n, m): v for n, r in results.items()
                   for m, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
