"""One workload in one fresh process: set up, time passes, check outputs.

Started by run.py.  It imports ``engel`` from the checkout's ``src/``
only, builds the workload's inputs, then runs passes until the run's
time is spent, always at least one.  With ``--trace 1`` an untraced
warm-up pass comes first, then untraced and traced passes alternate, so
the tracing overhead is measured in the same process and warm state.
The result goes to ``--result`` as JSON.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_engel():
    sys.path.insert(0, SRC)
    import engel

    if not os.path.abspath(engel.__file__).startswith(os.path.join(SRC, "engel")):
        raise ImportError("engel imported from %s, not from %s" % (engel.__file__, SRC))
    from tracer import import_modules

    return import_modules()


def _tree_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path)
               for f in files)


def _env(workload):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "samples": workload.samples,
        "items": workload.items,
    }


def measure(workload, seconds, tmp, tracer=None):
    """Run and check passes until ``seconds`` are spent; returns the result."""
    # The first pass in a process pays page faults the later ones do not;
    # in a traced run it is a warm-up, so it cannot pose as tracing overhead.
    warmup = tracer is not None
    walls = {False: [], True: []}
    layers = []
    records = {}
    attempted = failed = passes = 0
    failures = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls[True]) < len(walls[False])
        out_dir = tempfile.mkdtemp(dir=tmp)
        if traced:
            tracer.reset()
            with tracer.active():
                t = time.perf_counter()
                outcomes = workload.run_pass(out_dir)
                wall = time.perf_counter() - t
            layer = tracer.metrics()
            layer["trace.wall_s"] = wall
            layer["trace.bench_self_s"] = wall - tracer.root_child_s()
            layer["trace.layers_self_s"] = tracer.layers_self_s()
            layer["cli.out_bytes"] = _tree_bytes(out_dir)
            layers.append(layer)
        else:
            t = time.perf_counter()
            outcomes = workload.run_pass(out_dir)
            wall = time.perf_counter() - t
        if not warmup:
            walls[traced].append(wall)
        warmup = False
        problems, record, digests = workload.check(outcomes, out_dir)
        shutil.rmtree(out_dir)
        attempted += len(outcomes)
        failed += len({item for item, _ in problems})
        failures.extend(message for _, message in problems)
        records.setdefault(traced, record)

        passes += 1
        elapsed = time.perf_counter() - start
        done = walls[False] and (tracer is None or walls[True])
        if done and elapsed * (passes + 1) / passes > seconds:
            break

    result = {
        "wall_s": walls[False],
        "traced_wall_s": walls[True],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": digests,
    }
    if tracer is not None:
        if records[True] != records[False]:
            failed += 1
            failures.append("traced pass outputs differ from the untraced pass")
        result["layers"] = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
        result["layers"]["trace.overhead_frac"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        )
        result["missing"] = tracer.missing_layers()
        result["missing_names"] = tracer.missing
    result.update(attempted=attempted, failed=failed, failures=failures[:10])
    return result


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--tmp", required=True, help="scratch directory for artifacts")
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    engel = _import_engel()
    from tracer import Tracer
    from workloads import WORKLOADS

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)
    workload = WORKLOADS[args.workload](engel, args.seed, args.smoke, reference)
    result = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        result.update(measure(workload, args.seconds, args.tmp,
                              Tracer() if args.trace else None))
        result["env"] = _env(workload)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
