"""Per-layer spans recorded from outside the package.

The tracer wraps the public functions of each ``engel`` module in place
and restores them afterwards; nothing inside ``src/`` knows about it.
Each wrapped call is a span.  A span's self time is its duration minus
the time covered by its child spans, so the self times of all layers plus
the root span (the benchmark's own code) add up to the traced wall time.

A layer is a group of one or more callables.  A call into a layer that is
already open (``DriftingInterpolant.value`` calling ``Interpolant.value``)
is folded into the outer span, so ``calls`` counts entries into the layer.
Spans of the ``fourier.eval`` layer also charge their duration and point
count to every open ancestor, which gives the pair scans their ``eval_s``.

Refactors are tolerated: a callable is wrapped at every module attribute
that refers to it (``homotopy`` imports ``find_cusps`` by name), and a
name that no longer exists is reported as missing instead of failing.
"""

import contextlib
import importlib
import time

import numpy as np

EVAL = "fourier.eval"

MODULES = (
    "fourier", "curves", "lifting", "invariants", "pairscan", "models",
    "homotopy", "frontlang", "render", "cli",
)


def _points(args, kwargs):
    s = args[1] if len(args) > 1 else kwargs.get("s")
    return int(np.size(s))


def _len(result, args):
    return len(result)


# layer name -> (callables as (module, dotted attribute), {stat: extractor}).
# Every layer reports calls and self_s; extractors add work counts read from
# the arguments and the result.
LAYERS = {
    EVAL: (
        [("fourier", "evaluate"), ("fourier", "evaluate_derivative"),
         ("fourier", "evaluate_antiderivative"),
         ("fourier", "Interpolant.value"), ("fourier", "Interpolant.derivative"),
         ("fourier", "DriftingInterpolant.value"),
         ("fourier", "DriftingInterpolant.derivative")],
        {},
    ),
    "fourier.antiderivative": ([("fourier", "antiderivative")], {}),
    "fourier.derivative": ([("fourier", "derivative")], {}),
    "fourier.resample": ([("fourier", "resample")], {}),
    "pairscan.coincident_pairs": ([("pairscan", "coincident_pairs")], {"pairs": _len}),
    "pairscan.front_crossings": ([("pairscan", "front_crossings")], {"crossings": _len}),
    "curves.find_cusps": ([("curves", "find_cusps")], {"cusps": _len}),
    "curves.front_of": ([("curves", "front_of")], {}),
    "curves.LegendrianGenerator": ([("curves", "LegendrianGenerator.__init__")], {}),
    "curves.sample_generator": ([("curves", "sample_generator")], {}),
    "lifting.closure_defect": (
        [("lifting", "z_closure_defect"), ("lifting", "w_closure_defect")], {},
    ),
    "lifting.balance_closure": (
        [("lifting", "balance_closure")],
        {"unchanged": lambda result, args: int(result is args[0])},
    ),
    "lifting.balance_supports": ([("lifting", "balance_supports")], {}),
    "lifting.lift": ([("lifting", "lift")], {}),
    "lifting.embedding_check": (
        [("lifting", "embedding_check")],
        {"double_points": lambda result, args: len(result.double_points)},
    ),
    "lifting.area_integral": ([("lifting", "area_integral")], {}),
    "invariants.rot_winding": ([("invariants", "rot_winding")], {}),
    "invariants.invariant_report": ([("invariants", "invariant_report")], {}),
    "models.model_front": ([("models", "model_front")], {}),
    "homotopy.run_script": (
        [("homotopy", "run_script")],
        {"frames": lambda result, args: len(result.frames)},
    ),
    "homotopy.apply_move": ([("homotopy", "apply_move")], {}),
    "homotopy.verify_isotopy": (
        [("homotopy", "verify_isotopy")],
        {"frames": lambda result, args: int(result.frames)},
    ),
    "frontlang.parse": ([("frontlang", "parse")], {}),
    "render.loop_csv_text": ([("render", "loop_csv_text")], {"bytes": _len}),
    "render.front_svg_text": ([("render", "front_svg_text")], {"bytes": _len}),
    "cli.main": ([("cli", "main")], {}),
}

# Calls counted without a span, charged to a stat of another layer.  One
# synthesis attempt of model_front is one candidate generator.
COUNTERS = {("models", "_candidate_generator"): ("models.model_front", "attempts")}

# Layers whose inclusive time (self plus children) is reported as total_s:
# the entry points whose totals the per-layer breakdown is read against.
INCLUSIVE = (
    "cli.main", "homotopy.run_script", "homotopy.verify_isotopy",
    "invariants.invariant_report", "models.model_front", "curves.front_of",
    "lifting.embedding_check",
)

# Extra stats per layer beyond calls and self_s.
EVAL_STATS = {
    EVAL: ("points",),
    "pairscan.coincident_pairs": ("eval_s", "eval_points"),
    "pairscan.front_crossings": ("eval_s",),
}


# Whole-pass figures of a traced run, measured by the worker around the pass.
RUN_UNITS = {
    "trace.overhead_frac": "ratio",  # traced over untraced pass wall time, minus 1
    "trace.wall_s": "s",
    "trace.bench_self_s": "s",  # root span: the benchmark's own code in the pass
    "trace.layers_self_s": "s",
    "cli.out_bytes": "bytes",  # artifact bytes the pass wrote
}


def import_modules():
    """The ``engel`` modules that exist, by short name."""
    mods = {}
    for name in MODULES:
        try:
            mods[name] = importlib.import_module("engel." + name)
        except ModuleNotFoundError as err:
            if err.name != "engel." + name:
                raise
    return mods


def layer_metric_units():
    """Every per-layer metric the tracer emits, with its unit."""
    units = {}
    for layer, (_, extractors) in LAYERS.items():
        units[layer + ".calls"] = "count"
        units[layer + ".self_s"] = "s"
        if layer in INCLUSIVE:
            units[layer + ".total_s"] = "s"
        for stat in EVAL_STATS.get(layer, ()):
            units["%s.%s" % (layer, stat)] = "s" if stat.endswith("_s") else "count"
        for stat in extractors:
            units["%s.%s" % (layer, stat)] = "bytes" if stat == "bytes" else "count"
    for layer, stat in COUNTERS.values():
        units["%s.%s" % (layer, stat)] = "count"
    units.update(RUN_UNITS)
    return units


class _Frame:
    __slots__ = ("start", "child_ns", "eval_ns", "eval_points")

    def __init__(self, start):
        self.start = start
        self.child_ns = 0
        self.eval_ns = 0
        self.eval_points = 0


class Tracer:
    """Install with ``with tracer.active(): ...``; read ``metrics()``."""

    def __init__(self):
        self._mods = import_modules()
        self._patches = []  # (owner, attribute, original)
        self._depth = {layer: 0 for layer in LAYERS}
        self.missing = []
        self.reset()

    def reset(self):
        self.stats = {}
        for layer in LAYERS:
            self.stats[layer] = {"calls": 0, "self_ns": 0, "total_ns": 0, "eval_ns": 0,
                                 "eval_points": 0, "points": 0}
        self.counts = {key: 0 for key in COUNTERS.values()}
        self.root = _Frame(0)
        self._stack = [self.root]

    # -- wrapping -----------------------------------------------------

    def _resolve(self, module, dotted):
        owner = self._mods.get(module)
        parts = dotted.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, parts[-1]):
            return None, None
        return owner, parts[-1]

    def _patch_everywhere(self, owner, attr, original, wrapper):
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod in self._mods.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def install(self):
        self.missing = []
        for layer, (targets, extractors) in LAYERS.items():
            for module, dotted in targets:
                owner, attr = self._resolve(module, dotted)
                if owner is None:
                    self.missing.append("%s.%s" % (module, dotted))
                    continue
                original = getattr(owner, attr)
                wrapper = self._span_wrapper(layer, original, extractors)
                self._patch_everywhere(owner, attr, original, wrapper)
        for (module, dotted), key in COUNTERS.items():
            owner, attr = self._resolve(module, dotted)
            if owner is None:
                self.missing.append("%s.%s" % (module, dotted))
                continue
            original = getattr(owner, attr)
            self._patch_everywhere(owner, attr, original, self._count_wrapper(key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _count_wrapper(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, layer, fn, extractors):
        depth = self._depth
        clock = time.perf_counter_ns
        is_eval = layer == EVAL

        def spanned(*args, **kwargs):
            if depth[layer]:
                return fn(*args, **kwargs)
            stack = self._stack
            frame = _Frame(clock())
            stack.append(frame)
            depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[layer] -= 1
                stack.pop()
                dur = clock() - frame.start
                stat = self.stats[layer]
                stat["calls"] += 1
                stat["self_ns"] += dur - frame.child_ns
                stat["total_ns"] += dur
                stat["eval_ns"] += frame.eval_ns
                stat["eval_points"] += frame.eval_points
                stack[-1].child_ns += dur
                if is_eval:
                    points = _points(args, kwargs)
                    stat["points"] += points
                    for outer in stack:
                        outer.eval_ns += dur
                        outer.eval_points += points
            for stat_name, extract in extractors.items():
                try:
                    value = extract(result, args)
                except (AttributeError, TypeError, IndexError):
                    continue
                self.stats[layer][stat_name] = self.stats[layer].get(stat_name, 0) + value
            return result

        return spanned

    # -- results ------------------------------------------------------

    def missing_layers(self):
        """Layers none of whose callables exist any more."""
        gone = set(self.missing)
        out = []
        for layer, (targets, _) in LAYERS.items():
            if all("%s.%s" % t in gone for t in targets):
                out.append(layer)
        for (module, dotted), (layer, stat) in COUNTERS.items():
            if "%s.%s" % (module, dotted) in gone:
                out.append("%s.%s" % (layer, stat))
        return out

    def metrics(self):
        """Flat per-layer metrics for the spans recorded since reset()."""
        out = {}
        for layer, (_, extractors) in LAYERS.items():
            stat = self.stats[layer]
            out[layer + ".calls"] = stat["calls"]
            out[layer + ".self_s"] = stat["self_ns"] * 1e-9
            if layer in INCLUSIVE:
                out[layer + ".total_s"] = stat["total_ns"] * 1e-9
            for name in EVAL_STATS.get(layer, ()):
                out["%s.%s" % (layer, name)] = (
                    stat["eval_ns"] * 1e-9 if name == "eval_s" else stat[name]
                )
            for name in extractors:
                out["%s.%s" % (layer, name)] = stat.get(name, 0)
        for (layer, name), value in self.counts.items():
            out["%s.%s" % (layer, name)] = value
        return out

    def layers_self_s(self):
        return sum(stat["self_ns"] for stat in self.stats.values()) * 1e-9

    def root_child_s(self):
        return self.root.child_ns * 1e-9
