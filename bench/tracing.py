"""Timing and counting shims around interfere's layers, for traced runs.

``Tracer.install`` replaces each layer function with a shim in every module
of the package that binds it (``validate_gram`` is bound in model, engine,
cli and oracle), and ``uninstall`` puts the originals back, so untraced
rounds run the program untouched. A shim records a span only while a request
is being timed; the benchmark's own checks call through unrecorded.

Spans stay in memory as [request, layer, start, end, parent span index] and
are written when the run ends. A layer's self time is its spans' durations
minus those of their child spans. The arguments that the distinct-ratio
counters need are kept until the request ends and are summarized then,
outside every timed span.
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> (module, function names); None means every public function.
LAYERS = {
    "model.validate_gram": ("model", ["validate_gram"]),
    "engine.terms": ("engine", ["relative_permutation_terms"]),
    "engine.event_probability": ("engine", ["event_probability"]),
    "engine.full_distribution": ("engine", ["full_distribution"]),
    "linalg.permanent": ("linalg", ["permanent"]),
    "linalg.determinant": ("linalg", ["determinant"]),
    "decompose.interference_orders": ("decompose", ["interference_orders"]),
    "oracle": ("oracle", None),
    "scenarios": ("scenarios", None),
    "cli": ("cli", ["main"]),
    "cli.emit": ("cli", ["emit"]),
}
KEEP_CALL = {"model.validate_gram", "engine.terms", "cli.emit"}

# Per-layer metric name -> unit. Each is a per-request average.
METRICS = {
    "model.validate_gram.calls": "count",
    "model.validate_gram.self_s": "s",
    "model.validate_gram.distinct_ratio": "ratio",
    "engine.terms.calls": "count",
    "engine.terms.self_s": "s",
    "engine.terms.tau": "count",
    "engine.terms.distinct_ratio": "ratio",
    "engine.event_probability.calls": "count",
    "engine.event_probability.self_s": "s",
    "engine.full_distribution.self_s": "s",
    "linalg.permanent.calls": "count",
    "linalg.permanent.self_s": "s",
    "linalg.determinant.calls": "count",
    "linalg.determinant.self_s": "s",
    "decompose.interference_orders.calls": "count",
    "decompose.interference_orders.self_s": "s",
    "oracle.calls": "count",
    "oracle.self_s": "s",
    "scenarios.self_s": "s",
    "cli.self_s": "s",
    "cli.emit_s": "s",
    "cli.emit_bytes": "B",
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.request = None  # id of the request being timed, else None
        self.spans = []
        self._stack = []
        self._calls = {}  # span index -> (args, result) for KEEP_CALL layers
        self._patched = []

    def _shim(self, layer, function):
        tracer = self
        keep = layer in KEEP_CALL

        @functools.wraps(function)
        def shim(*args, **kwargs):
            if tracer.request is None:
                return function(*args, **kwargs)
            index = len(tracer.spans)
            record = [tracer.request, layer, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer.spans.append(record)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                record[2], record[3] = start, end
            if keep:
                tracer._calls[index] = (args, result)
            return result

        return shim

    def install(self):
        prefix = self.package.__name__ + "."
        modules = [self.package] + [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)]
        for layer, (module_name, names) in LAYERS.items():
            source = getattr(self.package, module_name)
            if names is None:
                names = [n for n, f in vars(source).items()
                         if inspect.isfunction(f) and f.__module__ == source.__name__ and not n.startswith("_")]
            for name in names:
                original = getattr(source, name)
                shim = self._shim(layer, original)
                for module in modules:
                    for attr in [a for a, v in vars(module).items() if v is original]:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, shim)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def close_request(self, first_span):
        """Sums over the spans of the request that began at ``first_span``,
        keyed "layer.calls", "layer.self_s" and so on. Drops the arguments
        kept for counting."""
        totals = defaultdict(float)
        spans = self.spans[first_span:]
        child_time = defaultdict(float)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        distinct = defaultdict(set)
        for offset, (_, layer, start, end, parent) in enumerate(spans):
            index = first_span + offset
            totals[f"{layer}.self_s"] += end - start - child_time[index]
            if parent < 0 or self.spans[parent][1] != layer:
                totals[f"{layer}.calls"] += 1
            if index not in self._calls:
                continue
            args, result = self._calls.pop(index)
            if layer == "model.validate_gram":
                distinct[layer].add(np.asarray(args[0], dtype=complex).tobytes())
            elif layer == "engine.terms":
                u, inputs, output = args
                distinct[layer].add((np.asarray(u, dtype=complex).tobytes(), tuple(inputs), tuple(output)))
                totals["engine.terms.tau"] += len(result[0])
            else:
                totals["cli.emit_bytes"] += len(result.encode())
        for layer, keys in distinct.items():
            totals[f"{layer}.distinct"] += len(keys)
        return totals

    @staticmethod
    def metrics(request_totals):
        """Per-request averages over the given ``close_request`` sums, with
        the base of each value."""
        requests = len(request_totals)
        t = defaultdict(float)
        for totals in request_totals:
            for key, value in totals.items():
                t[key] += value
        values, bases = {}, {}
        for name in METRICS:
            if name.endswith(".distinct_ratio"):
                layer = name[: -len(".distinct_ratio")]
                calls, distinct = t[f"{layer}.calls"], t[f"{layer}.distinct"]
                values[name] = distinct / calls if calls else 0.0
                bases[name] = f"{distinct:.0f} distinct of {calls:.0f} calls in {requests} requests"
            else:
                values[name] = t["cli.emit.self_s" if name == "cli.emit_s" else name] / requests
                bases[name] = f"per request, {requests} requests"
        return values, bases

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
