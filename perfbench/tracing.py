"""Spans around the calls into each rcg layer, recorded from outside the package.

`Tracer.install()` wraps every public function of the layer modules
(`rcg.graphs`, `rcg.formulas`, `rcg.spectra`, `rcg.oracle`, `rcg.cli`) and
every public method of the classes they define, then rebinds each name that
any `rcg` module imported with `from ... import`, so calls between layers go
through the wrappers too.  `Tracer.uninstall()` puts every original back.

A span is (id, parent id, op index, layer, function, start, end, ok).  Spans
stay in memory while the ops run and are written out at the end.  Wrappers
record nothing while `Tracer.op` is None, so the benchmark's own checks,
which also call into the package, leave no spans.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("graphs", "formulas", "spectra", "oracle", "cli")

# per-function span time reported as "<layer>.<function>_s"
TIMED = {
    "graphs": ("build_rcg", "write_edgelist", "matrix_of", "adjacency_lists"),
    "formulas": (
        "structural_report",
        "to_json_dict",
        "spanning_trees_closed",
        "kirchhoff_closed",
        "total_distance",
    ),
    "spectra": (
        "laplacian_spectrum",
        "adjacency_spectrum",
        "nonzero_product",
        "spectral_sum",
        "kirchhoff_spectral",
    ),
    "oracle": (
        "symmetric_eigenvalues",
        "matrix_tree_count",
        "resistance_sum",
        "bfs_total_distance",
        "local_clustering",
    ),
    "cli": (),
}

# work counts per layer, reported as "<layer>.<counter>"
COUNTERS = {
    "graphs": ("edges_built",),
    "formulas": ("digits_materialized",),
    "spectra": ("distinct_eigenvalues",),
    "oracle": ("matrix_order_sum",),
    "cli": (),
}

_MATRIX_SOLVERS = ("symmetric_eigenvalues", "matrix_tree_count", "resistance_sum")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list = []
        self._big_count = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"rcg.{layer}") for layer in LAYERS}
        self._big_count = modules["formulas"].BigCount
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        package = [m for n, m in list(sys.modules.items()) if n == "rcg" or n.startswith("rcg.")]
        for module in package:
            for name, obj in list(vars(module).items()):
                found = wrappers.get(id(obj))
                if found is not None and found[0] is obj:
                    self._patch(module, name, found[1])

    def uninstall(self) -> None:
        while self._patches:
            target, name, original = self._patches.pop()
            setattr(target, name, original)

    def _wrap_methods(self, layer, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, name, type(raw)(self._wrap(layer, name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, name, self._wrap(layer, name, raw))

    def _patch(self, target, name, replacement) -> None:
        self._patches.append((target, name, vars(target)[name]))
        setattr(target, name, replacement)

    def _wrap(self, layer, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if layer == "oracle" and name in _MATRIX_SOLVERS and args:
                tracer._count_matrix(name, args[0])
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(span_id)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[span_id] = (span_id, parent, tracer.op, layer, name, start, end, ok)
            tracer._count_result(layer, name, result)
            return result

        return traced

    # -- counts at the layer boundaries ---------------------------------------

    def _count_matrix(self, name, arg) -> None:
        order = len(arg) if name == "symmetric_eigenvalues" else arg.vertex_count
        self.counts["oracle.matrix_order_sum"] += order

    def _count_result(self, layer, name, result) -> None:
        if layer == "graphs" and name == "build_rcg":
            self.counts["graphs.edges_built"] += result.graph.edge_count
        elif layer == "formulas" and isinstance(result, self._big_count):
            if result.value is not None and result.value > 0:
                self.counts["formulas.digits_materialized"] += math.floor(result.log10) + 1
        elif layer == "spectra" and name in ("laplacian_spectrum", "adjacency_spectrum"):
            self.counts["spectra.distinct_eigenvalues"] += len(result.entries)

    # -- reduction --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Summed span time per timed function, self time, errors and counts.

        A span's self time is its duration minus that of its direct children,
        so a layer's self time is the time its spans cover minus the time
        covered by spans of other layers they called.
        """
        spans = [s for s in self.spans if s is not None]
        child_time = Counter()
        for _, parent, _, _, _, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        layer_of = {s[0]: s[3] for s in spans}
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for layer in LAYERS:
            out.update({f"{layer}.{fn}_s": 0.0 for fn in TIMED[layer]})
            out.update({f"{layer}.{c}": float(self.counts[f"{layer}.{c}"]) for c in COUNTERS[layer]})
            if layer != "cli":
                out[f"{layer}.errors"] = 0.0
        for span_id, parent, _, layer, name, start, end, ok in spans:
            duration = end - start
            out[f"{layer}.self_s"] += duration - child_time[span_id]
            if name in TIMED[layer]:
                out[f"{layer}.{name}_s"] += duration
            if not ok and layer != "cli" and layer_of.get(parent) != layer:
                out[f"{layer}.errors"] += 1
        return out

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "layer", "name", "start", "end", "ok")
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(dict(zip(keys, span))) + "\n")
