"""Span recorder for the traced run, and the per-layer metrics derived
from its spans.

The recorder replaces public module attributes of the program with
wrappers, so every call that resolves the name through its module (the
program's own internal calls included) records a span: name, start, end,
parent span, the cell it ran in, and counts taken from the result. Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

# (metric, unit, better) for every per-layer metric the traced run prints.
LAYER_METRICS = (
    ("model.load_instance.calls", "count", "lower"),
    ("model.load_instance.self_ms", "ms", "lower"),
    ("solve.k_shortest_paths.calls", "count", "lower"),
    ("solve.k_shortest_paths.self_ms", "ms", "lower"),
    ("solve.k_shortest_paths.paths", "count", "lower"),
    ("solve.enumerate_candidates.calls", "count", "lower"),
    ("solve.enumerate_candidates.self_ms", "ms", "lower"),
    ("solve.enumerate_candidates.candidates", "count", "lower"),
    ("solve.search.self_ms", "ms", "lower"),
    ("solve.search.nodes", "count", "lower"),
    ("solve.search.nodes_per_s", "1/s", "higher"),
    ("solve.search.budget_bound", "count", "lower"),
    ("solve.search.proven", "count", "higher"),
    ("solve.greedy.self_ms", "ms", "lower"),
    ("solve.greedy.accept_ratio", "ratio", "higher"),
    ("xtalk.accumulate_for_request.calls", "count", "lower"),
    ("xtalk.accumulate_for_request.self_ms", "ms", "lower"),
    ("validate.check_schedule.calls", "count", "lower"),
    ("validate.check_schedule.self_ms", "ms", "lower"),
    ("validate.check_schedule.violations", "count", "lower"),
    ("milp.build_model.calls", "count", "lower"),
    ("milp.build_model.self_ms", "ms", "lower"),
    ("milp.build_model.variables", "count", "lower"),
    ("milp.build_model.constraints", "count", "lower"),
    ("milp.emit_lp.calls", "count", "lower"),
    ("milp.emit_lp.self_ms", "ms", "lower"),
    ("milp.emit_lp.bytes", "B", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# Layers reported as calls and self time, and the solver entry points
# whose self time is the search layer's.
TIMED_LAYERS = ("model.load_instance", "solve.k_shortest_paths",
                "solve.enumerate_candidates", "xtalk.accumulate_for_request",
                "validate.check_schedule", "milp.build_model", "milp.emit_lp")
SEARCH_SPANS = ("solve.exact", "solve.greedy", "solve.baseline")
# Metrics that are sums of counts taken from results.
COUNTED = ("solve.k_shortest_paths.paths", "solve.enumerate_candidates.candidates",
           "solve.search.budget_bound", "solve.search.proven",
           "validate.check_schedule.violations", "milp.build_model.variables",
           "milp.build_model.constraints", "milp.emit_lp.bytes")


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, cell, counts or None]
        self.spans: list[list] = []
        self.cell = -1
        self._open: list[int] = []
        self._wrapped: list[tuple] = []

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        fn = getattr(module, attr)
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.cell, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()
            if counts is not None:
                span[5] = counts(result)
            return result

        setattr(module, attr, traced)
        self._wrapped.append((module, attr, fn))

    def install(self, model, solve, xtalk, validate, milp) -> None:
        """Wrap every measured layer boundary of the program. Count keys
        are the names of the metrics they add to."""
        self.wrap(model, "load_instance", "model.load_instance")
        self.wrap(solve, "k_shortest_paths", "solve.k_shortest_paths",
                  lambda paths: {"solve.k_shortest_paths.paths": len(paths)})
        self.wrap(solve, "enumerate_candidates", "solve.enumerate_candidates",
                  lambda cands: {"solve.enumerate_candidates.candidates": len(cands)})
        self.wrap(solve, "solve_exact", "solve.exact",
                  lambda s: {"solve.search.proven": int(s.optimal),
                             "solve.search.budget_bound": int(not s.optimal)})
        self.wrap(solve, "solve_greedy", "solve.greedy",
                  lambda s: {"accepted": len(s.assignments),
                             "requests": len(s.assignments) + len(s.rejected)})
        self.wrap(solve, "solve_baseline_conventional", "solve.baseline")
        self.wrap(xtalk, "accumulate_for_request", "xtalk.accumulate_for_request")
        self.wrap(validate, "check_schedule", "validate.check_schedule",
                  lambda report: {"validate.check_schedule.violations": len(report.violations)})
        self.wrap(milp, "build_model", "milp.build_model",
                  lambda mip: {"milp.build_model.variables": len(mip.variables),
                               "milp.build_model.constraints": len(mip.constraints)})
        self.wrap(milp, "emit_lp", "milp.emit_lp",
                  lambda paths: {"milp.emit_lp.bytes": _file_bytes(paths)})

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._wrapped):
            setattr(module, attr, fn)
        self._wrapped.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "cell", "counts")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")

    def layer_metrics(self, passes: int, node_budget: int) -> dict[str, float]:
        """Per-layer metrics per pass over the traced cells, all but
        trace.overhead_frac, which needs an untraced run. Search nodes
        are node_budget per exact solve that stopped on the budget: every
        solve in a run finishes far under its time budget."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        budget_bound_s = 0.0
        for span, own in zip(self.spans, self.self_times()):
            name, span_counts = span[0], span[5] or {}
            calls[name] += 1
            self_s[name] += own
            for key, value in span_counts.items():
                counts[key] += value
            if span_counts.get("solve.search.budget_bound"):
                budget_bound_s += own
        out = {metric: counts[metric] / passes for metric in COUNTED}
        for layer in TIMED_LAYERS:
            out[f"{layer}.calls"] = calls[layer] / passes
            out[f"{layer}.self_ms"] = self_s[layer] * 1e3 / passes
        budget_bound = counts["solve.search.budget_bound"]
        out["solve.search.self_ms"] = sum(self_s[n] for n in SEARCH_SPANS) * 1e3 / passes
        out["solve.search.nodes"] = node_budget * budget_bound / passes
        out["solve.search.nodes_per_s"] = (node_budget * budget_bound / budget_bound_s
                                           if budget_bound_s else 0.0)
        out["solve.greedy.self_ms"] = self_s["solve.greedy"] * 1e3 / passes
        out["solve.greedy.accept_ratio"] = (counts["accepted"] / counts["requests"]
                                            if counts["requests"] else 0.0)
        return out
