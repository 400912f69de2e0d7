"""Benchmark of the otssplan planner.

    python3 perfbench/run.py --workload heavy-sweep --seed 0 --seconds 30 --trace 0

Run it from a source checkout: it imports the planner from the
checkout's `src/`. One caller plans cell after cell in a closed loop,
cycling through a pool of instance documents made from the seed, until
`--seconds` have elapsed and the first pass is complete. Every output
is checked; one cell is one operation, and it fails if it raises or any
of its checks fails. Quality metrics come from the first pass, and a
cell planned again must reproduce its first outputs exactly.

With `--trace 0` the run reports the end-to-end metrics. With
`--trace 1` it plans whole passes over half the pool (at least one
cell) untraced for half the time, then the same cells traced, reports
the per-layer metrics and writes the spans to `.bench_out/`. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

Exit status: 0 when every check passed, 1 when any failed, 2 when the
planner's source is missing or cannot be imported.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PROGRAM = ("otssplan", "otssplan.model", "otssplan.solve", "otssplan.xtalk",
           "otssplan.validate", "otssplan.milp")
SETUP_REPEATS = 9

END_TO_END = (
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("cell_s_p50", "s"),
    ("carried_gbps", "Gb/s"),
    ("lambda_per_gbps", "lambda/Gbps"),
    ("sliced_gain", "ratio"),
    ("exact_over_greedy", "ratio"),
    ("peak_rss_mb", "MB"),
)


def setup(workload: str, seed: int, size: str) -> list[str]:
    """What a run pays before its first cell: a fresh import of the
    planner, and the workload's pool of instance documents."""
    for name in [n for n in sys.modules if n == "otssplan" or n.startswith("otssplan.")]:
        del sys.modules[name]
    for name in PROGRAM:
        importlib.import_module(name)
    return inputs.pool(workload, seed, size)


class Loop:
    """The closed loop over a pool, with its check tallies and the
    outcomes of its first pass."""

    def __init__(self, cell, limits, out_dir: Path, checks):
        self.cell = cell
        self.limits = limits
        self.out_dir = out_dir
        self.checks = checks
        self.first: dict[int, object] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, pool: list[str], seconds: float, tracer: spans.Tracer | None = None,
            whole_passes: bool = False) -> tuple[list[float], int]:
        """Plan the pool's cells in order, cycling, until `seconds` have
        elapsed and the first pass is complete; with `whole_passes`, stop
        only at the end of a pass. Returns the time of every completed
        cell and the number of cells attempted."""
        times: list[float] = []
        deadline = time.perf_counter() + seconds
        for n in itertools.count():
            if (n >= len(pool) and (not whole_passes or n % len(pool) == 0)
                    and time.perf_counter() >= deadline):
                return times, n
            i = n % len(pool)
            if tracer is not None:
                tracer.cell = self.attempted
            self.attempted += 1
            failed_before = self.checks.total_failed()
            try:
                elapsed, outcome = self.cell(pool[i], self.limits, self.checks, self.out_dir)
            except Exception:  # noqa: BLE001 - a raising cell is a failed operation
                traceback.print_exc()
                self.failed += 1
                continue
            if i in self.first:
                self.checks.expect("repeat_identical",
                                   outcome.signature == self.first[i].signature)
            else:
                self.first[i] = outcome
            if self.checks.total_failed() > failed_before:
                self.failed += 1
            times.append(elapsed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(inputs.SIZES), default="full",
                        help="tiny is for the smoke run")
    args = parser.parse_args(argv)

    if not (SRC / "otssplan" / "__init__.py").is_file():
        print(f"error: no planner source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pool = setup(args.workload, args.seed, args.size)
        setup_times.append(time.perf_counter() - start)
    import otssplan
    if Path(otssplan.__file__).resolve().parent != SRC / "otssplan":
        print(f"error: imported the planner from {otssplan.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from otssplan import milp, model, solve, validate, xtalk

    node_budget = inputs.SIZES[args.size]["node_budget"]
    limits = solve.SolveLimits(node_budget=node_budget,
                               time_budget_s=workloads.TIME_BUDGET_S)
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    checks = workloads.Checks()
    loop = Loop(workloads.CELLS[args.workload], limits, out_dir, checks)
    print(f"workload={args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"node_budget={node_budget} time_budget_s={workloads.TIME_BUDGET_S:g}")
    for i, text in enumerate(pool):
        print(f"instance {i} sha256={inputs.digest(text)}")
    if args.workload == "emit-lp":
        print("lp sha256 expected " + " ".join(f"{k}={v}" for k, v in workloads.LP_SHA256.items()))

    try:
        if args.trace:
            traced_pool = pool[:max(1, len(pool) // 2)]
            plain_times, _ = loop.run(traced_pool, args.seconds / 2,
                                                whole_passes=True)
            tracer = spans.Tracer()
            tracer.install(model, solve, xtalk, validate, milp)
            try:
                traced_times, traced_cells = loop.run(traced_pool, args.seconds / 2, tracer,
                                                      whole_passes=True)
            finally:
                tracer.uninstall()
            tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
            values = tracer.layer_metrics(traced_cells // len(traced_pool), node_budget)
            if plain_times and traced_times:
                values["trace.overhead_frac"] = (statistics.mean(traced_times)
                                                 / statistics.mean(plain_times) - 1.0)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in spans.LAYER_METRICS if name in values}
        else:
            times, _ = loop.run(pool, args.seconds)
            values = {"setup_s": statistics.median(setup_times)}
            if times:
                values["cells_per_s"] = len(times) / sum(times)
                values["cell_s_p50"] = statistics.median(times)
            if len(loop.first) == len(pool):
                values.update(workloads.quality([loop.first[i] for i in range(len(pool))]))
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END if name in values}
            print(f"cells={len(times)} pool={len(pool)}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for name in sorted(set(checks.passed) | set(checks.failed)):
        print(f"check {name} passed={checks.passed[name]} failed={checks.failed[name]}")
    print(f"failed_frac={loop.failed / loop.attempted:g} "
          f"({loop.failed} of {loop.attempted} cells)")
    correct = loop.failed == 0 and len(metrics) == (
        len(spans.LAYER_METRICS) if args.trace else len(END_TO_END))
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
