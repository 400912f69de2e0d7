"""The benchmark's cells, one per workload, and the checks on their
outputs.

A cell makes the calls a user's command would make, in order, through
the program's public module attributes (so the traced run sees them),
and returns the time those calls took. The checks run after the timed
calls and do not count toward the cell time.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from otssplan import milp, model, solve, validate

# A run ends within minutes, so no solve can reach this budget; a solve
# that returns under it stopped on the node budget or finished its search.
TIME_BUDGET_S = 3600.0

# SHA-256 of the phase files emit-lp writes for the fig2 fixture. The LP
# bytes are golden: any change to them fails the run.
LP_SHA256 = {
    "phase1": "e7c4bf93c26d96cbab84ee27fef1014475995d5191afa7b0e04ef76b290b4743",
    "phase2": "69a16d8db664a6c09a77c8e640134fe99f45e976bfed7e8c02159d53d51cef05",
}


class Checks:
    """Pass and fail tallies of output checks, by check name."""

    def __init__(self):
        self.passed: Counter = Counter()
        self.failed: Counter = Counter()

    def expect(self, name: str, ok: bool) -> None:
        (self.passed if ok else self.failed)[name] += 1

    def total_failed(self) -> int:
        return sum(self.failed.values())


@dataclass(frozen=True)
class Outcome:
    """What one cell produced: the planning solver's throughput and
    lambda count, the reference solvers' throughput where the cell runs
    them, and a digest of every output for the repeat check."""

    carried_gbps: float
    lambda_count: int
    baseline_gbps: Optional[float]
    greedy_gbps: Optional[float]
    signature: str


def _signature(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _check_schedule(checks: Checks, label: str, instance, schedule, report) -> None:
    checks.expect(f"{label}_schedule_valid", report.passed)
    checks.expect(f"{label}_totals_match",
                  schedule.throughput_gbps == validate.throughput_gbps(instance, schedule)
                  and schedule.lambda_count == validate.resource_usage(schedule))


def _call(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def heavy_sweep(text: str, limits, checks: Checks, out_dir: Path) -> tuple[float, Outcome]:
    """The criterion-4 cell: baseline, exact seeded with the lifted
    baseline, and greedy on one instance, every output validated."""
    start = time.perf_counter()
    instance = model.load_instance(text)
    baseline, baseline_s = _call(solve.solve_baseline_conventional, instance, limits)
    lifted = solve.lift_to_sliced(baseline, instance)
    exact, exact_s = _call(solve.solve_exact, instance, limits, initial=lifted)
    greedy, greedy_s = _call(solve.solve_greedy, instance, limits)
    collapsed = model.collapse_frame(instance)
    reports = (validate.check_schedule(collapsed, baseline),
               validate.check_schedule(instance, exact),
               validate.check_schedule(instance, greedy))
    elapsed = time.perf_counter() - start

    for (label, inst, schedule), report in zip(
            (("baseline", collapsed, baseline), ("exact", instance, exact),
             ("greedy", instance, greedy)), reports):
        _check_schedule(checks, label, inst, schedule, report)
    checks.expect("exact_ge_lifted_baseline",
                  exact.throughput_gbps >= lifted.throughput_gbps)
    checks.expect("solves_under_time_budget",
                  max(baseline_s, exact_s, greedy_s) < limits.time_budget_s)
    return elapsed, Outcome(exact.throughput_gbps, exact.lambda_count,
                            baseline.throughput_gbps, greedy.throughput_gbps,
                            _signature(baseline.to_json(), exact.to_json(), greedy.to_json()))


def emit_lp(text: str, limits, checks: Checks, out_dir: Path) -> tuple[float, Outcome]:
    """What `otssplan emit-lp` does: build the MIP, solve exactly for the
    phase-1 value, and write both phase files."""
    start = time.perf_counter()
    instance = model.load_instance(text)
    mip = milp.build_model(instance)
    exact, exact_s = _call(solve.solve_exact, instance, limits)
    paths = milp.emit_lp(mip, out_dir / "model.lp", phase1_value=exact.throughput_gbps)
    elapsed = time.perf_counter() - start

    counts = milp.count_formulas(instance)
    checks.expect("variables_match_count_formulas",
                  len(mip.variables) == counts["total_variables"])
    checks.expect("constraints_match_count_formulas",
                  len(mip.constraints) == counts["total_constraints"])
    _check_schedule(checks, "exact", instance, exact,
                    validate.check_schedule(instance, exact))
    checks.expect("phase1_value_proven", exact.optimal)
    checks.expect("solves_under_time_budget", exact_s < limits.time_budget_s)
    digests = {phase: hashlib.sha256(path.read_bytes()).hexdigest()
               for phase, path in zip(("phase1", "phase2"), paths)}
    for phase, expected in LP_SHA256.items():
        checks.expect(f"lp_{phase}_sha256", digests.get(phase) == expected)
    return elapsed, Outcome(exact.throughput_gbps, exact.lambda_count, None, None,
                            _signature(exact.to_json(), json.dumps(digests, sort_keys=True)))


CELLS = {"heavy-sweep": heavy_sweep, "emit-lp": emit_lp}


def quality(outcomes: list[Outcome]) -> dict[str, float]:
    """Quality metrics over one pass of the pool. A ratio between solvers
    exists only where the cell runs both; elsewhere it is reported as 1."""
    carried = sum(o.carried_gbps for o in outcomes)
    baseline = [o.baseline_gbps for o in outcomes if o.baseline_gbps is not None]
    greedy = [o.greedy_gbps for o in outcomes if o.greedy_gbps is not None]
    return {
        "carried_gbps": carried / len(outcomes),
        "lambda_per_gbps": sum(o.lambda_count for o in outcomes) / carried,
        "sliced_gain": carried / sum(baseline) if baseline else 1.0,
        "exact_over_greedy": carried / sum(greedy) if greedy else 1.0,
    }
