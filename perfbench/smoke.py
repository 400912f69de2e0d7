"""Smoke run of the benchmark at its tiny size.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json untraced and traced, and fails
unless each run exits 0, prints every metric BENCHMARK.json names with
the unit it names, and runs every output check of its workload. Then
runs the benchmark from a copy holding only BENCHMARK.json and the
benchmark, which must fail without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEDULE = ("schedule_valid", "totals_match")
CHECKS = {
    "heavy-sweep": [f"{s}_{c}" for s in ("baseline", "exact", "greedy") for c in SCHEDULE]
    + ["exact_ge_lifted_baseline", "solves_under_time_budget", "repeat_identical"],
    "emit-lp": [f"exact_{c}" for c in SCHEDULE]
    + ["variables_match_count_formulas", "constraints_match_count_formulas",
       "phase1_value_proven", "lp_phase1_sha256", "lp_phase2_sha256",
       "solves_under_time_budget", "repeat_identical"],
}


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        ran = set()
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in declared}
            if printed != wanted:
                problems.append(f"{label}: metrics {printed} differ from {wanted}")
            ran |= set(re.findall(r"^check (\S+) passed=[1-9]", proc.stdout, re.M))
            if trace and workload == "heavy-sweep":
                values = {name: m["value"] for name, m in result["metrics"].items()}
                budget = inputs.SIZES["tiny"]["node_budget"]
                if values["solve.search.nodes"] != budget * values["solve.search.budget_bound"]:
                    problems.append(f"{label}: nodes is not node_budget x budget_bound")
        missing = sorted(set(CHECKS[workload]) - ran)
        if missing:
            problems.append(f"{workload}: checks never ran: {missing}")

    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, inputs.WORKLOADS[0], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
        problems.append(f"bare copy: exit {proc.returncode} with output {proc.stdout!r}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
