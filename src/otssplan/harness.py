"""Experiment harness: seeded traffic generation, load sweeps comparing
sliced scheduling against the conventional one-slot baseline, and the
bundled scenario fixtures."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import solve as solve_mod, validate
from .model import (CrosstalkMatrix, FrameConfig, Instance, LinkSpec, NodeSpec,
                    PlannerConfig, Request, Topology, ValidationError,
                    build_fat_tree, collapse_frame, left_sum, on_grid, serialize_instance)
from .solve import Schedule, SolveLimits

# Pairwise coupling of the default 4-mode channel set, dB per 100 m;
# row = aggressor, column = victim, asymmetric.
DEFAULT_CROSSTALK_DB = (
    (None, -26.0, -21.2, -43.0),
    (-17.7, None, -15.8, -19.7),
    (-19.5, -14.3, None, -15.6),
    (-21.5, -16.7, -17.5, None),
)


class TrafficError(ValueError):
    """Uniform traffic cannot be drawn; `field` names the rejected input:
    `topology`, `load`, `granularity` or `capacity`."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field, self.message = field, message


def _check_traffic(topology: Topology, load: float, granularity: float, capacity: float):
    """Raise TrafficError unless gen_uniform_traffic can draw this load."""
    edges = len(topology.edge_nodes())
    if edges < 2:
        raise TrafficError("topology", f"need >= 2 edge switches, topology has {edges}")
    if not 0 < granularity < math.inf:
        raise TrafficError("granularity", f"must be finite and > 0, got {granularity:g}")
    if not granularity <= capacity < math.inf:
        raise TrafficError("capacity", f"must be finite and at least the {granularity:g} "
                           f"Gb/s granularity, got {capacity:g}")
    if not 0 < load < math.inf or not on_grid(load, granularity):
        raise TrafficError("load", f"must be a finite multiple > 0 of the {granularity:g} "
                           f"Gb/s granularity, got {load:g}")


def gen_uniform_traffic(topology: Topology, offered_load_gbps: float,
                        granularity_gbps: float = 1.0, seed: int | str = 0,
                        capacity_gbps: float = 10.0) -> tuple[Request, ...]:
    """Uniform random traffic between ordered edge-switch pairs.

    Bandwidths are uniform on the granularity multiples up to the channel
    capacity (at least one granularity); the last request is trimmed so the
    total hits the offered load (a granularity multiple) exactly.
    Deterministic for a given seed; inputs that break these rules raise TrafficError.
    """
    _check_traffic(topology, offered_load_gbps, granularity_gbps, capacity_gbps)
    edges = sorted(topology.edge_nodes())
    pairs = [(s, d) for s in edges for d in edges if s != d]
    steps = int(Fraction(str(capacity_gbps)) / Fraction(str(granularity_gbps)))
    rng = random.Random(f"traffic:{seed}")
    requests: list[Request] = []
    total = Fraction(0)
    load = Fraction(str(offered_load_gbps))
    while total < load:
        src, dst = pairs[rng.randrange(len(pairs))]
        bw = Fraction(str(granularity_gbps)) * rng.randint(1, steps)
        bw = min(bw, load - total)
        total += bw
        requests.append(Request(id=f"r{len(requests) + 1}", source=src,
                                destination=dst, bandwidth_gbps=float(bw)))
    return tuple(requests)


@dataclass(frozen=True)
class SweepRow:
    load_gbps: float
    trial: int
    solver: str
    throughput_gbps: float
    acceptance_ratio: float
    lambda_count: int
    solve_ms: float
    optimal: bool
    valid: bool  # the schedule passes validate.check_schedule on its frame


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    seed: int | str
    instance_digest: str
    bandwidth_law: str
    averages: tuple[tuple[float, str, float], ...]  # (load, solver, mean throughput)
    limits: SolveLimits  # what every row was solved under

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["load_gbps", "trial", "solver", "throughput_gbps", "acceptance_ratio",
                             "lambda_count", "solve_ms", "optimal", "valid"])
            for r in self.rows:
                writer.writerow([r.load_gbps, r.trial, r.solver, r.throughput_gbps,
                                 f"{r.acceptance_ratio:.6f}", r.lambda_count,
                                 f"{r.solve_ms:.3f}", int(r.optimal), int(r.valid)])

    def metadata(self) -> dict:
        return {
            "seed": self.seed,
            "instance_digest": self.instance_digest,
            "bandwidth_law": self.bandwidth_law,
            "node_budget": self.limits.node_budget,
            "time_budget_s": self.limits.time_budget_s,
            "k_paths": self.limits.k_paths,
            "all_mode_subsets": self.limits.all_mode_subsets,
            "averages": [{"load_gbps": l, "solver": s, "mean_throughput_gbps": m}
                         for l, s, m in self.averages],
        }


def _instance_digest(instance: Instance) -> str:
    doc = json.dumps(serialize_instance(instance), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


# Where an instance holds each traffic input but the load.
TEMPLATE_FIELDS = {"topology": "$.topology.nodes", "granularity": "$.planner.granularity_gbps",
                   "capacity": "$.planner.link_capacity_gbps"}


def run_sweep(instance_template: Instance, loads: Sequence[float],
              solvers: Sequence[str], trials: int, seed: int | str,
              limits: Optional[SolveLimits] = None) -> SweepResult:
    """For each (load, trial) cell, generate traffic with a derived seed,
    solve with every requested solver on identical requests, and record a
    row per solver, with whether its schedule passes
    validate.check_schedule (baseline's on the collapsed frame it plans;
    outside solve_ms). Cells are independent; per-cell seeds depend only on
    (master seed, load index, trial index). Bandwidths are drawn at the
    template's granularity up to its link capacity. Before any cell runs, a
    load it cannot draw raises TrafficError, a template ValidationError, and
    a load or solver given twice ValueError, since its rows would share a
    label."""
    if not loads or not solvers or trials < 1:
        raise ValueError("need at least one load, one solver, and one trial")
    for what, values in (("load", loads), ("solver", solvers)):
        if len(set(values)) != len(values):
            raise ValueError(f"each {what} may be given once, got {list(values)}")
    limits = limits or SolveLimits()
    rows: list[SweepRow] = []
    cap = instance_template.planner.link_capacity_gbps
    granularity = instance_template.planner.granularity_gbps
    try:  # a load of 0 is a cell without requests
        for load in loads:
            _check_traffic(instance_template.topology, load or granularity, granularity, cap)
    except TrafficError as exc:
        if exc.field == "load":
            raise
        raise ValidationError([(TEMPLATE_FIELDS[exc.field], exc.message)]) from None
    for li, load in enumerate(loads):
        for trial in range(trials):
            requests = gen_uniform_traffic(
                instance_template.topology, load, granularity,
                seed=f"{seed}:{li}:{trial}", capacity_gbps=cap) if load else ()
            instance = instance_template.with_requests(requests)
            cell: dict[str, tuple[Schedule, float]] = {}
            for solver in sorted(solvers, key=lambda s: s != "baseline"):
                start = time.perf_counter()
                # any baseline schedule is feasible on the sliced grid;
                # seeding the exact incumbent with it guarantees sliced >=
                # baseline even when the node budget runs out
                initial = (solve_mod.lift_to_sliced(cell["baseline"][0], instance)
                           if solver == "exact" and "baseline" in cell else None)
                schedule = solve_mod.solve(instance, solver, limits, initial=initial)
                cell[solver] = (schedule, (time.perf_counter() - start) * 1e3)
            for solver in solvers:
                schedule, elapsed_ms = cell[solver]
                frame = collapse_frame(instance) if solver == "baseline" else instance
                n = len(instance.requests)
                rows.append(SweepRow(
                    load_gbps=float(load), trial=trial, solver=solver,
                    throughput_gbps=schedule.throughput_gbps,
                    acceptance_ratio=(len(schedule.accepted_ids) / n) if n else 1.0,
                    lambda_count=schedule.lambda_count,
                    solve_ms=elapsed_ms, optimal=schedule.optimal,
                    valid=validate.check_schedule(frame, schedule).passed))
    averages = []
    for load in loads:
        for solver in solvers:
            vals = [r.throughput_gbps for r in rows
                    if r.load_gbps == float(load) and r.solver == solver]
            averages.append((float(load), solver, left_sum(vals) / len(vals)))
    return SweepResult(rows=tuple(rows), seed=seed,
                       instance_digest=_instance_digest(instance_template),
                       bandwidth_law=(f"uniform multiples of {granularity} Gb/s "
                                      f"on (0, {cap}]"),
                       averages=tuple(averages), limits=limits)


# --- bundled fixtures -----------------------------------------------------


def fig2_fixture() -> Instance:
    """Small three-tier fat-tree planning instance: 4 edge / 2 aggregation /
    2 core switches, 100 m fibers, 4 modes with the default coupling
    matrix, -13 dB threshold, 10 Gb/s channels, 20 ms frame in 5 ms slices,
    and a few demonstration requests between edge switches."""
    topology = build_fat_tree(4, 2, 2, 100.0)
    requests = (
        Request("r1", "e1", "e2", 5.0),
        Request("r2", "e2", "e3", 5.0),
        Request("r3", "e3", "e4", 3.0),
        Request("r4", "e4", "e1", 10.0),
    )
    return Instance(
        topology=topology,
        requests=requests,
        frame=FrameConfig(frame_ms=20.0, slice_ms=5.0),
        mode_count=4,
        crosstalk=CrosstalkMatrix(DEFAULT_CROSSTALK_DB),
        planner=PlannerConfig(),
    )


@dataclass(frozen=True)
class TestbedScenario:
    """Aggregation scenario over a long 500 m trunk: seven small requests
    funnel through one aggregation switch, with a reference schedule that
    keeps the m4 request's only co-propagating neighbour on m1."""

    instance: Instance
    reference_schedule: Schedule
    # per-request expected accumulated crosstalk on the reference schedule
    expected_g_total_db: float
    expected_g_feasible: bool


def fig4_scenario() -> TestbedScenario:
    """Seven 2.5 Gb/s requests aggregated onto a 500 m trunk link.

    Requests #A (from E1), #B, #C (from E2) ride mode m1; #D, #E, #F, #G
    use m2, m3, m3, m4. On the reference schedule the m4 request #G shares
    its slice only with #A on m1, for an accumulated crosstalk of
    -36.01 dB, comfortably under the -13 dB threshold.
    """
    topology = Topology(
        nodes=(NodeSpec("E1", "edge"), NodeSpec("E2", "edge"),
               NodeSpec("A1", "aggregation"), NodeSpec("C1", "core")),
        links=(LinkSpec("E1", "A1", 100.0), LinkSpec("E2", "A1", 100.0),
               LinkSpec("A1", "C1", 500.0)),
    )
    requests = tuple(
        Request(rid, src, "C1", 2.5)
        for rid, src in (("#A", "E1"), ("#B", "E2"), ("#C", "E2"), ("#D", "E1"),
                         ("#E", "E2"), ("#F", "E1"), ("#G", "E2")))
    instance = Instance(
        topology=topology,
        requests=requests,
        # planning grid: 20 ms frame, 5 ms slices; the 50 us guard is
        # display-only metadata for the timeline renderer
        frame=FrameConfig(frame_ms=20.0, slice_ms=5.0, guard_us=50.0),
        mode_count=4,
        crosstalk=CrosstalkMatrix(DEFAULT_CROSSTALK_DB),
        planner=PlannerConfig(granularity_gbps=0.5),
    )

    trunk = ("A1", "C1")

    def assign(rid: str, src: str, mode: int, slot: int) -> solve_mod.Assignment:
        return solve_mod.Assignment(request_id=rid, path=((src, "A1"), trunk),
                                    modes=(mode,), slot_start=slot, slot_end=slot + 1)

    assignments = (
        assign("#A", "E1", 0, 0),
        assign("#B", "E2", 0, 1),
        assign("#C", "E2", 0, 2),
        assign("#D", "E1", 1, 3),
        assign("#G", "E2", 3, 0),
    )
    schedule = Schedule(
        assignments=assignments,
        rejected=("#E", "#F"),
        throughput_gbps=left_sum(instance.request_by_id(a.request_id).bandwidth_gbps
                                 for a in assignments),
        lambda_count=sum(a.lambda_count for a in assignments),
        optimal=False,
    )
    return TestbedScenario(instance=instance, reference_schedule=schedule,
                           expected_g_total_db=-36.01, expected_g_feasible=True)


FIXTURES = ("fig2", "fig4")


def fixture_instance(name: str) -> Instance:
    if name == "fig2":
        return fig2_fixture()
    if name == "fig4":
        return fig4_scenario().instance
    raise ValueError(f"unknown fixture {name!r}; known: {', '.join(FIXTURES)}")
