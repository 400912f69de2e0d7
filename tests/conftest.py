"""Shared fixtures: deterministic random micro-instances and the
brute-force joint-enumeration oracle used to certify the exact solver."""

from __future__ import annotations

import itertools
import random

import pytest

from otssplan import solve, xtalk
from otssplan.model import (CrosstalkMatrix, FrameConfig, Instance, LinkSpec,
                            NodeSpec, PlannerConfig, Request, Topology)
from otssplan.solve import enumerate_candidates


@pytest.fixture(autouse=True)
def cold_network_cache():
    """Every test starts with an empty solver network cache, so a test that
    counts route or group builds, or the spans a solve records, sees its
    own solves build them."""
    solve._cache.network = None


def two_request_200m_instance() -> Instance:
    """Two 5 Gb/s requests on one shared 200 m link with two strongly
    coupled modes: simultaneous co-propagation breaks the threshold, but
    disjoint slot intervals fit both."""
    topo = Topology((NodeSpec("n1", "edge"), NodeSpec("n2", "edge")),
                    (LinkSpec("n1", "n2", 200.0),))
    matrix = CrosstalkMatrix(((None, -15.8), (-14.3, None)))
    return Instance(
        topology=topo,
        requests=(Request("ra", "n1", "n2", 5.0), Request("rb", "n1", "n2", 5.0)),
        frame=FrameConfig(20.0, 5.0),
        mode_count=2,
        crosstalk=matrix,
    )


def tiny_instance() -> Instance:
    """Smallest interesting model: one link, one request, 2 modes, 2 slots."""
    topo = Topology((NodeSpec("n1", "edge"), NodeSpec("n2", "edge")),
                    (LinkSpec("n1", "n2", 100.0),))
    matrix = CrosstalkMatrix(((None, -20.0), (-18.0, None)))
    return Instance(
        topology=topo,
        requests=(Request("r1", "n1", "n2", 5.0),),
        frame=FrameConfig(10.0, 5.0),
        mode_count=2,
        crosstalk=matrix,
    )


def random_micro_instance(rng: random.Random, max_nodes: int = 4,
                          max_requests: int = 3, max_modes: int = 3,
                          max_slots: int = 4) -> Instance:
    """Seeded random instance within the micro-corpus bounds."""
    n = rng.randint(2, max_nodes)
    nodes = tuple(NodeSpec(f"n{i + 1}", "edge") for i in range(n))
    ids = [s.id for s in nodes]
    links = []
    for u in ids:
        for v in ids:
            if u != v and rng.random() < 0.6:
                links.append(LinkSpec(u, v, float(rng.choice([50, 100, 200, 500]))))
    if not links:
        links.append(LinkSpec(ids[0], ids[1], 100.0))
    modes = rng.randint(1, max_modes)
    matrix = CrosstalkMatrix(tuple(
        tuple(None if a == v else round(rng.uniform(-30.0, -11.0), 1)
              for v in range(modes))
        for a in range(modes)))
    slots = rng.randint(1, max_slots)
    frame = FrameConfig(frame_ms=5.0 * slots, slice_ms=5.0)
    n_req = rng.randint(1, max_requests)
    requests = []
    for i in range(n_req):
        src, dst = rng.sample(ids, 2)
        requests.append(Request(f"r{i + 1}", src, dst, float(rng.randint(1, 10))))
    return Instance(topology=Topology(nodes, tuple(links)), requests=tuple(requests),
                    frame=frame, mode_count=modes, crosstalk=matrix,
                    planner=PlannerConfig())


def _joint_feasible(instance: Instance, chosen: list) -> bool:
    cells = set()
    for a in chosen:
        for cell in a.cells():
            if cell in cells:
                return False
            cells.add(cell)
    model = instance.planner.accumulation_model
    for victim in chosen:
        total = 0.0
        for other in chosen:
            if other is victim:
                continue
            for link, m_a, m_v in xtalk.overlap_terms(victim, other):
                total += xtalk.pairwise_contribution(
                    instance.crosstalk, m_a, m_v,
                    instance.topology.length(link), model)
        if total and total > xtalk.feasibility_limit(
                instance.planner.xt_threshold_db, model):
            return False
    return True


def brute_force_best(instance: Instance, k: int = 8) -> tuple[float, int]:
    """Optimal (throughput, lambda count) by exhaustive enumeration of all
    joint candidate assignments, checked with first-principles feasibility.
    Independent of the branch-and-bound's pruning and incremental state."""
    options = []
    for r in instance.requests:
        cands = enumerate_candidates(r, instance, k, all_mode_subsets=True)
        options.append([None] + cands)
    best = (0.0, 0)
    found = False
    for combo in itertools.product(*options):
        chosen = [a for a in combo if a is not None]
        if not _joint_feasible(instance, chosen):
            continue
        tp = sum(instance.request_by_id(a.request_id).bandwidth_gbps for a in chosen)
        lam = sum(a.lambda_count for a in chosen)
        pair = (tp, lam)
        if not found or tp > best[0] + 1e-9 or (abs(tp - best[0]) <= 1e-9 and lam < best[1]):
            best = pair
            found = True
    return best


class CountingMode(int):
    """A mode number that counts how often it is hashed. A walk over
    (link, mode, slot) cells hashes a cell's mode once per cell it visits,
    so the count bounds the cells visited; past `cap` hashes it raises, so
    a walk over a huge slot interval fails at once instead of filling
    memory."""

    def __new__(cls, mode: int, cap: int):
        self = super().__new__(cls, mode)
        self.hashes, self.cap = 0, cap
        return self

    def __hash__(self):
        self.hashes += 1
        if self.hashes > self.cap:
            raise AssertionError(f"mode {int(self)} hashed more than {self.cap} times")
        return int.__hash__(self)


@pytest.fixture
def two_request_200m() -> Instance:
    return two_request_200m_instance()


@pytest.fixture
def tiny() -> Instance:
    return tiny_instance()
