"""Seeded instance documents for the planner benchmark.

The benchmark builds its own inputs, so a change to the program (the
`harness` traffic generator or the bundled fixtures included) cannot
change what is measured. Every document is JSON text in the format
`otssplan.model.load_instance` reads.
"""

from __future__ import annotations

import hashlib
import json
import random

# The bundled fig2 fixture: 4-mode channel set (dB per 100 m, row =
# aggressor, column = victim), 20 ms frame in 5 ms slices, -13 dB cap.
CROSSTALK_DB_PER_100M = [
    [None, -26.0, -21.2, -43.0],
    [-17.7, None, -15.8, -19.7],
    [-19.5, -14.3, None, -15.6],
    [-21.5, -16.7, -17.5, None],
]
PLANNER = {
    "accumulation_model": "linear-power",
    "granularity_gbps": 1.0,
    "link_capacity_gbps": 10.0,
    "objective_mode": "lexicographic",
    "xt_threshold_db": -13.0,
}
FIG2_REQUESTS = [("r1", "e1", "e2", 5.0), ("r2", "e2", "e3", 5.0),
                 ("r3", "e3", "e4", 3.0), ("r4", "e4", "e1", 10.0)]
GRANULARITY_GBPS = 1
CAPACITY_GBPS = 10

WORKLOADS = ("heavy-sweep", "emit-lp")

# Per size: the cells and offered load of a heavy-sweep pool, and the node
# budget of every solve. "full" is the benchmark; "tiny" is the smoke run.
SIZES = {
    "full": {"cells": 8, "load_gbps": 240, "node_budget": 5000},
    "tiny": {"cells": 1, "load_gbps": 40, "node_budget": 500},
}


def fat_tree(edge_count: int, agg_count: int, core_count: int,
             length_m: float = 100.0) -> dict:
    """Three-tier fat-tree topology document, links in the order
    `otssplan.model.build_fat_tree` produces them."""
    nodes = ([{"id": f"e{i + 1}", "tier": "edge"} for i in range(edge_count)]
             + [{"id": f"a{i + 1}", "tier": "aggregation"} for i in range(agg_count)]
             + [{"id": f"c{i + 1}", "tier": "core"} for i in range(core_count)])
    links = []

    def duplex(u: str, v: str) -> None:
        links.append({"from": u, "to": v, "length_m": length_m})
        links.append({"from": v, "to": u, "length_m": length_m})

    for e in range(edge_count):
        for a in range(agg_count):
            duplex(f"e{e + 1}", f"a{a + 1}")
    for a in range(agg_count):
        for c in range(core_count):
            duplex(f"a{a + 1}", f"c{c + 1}")
    return {"nodes": nodes, "links": links}


def uniform_traffic(topology: dict, load_gbps: int, seed: str) -> list[tuple]:
    """Uniform traffic between ordered edge-switch pairs: bandwidths drawn
    from the granularity multiples up to the channel capacity, the last
    request trimmed so the total equals the offered load. The same law as
    `otssplan.harness.gen_uniform_traffic`, kept here so inputs depend
    only on the seed."""
    edges = sorted(n["id"] for n in topology["nodes"] if n["tier"] == "edge")
    pairs = [(s, d) for s in edges for d in edges if s != d]
    rng = random.Random(seed)
    requests: list[tuple] = []
    total = 0
    while total < load_gbps:
        src, dst = pairs[rng.randrange(len(pairs))]
        bw = min(GRANULARITY_GBPS * rng.randint(1, CAPACITY_GBPS // GRANULARITY_GBPS),
                 load_gbps - total)
        total += bw
        requests.append((f"r{len(requests) + 1}", src, dst, float(bw)))
    return requests


def instance_text(topology: dict, requests: list[tuple]) -> str:
    return json.dumps({
        "topology": topology,
        "modes": {"count": 4},
        "crosstalk_db_per_100m": CROSSTALK_DB_PER_100M,
        "frame": {"frame_ms": 20.0, "slice_ms": 5.0},
        "planner": PLANNER,
        "requests": [{"id": rid, "src": src, "dst": dst, "bandwidth_gbps": bw}
                     for rid, src, dst, bw in requests],
    }, sort_keys=True)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def pool(workload: str, seed: int, size: str) -> list[str]:
    """The instance documents one pass of a workload plans, in order."""
    topology = fat_tree(4, 2, 2)
    if workload == "emit-lp":
        # the fig2 fixture as shipped, whatever the seed, so its LP bytes
        # can be held to the golden digests
        return [instance_text(topology, FIG2_REQUESTS)]
    # heavy-sweep cell i has its own traffic, drawn from (seed, i)
    return [instance_text(topology, uniform_traffic(topology, SIZES[size]["load_gbps"],
                                                    f"{workload}:{seed}:{i}"))
            for i in range(SIZES[size]["cells"])]
