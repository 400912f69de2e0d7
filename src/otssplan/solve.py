"""Schedule construction: exact branch-and-bound, greedy, and the
conventional one-slot baseline.

The search is over per-request atomic candidates (path, mode set,
contiguous slot interval), so path continuity, contiguity, and cross-mode
slot equality hold by construction. The search tracks slot exclusivity as
one int bitmask over (link, mode, slot) cells, and adds crosstalk from a
per-link coefficient table in `xtalk.overlap_terms` order, so totals and
prune decisions are bit-identical to summing `xtalk.pairwise_contribution`.
"""

from __future__ import annotations

import heapq
import itertools
import json
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from . import xtalk
from .model import Instance, Link, Request, Topology, collapse_frame


@dataclass(frozen=True)
class Assignment:
    """One request's placement, accepted or candidate: an ordered link
    path, a mode set, and one contiguous slot interval [slot_start,
    slot_end), shared by all links and modes."""

    request_id: str
    path: tuple[Link, ...]
    modes: tuple[int, ...]
    slot_start: int
    slot_end: int

    @property
    def supply(self) -> int:
        return len(self.modes) * (self.slot_end - self.slot_start)

    @property
    def lambda_count(self) -> int:
        return len(self.path) * self.supply

    def cells(self) -> Iterable[tuple[Link, int, int]]:
        for link in self.path:
            for m in self.modes:
                for t in range(self.slot_start, self.slot_end):
                    yield (link, m, t)


@dataclass(frozen=True)
class Schedule:
    assignments: tuple[Assignment, ...]
    rejected: tuple[str, ...]
    throughput_gbps: float
    lambda_count: int
    optimal: bool = True

    @cached_property
    def _by_request(self) -> dict[str, Assignment]:
        # reversed, so the first assignment of a request id wins
        return {a.request_id: a for a in reversed(self.assignments)}

    def assignment(self, request_id: str) -> Optional[Assignment]:
        return self._by_request.get(request_id)

    @property
    def accepted_ids(self) -> tuple[str, ...]:
        return tuple(a.request_id for a in self.assignments)

    def to_document(self) -> dict:
        return {
            "accepted": [
                {
                    "request_id": a.request_id,
                    "path": [list(link) for link in a.path],
                    "modes": list(a.modes),
                    "slots": {"start": a.slot_start, "end": a.slot_end},
                }
                for a in self.assignments
            ],
            "rejected": list(self.rejected),
            "throughput_gbps": self.throughput_gbps,
            "lambda_count": self.lambda_count,
            "optimal": self.optimal,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document(), sort_keys=True, separators=(",", ":"))


def schedule_from_document(doc: dict) -> Schedule:
    assignments = tuple(
        Assignment(
            request_id=str(a["request_id"]),
            path=tuple((str(u), str(v)) for u, v in a["path"]),
            modes=tuple(int(m) for m in a["modes"]),
            slot_start=int(a["slots"]["start"]),
            slot_end=int(a["slots"]["end"]),
        )
        for a in doc["accepted"]
    )
    return Schedule(assignments=assignments,
                    rejected=tuple(str(r) for r in doc["rejected"]),
                    throughput_gbps=float(doc["throughput_gbps"]),
                    lambda_count=int(doc["lambda_count"]),
                    optimal=bool(doc.get("optimal", True)))


@dataclass(frozen=True)
class SolveLimits:
    node_budget: int = 1_000_000
    time_budget_s: float = 300.0
    k_paths: int = 4
    all_mode_subsets: bool = False

    def __post_init__(self):
        if self.node_budget < 1 or self.time_budget_s <= 0 or self.k_paths < 1:
            raise ValueError("solve limits must be positive")


# --- routing --------------------------------------------------------------


def _shortest_path(topology: Topology, src: str, dst: str,
                   banned_nodes: frozenset[str] = frozenset(),
                   banned_links: frozenset[Link] = frozenset()) -> Optional[tuple[float, tuple[str, ...]]]:
    """Dijkstra with lexicographic node-sequence tie-breaking."""
    heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (src,))]
    best: dict[str, tuple[float, tuple[str, ...]]] = {}
    while heap:
        dist, path = heapq.heappop(heap)
        node = path[-1]
        if node in best and best[node] <= (dist, path):
            continue
        best[node] = (dist, path)
        if node == dst:
            return dist, path
        for link in topology.out_links(node):
            if link.dst in banned_nodes or link.dst in path or link.key in banned_links:
                continue
            heapq.heappush(heap, (dist + link.length_m, path + (link.dst,)))
    return None


def k_shortest_paths(topology: Topology, src: str, dst: str, k: int) -> list[tuple[str, ...]]:
    """Yen's algorithm; paths ordered by (total length, node sequence)."""
    first = _shortest_path(topology, src, dst)
    if first is None:
        return []
    found: list[tuple[float, tuple[str, ...]]] = [first]
    candidates: list[tuple[float, tuple[str, ...]]] = []
    seen = {first[1]}
    while len(found) < k:
        _, prev = found[-1]
        for i in range(len(prev) - 1):
            root = prev[:i + 1]
            root_len = sum(topology.length((root[j], root[j + 1])) for j in range(len(root) - 1))
            banned_links = frozenset(
                (p[i], p[i + 1]) for _, p in found if len(p) > i and p[:i + 1] == root)
            banned_nodes = frozenset(root[:-1])
            spur = _shortest_path(topology, root[-1], dst, banned_nodes, banned_links)
            if spur is None:
                continue
            total = root_len + spur[0]
            path = root[:-1] + spur[1]
            if path not in seen:
                seen.add(path)
                heapq.heappush(candidates, (total, path))
        if not candidates:
            break
        found.append(heapq.heappop(candidates))
    return [p for _, p in found]


# --- candidate enumeration ------------------------------------------------


def _mode_subsets(mode_count: int, all_subsets: bool) -> list[tuple[int, ...]]:
    if all_subsets:
        out = []
        for width in range(1, mode_count + 1):
            out.extend(itertools.combinations(range(mode_count), width))
        return out
    # contiguous index runs only
    return [tuple(range(s, s + w))
            for w in range(1, mode_count + 1)
            for s in range(mode_count - w + 1)]


def enumerate_candidates(request: Request, instance: Instance, k: int,
                         all_mode_subsets: bool = False) -> list[Assignment]:
    """All (path, mode subset, contiguous slot interval) triples that cover
    the request's slot-unit demand without a whole spare mode or slot
    column, ordered deterministically by (supply, path length, path, slot
    start, modes)."""
    q = instance.slot_units(request)
    slots = instance.slot_count
    paths = k_shortest_paths(instance.topology, request.source, request.destination, k)
    out: list[Assignment] = []
    lengths: dict[tuple[Link, ...], float] = {}
    for path in paths:
        links = tuple(zip(path, path[1:]))
        lengths[links] = sum(instance.topology.length(l) for l in links)
        for modes in _mode_subsets(instance.mode_count, all_mode_subsets):
            for span in range(1, slots + 1):
                supply = len(modes) * span
                if supply < q or supply - q >= min(len(modes), span):
                    continue
                for start in range(slots - span + 1):
                    out.append(Assignment(request.id, links, modes, start, start + span))
    out.sort(key=lambda c: (c.supply, lengths[c.path], c.path, c.slot_start, c.modes))
    return out


# --- incremental feasibility state ---------------------------------------


class _Placement(NamedTuple):
    links: tuple[int, ...]  # link indices in path order
    link_mask: int
    occupancy: int  # one bit per (link, mode, slot) cell
    candidate: Assignment


class _SearchState:
    """Committed placements plus slot occupancy and each placement's
    additive crosstalk total, with O(1) undo."""

    def __init__(self, instance: Instance):
        links = instance.topology.links
        model = instance.planner.accumulation_model
        modes = range(instance.mode_count)
        self.link_index = {l.key: i for i, l in enumerate(links)}
        self.coef = [[[xtalk.pairwise_contribution(instance.crosstalk, m_a, m_v,
                                                   l.length_m, model) if m_a != m_v else 0.0
                       for m_v in modes] for m_a in modes] for l in links]
        self.limit = xtalk.feasibility_limit(instance.planner.xt_threshold_db, model)
        self.mode_count = instance.mode_count
        self.slot_count = instance.slot_count
        self.occupied = 0
        self.placed: list[_Placement] = []
        self.totals: list[float] = []

    @property
    def committed(self) -> list[Assignment]:
        return [p.candidate for p in self.placed]

    def place(self, cand: Assignment) -> _Placement:
        links = tuple(self.link_index[l] for l in cand.path)
        run = ((1 << (cand.slot_end - cand.slot_start)) - 1) << cand.slot_start
        occupancy = sum(run << ((li * self.mode_count + m) * self.slot_count)
                        for li in links for m in cand.modes)
        return _Placement(links, sum(1 << li for li in links), occupancy, cand)

    def _add_terms(self, total: float, victim_links: tuple[int, ...],
                   victim_modes: tuple[int, ...], aggressor_mask: int,
                   aggressor_modes: tuple[int, ...]) -> float:
        """`total` plus the victim's terms from one aggressor, in
        xtalk.overlap_terms order: victim link, victim mode, aggressor mode."""
        for li in victim_links:
            if aggressor_mask >> li & 1:
                row = self.coef[li]
                for m_v in victim_modes:
                    for m_a in aggressor_modes:
                        if m_a != m_v:
                            total += row[m_a][m_v]
        return total

    def commit(self, new: _Placement) -> Optional[tuple]:
        """Commit if feasible; returns an undo token, or None if infeasible."""
        links, link_mask, occupancy, cand = new
        if occupancy & self.occupied:
            return None
        limit, totals = self.limit, self.totals
        own = 0.0
        updates = []
        for k, (o_links, o_mask, _, other) in enumerate(self.placed):
            if (not link_mask & o_mask or other.slot_start >= cand.slot_end
                    or cand.slot_start >= other.slot_end):
                continue
            own = self._add_terms(own, links, cand.modes, o_mask, other.modes)
            inc = self._add_terms(0.0, o_links, other.modes, link_mask, cand.modes)
            if inc:
                total = totals[k] + inc
                if not total <= limit:
                    return None
                updates.append((k, total))
        if own and not own <= limit:
            return None
        prev = [(k, totals[k]) for k, _ in updates]
        for k, total in updates:
            totals[k] = total
        self.occupied |= occupancy
        self.placed.append(new)
        totals.append(own)
        return occupancy, prev

    def undo(self, token: tuple) -> None:
        occupancy, prev = token
        self.occupied &= ~occupancy
        self.placed.pop()
        self.totals.pop()
        for k, total in prev:
            self.totals[k] = total


# --- solvers --------------------------------------------------------------

_EPS = 1e-9


def _lex_better(tp_a: float, lam_a: int, tp_b: float, lam_b: int) -> bool:
    """Strictly better in (max throughput, then min lambda count)."""
    if tp_a > tp_b + _EPS:
        return True
    if tp_a < tp_b - _EPS:
        return False
    return lam_a < lam_b


def _finish(instance: Instance, assignments: list[Assignment], optimal: bool) -> Schedule:
    accepted_ids = {a.request_id for a in assignments}
    order = {r.id: i for i, r in enumerate(instance.requests)}
    assignments = sorted(assignments, key=lambda a: order[a.request_id])
    rejected = tuple(r.id for r in instance.requests if r.id not in accepted_ids)
    tp = sum(r.bandwidth_gbps for r in instance.requests if r.id in accepted_ids)
    lam = sum(a.lambda_count for a in assignments)
    return Schedule(assignments=tuple(assignments), rejected=rejected,
                    throughput_gbps=tp, lambda_count=lam, optimal=optimal)


def solve_exact(instance: Instance, limits: Optional[SolveLimits] = None,
                initial: Optional[Schedule] = None) -> Schedule:
    """Depth-first branch-and-bound over per-request candidate decisions.

    Prunes on slot conflicts, incremental crosstalk infeasibility, and an
    optimistic throughput bound. Deterministic: fixed candidate order,
    first-found incumbent kept on ties. When the node or time budget runs
    out, the best schedule found so far is returned with optimal=False.

    `initial` seeds the incumbent with a known-feasible schedule (e.g. a
    baseline schedule re-expressed on the sliced grid), guaranteeing the
    result is never worse.
    """
    limits = limits or SolveLimits()
    requests = list(instance.requests)
    state = _SearchState(instance)
    candidates = {r.id: [state.place(c) for c in enumerate_candidates(
                      r, instance, limits.k_paths, limits.all_mode_subsets)]
                  for r in requests}
    # optimistic throughput still reachable from request position i onward,
    # and the least extra lambda any throughput-tying completion must pay
    suffix = [0.0] * (len(requests) + 1)
    min_lam_suffix = [0] * (len(requests) + 1)
    for i in range(len(requests) - 1, -1, -1):
        cands = candidates[requests[i].id]
        gain = requests[i].bandwidth_gbps if cands else 0.0
        suffix[i] = suffix[i + 1] + gain
        min_lam = min((c.candidate.lambda_count for c in cands), default=0)
        min_lam_suffix[i] = min_lam_suffix[i + 1] + min_lam

    best: dict = {"assignments": None, "tp": -1.0, "lam": 0, "optimal": True}
    if initial is not None:
        best["assignments"] = list(initial.assignments)
        best["tp"] = initial.throughput_gbps
        best["lam"] = initial.lambda_count
    budget = {"nodes": limits.node_budget, "deadline": time.monotonic() + limits.time_budget_s,
              "exhausted": False}

    def record(tp: float, lam: int):
        if best["assignments"] is None or _lex_better(tp, lam, best["tp"], best["lam"]):
            best["assignments"] = list(state.committed)
            best["tp"] = tp
            best["lam"] = lam

    def dfs(i: int, tp: float, lam: int):
        if budget["exhausted"]:
            return
        budget["nodes"] -= 1
        if budget["nodes"] <= 0 or time.monotonic() > budget["deadline"]:
            budget["exhausted"] = True
            return
        if i == len(requests):
            record(tp, lam)
            return
        if best["assignments"] is not None:
            reachable = tp + suffix[i]
            if reachable < best["tp"] - _EPS:
                return
            # a completion can only tie the incumbent's throughput by
            # accepting every remaining request that has candidates, each
            # costing at least its cheapest placement
            if (reachable <= best["tp"] + _EPS
                    and lam + min_lam_suffix[i] >= best["lam"]):
                return
        r = requests[i]
        occupied = state.occupied  # restored by every undo below
        for cand in candidates[r.id]:
            if cand.occupancy & occupied:
                continue
            token = state.commit(cand)
            if token is None:
                continue
            dfs(i + 1, tp + r.bandwidth_gbps, lam + cand.candidate.lambda_count)
            state.undo(token)
            if budget["exhausted"]:
                return
        # reject branch
        dfs(i + 1, tp, lam)

    dfs(0, 0.0, 0)
    # dfs refers to itself; breaking that cycle frees the search state now
    del dfs
    return _finish(instance, best["assignments"] or [], optimal=not budget["exhausted"])


def solve_greedy(instance: Instance, limits: Optional[SolveLimits] = None,
                 order_policy: str = "bandwidth-desc") -> Schedule:
    """Requests in policy order each take their first feasible candidate;
    a request with no feasible candidate is rejected. Deterministic."""
    limits = limits or SolveLimits()
    requests = list(instance.requests)
    if order_policy == "bandwidth-desc":
        requests.sort(key=lambda r: (-r.bandwidth_gbps, r.id))
    elif order_policy == "input":
        pass
    else:
        raise ValueError(f"unknown order policy {order_policy!r}")
    state = _SearchState(instance)
    for r in requests:
        for cand in enumerate_candidates(r, instance, limits.k_paths,
                                         limits.all_mode_subsets):
            if state.commit(state.place(cand)) is not None:
                break
    return _finish(instance, state.committed, optimal=False)


def solve_baseline_conventional(instance: Instance,
                                limits: Optional[SolveLimits] = None) -> Schedule:
    """Conventional MDM: the frame collapses to a single slot, so every
    accepted request transmits for the whole frame and crosstalk cannot be
    avoided by temporal separation. Slot-unit demand is recomputed against
    the full link capacity. The schedule is expressed on the collapsed
    instance (see model.collapse_frame)."""
    collapsed = collapse_frame(instance)
    return solve_exact(collapsed, limits)


def lift_to_sliced(schedule: Schedule, instance: Instance) -> Schedule:
    """Re-express a one-slot baseline schedule on the sliced grid: each
    accepted request keeps its path and modes and spans the whole frame.
    Any baseline schedule is a valid sliced schedule."""
    slots = instance.slot_count
    lifted = [Assignment(request_id=a.request_id, path=a.path, modes=a.modes,
                         slot_start=0, slot_end=slots)
              for a in schedule.assignments]
    lam = sum(a.lambda_count for a in lifted)
    return Schedule(assignments=tuple(lifted), rejected=schedule.rejected,
                    throughput_gbps=schedule.throughput_gbps, lambda_count=lam,
                    optimal=False)


SOLVERS = ("exact", "greedy", "baseline")


def solve(instance: Instance, solver: str, limits: Optional[SolveLimits] = None,
          initial: Optional[Schedule] = None) -> Schedule:
    """Run one of SOLVERS; `initial` seeds the exact search's incumbent
    (see solve_exact) and is not used by the others."""
    if solver == "exact":
        return solve_exact(instance, limits, initial=initial)
    if solver == "greedy":
        return solve_greedy(instance, limits)
    if solver == "baseline":
        return solve_baseline_conventional(instance, limits)
    raise ValueError(f"unknown solver {solver!r}")
