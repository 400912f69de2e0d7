"""Schedule construction: exact branch-and-bound, greedy, and the
conventional one-slot baseline.

The search is over per-request atomic candidates (path, mode set,
contiguous slot interval), so path continuity, contiguity, and cross-mode
slot equality hold by construction. Yen's paths are memoized per topology.
Everything a search reads but never changes (link index, crosstalk
coefficient table, threshold limit, geometries, pair-term memo, and each
(source, destination, slot units) group's candidates and placements) lives
in one `_Tables` per slot grid and solve options, kept on the topology, so
every solve of an instance and of its `with_requests` copies enumerates a
group once; a solve's own `_SearchState` holds only what it has committed.
Slot exclusivity is one int bitmask over (link, mode, slot) cells.
Crosstalk terms come from the per-link coefficient table in
`xtalk.overlap_terms` order, memoized per pair of (path, modes)
geometries, so totals and prune decisions are bit-identical to summing
`xtalk.pairwise_contribution`. Each group's footprint is the OR of its
placements' occupancy masks; at a node the exact search takes the group's
conflict-free placements from a per-solve memo keyed by the occupancy the
footprint can see, so it tests slot conflicts once per distinct key rather
than once per visit. The search loops skip a candidate without calling
`commit` while the placement that last rejected it as a victim is still
placed at the same index and still over the limit ("last conflict"
ordering); that is one of commit's own checks on an unchanged state. The
exact search reads the clock every 256 nodes.
"""

from __future__ import annotations

import heapq
import itertools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Iterator, Optional

from . import xtalk
from .model import (Instance, Link, ParseError, Request, Topology, collapse_frame,
                    json_field, json_items, json_value)


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
    """Inverse of Schedule.to_document. A missing or mistyped field raises
    ParseError at its JSON location, e.g. $.accepted[0].path."""
    assignments = []
    for i, a in enumerate(json_items(json_value(doc, "object", "$"), "accepted", "object", "$")):
        loc = f"$.accepted[{i}]"
        path = json_items(a, "path", "array", loc)
        if not all(len(l) == 2 and all(isinstance(n, str) for n in l) for l in path):
            raise ParseError("links must be [from, to] pairs of node ids", f"{loc}.path")
        slots = json_field(a, "slots", "object", loc)
        assignments.append(Assignment(
            json_field(a, "request_id", "string", loc), tuple(tuple(l) for l in path),
            tuple(json_items(a, "modes", "integer", loc)),
            json_field(slots, "start", "integer", f"{loc}.slots"),
            json_field(slots, "end", "integer", f"{loc}.slots")))
    return Schedule(assignments=tuple(assignments),
                    rejected=tuple(json_items(doc, "rejected", "string", "$")),
                    throughput_gbps=float(json_field(doc, "throughput_gbps", "number", "$")),
                    lambda_count=json_field(doc, "lambda_count", "integer", "$"),
                    optimal=json_value(doc.get("optimal", True), "boolean", "$.optimal"))


@dataclass(frozen=True)
class SolveLimits:
    node_budget: int = 1_000_000
    time_budget_s: float = 300.0
    k_paths: int = 4
    all_mode_subsets: bool = False

    def __post_init__(self):
        # written as `not x > 0`, so a NaN budget is rejected too
        if not self.node_budget > 0 or not self.time_budget_s > 0 or not self.k_paths > 0:
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


def _routes(topology: Topology, src: str, dst: str, k: int) -> list[tuple[str, ...]]:
    """k_shortest_paths, run once per (topology, src, dst, k) and kept in
    the topology's path_memo; each call returns a new list."""
    memo = topology.path_memo
    if (src, dst, k) not in memo:
        memo[src, dst, k] = tuple(k_shortest_paths(topology, src, dst, k))
    return list(memo[src, dst, k])


# --- candidate enumeration ------------------------------------------------


def _mode_subsets(mode_count: int, all_subsets: bool) -> list[tuple[int, ...]]:
    if all_subsets:
        return [c for width in range(1, mode_count + 1)
                for c in itertools.combinations(range(mode_count), width)]
    # contiguous index runs only
    return [tuple(range(s, s + w))
            for w in range(1, mode_count + 1)
            for s in range(mode_count - w + 1)]


@lru_cache(maxsize=None)
def _shapes(units: int, mode_count: int, slots: int,
            all_subsets: bool) -> tuple[tuple[tuple[tuple[int, ...], int, int], ...], ...]:
    """The (modes, slot start, slot end) triples that cover `units` without a
    whole spare mode or slot column, grouped by supply ascending, each group
    ordered by (slot start, modes)."""
    by_supply: defaultdict[int, list] = defaultdict(list)
    for modes in _mode_subsets(mode_count, all_subsets):
        for span in range(1, slots + 1):
            supply = len(modes) * span
            if supply < units or supply - units >= min(len(modes), span):
                continue
            for start in range(slots - span + 1):
                by_supply[supply].append((start, modes, start + span))
    return tuple(tuple((modes, start, end) for start, modes, end in sorted(group))
                 for _, group in sorted(by_supply.items()))


def enumerate_candidates(request: Request, instance: Instance, k: int,
                         all_mode_subsets: bool = False) -> list[Assignment]:
    """All (path, mode subset, contiguous slot interval) triples that cover
    the request's slot-unit demand without a whole spare mode or slot
    column, ordered deterministically by (supply, path length, path, slot
    start, modes)."""
    topology = instance.topology
    routes = []
    for path in _routes(topology, request.source, request.destination, k):
        links = tuple(zip(path, path[1:]))
        routes.append((sum(topology.length(l) for l in links), links))
    routes.sort()
    shapes = _shapes(instance.slot_units(request), instance.mode_count, instance.slot_count,
                     all_mode_subsets)
    return [Assignment(request.id, links, modes, start, end)
            for group in shapes for _, links in routes for modes, start, end in group]


# --- search tables and state ----------------------------------------------

# The blocker of a placement no commit has rejected yet: nothing is ever
# placed as None, so the last-blocker test never holds for it.
_NO_BLOCKER = (0, None, 0.0)


@dataclass(eq=False, slots=True)
class _Placement:
    """A candidate's geometry, shared by its (source, destination, slot units) group: an id
    for (path, modes), (link, slot) and (link, mode, slot) bitmasks, and its last blocker:
    (index, placement, increment) of the placed victim its last rejecting commit stopped at."""

    path: tuple[Link, ...]
    links: tuple[int, ...]
    modes: tuple[int, ...]
    slot_start: int
    slot_end: int
    lambda_count: int
    geometry: int
    cells: int
    occupancy: int
    blocker: tuple = _NO_BLOCKER

    def assignment(self, request_id: str) -> Assignment:
        return Assignment(request_id, self.path, self.modes, self.slot_start, self.slot_end)


@dataclass(eq=False, slots=True)
class _Group:
    """One (source, destination, slot units) group: its candidates, the
    placements built from them so far, and, once all are built, its
    footprint, the OR of their occupancy masks."""

    candidates: list[Assignment]
    placements: list[_Placement]
    footprint: Optional[int] = None


class _Tables:
    """What every solve on one slot grid shares: the link index, the
    `coef[link][m_a][m_v]` crosstalk table, the threshold limit, the
    (path, modes) geometries, the per-geometry-pair term memo, and each
    (source, destination, slot units) group's candidates with the
    placements built from them so far and, once all are built, their
    footprint. Nothing here depends on what a solve has committed, except
    each placement's last blocker, which only decides which of commit's
    checks runs first."""

    def __init__(self, instance: Instance, limits: SolveLimits):
        links = instance.topology.links
        model = instance.planner.accumulation_model
        modes = range(instance.mode_count)
        self.options = (limits.k_paths, limits.all_mode_subsets)
        self.mode_count, self.slot_count = instance.mode_count, instance.slot_count
        self.link_index = {l.key: i for i, l in enumerate(links)}
        self.coef = [[[xtalk.pairwise_contribution(instance.crosstalk, m_a, m_v,
                                                   l.length_m, model) if m_a != m_v else 0.0
                       for m_v in modes] for m_a in modes] for l in links]
        self.limit = xtalk.feasibility_limit(instance.planner.xt_threshold_db, model)
        self.geometries: dict[tuple, tuple] = {}  # (path, modes) -> (id, links, bit bases)
        self.pairs: defaultdict[int, dict] = defaultdict(dict)  # id -> {placed id: pair() entry}
        self.groups: dict[tuple, _Group] = {}

    @staticmethod
    def of(instance: Instance, limits: SolveLimits) -> _Tables:
        """The tables for `instance` and `limits`, built on first use and kept in
        the topology's search_memo under everything they depend on besides the
        topology, so every solve on the instance, its `with_requests` copies
        included, enumerates and places each group once."""
        key = (instance.frame, instance.mode_count, instance.crosstalk, instance.planner,
               limits.k_paths, limits.all_mode_subsets)
        memo = instance.topology.search_memo
        tables = memo.get(key)
        if tables is None:
            tables = memo[key] = _Tables(instance, limits)
        return tables

    def place(self, cand: Assignment) -> _Placement:
        shape = self.geometries.get((cand.path, cand.modes))
        if shape is None:
            links = tuple(self.link_index[l] for l in cand.path)
            modes, slots = self.mode_count, self.slot_count
            shape = self.geometries[cand.path, cand.modes] = (
                len(self.geometries), links, sum(1 << li * slots for li in links),
                sum(1 << (li * modes + m) * slots for li in links for m in cand.modes))
        geometry, links, link_bits, cell_bits = shape
        # the bit runs a product places at each link (or (link, mode)) never overlap
        run = ((1 << (cand.slot_end - cand.slot_start)) - 1) << cand.slot_start
        return _Placement(cand.path, links, cand.modes, cand.slot_start, cand.slot_end,
                          cand.lambda_count, geometry, link_bits * run, cell_bits * run)

    def _enumerated(self, request: Request, instance: Instance) -> _Group:
        """The request's group, enumerated on first use."""
        key = (request.source, request.destination, instance.slot_units(request))
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = _Group(
                enumerate_candidates(request, instance, *self.options), [])
        return group

    def candidates(self, request: Request, instance: Instance) -> Iterator[_Placement]:
        """The request's placements in enumeration order: each (source, destination, slot
        units) group is enumerated once, each placement built when first reached."""
        group = self._enumerated(request, instance)
        cands, placements = group.candidates, group.placements
        for i, cand in enumerate(cands):
            if i == len(placements):
                placements.append(self.place(cand))
            yield placements[i]

    def group(self, request: Request, instance: Instance) -> _Group:
        """The request's group with every placement built and its footprint set."""
        group = self._enumerated(request, instance)
        if group.footprint is None:
            group.footprint = reduce(int.__or__, (p.occupancy for p in
                                                  self.candidates(request, instance)), 0)
        return group

    def _terms(self, victim: _Placement, aggressor: _Placement) -> tuple[float, ...]:
        """The victim's terms from an aggressor, in xtalk.overlap_terms order."""
        return tuple(self.coef[li][m_a][m_v] for li in victim.links if li in aggressor.links
                     for m_v in victim.modes for m_a in aggressor.modes if m_a != m_v)

    def pair(self, new: _Placement, placed: _Placement) -> tuple[tuple[float, ...], float]:
        """Memoized per geometry pair: the terms `new` takes from `placed`,
        and the sum from 0.0 of the terms `placed` takes from `new`."""
        entry = self.pairs[new.geometry][placed.geometry] = (
            self._terms(new, placed), reduce(float.__add__, self._terms(placed, new), 0.0))
        return entry


class _SearchState:
    """One solve's committed placements, their (link, mode, slot) cell masks,
    slot occupancy and each placement's additive crosstalk total, with O(1)
    undo, over the instance's shared _Tables, and per group the memo of its
    conflict-free placements.

    A search loop skips a candidate without calling `commit` when its last
    blocker is still the placement at that index and still over the limit
    with the candidate's increment: that is one of commit's own checks on
    the same state, so the skip never changes a decision."""

    def __init__(self, instance: Instance, limits: SolveLimits):
        self.instance = instance
        self.tables = _Tables.of(instance, limits)
        self.limit = self.tables.limit
        self.occupied = 0
        self.placed: list[_Placement] = []
        self.cells: list[int] = []  # placed[k].cells
        self.totals: list[float] = []
        # group -> {occupied & group.footprint: the group's free placements}
        self.free_lists: defaultdict[_Group, dict[int, list[_Placement]]] = defaultdict(dict)

    def candidates(self, request: Request) -> Iterator[_Placement]:
        return self.tables.candidates(request, self.instance)

    def group(self, request: Request) -> _Group:
        return self.tables.group(request, self.instance)

    def free(self, group: _Group) -> list[_Placement]:
        """The group's placements that meet no occupied slot, in enumeration
        order. The list is a function of the occupancy the group's footprint
        can see, and is built once per solve for each such occupancy;
        solve_exact inlines this lookup."""
        key = self.occupied & group.footprint
        memo = self.free_lists[group]
        free = memo.get(key)
        if free is None:
            free = memo[key] = [p for p in group.placements if not p.occupancy & key]
        return free

    def blocked(self, new: _Placement) -> bool:
        """Whether `new`'s last blocker still rejects it; solve_exact inlines
        this test."""
        b, blocker, inc = new.blocker
        return b < len(self.placed) and self.placed[b] is blocker and \
            not self.totals[b] + inc <= self.limit

    def commit(self, new: _Placement) -> Optional[tuple]:
        """Commit if feasible; returns an undo token, or None if infeasible,
        recording the placed victim the scan stopped at as `new.blocker`.
        Only placed entries whose cells meet `new`'s take or give crosstalk."""
        occupancy, cells = new.occupancy, new.cells
        if occupancy & self.occupied:
            return None
        limit, totals, placed = self.limit, self.totals, self.placed
        row = self.tables.pairs[new.geometry]
        own = 0.0
        updates = []
        for k, other_cells in enumerate(self.cells):
            if not other_cells & cells:
                continue
            other = placed[k]
            terms, inc = row.get(other.geometry) or self.tables.pair(new, other)
            for term in terms:
                own += term
            if inc:
                total = totals[k] + inc
                if not total <= limit:
                    new.blocker = (k, other, inc)
                    return None
                updates.append((k, totals[k], total))
        if own and not own <= limit:
            return None
        for k, _, total in updates:
            totals[k] = total
        self.occupied |= occupancy
        placed.append(new)
        self.cells.append(cells)
        totals.append(own)
        return occupancy, updates

    def undo(self, token: tuple) -> None:
        occupancy, updates = token
        self.occupied &= ~occupancy
        self.placed.pop()
        self.cells.pop()
        self.totals.pop()
        for k, total, _ in updates:
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
    state = _SearchState(instance, limits)
    placed, totals, limit, commit, undo = (state.placed, state.totals, state.limit,
                                           state.commit, state.undo)
    groups = [state.group(r) for r in requests]
    # per request position: the group's footprint and free-list memo (state.free)
    footprints = [g.footprint for g in groups]
    free_lists = [state.free_lists[g] for g in groups]
    # optimistic throughput still reachable from request position i onward,
    # and the least extra lambda any throughput-tying completion must pay
    suffix = [0.0] * (len(requests) + 1)
    min_lam_suffix = [0] * (len(requests) + 1)
    for i in range(len(requests) - 1, -1, -1):
        cands = groups[i].placements
        suffix[i] = suffix[i + 1] + (requests[i].bandwidth_gbps if cands else 0.0)
        min_lam_suffix[i] = min_lam_suffix[i + 1] + min((c.lambda_count for c in cands), default=0)

    best: Optional[list[Assignment]] = None
    best_tp, best_lam = -1.0, 0
    if initial is not None:
        best = list(initial.assignments)
        best_tp, best_lam = initial.throughput_gbps, initial.lambda_count
    nodes = limits.node_budget
    deadline = time.monotonic() + limits.time_budget_s
    exhausted = False

    def dfs(i: int, tp: float, lam: int, ids: tuple[str, ...]):
        nonlocal nodes, exhausted, best, best_tp, best_lam
        nodes -= 1
        # the clock is read every 256 nodes
        if nodes <= 0 or not nodes & 255 and time.monotonic() > deadline:
            exhausted = True
            return
        if i == len(requests):
            if best is None or _lex_better(tp, lam, best_tp, best_lam):
                best = [p.assignment(rid) for rid, p in zip(ids, placed)]
                best_tp, best_lam = tp, lam
            return
        if best is not None:
            reachable = tp + suffix[i]
            if reachable < best_tp - _EPS:
                return
            # a completion can only tie the incumbent's throughput by
            # accepting every remaining request that has candidates, each
            # costing at least its cheapest placement
            if reachable <= best_tp + _EPS and lam + min_lam_suffix[i] >= best_lam:
                return
        r = requests[i]
        n = len(placed)  # restored by every undo below
        key = state.occupied & footprints[i]  # state.free(groups[i]), inlined
        free = free_lists[i].get(key)
        if free is None:
            free = free_lists[i][key] = [p for p in groups[i].placements
                                         if not p.occupancy & key]
        for cand in free:
            b, blocker, inc = cand.blocker  # state.blocked(cand), inlined
            if b < n and placed[b] is blocker and not totals[b] + inc <= limit:
                continue
            token = commit(cand)
            if token is None:
                continue
            dfs(i + 1, tp + r.bandwidth_gbps, lam + cand.lambda_count, ids + (r.id,))
            undo(token)
            if exhausted:
                return
        # reject branch
        dfs(i + 1, tp, lam, ids)

    dfs(0, 0.0, 0, ())
    # dfs refers to itself; breaking that cycle frees the search state now
    del dfs
    return _finish(instance, best or [], optimal=not exhausted)


def solve_greedy(instance: Instance, limits: Optional[SolveLimits] = None) -> Schedule:
    """Requests in bandwidth-descending order (ties by id) each take their
    first feasible candidate; a request with no feasible candidate is
    rejected. Deterministic."""
    state = _SearchState(instance, limits or SolveLimits())
    accepted = []
    for r in sorted(instance.requests, key=lambda r: (-r.bandwidth_gbps, r.id)):
        for cand in state.candidates(r):
            if not state.blocked(cand) and state.commit(cand) is not None:
                accepted.append(cand.assignment(r.id))
                break
    return _finish(instance, accepted, optimal=False)


def solve_baseline_conventional(instance: Instance,
                                limits: Optional[SolveLimits] = None) -> Schedule:
    """Conventional MDM: the frame collapses to a single slot, so every
    accepted request transmits for the whole frame and crosstalk cannot be
    avoided by temporal separation. Slot-unit demand is recomputed against
    the full link capacity. The schedule is expressed on the collapsed
    instance (see model.collapse_frame)."""
    return solve_exact(collapse_frame(instance), limits)


def lift_to_sliced(schedule: Schedule, instance: Instance) -> Schedule:
    """Re-express a one-slot baseline schedule on the sliced grid: each
    accepted request keeps its path and modes and spans the whole frame.
    Any baseline schedule is a valid sliced schedule."""
    lifted = [replace(a, slot_start=0, slot_end=instance.slot_count)
              for a in schedule.assignments]
    return Schedule(assignments=tuple(lifted), rejected=schedule.rejected,
                    throughput_gbps=schedule.throughput_gbps,
                    lambda_count=sum(a.lambda_count for a in lifted), optimal=False)


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
