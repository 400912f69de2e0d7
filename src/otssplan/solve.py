"""Schedule construction: exact branch-and-bound, greedy, and the
conventional one-slot baseline.

The search is over per-request atomic candidates (path, mode set,
contiguous slot interval), so path continuity, contiguity, and cross-mode
slot equality hold by construction. What a search reads and the network
bounds (link index, crosstalk coefficients, threshold limit, geometries,
and each (source, destination, slot units) group's placements) lives in
one `_Tables` per slot grid and solve options. Each thread keeps the
routes and tables of the network its last solve ran on, keyed by the
`Topology` value (an equal topology, whatever object it is, finds them);
a solve on another network replaces them. So Yen runs once per
(network, source, destination, k), and every solve on an equal network
shares the tables. A group is built once,
eagerly, from routes x shapes straight into placements, with its
footprint, the OR of their occupancy masks. Its shapes take the slots
in an order rotated per (source, destination) pair, so pairs that share
an end switch first try different time slices and every search keeps
co-routed requests apart in time (see `_Tables.group`). A placement
keeps only its shape's masks, no wider than the slot grid, and its
route's base mask, one int shared by the route's placements; its
occupancy, base times its (mode, slot) mask, is made when it is
committed. Slot exclusivity is one
int bitmask over (link, mode, slot) cells. What depends on the traffic
lives in the solve's own `_SearchState` and ends with it: its commits and
its memos of free placements (per group and per route) and of pair terms.
Every search of a solve runs on that one state and leaves it with no
commit, so later searches reuse its memos. A pair of (path, modes)
geometries reads its terms from the coefficient table in
`xtalk.overlap_terms` order, so totals and prune decisions are
bit-identical to summing `xtalk.pairwise_contribution`.

Two routines search. `_descent` makes one root-to-leaf pass, each request
taking one free placement that commits: first fit takes the first, best
fit the one adding the least crosstalk among those no costlier in lambdas
than the first. Greedy is the first-fit descent in bandwidth order,
descending with ties by id, and no budget applies. `_branch`, exact's
search, is a depth-first branch-and-bound in that order whose path is a
stack of frames, one per committed placement, so a search one level per
request deep never recurses. Exact first seeds itself with one best-fit
descent in density order, Gb/s per slot unit descending (a 9 Gb/s
request strands part of a 2.5 Gb/s unit, a 10 Gb/s one none), when the
node budget is at least 2n + 3 for n requests. The descent costs n + 1
of the budget's nodes, and its leaf seeds the incumbent when it beats
`initial`. With no incumbent no bound prunes, so under a monotone model
(no negative term) the search's first leaf is greedy's, and with a node
budget of at least n + 2 exact never answers below greedy. Baseline is
exact on the collapsed frame, descent included, where every request is
one unit and the two orders coincide. Over monotone tables a descent
skips the placements it saw rejected, and best fit stops at a zero
score. At a node the search takes the mask of the group's
conflict-free placements (bit j for placement j, so lowest bit first is
enumeration order) from a per-solve memo keyed by
the occupancy the footprint can see; a miss builds it route by route
from the (mode, slot) cells placed on the route's links. It tries only
the live bits, the free ones outside the group's dead mask; a node with
none takes its reject branch at once.

Each commit owns a crosstalk record: [its total, the index of the last
commit that added to it]. A commit that a placed victim rejects reports
the victim's record. With no negative term in the tables, a total only
grows while its contributors stay placed, and every contributor of a
record is placed at or below its last contributor; so a candidate that
record rejects stays rejected until the record's last contributor is
undone. The search sets the candidate's bit in its group's dead mask,
scoped to that commit, and clears the bit when the commit is undone.
Under paper-literal-db a total can fall back under the limit, so no bit
is ever set dead there. The clock is read every 256 nodes.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Optional

from . import xtalk
from .model import (Instance, Link, ParseError, Request, Topology, collapse_frame,
                    json_field, json_items, json_value, left_sum)


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

    @cached_property
    def _by_link(self) -> dict[Link, list[int]]:
        # per link: the positions of the assignments whose path uses it, ascending
        positions: defaultdict[Link, list[int]] = defaultdict(list)
        for k, a in enumerate(self.assignments):
            for link in a.path:
                positions[link].append(k)
        return positions

    def sharing_a_link(self, path: Iterable[Link]) -> list[Assignment]:
        """The assignments whose path uses a link of `path`, in schedule order."""
        by_link = self._by_link
        positions = {k for link in path for k in by_link.get(link, ())}
        return [self.assignments[k] for k in sorted(positions)]

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
        for name in ("node_budget", "k_paths"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                raise ValueError(f"{name} must be a positive int, got {value!r}")
        # written as `not x > 0`, so a NaN budget is rejected too
        if not self.time_budget_s > 0:
            raise ValueError(f"time_budget_s must be positive, got {self.time_budget_s!r}")


# --- network cache --------------------------------------------------------

# Per thread: the network its last solve ran on (a Topology value: nodes
# and links), with that network's route memo {(src, dst, k): routes} and
# its search tables {_Tables.of key: _Tables}, as `network`.
_cache = threading.local()


def _network(topology: Topology) -> tuple[Topology, dict, dict]:
    """The network `topology` describes, with its route memo and search
    tables; a solve on another network than the thread's last one starts
    them empty and drops the last one's."""
    entry = getattr(_cache, "network", None)
    if entry is None or entry[0] != topology:
        entry = _cache.network = (topology, {}, {})
    return entry


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
            root_len = left_sum(map(topology.length, zip(root, root[1:])))
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
    """k_shortest_paths, run once per (network, src, dst, k) and kept in
    the network cache; each call returns a new list."""
    memo = _network(topology)[1]
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
def _shapes(units: int, mode_count: int, slots: int, all_subsets: bool, offset: int) -> tuple[
        tuple[tuple[int, tuple[tuple[tuple[int, ...], int, int, int, int], ...]], ...],
        tuple[tuple[int, ...], ...], int]:
    """The (modes, slot start, slot end) triples that cover `units` without a
    whole spare mode or slot column, grouped by supply ascending, each group
    ordered by ((slot start - offset) mod slots, modes, slot end): the slot
    order rotated to start at slot `offset`. Each triple comes with its slot
    run mask (bit t per slot t) and its (mode, slot) mask (bit m * slots +
    t). Also returns the mode sets they use and the OR of their (mode,
    slot) masks."""
    by_supply: defaultdict[int, list] = defaultdict(list)
    for modes in _mode_subsets(mode_count, all_subsets):
        for span in range(1, slots + 1):
            supply = len(modes) * span
            if supply < units or supply - units >= min(len(modes), span):
                continue
            for start in range(slots - span + 1):
                by_supply[supply].append((start, modes, start + span))
    runs = {(start, end): ((1 << end - start) - 1) << start
            for start in range(slots) for end in range(start + 1, slots + 1)}
    blocks = tuple((supply, tuple((modes, start, end, runs[start, end],
                                   sum(runs[start, end] << m * slots for m in modes))
                                  for start, modes, end in sorted(
                                      group, key=lambda s: ((s[0] - offset) % slots, s[1:]))))
                   for supply, group in sorted(by_supply.items()))
    shapes = [shape for _, same in blocks for shape in same]
    return (blocks, tuple(dict.fromkeys(modes for modes, *_ in shapes)),
            reduce(int.__or__, (shape[-1] for shape in shapes), 0))


def enumerate_candidates(request: Request, instance: Instance, k: int,
                         all_mode_subsets: bool = False) -> list[Assignment]:
    """All (path, mode subset, contiguous slot interval) triples that cover
    the request's slot-unit demand without a whole spare mode or slot
    column, ordered deterministically by (supply, path length, path, slot
    start rotated by the pair's offset, modes, slot end): the placements
    of the request's search-table group (see _Tables.group)."""
    tables = _Tables.of(instance, SolveLimits(k_paths=k, all_mode_subsets=all_mode_subsets))
    return [p.assignment(request.id) for p in tables.group(request, instance).placements]


# --- search tables and state ----------------------------------------------


@dataclass(eq=False, slots=True)
class _Placement:
    """A candidate's geometry, shared by its (source, destination, slot
    units) group: its path and link indices, modes and slots, an id for
    (path, modes), its shape's slot run mask (bit t per slot t) and the
    (mode, slot) mask it takes on each of its links (bit m * slots + t),
    and `base`, its route's mask of one bit per link at link * mode_count
    * slots. Every placement of a route holds the same `base` int, the
    only field wider than the slot grid; its (link, mode, slot) occupancy
    is base * mode_slots, made when it is committed."""

    path: tuple[Link, ...]
    links: tuple[int, ...]
    modes: tuple[int, ...]
    slot_start: int
    slot_end: int
    lambda_count: int
    geometry: int
    run: int
    base: int
    mode_slots: int

    def assignment(self, request_id: str) -> Assignment:
        return Assignment(request_id, self.path, self.modes, self.slot_start, self.slot_end)


@dataclass(eq=False, slots=True)
class _Group:
    """One (source, destination, slot units) group: its serial number in its
    tables, its placements in enumeration order, their footprint (the OR of
    their occupancy masks), their least lambda count (0 if none), and per
    route its link indices and its placements' (mode, slot) masks and indices."""

    serial: int
    placements: list[_Placement]
    footprint: int
    least_lambda: int
    routes: list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]


class _Tables:
    """What every solve on one network and slot grid shares, all of it
    bounded by the network: the link index, the `coef[link][m_a][m_v]`
    crosstalk table, the threshold limit, the (path, modes) geometry ids,
    and each (source, destination, slot units) group. No traffic keys it."""

    def __init__(self, instance: Instance, limits: SolveLimits):
        links = instance.topology.links
        model = instance.planner.accumulation_model
        modes = range(instance.mode_count)
        self.k_paths, self.all_mode_subsets = limits.k_paths, limits.all_mode_subsets
        self.mode_count, self.slot_count = instance.mode_count, instance.slot_count
        self.link_index = {l.key: i for i, l in enumerate(links)}
        self.coef = [[[xtalk.pairwise_contribution(instance.crosstalk, m_a, m_v,
                                                   l.length_m, model) if m_a != m_v else 0.0
                       for m_v in modes] for m_a in modes] for l in links]
        self.limit = xtalk.feasibility_limit(instance.planner.xt_threshold_db, model)
        # with no negative term a total over the limit stays over it
        self.monotone = all(c >= 0.0 for per_link in self.coef for row in per_link for c in row)
        self.geometries: dict[tuple, int] = {}  # (link indices, modes) -> id
        self.groups: dict[tuple, _Group] = {}

    @staticmethod
    def of(instance: Instance, limits: SolveLimits) -> _Tables:
        """The tables for `instance` and `limits`, built on first use and kept in
        the network cache under everything they depend on besides the network,
        so every solve on an equal topology (the instance, its `with_requests`
        copies, and every instance loaded with the same nodes and links)
        builds each group once."""
        key = (instance.frame, instance.mode_count, instance.crosstalk, instance.planner,
               limits.k_paths, limits.all_mode_subsets)
        memo = _network(instance.topology)[2]
        tables = memo.get(key)
        if tables is None:
            tables = memo[key] = _Tables(instance, limits)
        return tables

    def group(self, request: Request, instance: Instance) -> _Group:
        """The request's (source, destination, slot units) group, built on
        first use: a placement for every route × shape, ordered by (supply,
        path length, path, then `_shapes`' rotated slot order). The slot
        order starts at slot (i_src - i_dst) mod slots, i a node's position
        in the topology's node ids: a Latin square on the endpoints, so two
        pairs that share a source or a destination start in different
        slots whenever their other endpoints differ mod slots, and requests
        sharing a first or last link start apart in time. The offset is 0
        over tables with a negative term (paper-literal-db), where a total
        can fall as neighbours are added, so time apart need not mean less
        crosstalk; it is 0 on a one-slot frame too. A placement keeps its
        shape's run and (mode, slot) masks and its route's base mask, one
        int per route, and its geometry id is looked up once per (route,
        mode set)."""
        units = instance.slot_units(request)
        key = (request.source, request.destination, units)
        group = self.groups.get(key)
        if group is None:
            topology, slots = instance.topology, self.slot_count
            nodes = topology.node_ids()
            offset = (nodes.index(request.source) - nodes.index(request.destination)) % slots
            blocks, mode_sets, cells_used = _shapes(units, self.mode_count, slots,
                                                    self.all_mode_subsets,
                                                    offset if self.monotone else 0)
            paths = [tuple(zip(p, p[1:])) for p in
                     _routes(topology, request.source, request.destination, self.k_paths)]
            routes = []
            for _, path in sorted((left_sum(map(topology.length, path)), path) for path in paths):
                links = tuple(self.link_index[l] for l in path)
                ids = {modes: self.geometries.setdefault((links, modes), len(self.geometries))
                       for modes in mode_sets}
                # one bit per link at link * mode_count * slots; a shape's
                # (mode, slot) mask fills the gaps
                routes.append((path, links, sum(1 << li * self.mode_count * slots
                                                for li in links), ids))
            placements: list[_Placement] = []
            route_indices: list[list[int]] = [[] for _ in routes]
            for supply, same in blocks:
                for (path, links, base, ids), own in zip(routes, route_indices):
                    for modes, start, end, run, mode_slots in same:
                        own.append(len(placements))
                        placements.append(_Placement(
                            path, links, modes, start, end, len(links) * supply, ids[modes],
                            run, base, mode_slots))
            # every route takes the shapes in the same order
            shapes = tuple(shape[-1] for _, same in blocks for shape in same)
            group = self.groups[key] = _Group(
                len(self.groups), placements,
                reduce(int.__or__, (route[2] * cells_used for route in routes), 0),
                min(len(route[1]) for route in routes) * blocks[0][0] if placements else 0,
                [(route[1], shapes, tuple(own)) for route, own in zip(routes, route_indices)])
        return group


class _SearchState:
    """One solve's committed placements, each with its crosstalk record,
    their (link, mode, slot) occupancy, and per link the commits using it
    and the (mode, slot) cells placed on it, with O(1) undo, over the
    network's shared _Tables, and the memos this solve's searches fill
    and share: free masks per group and per route, and pair entries. A record is
    [the placement's additive crosstalk total, the index of the last
    commit that added to it]. `rejected_by` is the record of the placed
    victim that rejected the last rejected commit, or None if a slot or
    its own crosstalk did."""

    def __init__(self, tables: _Tables):
        self.tables = tables
        self.limit = tables.limit
        self.occupied = 0
        # per commit k: (its placement, its [total, last contributor])
        self.entries: list[tuple[_Placement, list]] = []
        # per link: the mask of the commit indices k whose path uses it
        self.by_link = [0] * len(tables.link_index)
        # per link: the (mode, slot) cells placed on it, bit m * slots + t
        self.link_cells = [0] * len(tables.link_index)
        self.rejected_by: Optional[list] = None
        # per group serial, per route: {the cells placed on its links: free() mask}
        self.route_memos: dict[int, list[dict[int, int]]] = {}
        # per group serial: {occupied & footprint: free() mask}
        self.free_masks: dict[int, dict[int, int]] = {}
        # geometry id -> {placed geometry id: pair() entry}
        self.pairs: defaultdict[int, dict] = defaultdict(dict)

    def free(self, group: _Group) -> int:
        """The mask of the group's placements meeting no occupied cell, bit
        j for placement j, built route by route: a placement is free iff
        its (mode, slot) mask meets no cell placed on a link of its route."""
        memos = self.route_memos.get(group.serial)
        if memos is None:
            memos = self.route_memos[group.serial] = [{} for _ in group.routes]
        link_cells = self.link_cells
        free = 0
        for (links, shapes, indices), memo in zip(group.routes, memos):
            cells = 0
            for li in links:
                cells |= link_cells[li]
            mask = memo.get(cells)
            if mask is None:
                mask = memo[cells] = sum([1 << j for shape, j in zip(shapes, indices)
                                          if not shape & cells])
            free |= mask
        return free

    def pair(self, new: _Placement, placed: _Placement) -> tuple[tuple[float, ...], float]:
        """Memoized per geometry pair: the terms `new` takes from `placed`,
        and the left_sum of the terms `placed` takes from `new`, each read
        from the coefficient table over its shared links in its own link
        order (xtalk.overlap_terms order)."""
        coef = self.tables.coef
        takes = tuple(coef[li][m_a][m_v] for li in new.links if li in placed.links
                      for m_v in new.modes for m_a in placed.modes if m_a != m_v)
        gives = [coef[li][m_a][m_v] for li in placed.links if li in new.links
                 for m_v in placed.modes for m_a in new.modes if m_a != m_v]
        entry = self.pairs[new.geometry][placed.geometry] = (takes, left_sum(gives))
        return entry

    def commit(self, new: _Placement) -> Optional[tuple]:
        """Commit if feasible; returns an undo token, or None if infeasible,
        setting `rejected_by`. Only placed entries that share a link with
        `new` and whose slot runs meet its own take or give crosstalk
        (xtalk.overlap_terms' rule); the scan visits those that share a
        link, in commit order."""
        occupancy = new.base * new.mode_slots
        if occupancy & self.occupied:
            self.rejected_by = None
            return None
        limit, run = self.limit, new.run
        row = self.pairs[new.geometry]
        own = 0.0
        updates = []
        entries, by_link = self.entries, self.by_link
        near = 0
        for li in new.links:
            near |= by_link[li]
        while near:
            bit = near & -near
            near ^= bit
            other, record = entries[bit.bit_length() - 1]
            if not other.run & run:
                continue
            terms, inc = row.get(other.geometry) or self.pair(new, other)
            for term in terms:
                own += term
            if inc:
                total = record[0] + inc
                if not total <= limit:
                    self.rejected_by = record
                    return None
                updates.append((record, total, record[0], record[1]))
        if own and not own <= limit:
            self.rejected_by = None
            return None
        m = len(entries)
        for record, total, _, _ in updates:
            record[0] = total
            record[1] = m
        self.occupied |= occupancy
        entries.append((new, [own, m]))
        bit = 1 << m
        link_cells, mode_slots = self.link_cells, new.mode_slots
        for li in new.links:
            by_link[li] |= bit
            link_cells[li] |= mode_slots
        return occupancy, updates

    def undo(self, token: tuple) -> None:
        occupancy, updates = token
        self.occupied &= ~occupancy
        bit = 1 << len(self.entries) - 1
        gone = self.entries.pop()[0]
        for li in gone.links:
            self.by_link[li] ^= bit
            self.link_cells[li] ^= gone.mode_slots
        for record, _, total, last in updates:
            record[0] = total
            record[1] = last


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
    tp = left_sum(r.bandwidth_gbps for r in instance.requests if r.id in accepted_ids)
    lam = sum(a.lambda_count for a in assignments)
    return Schedule(assignments=tuple(assignments), rejected=rejected,
                    throughput_gbps=tp, lambda_count=lam, optimal=optimal)


def _branch(instance: Instance, state: _SearchState, requests: list[Request],
            initial: Optional[Schedule] = None, node_budget: int = 0,
            deadline: float = math.inf) -> tuple[Optional[list[Assignment]], bool]:
    """Depth-first branch-and-bound over `requests` in order: each request
    tries its group's conflict-free placements in enumeration order, then
    rejection. Returns the best leaf's assignments (the first found on
    ties; `initial`'s if no leaf beats it, None if neither exists) and
    whether a budget stopped the search. It enters at most `node_budget`
    nodes and gives up after `deadline` (time.monotonic). Every return
    leaves `state` as it was found: each commit undone and its limit
    restored; the memos it filled stay for the next search of the solve.

    Prunes on slot conflicts, incremental crosstalk infeasibility, and an
    optimistic throughput bound against the incumbent. Over tables with a
    negative term (paper-literal-db), where a total can fall back under
    the limit, it checks crosstalk at its leaves instead. Each committed
    placement is a frame on an explicit stack, so the depth, one level per
    request, meets no recursion limit. With no incumbent no bound prunes
    before the first leaf, so that leaf gives each request in turn its
    first feasible placement; reaching it takes len(requests) + 1 nodes,
    so a budget of one more returns it. Over monotone tables (no leaf
    check) that leaf is the first-fit descent's in the same order
    (`_descent`, greedy's schedule in greedy's order), and later leaves
    replace it only when lexicographically better."""
    tables = state.tables
    monotone = tables.monotone
    limit = state.limit
    entries, commit, undo = state.entries, state.commit, state.undo
    groups = [tables.group(r, instance) for r in requests]
    footprints = [g.footprint for g in groups]
    candidates = [g.placements for g in groups]
    serials = [g.serial for g in groups]
    free_masks = [state.free_masks.setdefault(s, {}) for s in serials]
    # per group: the placements known to be rejected (see module doc)
    dead = [0] * len(tables.groups)
    gains = [r.bandwidth_gbps for r in requests]
    n = len(requests)
    # optimistic throughput still reachable from request position i onward,
    # and the least extra lambda any throughput-tying completion must pay
    suffix = [0.0] * (n + 1)
    min_lam_suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + (gains[i] if candidates[i] else 0.0)
        min_lam_suffix[i] = min_lam_suffix[i + 1] + groups[i].least_lambda

    best: Optional[list[Assignment]] = None
    best_tp, best_lam = -1.0, 0
    if initial is not None:
        best = list(initial.assignments)
        best_tp, best_lam = initial.throughput_gbps, initial.lambda_count
    nodes = node_budget
    # one frame per placement committed on the path to the current node,
    # root first: [the mask of its node's untried placements, the undo
    # token, the node's depth, tp and lam, and the (group, bit)s set dead
    # while the commit stands]; a node whose untried placements run out
    # takes its reject branch and leaves the stack
    frames: list[list] = []
    i, tp, lam = 0, 0.0, 0
    if not monotone:
        state.limit = math.inf  # checked at the leaves
    try:
        while True:
            # enter the node at depth i
            nodes -= 1
            # the clock is read every 256 nodes
            if nodes <= 0 or not nodes & 255 and time.monotonic() > deadline:
                return best, True
            if i == n:
                feasible = monotone or all(not r[0] or r[0] <= limit for _, r in entries)
                if feasible and (best is None or _lex_better(tp, lam, best_tp, best_lam)):
                    best = [p.assignment(requests[frame[2]].id)
                            for frame, (p, _) in zip(frames, entries)]
                    best_tp, best_lam = tp, lam
            else:
                reachable = tp + suffix[i]
                # the bound prunes only against an incumbent; a completion can
                # only tie its throughput by accepting every remaining request
                # that has candidates, each costing at least its cheapest placement
                if best is None or reachable > best_tp + _EPS or \
                        reachable >= best_tp - _EPS and lam + min_lam_suffix[i] < best_lam:
                    key = state.occupied & footprints[i]
                    free = free_masks[i].get(key)
                    if free is None:
                        free = free_masks[i][key] = state.free(groups[i])
                    live = free & ~dead[serials[i]]
                    if not live:
                        i += 1  # its reject branch
                        continue
                    frames.append([live, None, i, tp, lam, []])
            # move to the next branch of the deepest node with untried
            # placements: its next committable one, else its reject branch
            if not frames:
                return best, False  # every branch explored
            frame = frames[-1]
            untried, token, i, tp, lam, buried = frame
            if token is not None:
                undo(token)
                frame[1] = None
                for s, bit in buried:
                    dead[s] &= ~bit
                buried.clear()
            group, s = candidates[i], serials[i]
            live = untried & ~dead[s]
            while live:
                bit = live & -live
                live ^= bit
                cand = group[bit.bit_length() - 1]
                token = commit(cand)
                if token is not None:
                    frame[0], frame[1] = live, token
                    tp += gains[i]
                    lam += cand.lambda_count
                    break
                record = state.rejected_by
                if monotone and record is not None:
                    dead[s] |= bit
                    frames[record[1]][5].append((s, bit))
            else:
                frames.pop()
            i += 1
    finally:
        for frame in reversed(frames):
            if frame[1] is not None:
                undo(frame[1])
        state.limit = limit


def _request_order(instance: Instance) -> list[Request]:
    """The order every search takes requests in: bandwidth descending,
    ties by request id."""
    return sorted(instance.requests, key=lambda r: (-r.bandwidth_gbps, r.id))


def _density_order(instance: Instance) -> list[Request]:
    """The order of exact's best-fit descent: Gb/s per slot unit
    descending, compared exactly, ties by bandwidth descending and then
    id."""
    units = {r.bandwidth_gbps: instance.slot_units(r) for r in instance.requests}
    # one rank per distinct bandwidth, so only those few are compared as Fractions
    rank = {bw: k for k, bw in enumerate(sorted(
        units, key=lambda bw: (-Fraction(str(bw)) / units[bw], -bw)))}
    return sorted(instance.requests, key=lambda r: (rank[r.bandwidth_gbps], r.id))


def _descent(instance: Instance, state: _SearchState, requests: list[Request],
             best_fit: bool = False) -> list[Assignment]:
    """One descent over `requests` in order, each request taking one of its
    free placements that commit, or rejected if none does. First fit takes
    the first that commits. Best fit lets that first one cap the lambda
    count, and of the placements at or under the cap that commit takes the
    one adding the least crosstalk (its own total plus its victims'
    increments), the lowest index on ties (scores within _EPS, so that
    rounding decides none). Returns the leaf's assignments and leaves
    `state` with no commit.

    Over monotone tables a descent's commits only accumulate, so a
    placement whose commit was rejected stays rejected for the rest of the
    descent: it joins its group's dead mask and is not tried again. There
    no score is negative, so best fit stops at a pick scoring within _EPS
    of 0, which no later placement can replace."""
    leaf, tokens = [], []
    monotone = state.tables.monotone
    dead: defaultdict[int, int] = defaultdict(int)  # group serial -> rejected placements
    for r in requests:
        group = state.tables.group(r, instance)
        free, cap, pick = state.free(group) & ~dead[group.serial], math.inf, None
        while free:
            bit = free & -free
            free ^= bit
            cand = group.placements[bit.bit_length() - 1]
            if cand.lambda_count > cap:
                continue
            token = state.commit(cand)
            if token is None:
                if monotone:
                    dead[group.serial] |= bit
                continue
            if not best_fit:
                pick = cand
                break  # first fit keeps this commit
            score = left_sum([state.entries[-1][1][0]] + [t - o for _, t, o, _ in token[1]])
            state.undo(token)
            if pick is None:
                cap = cand.lambda_count
            if pick is None or score < least - _EPS:
                pick, least = cand, score
                if monotone and least <= _EPS:
                    break
        if pick is not None:
            tokens.append(state.commit(pick) if best_fit else token)
            leaf.append(pick.assignment(r.id))
    for token in reversed(tokens):
        state.undo(token)
    return leaf


def solve_exact(instance: Instance, limits: Optional[SolveLimits] = None,
                initial: Optional[Schedule] = None) -> Schedule:
    """Branch-and-bound over per-request candidate decisions (see _branch),
    requests in bandwidth-descending order (ties by id), greedy's order.

    Deterministic: fixed candidate order, first-found incumbent kept on
    ties. When the node or time budget runs out, the best schedule found
    so far is returned with optimal=False; a budget-bound solve enters
    exactly `node_budget` nodes, the descent's included.

    The descent: when the node budget is at least 2 *
    len(instance.requests) + 3, one best-fit descent in density order
    (Gb/s per slot unit descending, see _density_order and _descent)
    runs first, on the same search state, for len(instance.requests) + 1
    of the nodes. Its leaf replaces `initial` as the incumbent only when
    lexicographically better. The bandwidth-order search then runs on the
    rest of the budget; optimal means that search completed.

    Under a monotone accumulation model (linear-power, tanh-coupling) that
    search's first root-to-leaf descent is greedy's schedule, and it gets
    at least len(instance.requests) + 2 nodes whenever the budget is that
    large, so the result is never lexicographically below greedy's; at
    exactly that budget the descent does not run and the result is
    greedy's schedule.
    Under paper-literal-db exact checks crosstalk at its leaves, so its
    first descent is not greedy's.

    `initial` seeds the incumbent with a known-feasible schedule (e.g. a
    baseline schedule re-expressed on the sliced grid), guaranteeing the
    result is never worse.
    """
    limits = limits or SolveLimits()
    deadline = time.monotonic() + limits.time_budget_s
    state = _SearchState(_Tables.of(instance, limits))
    order, budget = _request_order(instance), limits.node_budget
    density, n = _density_order(instance), len(order)
    if budget >= 2 * n + 3:
        budget -= n + 1
        descent = _finish(instance, _descent(instance, state, density, best_fit=True),
                          optimal=False)
        if initial is None or _lex_better(descent.throughput_gbps, descent.lambda_count,
                                          initial.throughput_gbps, initial.lambda_count):
            initial = descent
    best, exhausted = _branch(instance, state, order, initial, node_budget=budget,
                              deadline=deadline)
    return _finish(instance, best or [], optimal=not exhausted)


def solve_greedy(instance: Instance, limits: Optional[SolveLimits] = None) -> Schedule:
    """Requests in bandwidth-descending order (ties by id) each take their
    first feasible candidate; a request with no feasible candidate is
    rejected. This is the first-fit descent (see _descent), which no budget
    cuts short; under a monotone model it is exact's first leaf (see
    _branch). Deterministic."""
    state = _SearchState(_Tables.of(instance, limits or SolveLimits()))
    return _finish(instance, _descent(instance, state, _request_order(instance)),
                   optimal=False)


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
    return _finish(instance, [Assignment(a.request_id, a.path, a.modes, 0, instance.slot_count)
                              for a in schedule.assignments], optimal=False)


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
