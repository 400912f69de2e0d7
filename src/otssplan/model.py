"""Domain types and instance construction for the time-slice MDM planner.

An instance bundles a directed multi-mode-fiber topology, a set of traffic
requests, the time-slice frame grid, the pairwise modal crosstalk matrix,
and planner configuration. All types are immutable after construction.

Documents are read through one typed reader (json_value, json_field,
json_items, json_optional): every field is type-checked at its JSON
location, so ids must be strings, counts integers and other numbers JSON
numbers, and a mistyped field raises ParseError naming it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import InitVar, dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Any, Iterable, Optional

Link = tuple[str, str]

TIERS = ("edge", "aggregation", "core")

ACCUMULATION_VARIANTS = ("linear-power", "paper-literal-db", "tanh-coupling")


class ModelError(Exception):
    """Base error for instance construction problems."""


class ParseError(ModelError):
    """Document is not structurally parseable (bad JSON, wrong types)."""

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location


class ValidationError(ModelError):
    """One or more invariant violations; carries all of them, each with its
    JSON location in the form ParseError uses (e.g. `$.requests[1].src`)."""

    def __init__(self, failures: list[tuple[str, str]]):
        self.failures = list(failures)
        lines = "; ".join(f"{path}: {msg}" for path, msg in self.failures)
        super().__init__(lines)


@dataclass(frozen=True)
class NodeSpec:
    id: str
    tier: str  # edge | aggregation | core


@dataclass(frozen=True)
class LinkSpec:
    src: str
    dst: str
    length_m: float

    @property
    def key(self) -> Link:
        return (self.src, self.dst)


@dataclass(frozen=True)
class Topology:
    """Directed graph of switches and MMF links, lengths in meters.

    Stored unidirectionally: a physical duplex fiber contributes two
    directed links. An invariant violation is reported under `location`,
    the JSON location the topology was read from. Equality and hashing
    cover the nodes and links only, so the solver keys its per-network
    cache on the value.
    """

    nodes: tuple[NodeSpec, ...]
    links: tuple[LinkSpec, ...]
    location: InitVar[str] = "$.topology"

    def __post_init__(self, location: str):
        failures = []
        seen = set()
        for i, n in enumerate(self.nodes):
            if n.tier not in TIERS:
                failures.append((f"{location}.nodes[{i}].tier", f"unknown tier {n.tier!r}"))
            if n.id in seen:
                failures.append((f"{location}.nodes[{i}].id", f"duplicate node id {n.id!r}"))
            seen.add(n.id)
        link_keys = set()
        for i, l in enumerate(self.links):
            loc = f"{location}.links[{i}]"
            if l.src == l.dst:
                failures.append((loc, f"self-loop at {l.src!r}"))
            if l.src not in seen:
                failures.append((loc + ".from", f"unknown node {l.src!r}"))
            if l.dst not in seen:
                failures.append((loc + ".to", f"unknown node {l.dst!r}"))
            if not (l.length_m > 0):
                failures.append((loc + ".length_m", f"length must be > 0, got {l.length_m}"))
            if l.key in link_keys:
                failures.append((loc, f"duplicate link {l.key}"))
            link_keys.add(l.key)
        if failures:
            raise ValidationError(failures)

    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    # lookup tables built once; not fields, so equality and hashing ignore them
    @cached_property
    def _ids(self) -> frozenset[str]:
        return frozenset(n.id for n in self.nodes)

    @cached_property
    def _lengths(self) -> dict[Link, float]:
        return {l.key: l.length_m for l in self.links}

    @cached_property
    def _out(self) -> dict[str, tuple[LinkSpec, ...]]:
        return {n.id: tuple(l for l in self.links if l.src == n.id) for n in self.nodes}

    @cached_property
    def _in(self) -> dict[str, tuple[LinkSpec, ...]]:
        return {n.id: tuple(l for l in self.links if l.dst == n.id) for n in self.nodes}

    def has_node(self, node_id: str) -> bool:
        return node_id in self._ids

    def edge_nodes(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.tier == "edge")

    def link_keys(self) -> tuple[Link, ...]:
        return tuple(l.key for l in self.links)

    def length(self, link: Link) -> float:
        return self._lengths[link]

    def out_links(self, node_id: str) -> tuple[LinkSpec, ...]:
        return self._out.get(node_id, ())

    def in_links(self, node_id: str) -> tuple[LinkSpec, ...]:
        return self._in.get(node_id, ())


@dataclass(frozen=True)
class Request:
    id: str
    source: str
    destination: str
    bandwidth_gbps: float


@dataclass(frozen=True)
class FrameConfig:
    """Time-slice frame: repeating period of length frame_ms divided into
    equal slices of slice_ms. guard_us is display-only and must be >= 0;
    0 or None means no guard."""

    frame_ms: float
    slice_ms: float
    guard_us: Optional[float] = None

    def __post_init__(self):
        failures = []
        if not (self.frame_ms > 0):
            failures.append(("$.frame.frame_ms", "must be > 0"))
        if not (self.slice_ms > 0):
            failures.append(("$.frame.slice_ms", "must be > 0"))
        if self.guard_us is not None and not self.guard_us >= 0:
            failures.append(("$.frame.guard_us", "must be >= 0"))
        if not failures:
            ratio = Fraction(str(self.frame_ms)) / Fraction(str(self.slice_ms))
            if ratio.denominator != 1:
                failures.append(("$.frame", f"frame_ms/slice_ms = {ratio} is not an integer"))
            elif ratio < 1:
                failures.append(("$.frame", "slot count must be >= 1"))
        if failures:
            raise ValidationError(failures)

    @cached_property
    def slot_count(self) -> int:
        return int(Fraction(str(self.frame_ms)) / Fraction(str(self.slice_ms)))


@dataclass(frozen=True)
class CrosstalkMatrix:
    """Pairwise modal coupling in dB per 100 m; rows index the aggressor
    mode, columns the victim. Diagonal is undefined (no self-crosstalk).
    The matrix may be asymmetric."""

    db_per_100m: tuple[tuple[Optional[float], ...], ...]

    def __post_init__(self):
        failures = []
        n = len(self.db_per_100m)
        for a, row in enumerate(self.db_per_100m):
            if len(row) != n:
                failures.append((f"$.crosstalk_db_per_100m[{a}]", f"row length {len(row)} != {n}"))
                continue
            for v, entry in enumerate(row):
                loc = f"$.crosstalk_db_per_100m[{a}][{v}]"
                if a == v:
                    if entry is not None:
                        failures.append((loc, "diagonal must be null"))
                else:
                    if entry is None or not math.isfinite(entry):
                        failures.append((loc, "off-diagonal entry must be finite"))
                    elif entry >= 0:
                        failures.append((loc, f"coupling must be < 0 dB, got {entry}"))
        if failures:
            raise ValidationError(failures)

    @property
    def mode_count(self) -> int:
        return len(self.db_per_100m)

    def get(self, aggressor: int, victim: int) -> float:
        if aggressor == victim:
            raise ValueError(f"no self-crosstalk entry for mode {aggressor}")
        entry = self.db_per_100m[aggressor][victim]
        assert entry is not None
        return entry

    def strongest_off_diagonal_db(self) -> float:
        return max(
            e
            for a, row in enumerate(self.db_per_100m)
            for v, e in enumerate(row)
            if a != v and e is not None
        )


@dataclass(frozen=True)
class AccumulationModel:
    """Selects how per-pair contributions are combined into a total.

    linear-power sums linear power ratios; paper-literal-db sums scaled dB
    values directly; tanh-coupling uses tanh(h*z) with a per-meter coupling
    parameter h, weighted by relative pair strength.
    """

    variant: str = "linear-power"
    h: Optional[float] = None

    def __post_init__(self):
        if self.variant not in ACCUMULATION_VARIANTS:
            raise ValidationError([("$.planner.accumulation_model", f"unknown variant {self.variant!r}")])
        if self.variant == "tanh-coupling" and not (self.h is not None and self.h > 0):
            raise ValidationError([("$.planner.accumulation_model.h", "h must be > 0 for tanh-coupling")])


@dataclass(frozen=True)
class ObjectiveMode:
    """lexicographic two-phase by default; weighted combines the throughput
    and resource terms with eta1 >> eta2."""

    kind: str = "lexicographic"  # lexicographic | weighted
    eta1: Optional[float] = None
    eta2: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("lexicographic", "weighted"):
            raise ValidationError([("$.planner.objective_mode", f"unknown kind {self.kind!r}")])
        failures = [(f"$.planner.objective_mode.weighted.{key}", "must be > 0")
                    for key in ("eta1", "eta2")
                    if getattr(self, key) is not None and not getattr(self, key) > 0]
        if failures:
            raise ValidationError(failures)


@dataclass(frozen=True)
class PlannerConfig:
    xt_threshold_db: float = -13.0
    link_capacity_gbps: float = 10.0
    granularity_gbps: float = 1.0  # traffic bandwidth increment
    accumulation_model: AccumulationModel = field(default_factory=AccumulationModel)
    objective_mode: ObjectiveMode = field(default_factory=ObjectiveMode)

    def __post_init__(self):
        failures = []
        if not (self.xt_threshold_db < 0):
            failures.append(("$.planner.xt_threshold_db", "must be < 0 dB"))
        if not (self.link_capacity_gbps > 0):
            failures.append(("$.planner.link_capacity_gbps", "must be > 0"))
        if not (self.granularity_gbps > 0):
            failures.append(("$.planner.granularity_gbps", "must be > 0"))
        if failures:
            raise ValidationError(failures)


@dataclass(frozen=True)
class Instance:
    topology: Topology
    requests: tuple[Request, ...]
    frame: FrameConfig
    mode_count: int
    crosstalk: CrosstalkMatrix
    planner: PlannerConfig = field(default_factory=PlannerConfig)

    def __post_init__(self):
        failures = []
        granularity = self.planner.granularity_gbps
        seen_ids = set()
        for i, r in enumerate(self.requests):
            loc = f"$.requests[{i}]"
            if r.id in seen_ids:
                failures.append((loc + ".id", f"duplicate request id {r.id!r}"))
            seen_ids.add(r.id)
            if r.source == r.destination:
                failures.append((loc, f"request {r.id!r} has source == destination"))
            for fieldname, node in (("src", r.source), ("dst", r.destination)):
                if not self.topology.has_node(node):
                    failures.append((f"{loc}.{fieldname}", f"unknown node {node!r}"))
            if not (r.bandwidth_gbps > 0):
                failures.append((loc + ".bandwidth_gbps", "must be > 0"))
            elif not on_grid(r.bandwidth_gbps, granularity):
                failures.append((loc + ".bandwidth_gbps", f"{r.bandwidth_gbps} is not a multiple "
                                 f"of the {float(granularity)} Gb/s granularity"))
        if self.mode_count < 1:
            failures.append(("$.modes", "mode count must be >= 1"))
        if self.crosstalk.mode_count != self.mode_count:
            failures.append(
                ("$.crosstalk_db_per_100m",
                 f"matrix dimension {self.crosstalk.mode_count} != mode count {self.mode_count}")
            )
        if failures:
            raise ValidationError(failures)

    @property
    def slot_count(self) -> int:
        return self.frame.slot_count

    @cached_property
    def slot_capacity(self) -> Fraction:
        return slot_capacity_gbps(self.frame, self.planner)

    def slot_units(self, request: Request) -> int:
        return required_slot_units(request.bandwidth_gbps, self.slot_capacity)

    @cached_property
    def _requests_by_id(self) -> dict[str, Request]:
        return {r.id: r for r in self.requests}

    def request_by_id(self, request_id: str) -> Request:
        return self._requests_by_id[request_id]

    def with_requests(self, requests: Iterable[Request]) -> "Instance":
        return replace(self, requests=tuple(requests))


def mode_label(index: int) -> str:
    """Display label m1, m2, ... for a 0-based mode index."""
    return f"m{index + 1}"


# typed: an int and the float equal to it can read as different decimals
@lru_cache(maxsize=4096, typed=True)
def on_grid(value: float, step: float) -> bool:
    """Whether value is a whole multiple of step, both read as decimals.
    Memoized: every load and every collapse_frame checks each request."""
    return (Fraction(str(value)) / Fraction(str(step))).denominator == 1


def left_sum(values: Iterable[float]) -> float:
    """values added one at a time, left to right, from 0 (0 when there are
    none). From Python 3.12 the builtin sum compensates the rounding of a
    float sum, so a total it makes, and any tie that total decides, would
    depend on the Python version; every float total of the planner is made
    here instead."""
    total = 0
    for x in values:
        total += x
    return total


def slot_capacity_gbps(frame: FrameConfig, config: PlannerConfig) -> Fraction:
    """Bandwidth one slot on one mode carries: C * S / T."""
    c = Fraction(str(config.link_capacity_gbps))
    return c * Fraction(str(frame.slice_ms)) / Fraction(str(frame.frame_ms))


@lru_cache(maxsize=4096, typed=True)
def required_slot_units(bandwidth_gbps: float, slot_capacity: Fraction | float) -> int:
    """Number of (mode, slot) units a request needs on every link of its path.
    Memoized: every solve, schedule check and MILP build sizes its requests,
    and the instances of one sweep share their few bandwidths."""
    if not (bandwidth_gbps > 0):
        raise ValueError(f"bandwidth must be > 0, got {bandwidth_gbps}")
    cap = Fraction(str(slot_capacity)) if not isinstance(slot_capacity, Fraction) else slot_capacity
    if not (cap > 0):
        raise ValueError(f"slot capacity must be > 0, got {slot_capacity}")
    ratio = Fraction(str(bandwidth_gbps)) / cap
    # snap a float that rounds an exact multiple, e.g. float(9/7) against 1/7
    nearest = round(ratio)
    if abs(ratio - nearest) <= ratio * Fraction(1, 10**9):
        return nearest
    return -(-ratio.numerator // ratio.denominator)


def build_fat_tree(edge_count: int, agg_count: int, core_count: int,
                   link_length_m: float) -> Topology:
    """Three-tier fat-tree: every edge switch connects to every aggregation
    switch, every aggregation switch to every core switch. Each physical
    fiber yields two directed links of the given length."""
    if edge_count < 1 or agg_count < 1 or core_count < 1:
        raise ValueError(
            f"switch counts must be >= 1, got ({edge_count}, {agg_count}, {core_count})")
    if not (link_length_m > 0):
        raise ValueError(f"link length must be > 0, got {link_length_m}")
    nodes = (
        [NodeSpec(f"e{i + 1}", "edge") for i in range(edge_count)]
        + [NodeSpec(f"a{i + 1}", "aggregation") for i in range(agg_count)]
        + [NodeSpec(f"c{i + 1}", "core") for i in range(core_count)]
    )
    links: list[LinkSpec] = []
    for e in range(edge_count):
        for a in range(agg_count):
            links.append(LinkSpec(f"e{e + 1}", f"a{a + 1}", link_length_m))
            links.append(LinkSpec(f"a{a + 1}", f"e{e + 1}", link_length_m))
    for a in range(agg_count):
        for c in range(core_count):
            links.append(LinkSpec(f"a{a + 1}", f"c{c + 1}", link_length_m))
            links.append(LinkSpec(f"c{c + 1}", f"a{a + 1}", link_length_m))
    return Topology(nodes=tuple(nodes), links=tuple(links))


# --- document ingestion ---------------------------------------------------


_JSON_TYPES = {"object": dict, "array": list, "string": str, "integer": int,
               "number": (int, float), "boolean": bool}


def json_value(value: Any, kind: str, location: str) -> Any:
    """`value` if it is a JSON value of `kind` (a key of _JSON_TYPES), else
    ParseError at `location`. Booleans are not numbers here, and a number
    must be a finite float (not NaN, Infinity or an int past float range)."""
    if (not isinstance(value, _JSON_TYPES[kind])
            or (isinstance(value, bool) and kind in ("integer", "number"))):
        raise ParseError(f"must be of type {kind}", location)
    if kind == "number" and not abs(value) <= sys.float_info.max:  # exact for any int
        raise ParseError("must be a finite number", location)
    return value


def json_field(doc: dict, key: str, kind: str, location: str) -> Any:
    """doc[key] checked with json_value; a missing key is a ParseError at
    its own location, `location.key`."""
    if key not in doc:
        raise ParseError("required", f"{location}.{key}")
    return json_value(doc[key], kind, f"{location}.{key}")


def json_items(doc: dict, key: str, kind: str, location: str) -> list:
    """doc[key] as a JSON array whose items are all of `kind`."""
    where = f"{location}.{key}"
    return [json_value(v, kind, f"{where}[{i}]")
            for i, v in enumerate(json_field(doc, key, "array", location))]


def json_optional(doc: dict, key: str, kind: str, location: str, default: Any = None) -> Any:
    """doc[key] checked with json_value, or `default` when the key is
    absent or null."""
    value = doc.get(key)
    return default if value is None else json_value(value, kind, f"{location}.{key}")


def decode_json(text: str, source: str = "$") -> Any:
    """The JSON value in `text`; text that does not parse is a ParseError
    located at `source`, the file it came from."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", source) from exc


def topology_from_document(doc: Any, location: str = "$.topology") -> Topology:
    json_value(doc, "object", location)
    nodes = []
    for i, n in enumerate(json_items(doc, "nodes", "object", location)):
        loc = f"{location}.nodes[{i}]"
        nodes.append(NodeSpec(json_field(n, "id", "string", loc),
                              json_field(n, "tier", "string", loc)))
    links = []
    for i, l in enumerate(json_items(doc, "links", "object", location)):
        loc = f"{location}.links[{i}]"
        links.append(LinkSpec(json_field(l, "from", "string", loc),
                              json_field(l, "to", "string", loc),
                              float(json_field(l, "length_m", "number", loc))))
    return Topology(nodes=tuple(nodes), links=tuple(links), location=location)


def _accumulation_from_document(planner: dict) -> AccumulationModel:
    loc = "$.planner.accumulation_model"
    value = planner.get("accumulation_model")
    if value is None:
        return AccumulationModel()
    if isinstance(value, str):
        return AccumulationModel(variant=value)
    json_value(value, "object", loc)
    return AccumulationModel(variant=json_optional(value, "variant", "string", loc,
                                                   "tanh-coupling"),
                             h=json_optional(value, "h", "number", loc))


def _objective_from_document(planner: dict) -> ObjectiveMode:
    loc = "$.planner.objective_mode"
    value = planner.get("objective_mode")
    if value is None:
        return ObjectiveMode()
    if isinstance(value, str):
        return ObjectiveMode(kind=value)
    w = json_field(json_value(value, "object", loc), "weighted", "object", loc)
    loc += ".weighted"
    return ObjectiveMode(kind="weighted", eta1=json_optional(w, "eta1", "number", loc),
                         eta2=json_optional(w, "eta2", "number", loc))


def load_instance(document: dict | str) -> Instance:
    """Build a fully validated Instance from a JSON document (dict or text).

    Every field is type-checked at its JSON location: ids and names are
    strings, counts are integers and other numbers are JSON numbers, so a
    mistyped or missing field raises ParseError naming it (e.g.
    `$.requests[0].bandwidth_gbps`). Invariant violations raise
    ValidationError listing every failure.
    """
    if isinstance(document, str):
        document = decode_json(document)
    json_value(document, "object", "$")

    topology = topology_from_document(json_field(document, "topology", "object", "$"))
    if isinstance(document.get("modes"), dict):
        mode_count = json_field(document["modes"], "count", "integer", "$.modes")
    else:
        mode_count = json_field(document, "modes", "integer", "$")
    rows = json_items(document, "crosstalk_db_per_100m", "array", "$")
    matrix = CrosstalkMatrix(tuple(
        tuple(None if e is None
              else float(json_value(e, "number", f"$.crosstalk_db_per_100m[{a}][{v}]"))
              for v, e in enumerate(row))
        for a, row in enumerate(rows)))
    frame_doc = json_field(document, "frame", "object", "$")
    frame = FrameConfig(frame_ms=float(json_field(frame_doc, "frame_ms", "number", "$.frame")),
                        slice_ms=float(json_field(frame_doc, "slice_ms", "number", "$.frame")),
                        guard_us=json_optional(frame_doc, "guard_us", "number", "$.frame"))
    planner_doc = json_optional(document, "planner", "object", "$", {})

    def number(key: str, default: float) -> float:
        return float(json_optional(planner_doc, key, "number", "$.planner", default))

    planner = PlannerConfig(
        xt_threshold_db=number("xt_threshold_db", -13.0),
        link_capacity_gbps=number("link_capacity_gbps", 10.0),
        granularity_gbps=number("granularity_gbps", 1.0),
        accumulation_model=_accumulation_from_document(planner_doc),
        objective_mode=_objective_from_document(planner_doc),
    )
    requests = []
    for i, r in enumerate(json_optional(document, "requests", "array", "$", [])):
        loc = f"$.requests[{i}]"
        json_value(r, "object", loc)
        requests.append(Request(
            id=json_field(r, "id", "string", loc), source=json_field(r, "src", "string", loc),
            destination=json_field(r, "dst", "string", loc),
            bandwidth_gbps=float(json_field(r, "bandwidth_gbps", "number", loc))))
    return Instance(topology=topology, requests=tuple(requests), frame=frame,
                    mode_count=mode_count, crosstalk=matrix, planner=planner)


def serialize_instance(instance: Instance) -> dict:
    """Inverse of load_instance; round-trips to an equal Instance."""
    doc: dict[str, Any] = {
        "topology": {
            "nodes": [{"id": n.id, "tier": n.tier} for n in instance.topology.nodes],
            "links": [{"from": l.src, "to": l.dst, "length_m": l.length_m}
                      for l in instance.topology.links],
        },
        "modes": {"count": instance.mode_count},
        "crosstalk_db_per_100m": [list(row) for row in instance.crosstalk.db_per_100m],
        "frame": {"frame_ms": instance.frame.frame_ms, "slice_ms": instance.frame.slice_ms},
        "planner": {
            "xt_threshold_db": instance.planner.xt_threshold_db,
            "link_capacity_gbps": instance.planner.link_capacity_gbps,
            "granularity_gbps": instance.planner.granularity_gbps,
            "accumulation_model": (
                instance.planner.accumulation_model.variant
                if instance.planner.accumulation_model.variant != "tanh-coupling"
                else {"variant": "tanh-coupling", "h": instance.planner.accumulation_model.h}
            ),
            "objective_mode": (
                "lexicographic" if instance.planner.objective_mode.kind == "lexicographic"
                else {"weighted": {"eta1": instance.planner.objective_mode.eta1,
                                   "eta2": instance.planner.objective_mode.eta2}}
            ),
        },
        "requests": [{"id": r.id, "src": r.source, "dst": r.destination,
                      "bandwidth_gbps": r.bandwidth_gbps} for r in instance.requests],
    }
    if instance.frame.guard_us is not None:
        doc["frame"]["guard_us"] = instance.frame.guard_us
    return doc


def collapse_frame(instance: Instance) -> Instance:
    """One-slot variant of an instance: the whole frame is a single slice,
    so temporal separation is impossible (the conventional-MDM grid)."""
    frame = FrameConfig(frame_ms=instance.frame.frame_ms,
                        slice_ms=instance.frame.frame_ms,
                        guard_us=instance.frame.guard_us)
    return replace(instance, frame=frame)
