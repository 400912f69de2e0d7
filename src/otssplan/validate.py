"""Independent schedule checker.

Re-derives slot occupancy and overlap structure from a schedule's
path/modes/interval form and tests every constraint family, sharing no
feasibility logic with the solvers. This is the repository's oracle for
property tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

from . import xtalk
from .model import Instance, left_sum
from .solve import Schedule


class StructureError(Exception):
    """Schedule references entities that do not exist in the instance;
    constraint checks are not run."""


@dataclass(frozen=True)
class Violation:
    family: str  # eq2 .. eq11
    location: str
    message: str


@dataclass(frozen=True)
class ViolationReport:
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_document(self) -> dict:
        return {
            "pass": self.passed,
            "violations": [
                {"family": v.family, "location": v.location, "message": v.message}
                for v in self.violations
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document(), sort_keys=True, separators=(",", ":"))


def check_structure(instance: Instance, schedule: Schedule) -> None:
    """Raise StructureError where the schedule does not fit the instance."""
    known_requests = {r.id for r in instance.requests}
    known_links = set(instance.topology.link_keys())
    seen: set[str] = set()
    for a in schedule.assignments:
        if a.request_id not in known_requests:
            raise StructureError(f"accepted request {a.request_id!r} not in instance")
        if a.request_id in seen:
            raise StructureError(f"request {a.request_id!r} accepted more than once")
        seen.add(a.request_id)
        for link in a.path:
            if link not in known_links:
                raise StructureError(f"request {a.request_id!r} uses unknown link {link}")
        for m in a.modes:
            if not (0 <= m < instance.mode_count):
                raise StructureError(f"request {a.request_id!r} uses unknown mode {m}")
    for rid in schedule.rejected:
        if rid not in known_requests:
            raise StructureError(f"rejected request {rid!r} not in instance")
    accepted = set(schedule.accepted_ids)
    rejected = set(schedule.rejected)
    both = accepted & rejected
    if both:
        raise StructureError(f"requests both accepted and rejected: {sorted(both)}")
    missing = known_requests - accepted - rejected
    if missing:
        raise StructureError(f"requests with no accept/reject status: {sorted(missing)}")


def check_schedule(instance: Instance, schedule: Schedule) -> ViolationReport:
    """Verify a schedule against every constraint family.

    eq2: path connectivity and flow conservation; eq3-eq6: one slot
    interval and mode set shared across the whole path; eq7: a (link,
    mode, slot) cell is used at most once; eq8: contiguous slot interval
    inside the frame; eq9: identical slots across a request's modes;
    eq10: supplied (mode, slot) units cover the demand on every link;
    eq11: accumulated crosstalk within threshold for every accepted
    request.
    """
    check_structure(instance, schedule)
    violations: list[Violation] = []
    slots = instance.slot_count

    for a in schedule.assignments:
        r = instance.request_by_id(a.request_id)
        loc = f"request {a.request_id}"
        # eq2: the links must chain source -> destination without revisits
        if not a.path:
            violations.append(Violation("eq2", loc, "empty path"))
        else:
            if a.path[0][0] != r.source:
                violations.append(Violation("eq2", loc,
                                            f"path starts at {a.path[0][0]!r}, not source {r.source!r}"))
            if a.path[-1][1] != r.destination:
                violations.append(Violation("eq2", loc,
                                            f"path ends at {a.path[-1][1]!r}, not destination {r.destination!r}"))
            for i in range(len(a.path) - 1):
                if a.path[i][1] != a.path[i + 1][0]:
                    violations.append(Violation("eq2", f"{loc} hop {i}",
                                                f"link {a.path[i]} does not connect to {a.path[i + 1]}"))
            visited = [a.path[0][0]] + [l[1] for l in a.path]
            if len(set(visited)) != len(visited):
                violations.append(Violation("eq2", loc, "path revisits a node"))
        # eq8: contiguous interval inside the frame (the stored interval is
        # contiguous by representation; bounds must hold)
        if not (0 <= a.slot_start < a.slot_end <= slots):
            violations.append(Violation("eq8", loc,
                                        f"slot interval [{a.slot_start}, {a.slot_end}) outside frame of {slots}"))
        # eq9: mode set sanity; the interval is shared across modes by
        # representation, duplicate modes would double-count capacity
        if len(set(a.modes)) != len(a.modes) or not a.modes:
            violations.append(Violation("eq9", loc, f"mode set {a.modes} invalid"))
        # eq10: capacity on every link of the path
        q = instance.slot_units(r)
        supply = len(set(a.modes)) * max(a.slot_end - a.slot_start, 0)
        if supply < q:
            violations.append(Violation("eq10", loc,
                                        f"supply {supply} (modes x slots) below demand {q}"))

    # eq7: slot exclusivity over re-derived occupancy, in the frame only:
    # eq8 reports the rest of an interval, which no document bounds
    occupancy: dict[tuple, str] = {}
    for a in schedule.assignments:
        in_frame = range(max(a.slot_start, 0), min(a.slot_end, slots))
        for cell in product(a.path, a.modes, in_frame):
            if cell in occupancy:
                link, m, t = cell
                violations.append(Violation(
                    "eq7", f"link {link} mode {m} slot {t}",
                    f"double-booked by {occupancy[cell]!r} and {a.request_id!r}"))
            else:
                occupancy[cell] = a.request_id

    # eq11: accumulated crosstalk per accepted request
    for a in schedule.assignments:
        report = xtalk.accumulate_for_request(a.request_id, schedule, instance)
        if not report.feasible:
            violations.append(Violation(
                "eq11", f"request {a.request_id}",
                f"accumulated crosstalk {report.total_db:.2f} dB exceeds "
                f"threshold {instance.planner.xt_threshold_db} dB"))

    return ViolationReport(tuple(violations))


def throughput_gbps(instance: Instance, schedule: Schedule) -> float:
    """Sum of accepted requests' bandwidth."""
    accepted = set(schedule.accepted_ids)
    return left_sum(r.bandwidth_gbps for r in instance.requests if r.id in accepted)


def resource_usage(schedule: Schedule) -> int:
    """Number of (request, link, mode, slot) occupancies."""
    return sum(a.lambda_count for a in schedule.assignments)
