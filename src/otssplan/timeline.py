"""ASCII occupancy grid for one link: rows are modes, columns are slots.

Cells show a single-letter alias per request (A-Z, then '#'); '.' marks a
free cell. When the frame defines a guard interval the slot columns are
separated by '|'.
"""

from __future__ import annotations

from typing import Optional

from .model import Instance, Link, ValidationError, mode_label
from .solve import Schedule


def request_aliases(schedule: Schedule) -> dict[str, str]:
    """Single-letter display aliases, in acceptance order."""
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    aliases = {}
    for i, rid in enumerate(schedule.accepted_ids):
        aliases[rid] = alphabet[i] if i < len(alphabet) else "#"
    return aliases


def render_timeline(instance: Instance, schedule: Schedule,
                    link: Optional[Link] = None) -> str:
    """Render the slot grid of one link (default: the first occupied link,
    or the first topology link if nothing is scheduled). A topology with
    no link, or a `link` not in it, raises ValidationError at
    $.topology.links."""
    if link is None:
        if not instance.topology.link_keys():
            raise ValidationError([("$.topology.links", "no link to draw a timeline of")])
        link = next((l for a in schedule.assignments for l in a.path),
                    instance.topology.link_keys()[0])
    elif link not in instance.topology.link_keys():
        raise ValidationError([("$.topology.links", f"no link {link[0]} -> {link[1]}")])
    aliases = request_aliases(schedule)
    slots = instance.slot_count
    guard = instance.frame.guard_us
    sep = "|" if guard else ""
    grid: dict[tuple[int, int], str] = {}
    for a in schedule.assignments:
        if link not in a.path:
            continue
        for m in a.modes:
            for t in range(max(a.slot_start, 0), min(a.slot_end, slots)):
                grid[(m, t)] = aliases[a.request_id]
    lines = [f"link {link[0]} -> {link[1]} "
             f"({instance.topology.length(link):g} m, {slots} slots)"]
    label_width = max(len(mode_label(m)) for m in range(instance.mode_count))
    for m in range(instance.mode_count):
        cells = sep.join(grid.get((m, t), ".") for t in range(slots))
        lines.append(f"{mode_label(m):>{label_width}} {cells}")
    if guard:
        lines.append(f"guard interval: {guard:g} us between slices")
    if aliases:
        lines.append("legend: " + "  ".join(f"{alias}={rid}"
                                            for rid, alias in aliases.items()))
    return "\n".join(lines)
