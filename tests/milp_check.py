"""A built MILP read row by row, and a schedule checked against it: the
model's blocks expanded into rows and its stems stamped into variable
names, the variable values a schedule induces, auxiliary indicators
included, and the rows of a built model those values violate. Only the
tests read it; the planner never evaluates its own MILP, and emit_lp
writes rows and names from the blocks and stems without expanding them."""

from __future__ import annotations

from otssplan.milp import _AT, MilpModel, _name_table
from otssplan.model import Instance, Link, left_sum


def stamped(x, tag: str):
    """x, a stem or a list of them (nested or not), with tag in place of
    the placeholder."""
    return x.replace(_AT, tag) if isinstance(x, str) else [stamped(y, tag) for y in x]


def block_rows(stanza, args, tags):
    """A (stanza, args, tags) block expanded to (name, coefs, names, sense,
    rhs, family) rows, copy by copy, iteration by iteration and stanza row
    by stanza row."""
    for tag in tags:
        for fields in args:
            i = 0
            for family, coefs, sense, rhs in stanza:
                j = i + 1 + len(coefs)
                yield (stamped(fields[i], tag), coefs, tuple(stamped(fields[i + 1:j], tag)),
                       sense, rhs, family)
                i = j


def model_rows(model: MilpModel):
    """The rows of model.blocks(), block by block; a full pass is audited
    as the blocks are."""
    for block in model.blocks():
        yield from block_rows(*block)


def variable_names(model: MilpModel):
    """The name of each binary variable of model, in declaration order; a
    full pass is audited as model._declared() is."""
    for stems, tags in model._declared():
        for tag in tags:
            yield from stamped(stems, tag)


def _changes(seq: list[float]) -> list[float]:
    """Transition indicators of seq, with a virtual 0 before and after it."""
    padded = [0.0, *seq, 0.0]
    return [1.0 if a != b else 0.0 for a, b in zip(padded, padded[1:])]


def assignment_from_schedule(instance: Instance, schedule) -> dict[str, float]:
    """Variable values induced by a schedule, including every auxiliary
    indicator, for checking against the built model."""
    names = _name_table(instance)
    modes = range(instance.mode_count)
    slots = range(instance.slot_count)
    cells: dict[str, set[tuple[Link, int, int]]] = {r.id: set() for r in instance.requests}
    for a in schedule.assignments:
        # only in-frame slots have variables, so the walk stops at the frame
        in_frame = range(max(a.slot_start, 0), min(a.slot_end, instance.slot_count))
        cells[a.request_id] = {(link, m, t) for link in a.path for m in a.modes for t in in_frame}

    values: dict[str, float] = {}
    for rid, name in names.rho.items():
        values[name] = 1.0 if schedule.assignment(rid) is not None else 0.0
    grid = {}  # (rid, link) -> lambda values [m][t]
    for rid, lam in names.lam.items():
        for link, tag in names.et.items():
            grid[rid, link] = rows = [[1.0 if (link, m, t) in cells[rid] else 0.0 for t in slots]
                                      for m in modes]
            used = [max(col) for col in zip(*rows)]
            for name_row, row, cm_row in zip(lam, rows, names.cm[rid]):
                values.update(zip(stamped(name_row, tag), row))
                values.update(zip(stamped(cm_row, tag), _changes(row)))
            values.update(zip(stamped(names.u[rid], tag), used))
            values.update(zip(stamped(names.w[rid], tag), map(max, rows)))
            values.update(zip(stamped(names.ca[rid], tag), _changes(used)))
            values[stamped(names.v[rid], tag)] = max(used)
    for (r1, r2), pairs in names.overlaps.items():
        for link, tag in names.et.items():
            for m1, m2, th, betas in pairs:
                both = [a * b for a, b in zip(grid[r1, link][m1], grid[r2, link][m2])]
                values.update(zip(stamped(betas, tag), both))
                values[stamped(th, tag)] = max(both)
    return values


def evaluate_constraints(model: MilpModel, values: dict[str, float],
                         tol: float = 1e-9) -> list[str]:
    """Names of constraints the assignment violates (missing vars read 0)."""
    violated = []
    for name, coefs, names, sense, rhs, _ in model_rows(model):
        lhs = left_sum(coef * values.get(var, 0.0) for coef, var in zip(coefs, names))
        if not (lhs <= rhs + tol if sense == "<=" else lhs >= rhs - tol if sense == ">="
                else abs(lhs - rhs) <= tol):
            violated.append(name)
    return violated
