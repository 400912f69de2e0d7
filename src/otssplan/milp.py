"""Abstract MIP of the planning problem and LP-format serialization.

Builds the full model: flow conservation and acceptance coupling (eq2),
per-slot and per-mode continuity (eq3-eq6), slot exclusivity (eq7),
contiguity via transition indicators (eq8), cross-mode slot equality
(eq9), capacity big-M (eq10), the crosstalk budget (eq11), and the
overlap-indicator linearizations (eq12-eq15). The model is solver
agnostic; emit_lp writes standard LP text for any external MILP solver.

One name table (_name_table) owns the naming scheme; build_model and
assignment_from_schedule both read it. Each request id, node id and link
is sanitized to its LP tag a single time, and two ids that sanitize to
the same tag raise ValidationError instead of silently merging in the
LP. build_model keeps only the name table and the objectives, and the
model's one representation is columnar rows. The constraints are a
stream of (name, coefs, names, sense, rhs, family) rows (MilpModel.rows),
where every row of one shape shares one coefs tuple per pass (fig2's
62,900 rows have 22) and names holds the row's variable names; an
objective is (sense, name, coefs, names); the variables are a stream of
names (MilpModel.variable_names). Each stream is audited against
count_formulas when a pass over it ends. One routine, _render_rows,
renders every LP row (constraints, objectives, and the phase-2
fix_throughput row over the throughput objective's columns) from a
%-format template made once per (coefs, sense, rhs); emit_lp renders and
encodes the row stream in one pass and writes those bytes into both phase
files. paper-literal-db has no MILP until its eq11 row is derived.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

from . import xtalk
from .model import Instance, Link, ValidationError

class SizeLimitError(Exception):
    """Instance would exceed the configured variable cap."""

    def __init__(self, variable_count: int, cap: int):
        super().__init__(f"model would have {variable_count} variables, cap is {cap}")
        self.variable_count = variable_count
        self.cap = cap


class Objective(NamedTuple):
    sense: str  # maximize | minimize
    name: str
    coefs: tuple[float, ...]
    names: tuple[str, ...]  # one variable name per coefficient


# a constraint as rows() yields it: coefs is shared by the pass's rows with
# equal coefficients, and names holds one variable name per coefficient
Row = tuple[str, tuple[float, ...], tuple[str, ...], str, float, str]

_NON_ALNUM = re.compile(r"[^A-Za-z0-9]")


def _sanitize(token: str) -> str:
    return _NON_ALNUM.sub("", token) or "x"


def _link_tag(link: Link) -> str:
    return f"e{_sanitize(link[0])}_{_sanitize(link[1])}"


def _tag_table(ids, where: str, prefix: str) -> dict[str, str]:
    """`prefix + sanitized id` per id; raises ValidationError naming
    `where[i].id` when an id sanitizes to the tag of an earlier one."""
    tags: dict[str, str] = {}
    owner: dict[str, str] = {}
    failures = []
    for i, x in enumerate(ids):
        tag = _sanitize(x)
        if tag in owner:
            failures.append((f"{where}[{i}].id", f"id {x!r} has the same LP name "
                             f"tag {tag!r} as {owner[tag]!r}"))
        owner.setdefault(tag, x)
        tags[x] = prefix + tag
    if failures:
        raise ValidationError(failures)
    return tags


class _Names(NamedTuple):
    """Every name of one instance's model, each id sanitized once: the tags
    rt (request id), nt (node id) and et (link), and the variable names
    lam[rid, link][m][t], rho[rid], cm[rid, link][m][tb], ca[rid, link][tb],
    u[rid, link][t], w[rid, link][m] and v[rid, link]. overlaps lists
    (r1, r2, link, m1, m2, theta, betas) per ordered request pair, link and
    ordered mode pair. Iterating lam, rho, overlaps and then lam's keys for
    cm..v gives the declaration order."""

    rt: dict
    nt: dict
    et: dict
    lam: dict
    rho: dict
    overlaps: list
    cm: dict
    ca: dict
    u: dict
    w: dict
    v: dict


def _name_table(instance: Instance) -> _Names:
    """The names of instance's model; raises ValidationError when two
    request ids or two node ids sanitize to one tag."""
    rids = [r.id for r in instance.requests]
    links = instance.topology.link_keys()
    modes = range(instance.mode_count)
    T = instance.slot_count
    rt = _tag_table(rids, "$.requests", "r")
    nt = _tag_table(instance.topology.node_ids(), "$.topology.nodes", "n")
    et = {link: _link_tag(link) for link in links}
    lam = {(rid, link): [[f"l_{rt[rid]}_{et[link]}_m{m}_t{t}" for t in range(T)]
                         for m in modes]
           for rid in rids for link in links}
    rho = {rid: f"rho_{rt[rid]}" for rid in rids}
    overlaps = []
    for r1 in rids:
        for r2 in rids:
            if r1 == r2:
                continue
            for link in links:
                pre = f"_{rt[r1]}_{rt[r2]}_{et[link]}_m"
                for m1 in modes:
                    for m2 in modes:
                        if m1 != m2:
                            overlaps.append((r1, r2, link, m1, m2, f"th{pre}{m1}_{m2}",
                                             [f"b{pre}{m1}_{m2}_t{t}" for t in range(T)]))
    cm, ca, u, w, v = {}, {}, {}, {}, {}
    for key in lam:
        tag = f"{rt[key[0]]}_{et[key[1]]}"
        cm[key] = [[f"cm_{tag}_m{m}_t{tb}" for tb in range(T + 1)] for m in modes]
        ca[key] = [f"ca_{tag}_t{tb}" for tb in range(T + 1)]
        u[key] = [f"u_{tag}_t{t}" for t in range(T)]
        w[key] = [f"w_{tag}_m{m}" for m in modes]
        v[key] = f"v_{tag}"
    return _Names(rt, nt, et, lam, rho, overlaps, cm, ca, u, w, v)


FAMILY_NOTES = {
    "eq2": "flow conservation and acceptance coupling",
    "eq3": "per-slot continuity at source and destination",
    "eq4": "per-slot continuity at transit nodes",
    "eq5": "per-mode continuity at source and destination",
    "eq6": "per-mode continuity at transit nodes",
    "eq7": "a time slice is used once",
    "eq8": "time slices of a request are contiguous",
    "eq9": "used time slices agree across modes",
    "eq10": "used time slices cover the demand",
    "eq11": "accumulated crosstalk within threshold",
    "eq12": "overlap-per-link follows overlap-per-slot",
    "eq13": "overlap indicator lower bound",
    "eq14": "overlap bounded by the first occupancy",
    "eq15": "overlap bounded by the second occupancy",
}


def count_formulas(instance: Instance) -> dict:
    """Closed-form variable and constraint counts; build_model must match
    these exactly."""
    R = len(instance.requests)
    E = len(instance.topology.links)
    M = instance.mode_count
    T = instance.slot_count
    N = len(instance.topology.nodes)
    P = R * (R - 1)
    Q = M * (M - 1)
    if R == 0:
        variables = {k: 0 for k in ("lambda", "rho", "beta", "theta", "c_mode",
                                    "c_any", "slot_use", "mode_use", "link_use")}
        constraints = {k: 0 for k in FAMILY_NOTES}
        return {"variables": variables, "constraints": constraints,
                "total_variables": 0, "total_constraints": 0}
    variables = {
        "lambda": R * E * M * T,
        "rho": R,
        "beta": P * E * Q * T,
        "theta": P * E * Q,
        "c_mode": R * E * M * (T + 1),
        "c_any": R * E * (T + 1),
        "slot_use": R * E * T,
        "mode_use": R * E * M,
        "link_use": R * E,
    }
    transit = max(N - 2, 0)
    constraints = {
        "eq2": R * N + R * E * M * T,
        "eq3": R * T,
        "eq4": R * T * transit,
        "eq5": R * M * T,
        "eq6": R * M * T * transit,
        "eq7": E * M * T,
        "eq8": R * E * M * (2 * (T + 1) + 1),
        "eq9": R * E * (T * (M + 1) + 2 * (T + 1) + 1 + 2 * M * T),
        "eq10": R * E * (M * T + 2),
        "eq11": R,
        "eq12": 2 * P * E * Q,
        "eq13": P * E * Q * T,
        "eq14": P * E * Q * T,
        "eq15": P * E * Q * T,
    }
    return {
        "variables": variables,
        "constraints": constraints,
        "total_variables": sum(variables.values()),
        "total_constraints": sum(constraints.values()),
    }


# the names of a model without requests: it declares nothing
_NO_NAMES = _Names({}, {}, {}, {}, {}, [], {}, {}, {}, {}, {})


def _audit(what: str, seen, expected) -> None:
    """Raise AssertionError unless a finished pass saw what count_formulas expects."""
    if seen != expected:
        raise AssertionError(f"model {what} {seen} differ from count_formulas {expected}")


@dataclass(frozen=True)
class MilpModel:
    """The MIP of one instance: its name table and objectives.

    Constraints and variables are streams, not stored: rows() yields each
    constraint as a (name, coefs, names, sense, rhs, family) tuple and
    variable_names() each binary variable's name, both in declaration
    order, and a pass over either that runs to its end is audited against
    count_formulas. A two-phase model's first objective is the throughput
    expression that phase 2 pins.
    """

    instance: Instance
    names: _Names
    objectives: tuple[Objective, ...]

    @property
    def two_phase(self) -> bool:
        return len(self.objectives) == 2

    def rows(self) -> Iterator[Row]:
        seen = dict.fromkeys(FAMILY_NOTES, 0)
        for row in _rows(self.instance, self.names):
            seen[row[5]] += 1
            yield row
        _audit("constraints per family", seen, count_formulas(self.instance)["constraints"])

    def variable_names(self) -> Iterator[str]:
        t = self.names
        declared = chain(
            (n for rows in t.lam.values() for row in rows for n in row),
            t.rho.values(),
            (n for *_, th, betas in t.overlaps for n in (*betas, th)),
            (n for key in t.lam for n in (*(x for row in t.cm[key] for x in row),
                                          *t.ca[key], *t.u[key], *t.w[key], t.v[key])))
        seen = 0
        for seen, name in enumerate(declared, 1):
            yield name
        _audit("variables", seen, count_formulas(self.instance)["total_variables"])

    @property
    def constraints(self) -> list[Row]:
        """list(self.rows()), audited; kept only because perfbench takes its len."""
        return list(self.rows())

    @property
    def variables(self) -> list[str]:
        """list(self.variable_names()), audited; kept only because perfbench takes its len."""
        return list(self.variable_names())


def build_model(instance: Instance, max_variables: int = 2_000_000) -> MilpModel:
    """The full MIP of an instance, as its name table and objectives.

    An instance with zero requests yields an empty (trivially optimal)
    model; an instance whose variable count exceeds max_variables raises
    SizeLimitError naming the count, and one under paper-literal-db or whose
    request or node ids collide once sanitized into LP names raises ValidationError.
    """
    if instance.planner.accumulation_model.variant == "paper-literal-db":
        raise ValidationError([("$.planner.accumulation_model", "no MILP under paper-literal-db: "
                                "its eq11 row reads 0 <= a negative dB threshold at zero")])
    counts = count_formulas(instance)
    if counts["total_variables"] > max_variables:
        raise SizeLimitError(counts["total_variables"], max_variables)
    names = _name_table(instance) if instance.requests else _NO_NAMES
    bandwidths = tuple(r.bandwidth_gbps for r in instance.requests)
    rhos = tuple(names.rho.values())
    lams = tuple(n for rows in names.lam.values() for row in rows for n in row)
    obj_mode = instance.planner.objective_mode
    if obj_mode.kind == "lexicographic":
        objectives = (Objective("maximize", "throughput", bandwidths, rhos),
                      Objective("minimize", "resource", (1.0,) * len(lams), lams))
    else:
        eta1 = obj_mode.eta1 if obj_mode.eta1 is not None else 1.0
        if obj_mode.eta2 is not None:
            eta2 = obj_mode.eta2
        else:
            denom = (len(bandwidths) * len(instance.topology.links) * instance.mode_count
                     * instance.slot_count * max(bandwidths, default=0.0) + 1.0)
            eta2 = eta1 / denom
        objectives = (Objective("maximize", "weighted",
                                (*[eta1 * b for b in bandwidths], *[-eta2] * len(lams)),
                                (*rhos, *lams)),)
    return MilpModel(instance, names, objectives)


def _rows(instance: Instance, names: _Names) -> Iterator[Row]:
    """Every constraint row of instance's model, in declaration order. Rows
    of one coefficient vector share one tuple, made once per pass."""
    if not instance.requests:
        return
    topo = instance.topology
    links = topo.link_keys()
    modes = range(instance.mode_count)
    T = instance.slot_count
    slots = range(T)
    nodes = topo.node_ids()
    big_m = instance.big_m
    rids = [r.id for r in instance.requests]
    q = {r.id: instance.slot_units(r) for r in instance.requests}
    # eq10's big-M must dominate the largest slot-unit demand
    big_m_cap = max(big_m, max(q.values()))
    rt, nt, et, lam, rho, overlaps, cm, ca, u, w, v = names
    shapes: dict[tuple[float, ...], tuple[float, ...]] = {}

    def shape(*coefs: float) -> tuple[float, ...]:  # the pass's one tuple equal to coefs
        return shapes.setdefault(coefs, coefs)

    pair, triple = shape(1.0, -1.0), shape(1.0, -1.0, -1.0)

    def flow(rid, out_node, in_node, ms, ts, *tail):
        """(coefs, names): out_node's out-link lambdas at +1, in_node's in-link ones
        at -1, then the (coef, name) tail."""
        out = [lam[rid, l.key][m][t] for l in topo.out_links(out_node) for m in ms for t in ts]
        inn = [lam[rid, l.key][m][t] for l in topo.in_links(in_node) for m in ms for t in ts]
        return (shape(*[1.0] * len(out), *[-1.0] * len(inn), *[c for c, _ in tail]),
                (*out, *inn, *[n for _, n in tail]))

    def transitions(family, ind, seq):
        """ind[tb] >= |seq[tb] - seq[tb-1]| with virtual zeros at both ends."""
        for tb in range(T + 1):
            cur, prev = seq[tb:tb + 1], seq[max(tb - 1, 0):tb]
            for kind, sign in (("up", -1.0), ("dn", 1.0)):
                yield (f"{family}_{kind}_{ind[tb]}",
                       shape(1.0, *[sign] * len(cur), *[-sign] * len(prev)),
                       (ind[tb], *cur, *prev), ">=", 0.0, family)

    # eq2: flow conservation in slot units, plus lambda <= rho coupling
    for r in instance.requests:
        for node in nodes:
            sense, tail = ((">=", [(-float(q[r.id]), rho[r.id])]) if node == r.source
                           else ("<=", [(float(q[r.id]), rho[r.id])]) if node == r.destination
                           else ("=", []))
            yield (f"eq2_{rt[r.id]}_{nt[node]}",
                   *flow(r.id, node, node, modes, slots, *tail), sense, 0.0, "eq2")
    for rid in rids:
        for link in links:
            for m in modes:
                for t in slots:
                    yield (f"eq2_acc_{rt[rid]}_{et[link]}_m{m}_t{t}", pair,
                           (lam[rid, link][m][t], rho[rid]), "<=", 0.0, "eq2")

    # eq3/eq4: per-slot aggregate continuity; eq5/eq6: per-mode continuity
    for r in instance.requests:
        transit = [n for n in nodes if n not in (r.source, r.destination)]
        for t in slots:
            yield (f"eq3_{rt[r.id]}_t{t}",
                   *flow(r.id, r.source, r.destination, modes, (t,)), "=", 0.0, "eq3")
        for t in slots:
            for node in transit:
                yield (f"eq4_{rt[r.id]}_t{t}_{nt[node]}",
                       *flow(r.id, node, node, modes, (t,)), "=", 0.0, "eq4")
        for m in modes:
            for t in slots:
                yield (f"eq5_{rt[r.id]}_m{m}_t{t}",
                       *flow(r.id, r.source, r.destination, (m,), (t,)), "=", 0.0, "eq5")
        for m in modes:
            for t in slots:
                for node in transit:
                    yield (f"eq6_{rt[r.id]}_m{m}_t{t}_{nt[node]}",
                           *flow(r.id, node, node, (m,), (t,)), "=", 0.0, "eq6")

    # eq7: each (link, mode, slot) cell used at most once
    sum_r = shape(*[1.0] * len(rids))
    for link in links:
        for m in modes:
            for t in slots:
                yield (f"eq7_{et[link]}_m{m}_t{t}", sum_r,
                       tuple(lam[rid, link][m][t] for rid in rids), "<=", 1.0, "eq7")

    # eq8: contiguity via transition indicators with virtual zero slots at
    # both frame boundaries; at most 2 transitions = one contiguous block
    sum_tb = shape(*[1.0] * (T + 1))
    for rid in rids:
        for link in links:
            for m in modes:
                yield from transitions("eq8", cm[rid, link][m], lam[rid, link][m])
                yield (f"eq8_sum_{rt[rid]}_{et[link]}_m{m}", sum_tb,
                       tuple(cm[rid, link][m]), "<=", 2.0, "eq8")

    # eq9: aggregate occupancy indicator u, its contiguity, and mode-pattern
    # equality for modes the request uses
    one_less_all = shape(1.0, *[-1.0] * len(modes))
    for rid in rids:
        for link in links:
            ls, us, ws = lam[rid, link], u[rid, link], w[rid, link]
            for t in slots:
                for m in modes:
                    yield (f"eq9_uup_{us[t]}_m{m}", pair, (ls[m][t], us[t]), "<=", 0.0, "eq9")
                yield (f"eq9_udn_{us[t]}", one_less_all,
                       (us[t], *[ls[m][t] for m in modes]), "<=", 0.0, "eq9")
            yield from transitions("eq9", ca[rid, link], us)
            yield (f"eq9_sum_{rt[rid]}_{et[link]}", sum_tb, tuple(ca[rid, link]), "<=", 2.0, "eq9")
            for m in modes:
                for t in slots:
                    yield (f"eq9_wub_{ws[m]}_t{t}", pair, (ls[m][t], ws[m]), "<=", 0.0, "eq9")
                    # lambda >= u - (1 - w): a used mode follows the
                    # aggregate slot pattern exactly
                    yield (f"eq9_wlb_{ws[m]}_t{t}", triple, (ls[m][t], us[t], ws[m]),
                           ">=", -1.0, "eq9")

    # eq10: if a request uses a link, the supplied cells cover its demand
    one_less_cells = shape(1.0, *[-1.0] * (len(modes) * T))
    cells_less_cap = shape(*[1.0] * (len(modes) * T), -float(big_m_cap))
    for r in instance.requests:
        for link in links:
            vn = v[r.id, link]
            cells = [n for row in lam[r.id, link] for n in row]
            for m in modes:
                for t in slots:
                    yield (f"eq10_vup_{vn}_m{m}_t{t}", pair,
                           (lam[r.id, link][m][t], vn), "<=", 0.0, "eq10")
            yield (f"eq10_vdn_{vn}", one_less_cells, (vn, *cells), "<=", 0.0, "eq10")
            yield (f"eq10_cap_{vn}", cells_less_cap, (*cells, vn),
                   ">=", float(q[r.id]) - big_m_cap, "eq10")

    # eq11: accumulated crosstalk budget per protected request, with
    # coefficients and threshold in the configured accumulation model's
    # additive domain
    acc = instance.planner.accumulation_model
    threshold = xtalk.threshold_in_domain(instance.planner.xt_threshold_db, acc)
    coef = {(l.key, m1, m2): xtalk.pairwise_contribution(
                instance.crosstalk, m2, m1, l.length_m, acc)
            for l in topo.links for m1 in modes for m2 in modes if m1 != m2}
    budget = {rid: ([], []) for rid in rids}  # (coefs, theta names) per victim
    for r1, _, link, m1, m2, th, _ in overlaps:
        budget[r1][0].append(coef[link, m1, m2])
        budget[r1][1].append(th)
    for rid in rids:
        coefs, ths = budget[rid]
        yield (f"eq11_{rt[rid]}", shape(*coefs), tuple(ths), "<=", threshold, "eq11")

    # eq12-eq15: beta = AND of the two occupancies; theta = OR over slots
    lo, hi = shape(*[1.0 / big_m] * T, -1.0), shape(1.0, *[-1.0] * T)
    both = shape(1.0, 1.0, -1.0)
    for r1, r2, link, m1, m2, th, betas in overlaps:
        yield (f"eq12_lo_{th}", lo, (*betas, th), "<=", 0.0, "eq12")
        yield (f"eq12_hi_{th}", hi, (th, *betas), "<=", 0.0, "eq12")
        for b, l1, l2 in zip(betas, lam[r1, link][m1], lam[r2, link][m2]):
            yield (f"eq13_{b}", both, (l1, l2, b), "<=", 1.0, "eq13")
            yield (f"eq14_{b}", pair, (b, l1), "<=", 0.0, "eq14")
            yield (f"eq15_{b}", pair, (b, l2), "<=", 0.0, "eq15")


# --- LP text emission -----------------------------------------------------


@lru_cache(maxsize=4096)
def _fmt_num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


class _Templates(dict):
    """(coefs, sense, rhs) -> the %-format template of an LP row of that
    shape, whose fields are the row's label and then one name per
    coefficient, as in ` %s: %s - 0.25 %s <= 1`: no plus sign on the first
    term, `0 dummy_zero` for no terms, and no tail when sense is None."""

    def __missing__(self, key: tuple) -> str:
        coefs, sense, rhs = key
        body = " ".join([f"- {_fmt_num(-c)} %s" if c < 0 else f"+ {_fmt_num(c)} %s"
                         for c in coefs]) if coefs else "0 dummy_zero"
        tail = "" if sense is None else f" {sense} {_fmt_num(rhs)}"
        text = self[key] = f" %s: {body[2:] if body[0] == '+' else body}{tail}\n"
        return text


def _wrap(body: str, width: int = 250) -> str:
    """A row split into LP lines: one leading space first, three on continuations."""
    words = body.split(" ")
    lines = [" " + words[0]]
    for w in words[1:]:
        if len(lines[-1]) + 1 + len(w) > width:
            lines.append("   " + w)
        else:
            lines[-1] += " " + w
    return "\n".join(lines) + "\n"


def _render_rows(templates: _Templates, rows) -> tuple[str, bool]:
    """The LP text of rows, each through its shape's template and _wrap past
    the line limit, and each family run under its header (a row of family
    None has none), and whether any row has no terms (so reads `0 dummy_zero`)."""
    out, last_family, empty = [], None, False
    for name, coefs, names, sense, rhs, family in rows:
        if family != last_family:
            note = FAMILY_NOTES.get(family, "")
            out.append(f"\\ {family}: {note}\n" if note else f"\\ {family}\n")
            last_family = family
        if not coefs:
            empty = True
        row = templates[coefs, sense, rhs] % ((name,) + names)
        out.append(row if len(row) <= 251 else _wrap(row[1:-1]))
    return "".join(out), empty


def emit_lp(model: MilpModel, destination: str | Path,
            phase1_value: Optional[float] = None) -> list[Path]:
    """Write the model as LP text; deterministic, byte-stable output.

    A single-objective model writes one file at `destination`. A two-phase
    model writes `<stem>.phase1.lp` and `<stem>.phase2.lp`; phase 2 pins
    the throughput to `phase1_value` (0 when not supplied) and minimizes
    resource usage. Both files write the same bytes of the constraint
    block, rendered and encoded once in a single pass over model.rows().
    """
    destination = Path(destination)
    templates = _Templates()
    block, block_empty = _render_rows(templates, model.rows())
    block = block.encode()
    binaries = "".join([f" {name}\n" for name in model.variable_names()]).encode()

    def write(path: Path, objective: Objective, lead: list[Row]) -> Path:
        sense = "Maximize" if objective.sense == "maximize" else "Minimize"
        obj, obj_empty = _render_rows(
            templates, [("obj", objective.coefs, objective.names, None, None, None)])
        lead_text, lead_empty = _render_rows(templates, lead)
        bounds = " dummy_zero = 0\n" if obj_empty or block_empty or lead_empty else ""
        head = f"\\ LP model written by otssplan\n{sense}\n{obj}Subject To\n{lead_text}"
        with path.open("wb") as f:
            f.writelines([head.encode(), block, f"Bounds\n{bounds}Binary\n".encode(), binaries,
                          b"End\n"])
        return path

    if not model.two_phase:
        return [write(destination, model.objectives[0], [])]
    stem = destination.with_suffix("") if destination.suffix == ".lp" else destination
    throughput = model.objectives[0]
    fix = ("fix_throughput", throughput.coefs, throughput.names, ">=",
           0.0 if phase1_value is None else float(phase1_value), "fix")
    return [write(stem.with_name(stem.name + ".phase1.lp"), model.objectives[0], []),
            write(stem.with_name(stem.name + ".phase2.lp"), model.objectives[1], [fix])]


# --- assignment translation and evaluation --------------------------------


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
        cells[a.request_id] = set(a.cells())

    values: dict[str, float] = {}
    for rid, name in names.rho.items():
        values[name] = 1.0 if schedule.assignment(rid) is not None else 0.0
    grid = {}  # (rid, link) -> lambda values [m][t]
    for key, lam in names.lam.items():
        rid, link = key
        grid[key] = rows = [[1.0 if (link, m, t) in cells[rid] else 0.0 for t in slots]
                            for m in modes]
        used = [max(col) for col in zip(*rows)]
        for name_row, row, cm_row in zip(lam, rows, names.cm[key]):
            values.update(zip(name_row, row))
            values.update(zip(cm_row, _changes(row)))
        values.update(zip(names.u[key], used))
        values.update(zip(names.w[key], map(max, rows)))
        values.update(zip(names.ca[key], _changes(used)))
        values[names.v[key]] = max(used)
    for r1, r2, link, m1, m2, th, betas in names.overlaps:
        both = [a * b for a, b in zip(grid[r1, link][m1], grid[r2, link][m2])]
        values.update(zip(betas, both))
        values[th] = max(both)
    return values


def evaluate_constraints(model: MilpModel, values: dict[str, float],
                         tol: float = 1e-9) -> list[str]:
    """Names of constraints the assignment violates (missing vars read 0)."""
    violated = []
    for name, coefs, names, sense, rhs, _ in model.rows():
        lhs = sum(coef * values.get(var, 0.0) for coef, var in zip(coefs, names))
        if not (lhs <= rhs + tol if sense == "<=" else lhs >= rhs - tol if sense == ">="
                else abs(lhs - rhs) <= tol):
            violated.append(name)
    return violated
