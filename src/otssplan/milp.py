"""Abstract MIP of the planning problem and LP-format serialization.

Builds the full model: flow conservation and acceptance coupling (eq2),
per-slot and per-mode continuity (eq3-eq6), slot exclusivity (eq7),
contiguity via transition indicators (eq8), cross-mode slot equality
(eq9), capacity big-M (eq10), the crosstalk budget (eq11), and the
overlap-indicator linearizations (eq12-eq15). The model is solver
agnostic; emit_lp writes standard LP text for any external MILP solver.

One name table (_name_table) owns the naming scheme. Each request id,
node id and link is sanitized to its LP tag a single time, and two ids
that sanitize to the same tag raise ValidationError instead of silently
merging in the LP. A name of one link's variable is kept as a stem
holding a placeholder (_AT) where the link's tag goes, once per request
or request pair, not once per link. build_model keeps only the name
table and the objectives. The constraints are a stream of stamped stanza
blocks (MilpModel.blocks): each loop of _blocks yields the same row
shapes every time round, so a block is a stanza, the tuple of (family,
coefs, sense, rhs) shapes one iteration yields, args, one flat tuple per
iteration of each row's label followed by its variable names, and tags.
Rows that differ between links only in the link's tag are yielded once,
in stems, and the block stands for one copy per link tag, in link order;
eq3-eq6 are stamped the same way per slot or per mode and slot. Only
eq2's flow rows and eq11 are written once (tags ("",)). Every row of one
shape shares one coefs tuple per pass (fig2's 62,900 rows have 22). The
variables are runs of stems with their tags (MilpModel._declared); an
objective is (sense, name, coefs, names). A pass over either stream is
audited against count_formulas when it ends, a block counting its rows
once per tag. MilpModel.constraints and .variables are sized views that
count the streams so, without expanding a row or stamping a name; only
emit_lp reads rows and names, so the views cannot be iterated.
One generator, _render_blocks, renders every LP row (constraints,
objectives, and the phase-2 fix_throughput row over the throughput
objective's columns): it fills a block's %-templates once, family
headers included, then writes one copy of that text per tag with the tag
joined in at each placeholder (_stamp). A line that passes the line
limit once stamped is wrapped once per tag width, before stamping, with
each placeholder standing in as that many characters; no tag holds a
space, so every tag of one width breaks it at the same places. emit_lp
streams every file it writes at once: each block is rendered and encoded
once and its bytes written to both phase files before the next block is
rendered, so memory holds one block, never a file. A failed emit leaves
its regular files empty. paper-literal-db has no MILP until its eq11 row
is derived.
"""

from __future__ import annotations

import os
import re
import stat
from contextlib import ExitStack
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

from . import xtalk
from .model import Instance, Link, ValidationError

# the most binary variables build_model accepts
VARIABLE_CAP = 2_000_000


class SizeLimitError(Exception):
    """Instance would exceed VARIABLE_CAP."""

    def __init__(self, variable_count: int):
        super().__init__(f"model would have {variable_count} variables, cap is {VARIABLE_CAP}")
        self.variable_count = variable_count


class Objective(NamedTuple):
    sense: str  # maximize | minimize
    name: str
    coefs: tuple[float, ...]
    names: tuple[str, ...]  # one variable name per coefficient


# a constraint row as _blocks lays out one iteration's rows: coefs is
# shared by the pass's rows with equal coefficients, and names holds one
# variable name per coefficient
Row = tuple[str, tuple[float, ...], tuple[str, ...], str, float, str]
# the row shapes one loop iteration yields, each (family, coefs, sense, rhs)
Stanza = tuple[tuple[str, tuple[float, ...], str, float], ...]
# a stanza, per iteration its fields (each row's label, then its names),
# and the tags the iterations are stamped with, one copy per tag
Block = tuple[Stanza, list[tuple[str, ...]], tuple[str, ...]]

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
    rt (request id), nt (node id) and et (link), rho[rid], and the stems
    of the per-link names, each holding _AT where its link's tag goes:
    lam[rid][m][t], cm[rid][m][tb], ca[rid][tb], u[rid][t], w[rid][m] and
    v[rid]. overlaps[r1, r2] lists (m1, m2, theta, betas) per ordered mode
    pair of each ordered request pair. The declaration order is lam, rho,
    overlaps, then cm..v per request, each per-link stem once per link."""

    rt: dict
    nt: dict
    et: dict
    lam: dict
    rho: dict
    overlaps: dict
    cm: dict
    ca: dict
    u: dict
    w: dict
    v: dict


# where a stamped name or label holds its tag (a link's, a slot's, or a
# mode and slot's): no tag can hold it, and no name or label holds it twice
_AT = "\0"
# the tags of a block written once, with nothing stamped
_UNSTAMPED = ("",)


def _name_table(instance: Instance) -> _Names:
    """The names of instance's model; raises ValidationError when two
    request ids or two node ids sanitize to one tag."""
    rids = [r.id for r in instance.requests]
    modes = range(instance.mode_count)
    T = instance.slot_count
    rt = _tag_table(rids, "$.requests", "r")
    nt = _tag_table(instance.topology.node_ids(), "$.topology.nodes", "n")
    et = {link: _link_tag(link) for link in instance.topology.link_keys()}
    # each name is a shared prefix plus a suffix made once per table
    ms = [f"_m{m}" for m in modes]
    tbs = [f"_t{tb}" for tb in range(T + 1)]
    ts = tbs[:T]
    lam, cm, ca, u, w, v = {}, {}, {}, {}, {}, {}
    for rid in rids:
        tag = f"_{rt[rid]}_{_AT}"
        lam[rid] = [list(map(f"l{tag}{m}".__add__, ts)) for m in ms]
        cm[rid] = [list(map(f"cm{tag}{m}".__add__, tbs)) for m in ms]
        ca[rid] = list(map(f"ca{tag}".__add__, tbs))
        u[rid] = list(map(f"u{tag}".__add__, ts))
        w[rid] = list(map(f"w{tag}".__add__, ms))
        v[rid] = "v" + tag
    rho = {rid: f"rho_{rt[rid]}" for rid in rids}
    overlaps = {}
    for r1 in rids:
        for r2 in rids:
            if r1 != r2:
                pre = f"_{rt[r1]}_{rt[r2]}_{_AT}_m"
                overlaps[r1, r2] = [(m1, m2, f"th{pre}{m1}_{m2}",
                                     list(map(f"b{pre}{m1}_{m2}".__add__, ts)))
                                    for m1 in modes for m2 in modes if m1 != m2]
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
_NO_NAMES = _Names({}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {})


def _audit(what: str, seen, expected) -> None:
    """Raise AssertionError unless a finished pass saw what count_formulas expects."""
    if seen != expected:
        raise AssertionError(f"model {what} {seen} differ from count_formulas {expected}")


class _Sized:
    """A sized view: len is the count its maker took without expanding a
    row or stamping a name. It holds nothing to iterate."""

    __slots__ = ("_len",)

    def __init__(self, size: int):
        self._len = size

    def __len__(self) -> int:
        return self._len


@dataclass(frozen=True)
class MilpModel:
    """The MIP of one instance: its name table and objectives.

    Constraints and variables are not stored. blocks() yields the
    constraints as stamped blocks and _declared() the binary variables as
    runs of stems, each with its tags, both in declaration order; a pass
    over either that runs to its end is audited against count_formulas.
    The constraints and variables properties are sized views counted in
    one such pass, a block or run counting once per row or stem and tag,
    without expanding a row or stamping a name. A two-phase model's first
    objective is the throughput expression that phase 2 pins.
    """

    instance: Instance
    names: _Names
    objectives: tuple[Objective, ...]

    @property
    def two_phase(self) -> bool:
        return len(self.objectives) == 2

    def blocks(self) -> Iterator[Block]:
        seen = dict.fromkeys(FAMILY_NOTES, 0)
        for stanza, args, tags in _blocks(self.instance, self.names):
            for family, *_ in stanza:
                seen[family] += len(args) * len(tags)
            yield stanza, args, tags
        _audit("constraints per family", seen, count_formulas(self.instance)["constraints"])

    def _declared(self) -> Iterator[tuple[list[str], tuple[str, ...]]]:
        """(stems, tags) per run of the binary variables in declaration
        order, each stem declared once per tag; audited."""
        t = self.names
        tags = tuple(t.et.values())
        runs = chain(
            (([n for row in rows for n in row], tags) for rows in t.lam.values()),
            [(list(t.rho.values()), _UNSTAMPED)],
            (([n for *_, th, betas in pairs for n in (*betas, th)], tags)
             for pairs in t.overlaps.values()),
            (([*chain.from_iterable(t.cm[rid]), *t.ca[rid], *t.u[rid], *t.w[rid], t.v[rid]],
              tags) for rid in t.lam))
        seen = 0
        for stems, run_tags in runs:
            seen += len(stems) * len(run_tags)
            yield stems, run_tags
        _audit("variables", seen, count_formulas(self.instance)["total_variables"])

    @property
    def constraints(self) -> _Sized:
        """The rows, as a view sized by one audited pass over blocks()."""
        return _Sized(sum(len(stanza) * len(args) * len(tags)
                          for stanza, args, tags in self.blocks()))

    @property
    def variables(self) -> _Sized:
        """The variables, as a view sized by one audited pass over the
        declared stems."""
        return _Sized(sum(len(stems) * len(tags) for stems, tags in self._declared()))


def build_model(instance: Instance) -> MilpModel:
    """The full MIP of an instance, as its name table and objectives.

    An instance with zero requests yields an empty (trivially optimal)
    model; an instance whose variable count exceeds VARIABLE_CAP raises
    SizeLimitError naming the count, and one under paper-literal-db or whose
    request or node ids collide once sanitized into LP names raises ValidationError.
    """
    if instance.planner.accumulation_model.variant == "paper-literal-db":
        raise ValidationError([("$.planner.accumulation_model", "no MILP under paper-literal-db: "
                                "its eq11 row reads 0 <= a negative dB threshold at zero")])
    counts = count_formulas(instance)
    if counts["total_variables"] > VARIABLE_CAP:
        raise SizeLimitError(counts["total_variables"])
    names = _name_table(instance) if instance.requests else _NO_NAMES
    bandwidths = tuple(r.bandwidth_gbps for r in instance.requests)
    rhos = tuple(names.rho.values())
    lams = tuple(stem.replace(_AT, tag) for rows in names.lam.values()
                 for tag in names.et.values() for row in rows for stem in row)
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


def _blocks(instance: Instance, names: _Names) -> Iterator[Block]:
    """Every constraint row of instance's model, in declaration order, as
    (stanza, args, tags) blocks: a loop body that yields the same row shapes
    each time round is one stanza, with one fields tuple per iteration.
    Rows that differ between links only in the link's tag are yielded once,
    with _AT in that tag's place, and stand for one copy per link tag; so
    are eq3/eq4 per slot and eq5/eq6 per mode and slot, whose rows differ
    only in that suffix. eq2's flow rows and eq11 span links and slots, so
    their blocks hold whole names and are written once. Rows of one
    coefficient vector share one tuple, made once per pass.

    The big-M constants come from the instance alone: eq10's is the larger
    of the slot count T and the largest slot-unit demand, and eq12's lower
    row reads 1/T, so no schedule within the frame is cut off."""
    if not instance.requests:
        return
    topo = instance.topology
    modes = range(instance.mode_count)
    T = instance.slot_count
    slots = range(T)
    nodes = topo.node_ids()
    rids = [r.id for r in instance.requests]
    q = {r.id: instance.slot_units(r) for r in instance.requests}
    big_m_cap = max(T, max(q.values()))
    rt, nt, et, lam, rho, overlaps, cm, ca, u, w, v = names
    tags = tuple(et.values())
    cell_tags = tuple(f"m{m}_t{t}" for m in modes for t in slots)
    slot_tags = tuple(f"t{t}" for t in slots)
    at_modes = [f"m{m}_{_AT}" for m in modes]
    shapes: dict[tuple[float, ...], tuple[float, ...]] = {}

    def shape(*coefs: float) -> tuple[float, ...]:  # the pass's one tuple equal to coefs
        return shapes.setdefault(coefs, coefs)

    pair, triple = shape(1.0, -1.0), shape(1.0, -1.0, -1.0)

    def lams(rid, links, cells) -> list[str]:
        """rid's lambda names on links, each link's named by cells."""
        return [p + c for p in [f"l_{rt[rid]}_{et[l.key]}_" for l in links] for c in cells]

    def flow(rid, out_node, in_node, cells, *tail):
        """(coefs, names): rid's lambdas named by cells on out_node's out-links at +1,
        then on in_node's in-links at -1, then the (coef, name) tail."""
        out = lams(rid, topo.out_links(out_node), cells)
        inn = lams(rid, topo.in_links(in_node), cells)
        return (shape(*[1.0] * len(out), *[-1.0] * len(inn), *[c for c, _ in tail]),
                (*out, *inn, *[n for _, n in tail]))

    def block(rows: list[Row], copies=_UNSTAMPED) -> Block:
        """The block of one iteration yielding rows, stamped with copies."""
        return (tuple((family, coefs, sense, rhs) for _, coefs, _, sense, rhs, family in rows),
                [tuple(chain.from_iterable((row[0], *row[2]) for row in rows))], copies)

    def transitions(family: str) -> Stanza:
        """ind[tb] >= |seq[tb] - seq[tb-1]| for tb in 0..T, up then down,
        with virtual zeros at both ends (so the terms of seq[tb] exist for
        tb < T and of seq[tb-1] for tb > 0); transition_fields fills it."""
        return tuple((family, shape(1.0, *[sign] * (tb < T), *[-sign] * (tb > 0)), ">=", 0.0)
                     for tb in range(T + 1) for sign in (-1.0, 1.0))

    def transition_fields(family, ind, seq) -> list[str]:
        fields = []
        for tb in range(T + 1):
            cur, prev = seq[tb:tb + 1], seq[max(tb - 1, 0):tb]
            fields += (f"{family}_up_{ind[tb]}", ind[tb], *cur, *prev,
                       f"{family}_dn_{ind[tb]}", ind[tb], *cur, *prev)
        return fields

    # eq2: flow conservation in slot units, plus lambda <= rho coupling
    for r in instance.requests:
        rows = []
        for node in nodes:
            sense, tail = ((">=", [(-float(q[r.id]), rho[r.id])]) if node == r.source
                           else ("<=", [(float(q[r.id]), rho[r.id])]) if node == r.destination
                           else ("=", []))
            rows.append((f"eq2_{rt[r.id]}_{nt[node]}",
                         *flow(r.id, node, node, cell_tags, *tail), sense, 0.0, "eq2"))
        yield block(rows)
    for rid in rids:
        yield ((("eq2", pair, "<=", 0.0),),
               [(f"eq2_acc_{rt[rid]}_{_AT}_m{m}_t{t}", lam[rid][m][t], rho[rid])
                for m in modes for t in slots], tags)

    # eq3/eq4: per-slot aggregate continuity, one copy per slot; eq5/eq6:
    # per-mode continuity, one copy per mode and slot
    for r in instance.requests:
        transit = [n for n in nodes if n not in (r.source, r.destination)]
        yield block([(f"eq3_{rt[r.id]}_{_AT}",
                      *flow(r.id, r.source, r.destination, at_modes), "=", 0.0, "eq3")],
                    slot_tags)
        if transit:
            yield block([(f"eq4_{rt[r.id]}_{_AT}_{nt[node]}",
                          *flow(r.id, node, node, at_modes), "=", 0.0, "eq4")
                         for node in transit], slot_tags)
        yield block([(f"eq5_{rt[r.id]}_{_AT}",
                      *flow(r.id, r.source, r.destination, (_AT,)), "=", 0.0, "eq5")],
                    cell_tags)
        if transit:
            yield block([(f"eq6_{rt[r.id]}_{_AT}_{nt[node]}",
                          *flow(r.id, node, node, (_AT,)), "=", 0.0, "eq6")
                         for node in transit], cell_tags)

    # eq7: each (link, mode, slot) cell used at most once
    yield ((("eq7", shape(*[1.0] * len(rids)), "<=", 1.0),),
           [(f"eq7_{_AT}_m{m}_t{t}", *[lam[rid][m][t] for rid in rids])
            for m in modes for t in slots], tags)

    # eq8: contiguity via transition indicators with virtual zero slots at
    # both frame boundaries; at most 2 transitions = one contiguous block
    sum_tb = shape(*[1.0] * (T + 1))
    eq8 = (*transitions("eq8"), ("eq8", sum_tb, "<=", 2.0))
    for rid in rids:
        yield eq8, [(*transition_fields("eq8", cm[rid][m], lam[rid][m]),
                     f"eq8_sum_{rt[rid]}_{_AT}_m{m}", *cm[rid][m]) for m in modes], tags

    # eq9: aggregate occupancy indicator u, its contiguity, and mode-pattern
    # equality for modes the request uses; lambda >= u - (1 - w): a used mode
    # follows the aggregate slot pattern exactly
    one_less_all = shape(1.0, *[-1.0] * len(modes))
    eq9 = (*((("eq9", pair, "<=", 0.0),) * len(modes) + (("eq9", one_less_all, "<=", 0.0),))
           * T,
           *transitions("eq9"), ("eq9", sum_tb, "<=", 2.0),
           *(("eq9", pair, "<=", 0.0), ("eq9", triple, ">=", -1.0)) * (len(modes) * T))
    for rid in rids:
        ls, us, ws = lam[rid], u[rid], w[rid]
        fields = []
        for t in slots:
            for m in modes:
                fields += (f"eq9_uup_{us[t]}_m{m}", ls[m][t], us[t])
            fields += (f"eq9_udn_{us[t]}", us[t], *[ls[m][t] for m in modes])
        fields += transition_fields("eq9", ca[rid], us)
        fields += (f"eq9_sum_{rt[rid]}_{_AT}", *ca[rid])
        for m in modes:
            for t in slots:
                fields += (f"eq9_wub_{ws[m]}_t{t}", ls[m][t], ws[m],
                           f"eq9_wlb_{ws[m]}_t{t}", ls[m][t], us[t], ws[m])
        yield eq9, [tuple(fields)], tags

    # eq10: if a request uses a link, the supplied cells cover its demand
    one_less_cells = shape(1.0, *[-1.0] * (len(modes) * T))
    cells_less_cap = shape(*[1.0] * (len(modes) * T), -float(big_m_cap))
    for r in instance.requests:
        eq10 = (*(("eq10", pair, "<=", 0.0),) * (len(modes) * T),
                ("eq10", one_less_cells, "<=", 0.0),
                ("eq10", cells_less_cap, ">=", float(q[r.id]) - big_m_cap))
        vn = v[r.id]
        cells = [n for row in lam[r.id] for n in row]
        fields = []
        for m in modes:
            for t in slots:
                fields += (f"eq10_vup_{vn}_m{m}_t{t}", lam[r.id][m][t], vn)
        yield eq10, [(*fields, f"eq10_vdn_{vn}", vn, *cells, f"eq10_cap_{vn}", *cells, vn)], tags

    # eq11: accumulated crosstalk budget per protected request, with
    # coefficients and threshold in the configured accumulation model's
    # additive domain
    acc = instance.planner.accumulation_model
    threshold = xtalk.threshold_in_domain(instance.planner.xt_threshold_db, acc)
    mode_pairs = [(m1, m2) for m1 in modes for m2 in modes if m1 != m2]  # the name table's order
    coef = {l.key: [xtalk.pairwise_contribution(instance.crosstalk, m2, m1, l.length_m, acc)
                    for m1, m2 in mode_pairs] for l in topo.links}
    for rid in rids:
        coefs, ths = [], []  # per aggressor, link and mode pair: the victim rid's thetas
        for (r1, _), pairs in overlaps.items():
            if r1 == rid:
                for link, tag in et.items():
                    coefs += coef[link]
                    ths += [th.replace(_AT, tag) for _, _, th, _ in pairs]
        yield block([(f"eq11_{rt[rid]}", shape(*coefs), tuple(ths), "<=", threshold, "eq11")])

    # eq12-eq15: beta = AND of the two occupancies; theta = OR over slots
    lo, hi = shape(*[1.0 / T] * T, -1.0), shape(1.0, *[-1.0] * T)
    both = shape(1.0, 1.0, -1.0)
    eq12 = (("eq12", lo, "<=", 0.0), ("eq12", hi, "<=", 0.0),
            *(("eq13", both, "<=", 1.0), ("eq14", pair, "<=", 0.0), ("eq15", pair, "<=", 0.0))
            * T)
    for (r1, r2), pairs in overlaps.items():
        args = []
        for m1, m2, th, betas in pairs:
            fields = [f"eq12_lo_{th}", *betas, th, f"eq12_hi_{th}", th, *betas]
            for b, l1, l2 in zip(betas, lam[r1][m1], lam[r2][m2]):
                fields += (f"eq13_{b}", l1, l2, b, f"eq14_{b}", b, l1, f"eq15_{b}", b, l2)
            args.append(tuple(fields))
        yield eq12, args, tags


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


def _wrap(body: str) -> str:
    """A row split into LP lines of at most 250 characters: one leading
    space first, three on continuations. Each line breaks at the last
    space that fits; a word longer than a line sits alone on its own."""
    lines, start, room = [], 0, 249
    while len(body) - start > room:
        cut = body.rfind(" ", start, start + room + 1)
        if cut < 0:
            cut = body.find(" ", start)
            if cut < 0:
                break
        lines.append(body[start:cut])
        start, room = cut + 1, 247
    lines.append(body[start:])
    return " " + "\n   ".join(lines) + "\n"


def _header(family) -> str:
    note = FAMILY_NOTES.get(family, "")
    return f"\\ {family}: {note}\n" if note else f"\\ {family}\n"


def _stanza_template(templates: _Templates, stanza: Stanza, family) -> str:
    """The %-template of one iteration of stanza after a row of `family`,
    family headers included."""
    parts = []
    for fam, coefs, sense, rhs in stanza:
        if fam != family:
            parts.append(_header(fam).replace("%", "%%"))
            family = fam
        parts.append(templates[coefs, sense, rhs])
    return "".join(parts)


def _wrapped(text: str, width: int) -> str:
    """text with each line that passes the line limit once its placeholders
    hold tags of `width` characters wrapped, the placeholders kept. While
    a line is wrapped each placeholder stands in as `width` non-space
    characters; tags hold no space, so every tag of one width breaks the
    line at the same places. Width 0 is the empty tag: a wrapped line drops
    its placeholders."""
    lines = text.split("\n")
    fill = _AT * width
    for k, line in enumerate(lines):
        if len(line) + line.count(_AT) * (width - 1) > 250:
            line = _wrap(line[1:].replace(_AT, fill))[:-1]
            lines[k] = line.replace(fill, _AT) if width else line
    return "\n".join(lines)


def _stamp(text: str, tags, lead: str = "", again: str = "") -> bytes:
    """text once per tag, with the tag in place of each placeholder,
    encoded: lead before the first copy and again before each later one.
    The text is wrapped once per tag width (_wrapped) and cut at its
    placeholders, and each tag of that width joins the pieces."""
    pieces: dict[int, list[bytes]] = {}
    out = []
    for tag, before in zip(tags, chain((lead,), repeat(again))):
        width = len(tag)
        if width not in pieces:
            pieces[width] = _wrapped(text, width).encode().split(b"\0")
        out += (before.encode(), tag.encode().join(pieces[width]))
    return b"".join(out)


def _render_blocks(templates: _Templates, blocks) -> Iterator[tuple[bytes, bool]]:
    """Per block, its encoded LP text and whether any of its rows has no
    terms (so reads `0 dummy_zero`). Each family run is under its header
    (a row of family None has none). A block is filled once, one template
    per iteration, and then stamped once per tag (_stamp), its long lines
    wrapped once per tag width."""
    family = None
    for stanza, args, tags in blocks:
        if not (args and stanza and tags):
            continue
        start, end = stanza[0][0], stanza[-1][0]
        body = _stanza_template(templates, stanza, start)
        rest = _stanza_template(templates, stanza, end)
        text = "".join(chain((body % args[0],), map(rest.__mod__, islice(args, 1, None))))
        lead, again = (_header(start) if fam != start else "" for fam in (family, end))
        family = end
        yield _stamp(text, tags, lead, again), not all(coefs for _, coefs, _, _ in stanza)


def _write(fds: list[int], data: bytes) -> None:
    """data written whole to each file descriptor of fds."""
    for fd in fds:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]


def emit_lp(model: MilpModel, destination: str | Path,
            phase1_value: Optional[float] = None) -> list[Path]:
    """Write the model as LP text; deterministic, byte-stable output.

    A single-objective model writes one file at `destination`. A two-phase
    model writes `<stem>.phase1.lp` and `<stem>.phase2.lp`; phase 2 pins
    the throughput to `phase1_value` (0 when not supplied) and minimizes
    resource usage. Every file is open at once and written as a stream:
    its head, objective and lead rows, then each block of model.blocks()
    rendered and encoded once and written to every file before the next
    is rendered, then the bounds and the binaries, a run of stems at a
    time; so memory holds one block, not a file. A file is written over
    what it held (opening with truncation would free its disk blocks and,
    on ext4, force the new text to disk at close) and a regular file is
    cut to its length at the end, or to nothing when the emit raises, so
    a failed emit leaves no partial LP.
    """
    destination = Path(destination)
    objective = model.objectives[0]
    if not model.two_phase:
        files = [(destination, objective, ())]
    else:
        stem = destination.with_suffix("") if destination.suffix == ".lp" else destination
        pin = 0.0 if phase1_value is None else float(phase1_value)
        fix = ((("fix", objective.coefs, ">=", pin),), [("fix_throughput", *objective.names)],
               _UNSTAMPED)
        files = [(stem.with_name(stem.name + ".phase1.lp"), objective, ()),
                 (stem.with_name(stem.name + ".phase2.lp"), model.objectives[1], (fix,))]
    templates = _Templates()
    with ExitStack() as opened:
        fds = []
        for path, _, _ in files:
            fds.append(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
            opened.callback(os.close, fds[-1])
        regular = [fd for fd in fds if stat.S_ISREG(os.fstat(fd).st_mode)]
        try:
            heads_empty = []  # per file: whether its objective or lead rows have no terms
            for fd, (_, objective, lead) in zip(fds, files):
                sense = "Maximize" if objective.sense == "maximize" else "Minimize"
                obj = (((None, objective.coefs, None, None),), [("obj", *objective.names)],
                       _UNSTAMPED)
                head = [*_render_blocks(templates, [obj]), (b"Subject To\n", False),
                        *_render_blocks(templates, lead)]
                _write([fd], f"\\ LP model written by otssplan\n{sense}\n".encode()
                       + b"".join(text for text, _ in head))
                heads_empty.append(any(row_empty for _, row_empty in head))
            block_empty = False
            for text, row_empty in _render_blocks(templates, model.blocks()):
                _write(fds, text)
                block_empty = block_empty or row_empty
                del text  # so the next block renders without this one's bytes
            for fd, head_empty in zip(fds, heads_empty):
                bounds = " dummy_zero = 0\n" if head_empty or block_empty else ""
                _write([fd], f"Bounds\n{bounds}Binary\n".encode())
            for stems, tags in model._declared():
                if stems and tags:
                    _write(fds, _stamp(" " + "\n ".join(stems) + "\n", tags))
            _write(fds, b"End\n")
            for fd in regular:
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
        except BaseException:
            for fd in regular:
                os.ftruncate(fd, 0)
            raise
    return [path for path, _, _ in files]
