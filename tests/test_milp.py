import hashlib
import random
import tracemalloc
from dataclasses import replace
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (CountingMode, random_micro_instance, tiny_instance,
                      two_request_200m_instance)
from milp_check import assignment_from_schedule, evaluate_constraints
from otssplan import milp
from otssplan.harness import fixture_instance
from otssplan.model import (AccumulationModel, CrosstalkMatrix, FrameConfig, Instance, LinkSpec,
                            NodeSpec, ObjectiveMode, Request, Topology, ValidationError,
                            load_instance, serialize_instance)
from otssplan.solve import SolveLimits, solve_exact, solve_greedy

GOLDEN = Path(__file__).parent / "golden"

# SHA-256 of the fig2 fixture's LP files: both phase files with
# phase1_value=23.0 (the fixture's proven optimum), and the single file of
# the weighted objective
FIG2_LP_SHA256 = {
    "model.phase1.lp": "e7c4bf93c26d96cbab84ee27fef1014475995d5191afa7b0e04ef76b290b4743",
    "model.phase2.lp": "69a16d8db664a6c09a77c8e640134fe99f45e976bfed7e8c02159d53d51cef05",
}
FIG2_WEIGHTED_LP_SHA256 = "7488bf9d0c92cecb2ac3556f830d313ac3c50597c3ed17d003482c4206df756f"
# One SHA-256 over every LP file of _lp_corpus: the fig4 fixture and 40
# seeded micro instances, each under both objectives
CORPUS_LP_SHA256 = "5bce2aa98349f93e0df974b0ca8742bd9519e403aaabb3161b1ab65cbd6b2ba3"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _with_objective(inst, kind: str):
    return replace(inst, planner=replace(inst.planner, objective_mode=ObjectiveMode(kind=kind)))


def _lp_corpus():
    """(label, instance) pairs: fig4 and seeded micro instances, each
    under the lexicographic and the weighted objective."""
    rng = random.Random("milp-lp-corpus")
    instances = [("fig4", fixture_instance("fig4"))]
    instances += [(f"micro{i}", random_micro_instance(rng)) for i in range(40)]
    return [(f"{label}.{kind}", _with_objective(inst, kind))
            for label, inst in instances for kind in ("lexicographic", "weighted")]


def _three_request_instance():
    """Three 10 Gb/s requests on one 100 m link with 3 modes of -40 dB
    coupling and 4 slots of 2.5 Gb/s: all three fit, each on a mode of its
    own for the whole frame, so two co-propagate in 4 slots."""
    topo = Topology((NodeSpec("n1", "edge"), NodeSpec("n2", "edge")),
                    (LinkSpec("n1", "n2", 100.0),))
    matrix = CrosstalkMatrix(tuple(tuple(None if a == v else -40.0 for v in range(3))
                                   for a in range(3)))
    return Instance(topology=topo,
                    requests=tuple(Request(f"r{i}", "n1", "n2", 10.0) for i in (1, 2, 3)),
                    frame=FrameConfig(20.0, 5.0), mode_count=3, crosstalk=matrix)


def _with_big_m_key(inst, big_m: int = 1):
    """inst read back from its document with a `big_m` key in the planner."""
    doc = serialize_instance(inst)
    doc["planner"]["big_m"] = big_m
    return load_instance(doc)


def _long_id_instance():
    """two_request_200m's two requests, from one edge switch to another
    through a core switch, with request ids of 103 characters and node ids
    of 65 (tags of 55 and 36 characters): every row of every multi-row
    stanza is longer than an LP line, and no name or label is."""
    a, b, c = (f"{tier} switch {x}: " + f"{x}." * 25
               for tier, x in (("edge", "a"), ("core", "b"), ("edge", "c")))
    topo = Topology((NodeSpec(a, "edge"), NodeSpec(b, "core"), NodeSpec(c, "edge")),
                    (LinkSpec(a, b, 100.0), LinkSpec(b, c, 100.0)))
    requests = tuple(Request(f"request {n}: " + "x-" * 45, a, c, 5.0) for n in ("one", "two"))
    return replace(two_request_200m_instance(), topology=topo, requests=requests)


# milp's name table before it built names from shared prefixes, verbatim
# but for the milp. qualifiers: the name table's oracle.
def _oracle_name_table(instance):
    """The names of instance's model; raises ValidationError when two
    request ids or two node ids sanitize to one tag."""
    rids = [r.id for r in instance.requests]
    links = instance.topology.link_keys()
    modes = range(instance.mode_count)
    T = instance.slot_count
    rt = milp._tag_table(rids, "$.requests", "r")
    nt = milp._tag_table(instance.topology.node_ids(), "$.topology.nodes", "n")
    et = {link: milp._link_tag(link) for link in links}
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
    return milp._Names(rt, nt, et, lam, rho, overlaps, cm, ca, u, w, v)


class _Row(NamedTuple):
    """A constraint row with (coef, name) terms, as the renderer's oracle reads it."""

    name: str
    terms: tuple
    sense: str
    rhs: float
    family: str


# The LP row pipeline milp used before its one row renderer, verbatim
# (_fmt_terms, then _wrap, then one join per line): the renderer's oracle.
@lru_cache(maxsize=4096)
def _oracle_fmt_num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _oracle_fmt_terms(terms) -> str:
    if not terms:
        return "0 dummy_zero"
    body = " ".join(f"- {_oracle_fmt_num(-coef)} {name}" if coef < 0
                    else f"+ {_oracle_fmt_num(coef)} {name}" for coef, name in terms)
    # the first term carries no explicit plus sign
    return body[2:] if body[0] == "+" else body


def _oracle_wrap(body: str, width: int = 250) -> list[str]:
    if len(body) < width:
        return [" " + body]
    words = body.split(" ")
    lines: list[str] = []
    cur = " " + words[0]
    for w in words[1:]:
        if len(cur) + 1 + len(w) > width:
            lines.append(cur)
            cur = "   " + w
        else:
            cur += " " + w
    lines.append(cur)
    return lines


def _oracle_row_body(c) -> str:
    return f"{c.name}: {_oracle_fmt_terms(c.terms)} {c.sense} {_oracle_fmt_num(c.rhs)}"


def _oracle_render_constraints(constraints) -> str:
    lines = []
    last_family = None
    for c in constraints:
        if c.family != last_family:
            note = milp.FAMILY_NOTES.get(c.family, "")
            lines.append(f"\\ {c.family}: {note}" if note else f"\\ {c.family}")
            last_family = c.family
        lines.extend(_oracle_wrap(_oracle_row_body(c)))
    return "".join(line + "\n" for line in lines)


def _oracle_render_objective(terms) -> str:
    return "".join(line + "\n" for line in _oracle_wrap(f"obj: {_oracle_fmt_terms(terms)}"))


def _padded(c, length: int):
    """c with its name padded so that its LP row, before any wrap, is
    `length` characters long (or c when it is already longer)."""
    short = length - len(_oracle_row_body(c))
    return c._replace(name=c.name + "p" * short) if short > 0 else c


def _split(terms):
    """(coefs, names) of (coef, name) terms."""
    return tuple(coef for coef, _ in terms), tuple(name for _, name in terms)


_COEFS = st.one_of(
    st.sampled_from([1.0, -1.0, 0.0, -0.0, 0.25, -0.25, 1e15, -1e15, 1e15 - 1, 3.5e17]),
    st.integers(-10**18, 10**18),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e15, max_value=1e300).flatmap(lambda x: st.sampled_from([x, -x])))
_NAMES = st.text("abcxyz019_", min_size=1, max_size=24)
_TERMS = st.integers(0, 3).flatmap(
    lambda size: st.lists(st.tuples(_COEFS, _NAMES),
                          max_size=(0, 4, 12, 90)[size]).map(tuple))


@st.composite
def _constraints(draw):
    c = _Row(draw(_NAMES), draw(_TERMS), draw(st.sampled_from(["<=", ">=", "="])),
                        draw(_COEFS), draw(st.sampled_from(["eq2", "eq13", "fix", "other"])))
    return _padded(c, draw(st.integers(246, 254))) if draw(st.booleans()) else c


@st.composite
def _iterations(draw):
    """One block as its iterations: a stanza of 1-3 drawn rows, repeated 1-3
    times, each repeat keeping the rows' coefficients, sense, rhs and family
    and drawing its own label and names (padded, or not, to the line limit)."""
    stanza = draw(st.lists(_constraints(), min_size=1, max_size=3))
    iterations = [stanza]
    for _ in range(draw(st.integers(0, 2))):
        again = [c._replace(name=draw(_NAMES),
                            terms=tuple((coef, draw(_NAMES)) for coef, _ in c.terms))
                 for c in stanza]
        iterations.append([_padded(c, draw(st.integers(246, 254))) if draw(st.booleans())
                           else c for c in again])
    return iterations


_STEMS = st.tuples(_NAMES, st.text("abcxyz019_", max_size=6)).map(
    lambda parts: milp._AT.join(parts))
_TAGS = st.lists(st.text("abcxyz019", min_size=1, max_size=60), min_size=1, max_size=3)


@st.composite
def _stamped_iterations(draw):
    """One stamped block as its iterations, each drawn like _iterations'
    but with a label and names that may hold the placeholder once."""
    def stem():
        return draw(st.one_of(_NAMES, _STEMS))

    iterations = draw(_iterations())
    return [[c._replace(name=stem(), terms=tuple((coef, stem()) for coef, _ in c.terms))
             for c in rows] for rows in iterations]


def _block(iterations, tags=milp._UNSTAMPED):
    """iterations (each a list of _Rows of one stanza) as a (stanza, args,
    tags) block."""
    stanza = tuple((c.family, _split(c.terms)[0], c.sense, c.rhs) for c in iterations[0])
    return stanza, [tuple(x for c in rows for x in (c.name, *_split(c.terms)[1]))
                    for rows in iterations], tuple(tags)


def _render(templates, blocks, tags=None) -> tuple[str, bool]:
    """milp._render_blocks of blocks given as iterations, each stamped with
    its tags (none when tags is None), joined and decoded."""
    tags = tags or [milp._UNSTAMPED] * len(blocks)
    rendered = list(milp._render_blocks(templates, list(map(_block, blocks, tags))))
    return (b"".join(text for text, _ in rendered).decode(),
            any(empty for _, empty in rendered))


def _stamped_row(c, tag: str):
    """_Row c with tag in place of the placeholder in its label and names."""
    return c._replace(name=_stamped(c.name, tag),
                      terms=tuple((coef, _stamped(name, tag)) for coef, name in c.terms))


def _block_rows(stanza, args, tags):
    """The _Rows of a (stanza, args, tags) block, copy by copy and iteration
    by iteration."""
    for tag in tags:
        for fields in args:
            i = 0
            for family, coefs, sense, rhs in stanza:
                terms = tuple(zip(coefs, fields[i + 1:i + 1 + len(coefs)]))
                yield _stamped_row(_Row(fields[i], terms, sense, rhs, family), tag)
                i += 1 + len(coefs)


def _as_row(row):
    """A row of rows() as the oracle reads it."""
    name, coefs, names, sense, rhs, family = row
    return _Row(name, tuple(zip(coefs, names)), sense, rhs, family)


_EDGE = _Row("c", ((-0.0, "a"), (1e15, "b"), (-0.25, "c")), "<=", -0.0, "eq13")
# a row whose names end at column 250 of its first line and of its second
_AT_LIMIT = _Row("c", ((1.0, "x" * 244), (1.0, "z" * 243), (-2.0, "a")), "<=", 1.0, "eq9")
# a name longer than an LP line
_LONG = "y" * 300


class TestCountFormulas:
    def test_tiny_by_hand(self):
        # 1 request, 1 link, 2 modes, 2 slots
        counts = milp.count_formulas(tiny_instance())
        v = counts["variables"]
        assert v["lambda"] == 1 * 1 * 2 * 2 == 4
        assert v["rho"] == 1
        assert v["beta"] == 0 and v["theta"] == 0  # needs two requests
        assert v["c_mode"] == 1 * 1 * 2 * 3 == 6

    def test_two_requests_enable_overlap_vars(self):
        counts = milp.count_formulas(two_request_200m_instance())
        v = counts["variables"]
        # P = 2 ordered pairs, Q = 2 ordered mode pairs, 1 link, 4 slots
        assert v["beta"] == 2 * 1 * 2 * 4 == 16
        assert v["theta"] == 2 * 1 * 2 == 4
        c = counts["constraints"]
        assert c["eq12"] == 2 * 2 * 1 * 2 == 8
        assert c["eq13"] == c["eq14"] == c["eq15"] == 16

    def test_zero_requests_all_zero(self, tiny):
        empty = tiny.with_requests([])
        counts = milp.count_formulas(empty)
        assert counts["total_variables"] == 0
        assert counts["total_constraints"] == 0
        assert set(counts["constraints"].values()) == {0}

    def test_matches_built_model_over_corpus(self):
        """On 50 micro instances, fig2 and the long-id instance, the model's
        sizes and rows per family match count_formulas, and each size,
        counted from the blocks or the declared stems, is the number of
        rows or names its expanded stream yields."""
        rng = random.Random("milp-counts")
        instances = [random_micro_instance(rng) for _ in range(50)]
        for inst in instances + [fixture_instance("fig2"), _long_id_instance()]:
            counts = milp.count_formulas(inst)
            model = milp.build_model(inst)
            assert len(model.variables) == counts["total_variables"]
            assert len(model.constraints) == counts["total_constraints"]
            assert len(model.constraints) == sum(1 for _ in model.rows())
            assert len(model.variables) == sum(1 for _ in model.variable_names())
            by_family: dict[str, int] = {}
            for *_, family in model.constraints:
                by_family[family] = by_family.get(family, 0) + 1
            for family, n in counts["constraints"].items():
                assert by_family.get(family, 0) == n, family


class TestBuildModel:
    def test_size_limit(self, two_request_200m):
        with pytest.raises(milp.SizeLimitError):
            milp.build_model(two_request_200m, max_variables=10)

    def test_zero_request_model_empty(self, tiny):
        model = milp.build_model(tiny.with_requests([]))
        assert model.variables == [] or len(model.variables) == 0
        assert len(model.constraints) == 0
        assert model.two_phase

    def test_paper_literal_db_refused(self, tiny):
        # its eq11 row, a sum of negative dB terms <= -13, fails at all-zero
        literal = AccumulationModel("paper-literal-db")
        inst = replace(tiny, planner=replace(tiny.planner, accumulation_model=literal))
        with pytest.raises(ValidationError) as err:
            milp.build_model(inst)
        assert [path for path, _ in err.value.failures] == ["$.planner.accumulation_model"]

    def test_objectives_are_lexicographic_pair(self, tiny):
        model = milp.build_model(tiny)
        assert [o.sense for o in model.objectives] == ["maximize", "minimize"]
        # phase 1 weights each acceptance by its bandwidth
        throughput = model.objectives[0]
        assert dict(zip(throughput.names, throughput.coefs)) == {"rho_rr1": 5.0}

    def test_variable_names_unique(self):
        rng = random.Random("milp-names")
        for _ in range(10):
            model = milp.build_model(random_micro_instance(rng))
            names = model.variables
            assert len(names) == len(set(names))
            cnames = [row[0] for row in model.constraints]
            assert len(cnames) == len(set(cnames))

    def test_request_ids_sanitizing_alike_rejected(self, tiny):
        inst = tiny.with_requests([Request("r-1", "n1", "n2", 5.0),
                                   Request("r1", "n1", "n2", 5.0)])
        with pytest.raises(ValidationError) as err:
            milp.build_model(inst)
        assert [path for path, _ in err.value.failures] == ["$.requests[1].id"]

    def test_node_ids_sanitizing_alike_rejected(self, tiny):
        topo = Topology((NodeSpec("n1", "edge"), NodeSpec("n_1", "edge"),
                         NodeSpec("n.1", "edge")),
                        (LinkSpec("n1", "n_1", 100.0), LinkSpec("n_1", "n.1", 100.0)))
        inst = replace(tiny, topology=topo,
                       requests=(Request("r1", "n1", "n.1", 5.0),))
        with pytest.raises(ValidationError) as err:
            milp.build_model(inst)
        assert [path for path, _ in err.value.failures] == [
            "$.topology.nodes[1].id", "$.topology.nodes[2].id"]


def _in_order(names):
    """names as plain lists: its dicts as lists of items, so that equal
    results also declare their names in one order."""
    return [list(x.items()) if isinstance(x, dict) else x for x in names]


def _stamped(x, tag: str):
    """x, a stem or a list of them, with tag in place of the placeholder."""
    return x.replace(milp._AT, tag) if isinstance(x, str) else [_stamped(y, tag) for y in x]


def _expanded(names):
    """A name table of stems stamped into the oracle's layout: per-link names
    keyed by (request id, link), overlaps one (r1, r2, link, m1, m2, theta,
    betas) list, in declaration order."""
    rt, nt, et, lam, rho, overlaps, cm, ca, u, w, v = names
    per_link = [{(rid, link): _stamped(table[rid], tag) for rid in lam
                 for link, tag in et.items()} for table in (lam, cm, ca, u, w, v)]
    flat = [(r1, r2, link, m1, m2, _stamped(th, tag), _stamped(betas, tag))
            for (r1, r2), pairs in overlaps.items() for link, tag in et.items()
            for m1, m2, th, betas in pairs]
    return milp._Names(rt, nt, et, per_link[0], rho, flat, *per_link[1:])


def _stems(names):
    """Every stem of a name table: the per-link names and the overlaps."""
    _, _, _, lam, _, overlaps, cm, ca, u, w, v = names
    for table in (lam, cm, ca, u, w, v):
        for x in table.values():
            yield from [x] if isinstance(x, str) else chain.from_iterable(
                y if isinstance(y, list) else [y] for y in x)
    for pairs in overlaps.values():
        for *_, th, betas in pairs:
            yield th
            yield from betas


def test_name_table_matches_oracle():
    """The name table, its stems stamped with every link's tag, is the
    oracle's, names and order, on the LP corpus, fig2 and the long-id
    instance; every stem holds the placeholder once and rho none."""
    instances = [*_lp_corpus(), ("fig2", fixture_instance("fig2")),
                 ("long-ids", _long_id_instance())]
    for label, inst in instances:
        names = milp._name_table(inst)
        assert _in_order(_expanded(names)) == _in_order(_oracle_name_table(inst)), label
        assert {stem.count(milp._AT) for stem in _stems(names)} == {1}, label
        assert not any(milp._AT in name for name in names.rho.values()), label


def test_each_field_holds_at_most_one_placeholder():
    """The renderer's line bound adds one tag length per field, so no label
    or name of a block holds the placeholder twice, and a field of an
    unstamped block holds none."""
    for label, inst in [*_lp_corpus(), ("fig2", fixture_instance("fig2"))]:
        for stanza, args, tags in milp.build_model(inst).blocks():
            counts = {field.count(milp._AT) for fields in args for field in fields}
            assert counts <= ({0, 1} if tags != milp._UNSTAMPED else {0}), label


def test_fig2_fills_each_stamped_row_once():
    """On fig2 the blocks hold one row per 24 links of the 62,304 rows of
    eq2's coupling, eq7-eq10 and eq12-eq15, plus at most the 596 rows of
    eq2's flow rows, eq3-eq6 and eq11, which span links: the renderer fills
    a per-link row once, not once per link."""
    inst = fixture_instance("fig2")
    assert len(inst.topology.links) == 24
    blocks = list(milp.build_model(inst).blocks())
    filled = sum(len(args) * len(stanza) for stanza, args, _ in blocks)
    assert sum(len(args) for _, args, _ in blocks) <= filled <= -(-62_304 // 24) + 596
    assert sum(len(args) * len(stanza) * len(tags) for stanza, args, tags in blocks) == 62_900


class TestEmitLp:
    def test_golden_byte_for_byte(self, tmp_path, tiny):
        model = milp.build_model(tiny)
        paths = milp.emit_lp(model, tmp_path / "tiny.lp", phase1_value=5.0)
        for got, want in zip(paths, (GOLDEN / "tiny.phase1.lp", GOLDEN / "tiny.phase2.lp")):
            assert got.read_text() == want.read_text()

    def test_fig2_two_phase_digests(self, tmp_path):
        model = milp.build_model(fixture_instance("fig2"))
        paths = milp.emit_lp(model, tmp_path / "model.lp", phase1_value=23.0)
        assert {p.name: _sha256(p) for p in paths} == FIG2_LP_SHA256

    def test_big_m_key_is_not_read(self, tmp_path):
        """A document's `big_m` key changes no LP byte: the model's
        constants come from the slot count and the demands alone."""
        model = milp.build_model(_with_big_m_key(fixture_instance("fig2")))
        paths = milp.emit_lp(model, tmp_path / "model.lp", phase1_value=23.0)
        assert {p.name: _sha256(p) for p in paths} == FIG2_LP_SHA256

    def test_fig2_weighted_digest(self, tmp_path):
        inst = _with_objective(fixture_instance("fig2"), "weighted")
        [path] = milp.emit_lp(milp.build_model(inst), tmp_path / "model.lp")
        assert path.name == "model.lp"
        assert _sha256(path) == FIG2_WEIGHTED_LP_SHA256

    def test_corpus_digest(self, tmp_path):
        digest = hashlib.sha256()
        for label, inst in _lp_corpus():
            # a non-integral pin, so phase 2 also writes a fractional rhs
            pin = sum(r.bandwidth_gbps for r in inst.requests) / 2 + 0.25
            for path in milp.emit_lp(milp.build_model(inst), tmp_path / f"{label}.lp",
                                     phase1_value=pin):
                digest.update(f"{path.name}\0".encode() + path.read_bytes())
        assert digest.hexdigest() == CORPUS_LP_SHA256

    def test_zero_request_objectives(self, tmp_path, tiny):
        """Without requests the lexicographic model still writes both phase
        files, and a weighted model writes one file, phase 1's text."""
        empty = tiny.with_requests([])
        lex = milp.emit_lp(milp.build_model(empty), tmp_path / "lex.lp", phase1_value=3.0)
        [weighted] = milp.emit_lp(milp.build_model(_with_objective(empty, "weighted")),
                                  tmp_path / "w.lp")
        assert [p.name for p in lex] == ["lex.phase1.lp", "lex.phase2.lp"]
        assert weighted.name == "w.lp"
        head = "\\ LP model written by otssplan\n"
        tail = "Bounds\n dummy_zero = 0\nBinary\nEnd\n"
        assert (lex[0].read_text() == weighted.read_text()
                == f"{head}Maximize\n obj: 0 dummy_zero\nSubject To\n{tail}")
        assert lex[1].read_text() == (f"{head}Minimize\n obj: 0 dummy_zero\nSubject To\n"
                                      f"\\ fix\n fix_throughput: 0 dummy_zero >= 3\n{tail}")

    def test_deterministic(self, tmp_path, two_request_200m):
        model = milp.build_model(two_request_200m)
        a = milp.emit_lp(model, tmp_path / "a.lp")
        b = milp.emit_lp(model, tmp_path / "b.lp")
        for pa, pb in zip(a, b):
            assert pa.read_text() == pb.read_text()

    def test_rewrite_over_previous_files(self, tmp_path, tiny, two_request_200m):
        """Emitting over existing files, longer or shorter than the new
        text, leaves exactly the bytes a fresh emit writes."""
        small, large = milp.build_model(tiny), milp.build_model(two_request_200m)
        fresh = [p.read_bytes() for p in milp.emit_lp(small, tmp_path / "fresh.lp",
                                                      phase1_value=5.0)]
        for before in (large, small):
            milp.emit_lp(before, tmp_path / "m.lp", phase1_value=5.0)
            paths = milp.emit_lp(small, tmp_path / "m.lp", phase1_value=5.0)
            assert [p.read_bytes() for p in paths] == fresh
        (tmp_path / "m.phase1.lp").write_bytes(b"x" * 3 * len(fresh[0]))
        (tmp_path / "m.phase2.lp").write_bytes(b"")
        paths = milp.emit_lp(small, tmp_path / "m.lp", phase1_value=5.0)
        assert [p.read_bytes() for p in paths] == fresh

    def test_weighted_emit_to_a_device(self):
        """A destination that is not a regular file is written and never
        cut: the weighted fig2 model emits to /dev/null."""
        model = milp.build_model(_with_objective(fixture_instance("fig2"), "weighted"))
        assert milp.emit_lp(model, "/dev/null") == [Path("/dev/null")]

    def test_memory_bounded_by_a_block(self, tmp_path):
        """Traced, one fig2 emit peaks below a quarter of one phase file,
        since it holds one block's text and not a file's, and sizing the
        constraint view keeps none of the 62,900 rows it counts."""
        model = milp.build_model(fixture_instance("fig2"))
        tracemalloc.start()
        try:
            paths = milp.emit_lp(model, tmp_path / "model.lp", phase1_value=23.0)
            emit_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert len(model.constraints) == 62_900
            count_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emit_peak < paths[0].stat().st_size / 4
        assert count_peak < 8_000_000

    def test_phase2_pins_throughput(self, tmp_path, tiny):
        model = milp.build_model(tiny)
        _, p2 = milp.emit_lp(model, tmp_path / "t.lp", phase1_value=5.0)
        text = p2.read_text()
        assert text.startswith("\\ LP model written by otssplan\nMinimize\n")
        assert "fix_throughput: 5 rho_rr1 >= 5" in text

    def test_line_width_cap(self, tmp_path):
        rng = random.Random("milp-width")
        inst = random_micro_instance(rng, max_nodes=4, max_requests=3)
        for path in milp.emit_lp(milp.build_model(inst), tmp_path / "w.lp"):
            assert all(len(line) <= 250 for line in path.read_text().splitlines())

    def test_line_width_cap_with_long_ids(self, tmp_path):
        model = milp.build_model(_long_id_instance())
        multi = [row for stanza, args, tags in model.blocks() if len(stanza) > 1
                 for row in _block_rows(stanza, args, tags)]
        assert {row.family for row in multi} == {f"eq{k}" for k in (2, 8, 9, 10, 12, 13, 14, 15)}
        assert all(len(_oracle_row_body(row)) >= 250 for row in multi)
        for path in milp.emit_lp(model, tmp_path / "w.lp"):
            assert all(len(line) <= 250 for line in path.read_text().splitlines())

    def test_link_tags_of_different_lengths(self, tmp_path):
        """With a short and a long link tag, one link's copy of eq10's cap
        row passes an LP line and the other's does not; the constraint block
        is still the row oracle's and no line passes 250 characters."""
        far = "far edge switch " + "f" * 60
        topo = Topology((NodeSpec("a", "edge"), NodeSpec("b", "core"), NodeSpec(far, "edge")),
                        (LinkSpec("a", "b", 100.0), LinkSpec("b", far, 100.0)))
        inst = replace(two_request_200m_instance(), topology=topo,
                       requests=tuple(Request(r, "a", far, 5.0) for r in ("ra", "rb")))
        model = milp.build_model(inst)
        caps = {row.name: len(_oracle_row_body(row)) for row in map(_as_row, model.rows())
                if row.name.startswith("eq10_cap_v_rra_")}
        assert sorted(caps.values())[0] < 250 < sorted(caps.values())[1]
        text = milp.emit_lp(model, tmp_path / "m.lp")[0].read_text()
        block = text[text.index("\nSubject To\n") + 12:text.rindex("\nBounds\n") + 1]
        assert block == _oracle_render_constraints(map(_as_row, model.rows()))
        assert all(len(line) <= 250 for line in text.splitlines())

    def test_constraint_block_matches_row_oracle(self, tmp_path):
        """The constraint block emit_lp writes is the row-at-a-time oracle's
        rendering of rows(), on the corpus, fig2 and the long-id instance."""
        instances = [*_lp_corpus(), ("fig2", fixture_instance("fig2")),
                     ("long-ids", _long_id_instance())]
        for label, inst in instances:
            model = milp.build_model(inst)
            text = milp.emit_lp(model, tmp_path / f"{label}.lp")[0].read_text()
            block = text[text.index("\nSubject To\n") + 12:text.rindex("\nBounds\n") + 1]
            assert block == _oracle_render_constraints(map(_as_row, model.rows())), label


def _drop_an_iteration(blocks):
    """blocks without the second iteration of the first block whose stanza
    has more than one row."""
    k = next(k for k, (stanza, args, _) in enumerate(blocks)
             if len(stanza) > 1 and len(args) > 1)
    stanza, args, tags = blocks[k]
    return [*blocks[:k], (stanza, args[:1] + args[2:], tags), *blocks[k + 1:]]


def _change_copies(blocks, family: str, change):
    """blocks with change applied to the tags of the first block of family,
    which has more than one."""
    k = next(k for k, (stanza, _, _) in enumerate(blocks) if stanza[0][0] == family)
    stanza, args, tags = blocks[k]
    assert len(tags) > 1
    return [*blocks[:k], (stanza, args, change(tags)), *blocks[k + 1:]]


class TestStreams:
    """The model is a stream of rows and variable names: the constraint and
    variable lists are those streams, and a pass that drops or repeats a
    row fails the audit against count_formulas."""

    def test_record_lists_count_the_streams(self, two_request_200m, monkeypatch):
        model = milp.build_model(two_request_200m)
        rows = list(model.rows())
        names = list(model.variable_names())
        real = milp.count_formulas

        def off_totals(instance):
            counts = real(instance)
            return {**counts, "total_constraints": counts["total_constraints"] + 1000}

        monkeypatch.setattr(milp, "count_formulas", off_totals)
        assert list(model.constraints) == rows and len(model.constraints) == len(rows)
        assert list(model.variables) == names and len(model.variables) == len(names)
        assert len(rows) == real(two_request_200m)["total_constraints"]

    @pytest.mark.parametrize("mutate", [
        lambda blocks: blocks[:6] + blocks[7:],
        lambda blocks: blocks[:7] + blocks[6:],
        lambda blocks: blocks[:-1],
        lambda blocks: blocks + blocks[-1:],
        lambda blocks: _drop_an_iteration(blocks),
    ], ids=["drop", "repeat", "drop-last", "repeat-last", "drop-iteration"])
    def test_audit_catches_a_dropped_or_repeated_row(self, tmp_path, two_request_200m,
                                                     monkeypatch, mutate):
        real = milp._blocks
        blocks = list(real(two_request_200m, milp.build_model(two_request_200m).names))
        # the dropped and the repeated block are the second request's eq3
        # rows, and the next block its eq5 rows: neither is empty
        assert [(stanza[0][0], len(args) * len(tags))
                for stanza, args, tags in blocks[6:8]] == [("eq3", 4), ("eq5", 8)]
        self._assert_audit_raises(tmp_path, monkeypatch, milp.build_model(two_request_200m),
                                  lambda *args: iter(mutate(list(real(*args)))))

    @pytest.mark.parametrize("family", ["eq3", "eq7", "eq12"])
    @pytest.mark.parametrize("change", [lambda tags: tags[1:], lambda tags: tags[:1] + tags],
                             ids=["drop-copy", "repeat-copy"])
    def test_audit_catches_a_dropped_or_repeated_copy(self, tmp_path, monkeypatch,
                                                      family, change):
        """Dropping or repeating one slot's or one link's copy of a stamped
        block fails the audit (the long-id instance has two links)."""
        real = milp._blocks
        self._assert_audit_raises(tmp_path, monkeypatch, milp.build_model(_long_id_instance()),
                                  lambda *args: iter(
                                      _change_copies(list(real(*args)), family, change)))

    @staticmethod
    def _assert_audit_raises(tmp_path, monkeypatch, model, blocks):
        """With milp._blocks replaced by blocks, every full pass over the
        model's rows fails its audit, and the failed emit leaves the phase
        files that a good emit wrote there before it empty."""
        good = milp.emit_lp(model, tmp_path / "m.lp")
        assert all(path.stat().st_size for path in good)
        monkeypatch.setattr(milp, "_blocks", blocks)
        with pytest.raises(AssertionError, match="count_formulas"):
            milp.emit_lp(model, tmp_path / "m.lp")
        assert [path.read_bytes() for path in good] == [b"", b""]
        with pytest.raises(AssertionError, match="count_formulas"):
            model.constraints
        with pytest.raises(AssertionError, match="count_formulas"):
            evaluate_constraints(model, {})

    def test_fig2_equal_coefficient_vectors_are_one_object(self):
        coefs = [row[1] for row in milp.build_model(fixture_instance("fig2")).rows()]
        assert len({id(c) for c in coefs}) == len(set(coefs)) == 22

    def test_audit_catches_an_extra_variable(self, two_request_200m):
        model = milp.build_model(two_request_200m)
        names = model.names._replace(rho={**model.names.rho, "extra": "rho_extra"})
        with pytest.raises(AssertionError, match="count_formulas"):
            replace(model, names=names).variables


class TestRowRenderer:
    """The stanza renderer, a template per stanza shared by constraints and
    objectives, writes the bytes of the previous _fmt_terms + _wrap + join
    pipeline, for any terms, any row length and any run of stanzas."""

    @settings(max_examples=300, deadline=None)
    @given(blocks=st.lists(_iterations(), max_size=6), objective=_TERMS)
    @example(blocks=[[[_padded(_EDGE, n)]] for n in range(246, 255)]
             + [[[_Row("e", (), "=", 0.0, "eq2")]]],
             objective=())
    @example(blocks=[[[_EDGE._replace(terms=((1.5, "x" * 30),) * 40)]]],
             objective=((-1e16, "y" * 60),) * 20)
    @example(blocks=[[[_padded(_EDGE, n), _EDGE._replace(family="eq14")] for n in range(246, 255)],
                     [[_EDGE._replace(family="eq14")]] * 2],
             objective=())
    # eq10's shape after another family: two short rows, then one past the limit
    @example(blocks=[[[_EDGE]],
                     [[_EDGE._replace(family="eq10")] * 2
                      + [_padded(_EDGE._replace(name="cap", family="eq10"), 260)]] * 3],
             objective=())
    # a label, and a name first, in the middle and last, longer than a line
    @example(blocks=[[[_EDGE._replace(name="L" * 260)]],
                     [[_EDGE._replace(terms=((1.0, _LONG), *_EDGE.terms))]],
                     [[_EDGE._replace(terms=(_EDGE.terms[0], (1.0, _LONG), *_EDGE.terms[1:]))]],
                     [[_EDGE._replace(terms=(*_EDGE.terms, (1.0, _LONG)))]]],
             objective=((-0.5, "o"), (1.0, _LONG)))
    # names that end exactly at the line limit, in rows that go on past it
    @example(blocks=[[[_AT_LIMIT]], [[_AT_LIMIT._replace(name="d"), _EDGE]] * 2],
             objective=_AT_LIMIT.terms)
    def test_matches_previous_pipeline(self, blocks, objective):
        templates = milp._Templates()
        rows = [c for iterations in blocks for rows in iterations for c in rows]
        assert _render(templates, blocks) == (_oracle_render_constraints(rows),
                                              any(not c.terms for c in rows))
        obj = _Row("obj", objective, None, None, None)
        assert (_render(templates, [[[obj]]])
                == (_oracle_render_objective(objective), not objective))

    @settings(max_examples=200, deadline=None)
    @given(blocks=st.lists(st.tuples(st.one_of(_iterations(), _stamped_iterations()),
                                     st.one_of(st.just(list(milp._UNSTAMPED)), _TAGS)),
                           max_size=5))
    # a row past the line limit with one tag and within it with another
    @example(blocks=[([[_EDGE._replace(name="c" + milp._AT,
                                       terms=tuple((k, n + milp._AT) for k, n in _EDGE.terms))]],
                      ["x" * 60, "y", "z" * 80])])
    # a row without terms whose label reaches the line limit only stamped
    @example(blocks=[([[_Row("L" * 200 + milp._AT, (), "<=", 1.0, "eq2")]], ["x" * 60, "y"])])
    # an unstamped row at the line limit once its placeholder is dropped
    @example(blocks=[([[_Row("L" * 229 + milp._AT + "L", (), "<=", 1.0, "eq2")]],
                      list(milp._UNSTAMPED))])
    def test_stamped_blocks_match_previous_pipeline(self, blocks):
        """A block stamped with its tags writes the bytes of its rows, one
        copy per tag, through the previous pipeline; rows without the
        placeholder are copied as they are."""
        rows = [_stamped_row(c, tag) for b, tags in blocks for tag in tags
                for iteration in b for c in iteration]
        assert _render(milp._Templates(), [b for b, _ in blocks], [ts for _, ts in blocks]) == (
            _oracle_render_constraints(rows), any(not c.terms for c in rows))

    def test_examples_reach_the_line_limit(self):
        rows = [_oracle_wrap(_oracle_row_body(_padded(_EDGE, n))) for n in range(246, 255)]
        assert [len(r[0]) for r in rows[:4]] == [247, 248, 249, 250]
        assert all(len(r) == 2 for r in rows[4:])
        wrapped = _oracle_wrap(_oracle_row_body(_EDGE._replace(terms=((1.5, "x" * 30),) * 40)))
        assert len(wrapped) > 3
        assert [len(line) for line in _oracle_wrap(_oracle_row_body(_AT_LIMIT))] == [250, 250, 13]
        label = _oracle_wrap(_oracle_row_body(_EDGE._replace(name="L" * 260)))[0]
        assert label == " " + "L" * 260 + ":"
        assert _oracle_wrap(f"obj: 1 {_LONG}") == [" obj: 1", "   " + _LONG]


class TestRecordsImmutable:
    """No field of an objective can be reassigned, so it stays as
    build_model made it."""

    @pytest.mark.parametrize("field", ["sense", "names"])
    def test_field_assignment_raises(self, field):
        with pytest.raises(AttributeError):
            setattr(milp.Objective("maximize", "throughput", (), ()), field, None)

    def test_built_model_records(self, tiny):
        record = milp.build_model(tiny).objectives[0]
        with pytest.raises(AttributeError):
            record.name = "changed"
        assert not hasattr(record, "__dict__")

    def test_fields_and_defaults_kept(self):
        assert milp.Objective._fields == ("sense", "name", "coefs", "names")
        assert milp.Objective._field_defaults == {}


class TestScheduleSatisfiesModel:
    def test_tiny_exact(self, tiny):
        model = milp.build_model(tiny)
        values = assignment_from_schedule(tiny, solve_exact(tiny))
        assert set(values) == set(model.variables)
        assert evaluate_constraints(model, values) == []

    def test_random_corpus(self):
        rng = random.Random("milp-invariant")
        for _ in range(25):
            inst = random_micro_instance(rng)
            model = milp.build_model(inst)
            for schedule in (solve_exact(inst), solve_greedy(inst)):
                values = assignment_from_schedule(inst, schedule)
                assert set(values) == set(model.variables)
                assert evaluate_constraints(model, values) == []

    def test_co_propagation_in_every_slot_satisfies_eq12(self):
        """Exact's 30 Gb/s schedule of the three-request instance, where two
        requests share a link in all 4 slots, violates no row, even when
        its document holds `"big_m": 1`."""
        inst = _with_big_m_key(_three_request_instance())
        schedule = solve_exact(inst)
        assert schedule.throughput_gbps == 30.0
        values = assignment_from_schedule(inst, schedule)
        assert evaluate_constraints(milp.build_model(inst), values) == []

    def test_interval_past_the_frame_reads_only_frame_cells(self):
        """An interval reaching far past the frame gives the values of its
        in-frame part, and no cell outside the frame is visited."""
        inst = fixture_instance("fig2")
        schedule = solve_exact(inst)
        first, rest = schedule.assignments[0], schedule.assignments[1:]
        mode = CountingMode(first.modes[0], cap=1000)
        far = replace(first, modes=(mode,) + first.modes[1:], slot_end=10**9)
        clipped = replace(first, slot_end=inst.slot_count)
        values = assignment_from_schedule(inst, replace(schedule, assignments=(far,) + rest))
        assert values == assignment_from_schedule(
            inst, replace(schedule, assignments=(clipped,) + rest))
        assert mode.hashes < 100

    def test_detects_corrupted_assignment(self, tiny):
        model = milp.build_model(tiny)
        values = assignment_from_schedule(tiny, solve_exact(tiny))
        # accept the request but erase its lambdas: eq2 must complain
        for name in list(values):
            if name.startswith("l_"):
                values[name] = 0.0
        values["rho_rr1"] = 1.0
        violated = evaluate_constraints(model, values)
        assert any(name.startswith("eq2") for name in violated)


class TestLexicographicObjective:
    def test_phase1_value_equals_weighted_acceptance(self):
        rng = random.Random("milp-lex")
        limits = SolveLimits(all_mode_subsets=True, k_paths=8)
        for _ in range(10):
            inst = random_micro_instance(rng)
            model = milp.build_model(inst)
            schedule = solve_exact(inst, limits)
            values = assignment_from_schedule(inst, schedule)
            assert set(values) == set(model.variables)
            throughput, resource = (sum(c * values[n] for c, n in zip(o.coefs, o.names))
                                    for o in model.objectives)
            assert throughput == pytest.approx(schedule.throughput_gbps)
            assert resource == pytest.approx(schedule.lambda_count)


def _highs_optimum(model) -> tuple[float, int]:
    """(throughput, lambda count) of a lexicographic model's optimum, as
    HiGHS solves it: phase 1 maximizes the throughput, phase 2 pins it and
    minimizes the lambdas. Every variable is binary."""
    optimize = pytest.importorskip("scipy.optimize")
    import numpy as np
    from scipy import sparse
    column = {name: j for j, name in enumerate(model.variable_names())}
    data, row_ids, col_ids, lo, hi = [], [], [], [], []
    for i, (_, coefs, names, sense, rhs, _) in enumerate(model.rows()):
        data += coefs
        row_ids += [i] * len(coefs)
        col_ids += [column[n] for n in names]
        lo.append(-np.inf if sense == "<=" else rhs)
        hi.append(np.inf if sense == ">=" else rhs)
    # coo sums a name's repeated terms in one row, as the LP text does
    matrix = sparse.coo_array((data, (row_ids, col_ids)), shape=(len(lo), len(column))).tocsr()
    rows = optimize.LinearConstraint(matrix, lo, hi)

    def vector(objective):
        c = np.zeros(len(column))
        for coef, name in zip(objective.coefs, objective.names):
            c[column[name]] += coef
        return c

    def solve(c, *constraints):
        result = optimize.milp(c, constraints=[rows, *constraints], integrality=np.ones_like(c),
                               bounds=optimize.Bounds(0, 1), options={"mip_rel_gap": 0})
        assert result.status == 0, result.message
        return result.fun

    throughput, resource = model.objectives
    tp = vector(throughput)
    phase1 = -solve(-tp)
    lambdas = solve(vector(resource), optimize.LinearConstraint(tp, phase1 - 1e-6, np.inf))
    return phase1, round(lambdas)


class TestHighsOptimum:
    """The MILP's optimum, as HiGHS finds it, is exact's: the model neither
    cuts off a schedule exact can place nor admits one it cannot."""

    def test_three_requests_carry_30(self):
        model = milp.build_model(_with_big_m_key(_three_request_instance()))
        assert _highs_optimum(model) == (pytest.approx(30.0), 12)

    @pytest.mark.parametrize("acc", [AccumulationModel("linear-power"),
                                     AccumulationModel("tanh-coupling", h=2e-3)],
                             ids=["linear-power", "tanh-coupling"])
    def test_random_corpus(self, acc):
        rng = random.Random(f"milp-highs-{acc.variant}")
        limits = SolveLimits(all_mode_subsets=True, k_paths=8)
        for _ in range(20):
            inst = random_micro_instance(rng)
            inst = replace(inst, planner=replace(inst.planner, accumulation_model=acc))
            schedule = solve_exact(inst, limits)
            assert schedule.optimal
            assert _highs_optimum(milp.build_model(inst)) == (
                pytest.approx(schedule.throughput_gbps), schedule.lambda_count)
