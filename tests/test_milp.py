import hashlib
import random
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_micro_instance, tiny_instance, two_request_200m_instance
from otssplan import milp
from otssplan.harness import fixture_instance
from otssplan.model import (LinkSpec, NodeSpec, ObjectiveMode, Request, Topology,
                            ValidationError)
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


class _Counting:
    """Stands in for a record type and counts the records made through it."""

    def __init__(self, record):
        self.record = record
        self.made = 0

    def __call__(self, *fields):
        self.made += 1
        return self.record(*fields)

    def _make(self, fields):
        self.made += 1
        return self.record._make(fields)


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


def _columnar(c):
    """c as rows() yields it: (name, coefs, names, sense, rhs, family)."""
    return (c.name, *_split(c.terms), c.sense, c.rhs, c.family)


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
    c = milp.Constraint(draw(_NAMES), draw(_TERMS), draw(st.sampled_from(["<=", ">=", "="])),
                        draw(_COEFS), draw(st.sampled_from(["eq2", "eq13", "fix", "other"])))
    return _padded(c, draw(st.integers(246, 254))) if draw(st.booleans()) else c


_EDGE = milp.Constraint("c", ((-0.0, "a"), (1e15, "b"), (-0.25, "c")), "<=", -0.0, "eq13")


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
        rng = random.Random("milp-counts")
        for _ in range(50):
            inst = random_micro_instance(rng)
            counts = milp.count_formulas(inst)
            model = milp.build_model(inst)
            assert len(model.variables) == counts["total_variables"]
            assert len(model.constraints) == counts["total_constraints"]
            by_family: dict[str, int] = {}
            for c in model.constraints:
                by_family[c.family] = by_family.get(c.family, 0) + 1
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

    def test_objectives_are_lexicographic_pair(self, tiny):
        model = milp.build_model(tiny)
        assert [o.sense for o in model.objectives] == ["maximize", "minimize"]
        # phase 1 weights each acceptance by its bandwidth
        terms = dict((name, coef) for coef, name in model.objectives[0].terms)
        assert terms == {"rho_rr1": 5.0}

    def test_variable_names_unique(self):
        rng = random.Random("milp-names")
        for _ in range(10):
            model = milp.build_model(random_micro_instance(rng))
            names = [v.name for v in model.variables]
            assert len(names) == len(set(names))
            cnames = [c.name for c in model.constraints]
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

    def test_deterministic(self, tmp_path, two_request_200m):
        model = milp.build_model(two_request_200m)
        a = milp.emit_lp(model, tmp_path / "a.lp")
        b = milp.emit_lp(model, tmp_path / "b.lp")
        for pa, pb in zip(a, b):
            assert pa.read_text() == pb.read_text()

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


class TestStreams:
    """The model is a stream of rows and variable names: emitting it makes
    no records, reading a record list counts the stream, and a pass that
    drops or repeats a row fails the audit against count_formulas."""

    def test_fig2_emit_makes_no_records(self, tmp_path, tiny, monkeypatch):
        counting = {name: _Counting(getattr(milp, name)) for name in ("Constraint", "Variable")}
        for name, stand_in in counting.items():
            monkeypatch.setattr(milp, name, stand_in)
        paths = milp.emit_lp(milp.build_model(fixture_instance("fig2")),
                             tmp_path / "model.lp", phase1_value=23.0)
        assert {p.name: _sha256(p) for p in paths} == FIG2_LP_SHA256
        assert [c.made for c in counting.values()] == [0, 0]
        # the stand-ins do count the records a reader makes
        model = milp.build_model(tiny)
        counts = milp.count_formulas(tiny)
        assert (len(model.constraints), len(model.variables)) == (
            counts["total_constraints"], counts["total_variables"])
        assert [c.made for c in counting.values()] == [
            counts["total_constraints"], counts["total_variables"]]

    def test_record_lists_count_the_streams(self, two_request_200m, monkeypatch):
        model = milp.build_model(two_request_200m)
        rows = list(model.rows())
        names = list(model.variable_names())
        real = milp.count_formulas

        def off_totals(instance):
            counts = real(instance)
            return {**counts, "total_constraints": counts["total_constraints"] + 1000}

        monkeypatch.setattr(milp, "count_formulas", off_totals)
        assert [_columnar(c) for c in model.constraints] == rows
        assert [v.name for v in model.variables] == names
        assert len(rows) == real(two_request_200m)["total_constraints"]

    @pytest.mark.parametrize("mutate", [
        lambda rows: rows[:5] + rows[6:],
        lambda rows: rows[:6] + rows[5:],
        lambda rows: rows[:-1],
        lambda rows: rows + rows[-1:],
    ], ids=["drop", "repeat", "drop-last", "repeat-last"])
    def test_audit_catches_a_dropped_or_repeated_row(self, tmp_path, two_request_200m,
                                                     monkeypatch, mutate):
        real = milp._rows
        monkeypatch.setattr(milp, "_rows", lambda *args: iter(mutate(list(real(*args)))))
        model = milp.build_model(two_request_200m)
        with pytest.raises(AssertionError, match="count_formulas"):
            milp.emit_lp(model, tmp_path / "m.lp")
        with pytest.raises(AssertionError, match="count_formulas"):
            model.constraints
        with pytest.raises(AssertionError, match="count_formulas"):
            milp.evaluate_constraints(model, {})

    def test_fig2_equal_coefficient_vectors_are_one_object(self):
        coefs = [row[1] for row in milp.build_model(fixture_instance("fig2")).rows()]
        assert len({id(c) for c in coefs}) == len(set(coefs)) == 22

    def test_audit_catches_an_extra_variable(self, two_request_200m):
        model = milp.build_model(two_request_200m)
        names = model.names._replace(rho={**model.names.rho, "extra": "rho_extra"})
        with pytest.raises(AssertionError, match="count_formulas"):
            replace(model, names=names).variables


class TestRowRenderer:
    """The one row renderer, a template per (coefs, sense, rhs) shared by
    constraints and objectives, writes the bytes of the previous
    _fmt_terms + _wrap + join pipeline, for any terms and any row length."""

    @settings(max_examples=300, deadline=None)
    @given(constraints=st.lists(_constraints(), max_size=6), objective=_TERMS)
    @example(constraints=[_padded(_EDGE, n) for n in range(246, 255)]
             + [milp.Constraint("e", (), "=", 0.0, "eq2")],
             objective=())
    @example(constraints=[_EDGE._replace(terms=((1.5, "x" * 30),) * 40)],
             objective=((-1e16, "y" * 60),) * 20)
    def test_matches_previous_pipeline(self, constraints, objective):
        templates = milp._Templates()
        assert (milp._render_rows(templates, [_columnar(c) for c in constraints])
                == (_oracle_render_constraints(constraints),
                    any(not c.terms for c in constraints)))
        obj = ("obj", *_split(objective), None, None, None)
        assert (milp._render_rows(templates, [obj])
                == (_oracle_render_objective(objective), not objective))

    def test_examples_reach_the_line_limit(self):
        rows = [_oracle_wrap(_oracle_row_body(_padded(_EDGE, n))) for n in range(246, 255)]
        assert [len(r[0]) for r in rows[:4]] == [247, 248, 249, 250]
        assert all(len(r) == 2 for r in rows[4:])
        wrapped = _oracle_wrap(_oracle_row_body(_EDGE._replace(terms=((1.5, "x" * 30),) * 40)))
        assert len(wrapped) > 3


class TestRecordsImmutable:
    """No field of a model record can be reassigned, so a record stays as
    the audited stream yielded it."""

    @pytest.mark.parametrize("record, field", [
        (milp.Variable("x"), "name"), (milp.Variable("x"), "ub"),
        (milp.Constraint("c", ((1.0, "x"),), "<=", 1.0, "eq7"), "terms"),
        (milp.Constraint("c", ((1.0, "x"),), "<=", 1.0, "eq7"), "rhs"),
        (milp.Objective("maximize", "throughput", ()), "sense"),
    ])
    def test_field_assignment_raises(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, None)

    def test_built_model_records(self, tiny):
        model = milp.build_model(tiny)
        for record in (model.variables[0], model.constraints[0], model.objectives[0]):
            with pytest.raises(AttributeError):
                record.name = "changed"
            assert not hasattr(record, "__dict__")

    def test_fields_and_defaults_kept(self):
        assert milp.Variable._fields == ("name", "kind", "lb", "ub")
        assert milp.Variable("x") == ("x", "binary", 0.0, 1.0)
        assert milp.Constraint._fields == ("name", "terms", "sense", "rhs", "family")
        assert milp.Objective._fields == ("sense", "name", "terms")


class TestScheduleSatisfiesModel:
    def test_tiny_exact(self, tiny):
        model = milp.build_model(tiny)
        values = milp.assignment_from_schedule(tiny, solve_exact(tiny))
        assert set(values) == {v.name for v in model.variables}
        assert milp.evaluate_constraints(model, values) == []

    def test_random_corpus(self):
        rng = random.Random("milp-invariant")
        for _ in range(25):
            inst = random_micro_instance(rng)
            model = milp.build_model(inst)
            for schedule in (solve_exact(inst), solve_greedy(inst)):
                values = milp.assignment_from_schedule(inst, schedule)
                assert set(values) == {v.name for v in model.variables}
                assert milp.evaluate_constraints(model, values) == []

    def test_detects_corrupted_assignment(self, tiny):
        model = milp.build_model(tiny)
        values = milp.assignment_from_schedule(tiny, solve_exact(tiny))
        # accept the request but erase its lambdas: eq2 must complain
        for name in list(values):
            if name.startswith("l_"):
                values[name] = 0.0
        values["rho_rr1"] = 1.0
        violated = milp.evaluate_constraints(model, values)
        assert any(name.startswith("eq2") for name in violated)


class TestLexicographicObjective:
    def test_phase1_value_equals_weighted_acceptance(self):
        rng = random.Random("milp-lex")
        limits = SolveLimits(all_mode_subsets=True, k_paths=8)
        for _ in range(10):
            inst = random_micro_instance(rng)
            model = milp.build_model(inst)
            schedule = solve_exact(inst, limits)
            values = milp.assignment_from_schedule(inst, schedule)
            assert set(values) == {v.name for v in model.variables}
            weighted = sum(coef * values[name]
                           for coef, name in model.objectives[0].terms)
            assert weighted == pytest.approx(schedule.throughput_gbps)
            resource = sum(coef * values[name]
                           for coef, name in model.objectives[1].terms)
            assert resource == pytest.approx(schedule.lambda_count)
