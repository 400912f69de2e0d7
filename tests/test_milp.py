import hashlib
import random
from dataclasses import replace
from pathlib import Path

import pytest

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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
        inst = fixture_instance("fig2")
        inst = replace(inst, planner=replace(inst.planner,
                                             objective_mode=ObjectiveMode(kind="weighted")))
        [path] = milp.emit_lp(milp.build_model(inst), tmp_path / "model.lp")
        assert path.name == "model.lp"
        assert _sha256(path) == FIG2_WEIGHTED_LP_SHA256

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
