import math

import pytest

from otssplan import xtalk
from otssplan.harness import DEFAULT_CROSSTALK_DB, fig2_fixture, fig4_scenario, gen_uniform_traffic
from otssplan.model import AccumulationModel, CrosstalkMatrix
from otssplan.solve import Assignment, Schedule, enumerate_candidates

MATRIX = CrosstalkMatrix(DEFAULT_CROSSTALK_DB)
LINEAR = AccumulationModel("linear-power")
LITERAL = AccumulationModel("paper-literal-db")


def single_link_schedule(victim_mode: int, aggressor_modes: list[int]) -> Schedule:
    link = ("x", "y")
    assignments = [Assignment("victim", (link,), (victim_mode,), 0, 1)]
    for i, m in enumerate(aggressor_modes):
        assignments.append(Assignment(f"agg{i}", (link,), (m,), 0, 1))
    return Schedule(tuple(assignments), (), 0.0, len(assignments), True)


def one_link_instance(length_m: float, threshold_db: float = -13.0,
                      model: AccumulationModel = LINEAR):
    from otssplan.model import (FrameConfig, Instance, LinkSpec, NodeSpec,
                                PlannerConfig, Request, Topology)
    topo = Topology((NodeSpec("x", "edge"), NodeSpec("y", "edge")),
                    (LinkSpec("x", "y", length_m),))
    reqs = tuple(Request(rid, "x", "y", 1.0)
                 for rid in ("victim", "agg0", "agg1", "agg2"))
    return Instance(topology=topo, requests=reqs, frame=FrameConfig(5.0, 5.0),
                    mode_count=4, crosstalk=MATRIX,
                    planner=PlannerConfig(xt_threshold_db=threshold_db,
                                          accumulation_model=model))


class TestCoupledPowerRatio:
    def test_zero_length(self):
        assert xtalk.coupled_power_ratio(0.5, 0.0) == 0.0

    def test_small_argument(self):
        assert xtalk.coupled_power_ratio(1e-4, 100.0) == pytest.approx(0.0099997, abs=1e-6)

    def test_monotone(self):
        values = [xtalk.coupled_power_ratio(1e-3, z) for z in (10, 50, 100, 400)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            xtalk.coupled_power_ratio(0.0, 10.0)


class TestPairwiseContribution:
    def test_linear_power_100m(self):
        c = xtalk.pairwise_contribution(MATRIX, 1, 0, 100.0, LINEAR)
        assert c == pytest.approx(10 ** -1.77, rel=1e-6)
        assert c == pytest.approx(0.016982, abs=1e-6)

    def test_linear_power_500m(self):
        c = xtalk.pairwise_contribution(MATRIX, 0, 3, 500.0, LINEAR)
        assert c == pytest.approx(5 * 10 ** -4.3, rel=1e-9)
        assert c == pytest.approx(2.506e-4, abs=1e-7)

    def test_literal_db_100m(self):
        c = xtalk.pairwise_contribution(MATRIX, 0, 1, 100.0, LITERAL)
        assert c == -26.0

    def test_same_mode_rejected(self):
        with pytest.raises(ValueError):
            xtalk.pairwise_contribution(MATRIX, 2, 2, 100.0, LINEAR)

    def test_literal_matches_linear_single_aggressor_100m(self):
        # on a 100 m link one literal-dB term equals the dB of one linear term
        for a, v in ((0, 1), (1, 2), (3, 0)):
            lit = xtalk.pairwise_contribution(MATRIX, a, v, 100.0, LITERAL)
            lin = xtalk.pairwise_contribution(MATRIX, a, v, 100.0, LINEAR)
            assert lit == pytest.approx(10 * math.log10(lin), abs=1e-9)


class TestAccumulateForRequest:
    def test_three_aggressors_infeasible(self):
        inst = one_link_instance(100.0)
        sched = single_link_schedule(2, [0, 1, 3])
        report = xtalk.accumulate_for_request("victim", sched, inst)
        expected = 10 ** -2.12 + 10 ** -1.58 + 10 ** -1.75
        assert expected == pytest.approx(0.051671, abs=1e-6)
        assert report.total_db == pytest.approx(-12.87, abs=0.01)
        assert not report.feasible

    def test_two_aggressors_feasible(self):
        inst = one_link_instance(100.0)
        sched = single_link_schedule(2, [0, 3])
        report = xtalk.accumulate_for_request("victim", sched, inst)
        assert 10 ** -2.12 + 10 ** -1.75 == pytest.approx(0.025369, abs=1e-6)
        assert report.total_db == pytest.approx(-15.96, abs=0.01)
        assert report.feasible

    def test_single_far_mode_500m(self):
        inst = one_link_instance(500.0)
        sched = single_link_schedule(3, [0])
        report = xtalk.accumulate_for_request("victim", sched, inst)
        assert report.total_db == pytest.approx(-36.01, abs=0.01)
        assert report.feasible

    def test_no_aggressors(self):
        inst = one_link_instance(100.0)
        sched = single_link_schedule(2, [])
        report = xtalk.accumulate_for_request("victim", sched, inst)
        assert report.total_db == float("-inf")
        assert report.feasible
        assert report.to_document()["total_db"] == "-inf"

    def test_missing_victim(self):
        inst = one_link_instance(100.0)
        sched = single_link_schedule(2, [])
        with pytest.raises(xtalk.NotScheduledError):
            xtalk.accumulate_for_request("ghost", sched, inst)

    def test_depends_only_on_overlap_structure(self):
        # same overlap indicators, different concrete slots: identical report
        inst = one_link_instance(100.0)
        link = ("x", "y")
        s1 = Schedule((Assignment("victim", (link,), (2,), 0, 2),
                       Assignment("agg0", (link,), (0,), 1, 3)), (), 0.0, 4, True)
        s2 = Schedule((Assignment("victim", (link,), (2,), 2, 4),
                       Assignment("agg0", (link,), (0,), 3, 5)), (), 0.0, 4, True)
        r1 = xtalk.accumulate_for_request("victim", s1, inst)
        r2 = xtalk.accumulate_for_request("victim", s2, inst)
        assert r1.total_db == r2.total_db
        assert [t.contribution_db for t in r1.terms] == [t.contribution_db for t in r2.terms]

    def test_monotone_in_aggressor_count_and_length(self):
        totals = []
        for aggs in ([0], [0, 1], [0, 1, 3]):
            inst = one_link_instance(100.0)
            rep = xtalk.accumulate_for_request("victim", single_link_schedule(2, aggs), inst)
            totals.append(rep.total_db)
        assert totals == sorted(totals)
        short = xtalk.accumulate_for_request(
            "victim", single_link_schedule(2, [0]), one_link_instance(100.0)).total_db
        long = xtalk.accumulate_for_request(
            "victim", single_link_schedule(2, [0]), one_link_instance(400.0)).total_db
        assert long > short

    def test_fig4_g_fact(self):
        sc = fig4_scenario()
        report = xtalk.accumulate_for_request("#G", sc.reference_schedule, sc.instance)
        assert report.total_db == pytest.approx(sc.expected_g_total_db, abs=0.01)
        assert report.feasible is sc.expected_g_feasible
        assert len(report.terms) == 1
        assert report.terms[0].aggressor_request == "#A"
        assert report.terms[0].aggressor_mode == 0

    def test_fig4_four_mode_copropagation_infeasible(self):
        sc = fig4_scenario()
        link = ("A1", "C1")
        sched = Schedule((Assignment("#A", (link,), (0,), 0, 1),
                          Assignment("#D", (link,), (1,), 0, 1),
                          Assignment("#E", (link,), (2,), 0, 1),
                          Assignment("#G", (link,), (3,), 0, 1)), (), 0.0, 4, True)
        worst = xtalk.accumulate_for_request("#E", sched, sc.instance)
        assert worst.total_db == pytest.approx(-5.87, abs=0.01)
        assert not worst.feasible

    def test_terms_match_a_scan_of_every_assignment(self):
        """On a 240 Gb/s fig2 instance, its 50 requests each placed on one
        of its candidates over paths of two and four links (cells may
        clash: the sum does not read them), each report holds the terms a
        scan of every other assignment gives, in schedule order, though it
        visits only those that share a link with the victim."""
        inst = fig2_fixture().with_requests([])
        inst = inst.with_requests(gen_uniform_traffic(inst.topology, 240.0, seed=0))
        picks = []
        for i, r in enumerate(inst.requests):
            candidates = enumerate_candidates(r, inst, 4)
            picks.append(candidates[7 * i % len(candidates)])
        schedule = Schedule(tuple(picks), (), 0.0, 0)
        assert {len(a.path) for a in schedule.assignments} == {2, 4}
        for victim in schedule.assignments:
            report = xtalk.accumulate_for_request(victim.request_id, schedule, inst)
            assert [(t.link, t.aggressor_request, t.aggressor_mode, t.victim_mode)
                    for t in report.terms] == [
                (link, other.request_id, m_a, m_v) for other in schedule.assignments
                if other is not victim for link, m_a, m_v in xtalk.overlap_terms(victim, other)]


class TestTanhModel:
    @pytest.mark.parametrize("hz", [1e-4, 1e-3, 1e-2, 5e-2])
    def test_log_linearity(self, hz):
        lhs = 10 * math.log10(math.tanh(hz))
        rhs = 10 * math.log10(hz)
        assert abs(lhs - rhs) < 0.01

    def test_tanh_contribution_scaling(self):
        model = AccumulationModel("tanh-coupling", h=1e-4)
        strongest = MATRIX.strongest_off_diagonal_db()
        c = xtalk.pairwise_contribution(MATRIX, 1, 2, 300.0, model)
        rel = 10 ** (MATRIX.get(1, 2) / 10) / 10 ** (strongest / 10)
        assert c == pytest.approx(math.tanh(1e-4 * 300.0) * rel, rel=1e-12)
