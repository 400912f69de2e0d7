import json
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_micro_instance
from otssplan.model import (AccumulationModel, FrameConfig, ObjectiveMode, ParseError,
                            PlannerConfig, ValidationError, build_fat_tree, load_instance,
                            required_slot_units, serialize_instance, slot_capacity_gbps,
                            topology_from_document)
from otssplan.harness import fig2_fixture, fixture_instance
from otssplan.solve import schedule_from_document, solve_exact


class TestBuildFatTree:
    def test_counts_4_2_2(self):
        topo = build_fat_tree(4, 2, 2, 100.0)
        assert len(topo.nodes) == 8
        assert len(topo.links) == (4 * 2 + 2 * 2) * 2 == 24
        assert all(l.length_m == 100.0 for l in topo.links)

    def test_minimal_tree(self):
        topo = build_fat_tree(1, 1, 1, 100.0)
        assert len(topo.nodes) == 3
        assert len(topo.links) == 4

    def test_length_passthrough(self):
        topo = build_fat_tree(2, 1, 1, 50.0)
        assert all(l.length_m == 50.0 for l in topo.links)

    def test_tier_tags(self):
        topo = build_fat_tree(2, 2, 1, 100.0)
        assert topo.edge_nodes() == ("e1", "e2")
        tiers = {n.id: n.tier for n in topo.nodes}
        assert tiers["a1"] == "aggregation"
        assert tiers["c1"] == "core"

    @pytest.mark.parametrize("args", [(0, 1, 1, 100.0), (1, -1, 1, 100.0),
                                      (1, 1, 0, 100.0), (1, 1, 1, 0.0),
                                      (1, 1, 1, -5.0)])
    def test_invalid_parameters(self, args):
        with pytest.raises(ValueError):
            build_fat_tree(*args)

    @pytest.mark.parametrize("name", ["fig2", "fig4"])
    def test_in_links_match_linear_scan(self, name):
        topo = fixture_instance(name).topology
        for node in topo.node_ids():
            assert topo.in_links(node) == tuple(l for l in topo.links if l.dst == node)
            assert topo.out_links(node) == tuple(l for l in topo.links if l.src == node)

    @given(e=st.integers(1, 5), a=st.integers(1, 4), c=st.integers(1, 4),
           length=st.floats(1.0, 1000.0))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_counts(self, e, a, c, length):
        topo = build_fat_tree(e, a, c, length)
        assert len(topo.nodes) == e + a + c
        assert len(topo.links) == 2 * (e * a + a * c)


class TestSlotArithmetic:
    def test_quarter_frame(self):
        cap = slot_capacity_gbps(FrameConfig(20.0, 5.0), PlannerConfig())
        assert cap == 2.5

    def test_one_slot_frame(self):
        assert slot_capacity_gbps(FrameConfig(20.0, 20.0), PlannerConfig()) == 10

    def test_higher_capacity(self):
        cfg = PlannerConfig(link_capacity_gbps=40.0)
        assert slot_capacity_gbps(FrameConfig(20.0, 5.0), cfg) == 10

    @pytest.mark.parametrize("bw,cap,expected", [(1, 2.5, 1), (10, 2.5, 4), (2.5, 2.5, 1)])
    def test_required_units(self, bw, cap, expected):
        assert required_slot_units(bw, cap) == expected

    @given(num=st.integers(1, 400), den=st.integers(1, 40),
           cnum=st.integers(1, 100), cden=st.integers(1, 10))
    @settings(max_examples=200, deadline=None)
    @example(num=9, den=7, cnum=1, cden=7)  # float(9/7) is not exactly 9 units of 1/7
    def test_ceiling_property(self, num, den, cnum, cden):
        from fractions import Fraction
        b = Fraction(num, den)
        c = Fraction(cnum, cden)
        units = required_slot_units(float(b), c)
        assert units * c >= b
        assert (units - 1) * c < b


class TestFrameConfig:
    def test_slot_count(self):
        assert FrameConfig(20.0, 5.0).slot_count == 4

    def test_uneven_division_rejected(self):
        with pytest.raises(ValidationError):
            FrameConfig(20.0, 3.0)

    def test_decimal_division(self):
        assert FrameConfig(1.0, 0.25).slot_count == 4


class TestSlotValuesComputedOnce:
    def test_slot_count_and_capacity_cached(self):
        inst = fig2_fixture()
        assert inst.frame.slot_count == 4
        assert inst.slot_capacity == slot_capacity_gbps(inst.frame, inst.planner) == 2.5
        assert inst.slot_capacity is inst.slot_capacity
        assert "slot_count" in vars(inst.frame)
        assert [inst.slot_units(r) for r in inst.requests] == [2, 2, 2, 4]

    def test_equality_ignores_cached_values(self):
        a, b = fig2_fixture(), fig2_fixture()
        assert a.slot_capacity > 0 and a.frame.slot_count == 4  # b's caches stay empty
        assert a == b and hash(a.frame) == hash(b.frame)


class TestScheduleDocument:
    def test_round_trip(self):
        s = solve_exact(fig2_fixture())
        assert schedule_from_document(json.loads(s.to_json())) == s

    def test_not_an_object(self):
        with pytest.raises(ParseError) as excinfo:
            schedule_from_document([])
        assert excinfo.value.location == "$"

    def test_missing_slot_end(self):
        doc = json.loads(solve_exact(fig2_fixture()).to_json())
        del doc["accepted"][2]["slots"]["end"]
        with pytest.raises(ParseError) as excinfo:
            schedule_from_document(doc)
        assert excinfo.value.location == "$.accepted[2].slots.end"

    def test_boolean_is_not_an_integer(self):
        doc = json.loads(solve_exact(fig2_fixture()).to_json())
        doc["accepted"][0]["modes"] = [True]
        with pytest.raises(ParseError, match=r"\$\.accepted\[0\]\.modes\[0\]: must be of type integer"):
            schedule_from_document(doc)


class TestLoadInstance:
    def test_fig2_fixture_round_trip(self):
        rng = random.Random("load-round-trip")
        fig2 = fig2_fixture()
        weighted_tanh = replace(fig2, planner=replace(
            fig2.planner, objective_mode=ObjectiveMode("weighted"),
            accumulation_model=AccumulationModel("tanh-coupling", h=0.002)))
        corpus = [fig2, weighted_tanh, fixture_instance("fig4")]
        corpus += [random_micro_instance(rng) for _ in range(30)]
        for inst in corpus:
            doc = serialize_instance(inst)
            again = load_instance(json.dumps(doc))
            assert again == inst
            assert serialize_instance(again) == doc

    def test_fig2_values(self):
        inst = fig2_fixture()
        assert inst.planner.xt_threshold_db == -13.0
        assert inst.planner.link_capacity_gbps == 10.0
        assert inst.frame.frame_ms == 20.0
        assert inst.frame.slice_ms == 5.0
        assert inst.crosstalk.get(1, 0) == -17.7
        assert inst.crosstalk.get(0, 1) == -26.0

    def test_same_endpoints_names_request(self):
        doc = serialize_instance(fig2_fixture())
        doc["requests"][0]["dst"] = doc["requests"][0]["src"]
        with pytest.raises(ValidationError) as excinfo:
            load_instance(doc)
        assert "r1" in str(excinfo.value)

    def test_missing_matrix(self):
        doc = serialize_instance(fig2_fixture())
        del doc["crosstalk_db_per_100m"]
        with pytest.raises(ParseError, match=r"^\$\.crosstalk_db_per_100m: required$"):
            load_instance(doc)

    def test_malformed_json_text(self):
        with pytest.raises(ParseError, match=r"^\$: invalid JSON: "):
            load_instance("{not json")

    def test_collects_all_failures(self):
        doc = serialize_instance(fig2_fixture())
        doc["requests"][0]["dst"] = doc["requests"][0]["src"]
        doc["requests"][1]["bandwidth_gbps"] = -2
        with pytest.raises(ValidationError) as excinfo:
            load_instance(doc)
        assert len(excinfo.value.failures) >= 2

    def test_unknown_node_reported_with_path(self):
        doc = serialize_instance(fig2_fixture())
        doc["requests"][0]["src"] = "nope"
        with pytest.raises(ValidationError) as excinfo:
            load_instance(doc)
        assert excinfo.value.failures == [("$.requests[0].src", "unknown node 'nope'")]

    @pytest.mark.parametrize("location", ["$.topology", "$"])
    def test_topology_failures_under_the_location_read(self, location):
        doc = serialize_instance(fig2_fixture())["topology"]
        doc["nodes"][1]["tier"] = "spine"
        doc["links"][3]["to"] = "nowhere"
        with pytest.raises(ValidationError) as excinfo:
            topology_from_document(doc, location)
        assert excinfo.value.failures == [
            (f"{location}.nodes[1].tier", "unknown tier 'spine'"),
            (f"{location}.links[3].to", "unknown node 'nowhere'")]
