import math
from collections import Counter
from dataclasses import replace

import pytest

from otssplan import harness, validate, xtalk
from otssplan.model import (PlannerConfig, ValidationError, build_fat_tree, load_instance,
                            on_grid, serialize_instance)
from otssplan.solve import SolveLimits


class TestGenUniformTraffic:
    def test_deterministic(self):
        topo = build_fat_tree(4, 2, 2, 100.0)
        a = harness.gen_uniform_traffic(topo, 40.0, seed="s")
        b = harness.gen_uniform_traffic(topo, 40.0, seed="s")
        assert a == b
        c = harness.gen_uniform_traffic(topo, 40.0, seed="other")
        assert a != c

    def test_total_hits_offered_load_exactly(self):
        topo = build_fat_tree(4, 2, 2, 100.0)
        for load in (1.0, 7.0, 33.0, 100.0):
            reqs = harness.gen_uniform_traffic(topo, load, seed=3)
            assert sum(r.bandwidth_gbps for r in reqs) == pytest.approx(load)

    def test_tiny_load_single_request(self):
        topo = build_fat_tree(2, 1, 1, 100.0)
        reqs = harness.gen_uniform_traffic(topo, 1.0, seed=0)
        assert len(reqs) == 1
        assert reqs[0].bandwidth_gbps == 1.0

    def test_bandwidths_on_grid(self):
        topo = build_fat_tree(4, 2, 2, 100.0)
        reqs = harness.gen_uniform_traffic(topo, 200.0, granularity_gbps=0.5, seed=9)
        for r in reqs:
            assert (r.bandwidth_gbps / 0.5) == int(r.bandwidth_gbps / 0.5)
            assert 0 < r.bandwidth_gbps <= 10.0

    def test_endpoints_are_distinct_edge_switches(self):
        topo = build_fat_tree(4, 2, 2, 100.0)
        edges = set(topo.edge_nodes())
        for r in harness.gen_uniform_traffic(topo, 60.0, seed=5):
            assert r.source in edges and r.destination in edges
            assert r.source != r.destination

    def test_pair_distribution_uniform(self):
        # ~9k draws over the 12 ordered pairs of a 4-edge tree; each pair's
        # count should sit within 5 sigma of n/12 (binomial normal approx)
        topo = build_fat_tree(4, 2, 2, 100.0)
        reqs = harness.gen_uniform_traffic(topo, 50_000.0, seed="uniformity")
        counts = Counter((r.source, r.destination) for r in reqs[:-1])
        n = sum(counts.values())
        assert len(counts) == 12
        p = 1 / 12
        sigma = math.sqrt(n * p * (1 - p))
        for pair_count in counts.values():
            assert abs(pair_count - n * p) < 5 * sigma

    @pytest.mark.parametrize("load, options, field", [
        (5.0, {"granularity_gbps": 2}, "load"),
        (math.inf, {}, "load"),
        (math.nan, {}, "load"),
        (-5.0, {}, "load"),
        (5.0, {"granularity_gbps": 0}, "granularity"),
        (5.0, {"granularity_gbps": math.nan}, "granularity"),
        (4.0, {"granularity_gbps": 2, "capacity_gbps": 1}, "capacity"),
        (5.0, {"capacity_gbps": math.inf}, "capacity"),
    ])
    def test_rejected_input_is_named(self, load, options, field):
        topo = build_fat_tree(4, 2, 2, 100.0)
        with pytest.raises(harness.TrafficError) as exc:
            harness.gen_uniform_traffic(topo, load, seed=0, **options)
        assert exc.value.field == field
        assert str(exc.value).startswith(f"{field}: ")

    def test_rejects_degenerate_inputs(self):
        topo = build_fat_tree(1, 1, 1, 100.0)
        with pytest.raises(harness.TrafficError):
            harness.gen_uniform_traffic(topo, 10.0)
        topo4 = build_fat_tree(4, 2, 2, 100.0)
        with pytest.raises(harness.TrafficError):
            harness.gen_uniform_traffic(topo4, 0.0)


class TestRunSweep:
    def template(self):
        return harness.fig2_fixture().with_requests([])

    def test_deterministic_rows(self):
        tpl = self.template()
        a = harness.run_sweep(tpl, [10.0], ["greedy", "baseline"], trials=2, seed=7)
        b = harness.run_sweep(tpl, [10.0], ["greedy", "baseline"], trials=2, seed=7)
        # every field but the wall-clock solve_ms
        assert [replace(r, solve_ms=0.0) for r in a.rows] == \
            [replace(r, solve_ms=0.0) for r in b.rows]
        assert a.instance_digest == b.instance_digest

    def test_zero_load_rows(self):
        tpl = self.template()
        result = harness.run_sweep(tpl, [0.0], ["greedy"], trials=1, seed=1)
        (row,) = result.rows
        assert row.throughput_gbps == 0.0
        assert row.acceptance_ratio == 1.0

    def test_sliced_never_below_baseline(self):
        tpl = self.template()
        result = harness.run_sweep(tpl, [20.0, 60.0], ["exact", "baseline"],
                                   trials=3, seed="containment")
        by_cell = {}
        for r in result.rows:
            by_cell.setdefault((r.load_gbps, r.trial), {})[r.solver] = r
        for cell in by_cell.values():
            assert cell["exact"].throughput_gbps >= cell["baseline"].throughput_gbps

    def test_rows_cover_grid(self):
        tpl = self.template()
        result = harness.run_sweep(tpl, [5.0, 10.0], ["greedy", "baseline"],
                                   trials=2, seed=0)
        assert len(result.rows) == 2 * 2 * 2
        assert len(result.averages) == 4

    def test_metadata_records_the_limits(self):
        limits = SolveLimits(node_budget=300, time_budget_s=60.0, k_paths=2,
                             all_mode_subsets=True)
        meta = harness.run_sweep(self.template(), [10.0], ["greedy"], trials=1, seed=0,
                                 limits=limits).metadata()
        assert {key: meta[key] for key in ("node_budget", "time_budget_s", "k_paths",
                                           "all_mode_subsets")} == \
            {"node_budget": 300, "time_budget_s": 60.0, "k_paths": 2, "all_mode_subsets": True}
        default = harness.run_sweep(self.template(), [10.0], ["greedy"], trials=1,
                                    seed=0).metadata()
        assert default["node_budget"] == SolveLimits().node_budget

    def test_csv_round_trip(self, tmp_path):
        import csv
        tpl = self.template()
        result = harness.run_sweep(tpl, [10.0], ["greedy"], trials=2, seed=2)
        out = tmp_path / "sweep.csv"
        result.to_csv(out)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["throughput_gbps"]) == result.rows[0].throughput_gbps
        assert [row["valid"] for row in rows] == ["1", "1"]

    def test_heavy_sweep_rows_are_validated(self):
        """Every row of a heavy fig2 sweep (240 Gb/s, three trials, 2,000
        nodes) records that its schedule passes check_schedule: baseline's
        on the collapsed frame it plans, the others' on the sliced one."""
        result = harness.run_sweep(self.template(), [240.0], ["exact", "baseline", "greedy"],
                                   trials=3, seed="heavy-valid",
                                   limits=SolveLimits(node_budget=2000, time_budget_s=60.0))
        assert len(result.rows) == 9
        assert all(row.valid for row in result.rows)

    def test_invalid_schedule_reads_invalid(self, monkeypatch):
        """A schedule that breaks a constraint is recorded as not valid."""
        def solve(instance, solver, limits, initial=None):
            good = harness.solve_mod.solve_greedy(instance, limits)
            first = good.assignments[0]
            # the first assignment twice: every cell it takes is used twice
            twice = replace(first, request_id=good.assignments[1].request_id)
            return replace(good, assignments=(first, twice) + good.assignments[2:])
        monkeypatch.setattr(harness.solve_mod, "solve", solve)
        (row,) = harness.run_sweep(self.template(), [40.0], ["greedy"], trials=1, seed=0).rows
        assert not row.valid

    def test_traffic_drawn_at_the_instance_granularity(self):
        tpl = replace(self.template(), planner=PlannerConfig(granularity_gbps=2.5))
        result = harness.run_sweep(tpl, [25.0, 50.0], ["greedy"], trials=3, seed=4)
        assert result.bandwidth_law == "uniform multiples of 2.5 Gb/s on (0, 10.0]"
        # accepted throughput sums on-grid bandwidths, the trimmed last request's too
        assert all(on_grid(r.throughput_gbps, 2.5) for r in result.rows)

    def test_capacity_below_granularity_is_named(self):
        tpl = replace(self.template(),
                      planner=PlannerConfig(granularity_gbps=2.0, link_capacity_gbps=1.0))
        with pytest.raises(ValidationError) as exc:
            harness.run_sweep(tpl, [4.0], ["greedy"], trials=1, seed=0)
        assert [path for path, _ in exc.value.failures] == ["$.planner.link_capacity_gbps"]

    @pytest.mark.parametrize("loads", [[2.5], [4.0, 2.5], [4.0, -4.0], [math.inf], [math.nan]])
    def test_bad_load_named_before_any_cell_is_solved(self, monkeypatch, loads):
        def solve(*args, **kwargs):
            raise AssertionError("a cell was solved")
        monkeypatch.setattr(harness.solve_mod, "solve", solve)
        with pytest.raises(harness.TrafficError) as exc:
            harness.run_sweep(self.template(), loads, ["greedy"], trials=1, seed=0)
        assert exc.value.field == "load"
        assert exc.value.message.endswith(f"got {loads[-1]:g}")

    def test_too_few_edge_switches_named(self):
        tpl = replace(self.template(), topology=build_fat_tree(1, 1, 1, 100.0))
        with pytest.raises(ValidationError) as exc:
            harness.run_sweep(tpl, [4.0], ["greedy"], trials=1, seed=0)
        assert exc.value.failures == [("$.topology.nodes",
                                       "need >= 2 edge switches, topology has 1")]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            harness.run_sweep(self.template(), [], ["greedy"], trials=1, seed=0)

    @pytest.mark.parametrize("loads, solvers", [([20.0, 20.0], ["greedy"]),
                                                ([20.0], ["greedy", "greedy"])])
    def test_repeated_value_rejected(self, monkeypatch, loads, solvers):
        def solve(*args, **kwargs):
            raise AssertionError("a cell was solved")
        monkeypatch.setattr(harness.solve_mod, "solve", solve)
        with pytest.raises(ValueError, match="may be given once"):
            harness.run_sweep(self.template(), loads, solvers, trials=1, seed=0)


class TestFixtures:
    def test_fig2_shape(self):
        inst = harness.fig2_fixture()
        assert len(inst.topology.nodes) == 8
        assert inst.mode_count == 4
        assert inst.frame.slot_count == 4
        assert [r.id for r in inst.requests] == ["r1", "r2", "r3", "r4"]

    def test_fig4_reference_schedule_validates(self):
        sc = harness.fig4_scenario()
        report = validate.check_schedule(sc.instance, sc.reference_schedule)
        assert report.passed

    def test_fig4_g_shares_only_with_a(self):
        sc = harness.fig4_scenario()
        rep = xtalk.accumulate_for_request("#G", sc.reference_schedule, sc.instance)
        assert rep.total_db == pytest.approx(-36.01, abs=0.01)
        assert [t.aggressor_request for t in rep.terms] == ["#A"]

    def test_fig4_trunk_length(self):
        inst = harness.fig4_scenario().instance
        assert inst.topology.length(("A1", "C1")) == 500.0

    def test_fixture_instances_serialize_round_trip(self):
        for name in harness.FIXTURES:
            inst = harness.fixture_instance(name)
            assert load_instance(serialize_instance(inst)) == inst

    def test_unknown_fixture(self):
        with pytest.raises(ValueError):
            harness.fixture_instance("fig9")
