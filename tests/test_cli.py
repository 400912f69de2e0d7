import csv
import hashlib
import json

import pytest

from conftest import CountingMode, two_request_200m_instance
from otssplan import cli, milp, timeline
from otssplan.harness import fig2_fixture
from otssplan.model import ValidationError, load_instance, serialize_instance
from otssplan.solve import Assignment, Schedule, SolveLimits, solve_exact
from test_milp import FIG2_LP_SHA256

INF, NAN = float("inf"), float("nan")


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(json.dumps(serialize_instance(fig2_fixture())))
    return path


class TestPlanValidatePipeline:
    def test_plan_then_validate(self, tmp_path, fig2_file, capsys):
        out = tmp_path / "schedule.json"
        assert cli.run(["plan", "-i", str(fig2_file), "-o", str(out)]) == 0
        assert "throughput_gbps=23" in capsys.readouterr().out
        assert cli.run(["validate", "-i", str(fig2_file), "-s", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True

    def test_validate_catches_bad_schedule(self, tmp_path, fig2_file, capsys):
        sched_path = tmp_path / "bad.json"
        assert cli.run(["plan", "-i", str(fig2_file), "-o", str(sched_path)]) == 0
        capsys.readouterr()
        doc = json.loads(sched_path.read_text())
        doc["accepted"][0]["slots"]["start"] += 100  # escape the frame
        doc["accepted"][0]["slots"]["end"] += 100
        sched_path.write_text(json.dumps(doc))
        assert cli.run(["validate", "-i", str(fig2_file), "-s", str(sched_path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False

    def test_baseline_flag_collapses_frame(self, tmp_path, fig2_file, capsys):
        out = tmp_path / "base.json"
        assert cli.run(["plan", "-i", str(fig2_file), "--solver", "baseline",
                        "-o", str(out)]) == 0
        capsys.readouterr()
        assert cli.run(["validate", "-i", str(fig2_file), "-s", str(out),
                        "--baseline"]) == 0


class TestExitCodes:
    def test_unknown_flag_is_usage(self, capsys):
        assert cli.run(["plan", "--no-such-flag"]) == 2
        capsys.readouterr()

    def test_missing_subcommand_is_usage(self, capsys):
        assert cli.run([]) == 2
        capsys.readouterr()

    def test_missing_file_is_internal(self, capsys):
        assert cli.run(["plan", "-i", "/nonexistent.json"]) == 3
        assert "internal error" in capsys.readouterr().err

    def test_structural_mismatch_is_validation(self, tmp_path, fig2_file, capsys):
        sched = tmp_path / "ghost.json"
        ghost = Schedule((Assignment("ghost", (("e1", "a1"),), (0,), 0, 1),),
                         (), 1.0, 1, True)
        sched.write_text(ghost.to_json())
        assert cli.run(["validate", "-i", str(fig2_file), "-s", str(sched)]) == 1
        assert "structural error" in capsys.readouterr().err


    def test_request_accepted_twice_is_validation(self, tmp_path, fig2_file, capsys):
        sched = tmp_path / "twice.json"
        assert cli.run(["plan", "-i", str(fig2_file), "-o", str(sched)]) == 0
        capsys.readouterr()
        doc = json.loads(sched.read_text())
        r1 = next(a for a in doc["accepted"] if a["request_id"] == "r1")
        doc["accepted"].append(dict(r1, path=[["e1", "a2"], ["a2", "e2"]]))
        sched.write_text(json.dumps(doc))
        assert cli.run(["validate", "-i", str(fig2_file), "-s", str(sched)]) == 1
        assert capsys.readouterr().err.strip() == (
            "structural error: request 'r1' accepted more than once")

    def test_thousand_request_plan(self, tmp_path, fig2_file, capsys):
        requests = tmp_path / "requests.json"
        assert cli.run(["gen-traffic", "-i", str(fig2_file), "--load", "6000", "--seed", "0",
                        "-o", str(requests)]) == 0
        doc = json.loads(fig2_file.read_text())
        doc["requests"] = json.loads(requests.read_text())
        assert len(doc["requests"]) == 1092
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc))
        out = tmp_path / "plan.json"
        assert cli.run(["plan", "-i", str(big), "--node-budget", "5000", "-o", str(out)]) == 0
        capsys.readouterr()
        assert cli.run(["validate", "-i", str(big), "-s", str(out)]) == 0


@pytest.mark.parametrize("argv", [
    ["plan", "-i", "x.json"],
    ["sweep", "-i", "x.json", "--loads", "5", "-o", "x.csv"],
    ["emit-lp", "-i", "x.json", "-o", "x.lp"],
])
def test_limit_flags_default_to_solve_limits(argv):
    """With no limit flag, plan, sweep and emit-lp solve under SolveLimits()'s
    defaults, the only place they are written."""
    assert cli._limits_from_args(cli.build_parser().parse_args(argv)) == SolveLimits()


class TestArgumentErrors:
    """A flag value that does not parse or is out of range is a usage error
    naming the flag, not an internal error."""

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--loads", "x"], "--loads"),
        (["sweep", "--loads", "5,inf"], "--loads"),
        (["sweep", "--loads", "5", "--solvers", "bogus"], "--solvers"),
        (["sweep", "--loads", "5", "--trials", "0"], "--trials"),
    ] + [([command, *extra, flag, "0"], flag)
         for command, extra in (("plan", []), ("sweep", ["--loads", "5"]), ("emit-lp", []))
         for flag in ("--node-budget", "--time-budget", "--k-paths")] + [
        (["gen-traffic", "--load", "0"], "--load"),
        (["gen-traffic", "--load", "-5"], "--load"),
        (["gen-traffic", "--load", "inf"], "--load"),
        (["gen-traffic", "--load", "5", "--granularity", "0"], "--granularity"),
        (["gen-traffic", "--load", "5", "--capacity", "0.5"], "--capacity"),
        (["gen-traffic", "--load", "5", "--granularity", "2", "--capacity", "1"], "--capacity"),
        (["emit-lp", "--phase1-value", "nan"], "--phase1-value"),
        (["emit-lp", "--phase1-value", "inf"], "--phase1-value"),
        (["emit-lp", "--phase1-value=-inf"], "--phase1-value"),
        (["emit-lp", "--phase1-value", "x"], "--phase1-value"),
        (["sweep", "--loads=-5,0"], "--loads"),
        # off the granularity grid: the instance's for sweep, --granularity's for gen-traffic
        (["gen-traffic", "--load", "5", "--granularity", "2"], "--load"),
        (["sweep", "--loads", "2.5"], "--loads"),
        (["sweep", "--loads", "4,2.5"], "--loads"),
        # a repeated value would label two sweep rows alike
        (["sweep", "--loads", "20,20"], "--loads"),
        (["sweep", "--loads", "20,20.0"], "--loads"),
        (["sweep", "--loads", "20", "--solvers", "greedy,greedy"], "--solvers"),
    ])
    def test_bad_flag_value_is_usage(self, tmp_path, fig2_file, capsys, argv, flag):
        argv = argv[:1] + ["-i", str(fig2_file), "-o", str(tmp_path / "out")] + argv[1:]
        assert cli.run(argv) == 2
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_load_is_valid(self, tmp_path, fig2_file):
        out = tmp_path / "sweep.csv"
        assert cli.run(["sweep", "-i", str(fig2_file), "--loads", "0", "--solvers", "greedy",
                        "-o", str(out)]) == 0
        assert out.read_text().count("\n") > 1

    def test_unknown_timeline_link(self, tmp_path, fig2_file, capsys):
        sched = tmp_path / "s.json"
        assert cli.run(["plan", "-i", str(fig2_file), "-o", str(sched)]) == 0
        capsys.readouterr()
        assert cli.run(["timeline", "-i", str(fig2_file), "-s", str(sched),
                        "--link", "e1:zz"]) == 1
        assert capsys.readouterr().err.strip() == "error: --link: unknown link 'e1:zz'"


class TestModelErrors:
    """A document that does not parse or validate exits 1 and names the
    field; it is not reported as an internal error."""

    @pytest.fixture
    def schedule_doc(self, tmp_path, fig2_file, capsys):
        out = tmp_path / "schedule.json"
        assert cli.run(["plan", "-i", str(fig2_file), "-o", str(out)]) == 0
        capsys.readouterr()
        return json.loads(out.read_text())

    def _validate(self, tmp_path, fig2_file, doc, capsys):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        code = cli.run(["validate", "-i", str(fig2_file), "-s", str(path)])
        return code, capsys.readouterr().err

    def test_instance_parse_error(self, tmp_path, fig2_file, capsys):
        doc = json.loads(fig2_file.read_text())
        del doc["modes"]
        path = tmp_path / "no-modes.json"
        path.write_text(json.dumps(doc))
        assert cli.run(["plan", "-i", str(path)]) == 1
        assert capsys.readouterr().err.strip() == "error: $.modes: required"

    def test_instance_validation_error(self, tmp_path, fig2_file, capsys):
        doc = json.loads(fig2_file.read_text())
        doc["requests"][1]["src"] = "nowhere"
        path = tmp_path / "bad-node.json"
        path.write_text(json.dumps(doc))
        assert cli.run(["plan", "-i", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: $.requests[1].src: unknown node")

    def test_schedule_missing_field(self, tmp_path, fig2_file, schedule_doc, capsys):
        del schedule_doc["accepted"][0]["path"]
        code, err = self._validate(tmp_path, fig2_file, schedule_doc, capsys)
        assert code == 1
        assert err.strip() == "error: $.accepted[0].path: required"

    @pytest.mark.parametrize("edit, location", [
        (lambda d: d["accepted"][1]["slots"].update(start="0"), "$.accepted[1].slots.start"),
        (lambda d: d["accepted"][0]["modes"].append(1.5), "$.accepted[0].modes[1]"),
        (lambda d: d["accepted"][0]["path"].append(["e1"]), "$.accepted[0].path"),
        (lambda d: d.update(lambda_count=None), "$.lambda_count"),
        (lambda d: d.update(accepted={}), "$.accepted"),
    ])
    def test_schedule_wrong_type(self, tmp_path, fig2_file, schedule_doc, capsys,
                                 edit, location):
        edit(schedule_doc)
        code, err = self._validate(tmp_path, fig2_file, schedule_doc, capsys)
        assert code == 1
        assert err.startswith(f"error: {location}: ")

    @pytest.mark.parametrize("edit, location", [
        (lambda d: d.update(modes="four"), "$.modes"),
        (lambda d: d.update(modes={"count": True}), "$.modes.count"),
        (lambda d: d["requests"].__setitem__(0, 5), "$.requests[0]"),
        (lambda d: d.update(requests={}), "$.requests"),
        (lambda d: d["requests"][0].update(id=1), "$.requests[0].id"),
        (lambda d: d["requests"][0].update(bandwidth_gbps="5"), "$.requests[0].bandwidth_gbps"),
        (lambda d: d.update(planner=[]), "$.planner"),
        (lambda d: d["planner"].update(xt_threshold_db="x"), "$.planner.xt_threshold_db"),
        (lambda d: d["planner"].update(objective_mode={"weighted": 5}),
         "$.planner.objective_mode.weighted"),
        (lambda d: d.update(frame=20), "$.frame"),
        (lambda d: d["frame"].update(guard_us="x"), "$.frame.guard_us"),
        (lambda d: d["crosstalk_db_per_100m"][0].__setitem__(1, "x"),
         "$.crosstalk_db_per_100m[0][1]"),
        (lambda d: d["crosstalk_db_per_100m"].__setitem__(0, 5), "$.crosstalk_db_per_100m[0]"),
        (lambda d: d["topology"]["links"][0].update(length_m="x"),
         "$.topology.links[0].length_m"),
        (lambda d: d["topology"]["nodes"][0].update(id=1), "$.topology.nodes[0].id"),
        (lambda d: d["topology"].update(links={}), "$.topology.links"),
        # numbers that are not finite floats, and weights that are not > 0
        pytest.param(lambda d: d["planner"].update(link_capacity_gbps=INF),
                     "$.planner.link_capacity_gbps", id="capacity-infinity"),
        pytest.param(lambda d: d["planner"].update(granularity_gbps=INF),
                     "$.planner.granularity_gbps", id="granularity-infinity"),
        pytest.param(lambda d: d["frame"].update(frame_ms=INF), "$.frame.frame_ms",
                     id="frame-ms-infinity"),
        pytest.param(lambda d: d["requests"][0].update(bandwidth_gbps=INF),
                     "$.requests[0].bandwidth_gbps", id="bandwidth-infinity"),
        pytest.param(lambda d: d["requests"][0].update(bandwidth_gbps=10**400),
                     "$.requests[0].bandwidth_gbps", id="bandwidth-401-digits"),
        pytest.param(lambda d: d["topology"]["links"][0].update(length_m=INF),
                     "$.topology.links[0].length_m", id="length-infinity"),
        pytest.param(lambda d: d["planner"].update(objective_mode={"weighted": {"eta1": NAN}}),
                     "$.planner.objective_mode.weighted.eta1", id="eta1-nan"),
        pytest.param(lambda d: d["planner"].update(objective_mode={"weighted": {"eta1": INF}}),
                     "$.planner.objective_mode.weighted.eta1", id="eta1-infinity"),
        pytest.param(lambda d: d["planner"].update(objective_mode={"weighted": {"eta1": 0}}),
                     "$.planner.objective_mode.weighted.eta1", id="eta1-zero"),
        pytest.param(lambda d: d["planner"].update(objective_mode={"weighted": {"eta2": -1}}),
                     "$.planner.objective_mode.weighted.eta2", id="eta2-negative"),
        pytest.param(lambda d: d["frame"].update(guard_us=-50), "$.frame.guard_us",
                     id="guard-negative"),
    ])
    def test_instance_wrong_type(self, tmp_path, fig2_file, capsys, edit, location):
        doc = json.loads(fig2_file.read_text())
        edit(doc)
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps(doc))
        assert cli.run(["plan", "-i", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {location}: ")

    def test_emit_lp_refuses_paper_literal_db(self, tmp_path, fig2_file, capsys):
        doc = json.loads(fig2_file.read_text())
        doc["planner"]["accumulation_model"] = "paper-literal-db"
        path = tmp_path / "literal.json"
        path.write_text(json.dumps(doc))
        assert cli.run(["emit-lp", "-i", str(path), "-o", str(tmp_path / "literal.lp")]) == 1
        assert capsys.readouterr().err.startswith("error: $.planner.accumulation_model: ")
        assert not list(tmp_path.glob("literal*.lp"))

    def test_emit_lp_over_variable_cap(self, tmp_path, fig2_file, capsys):
        doc = json.loads(fig2_file.read_text())
        doc["requests"] = [dict(doc["requests"][0], id=f"r{i}") for i in range(60)]
        path = tmp_path / "sixty.json"
        path.write_text(json.dumps(doc))
        count = milp.count_formulas(load_instance(doc))["total_variables"]
        assert count > 2_000_000
        assert cli.run(["emit-lp", "-i", str(path), "-o", str(tmp_path / "big.lp")]) == 1
        assert capsys.readouterr().err.strip() == (
            f"error: model would have {count} variables, cap is 2000000")
        assert not list(tmp_path.glob("big*"))

    @pytest.mark.parametrize("argv, bare, location", [
        (["gen-traffic", "--load", "5"], False, "$.topology.nodes"),
        (["gen-traffic", "--load", "5"], True, "$.nodes"),
        (["sweep", "--loads", "5", "-o", "{out}"], False, "$.topology.nodes"),
    ])
    def test_too_few_edge_switches(self, tmp_path, fig2_file, capsys, argv, bare, location):
        doc = json.loads(fig2_file.read_text())
        for node in doc["topology"]["nodes"]:
            if node["tier"] == "edge":
                node["tier"] = "core"
        path = tmp_path / "no-edges.json"
        path.write_text(json.dumps(doc["topology"] if bare else doc))
        out = tmp_path / "out.csv"
        assert cli.run([argv[0], "-i", str(path)]
                       + [arg.format(out=out) for arg in argv[1:]]) == 1
        assert capsys.readouterr().err.strip() == (
            f"error: {location}: need >= 2 edge switches, topology has 0")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["plan", "-i", "{bad}"],
        ["validate", "-i", "{bad}", "-s", "{schedule}"],
        ["validate", "-i", "{fig2}", "-s", "{bad}"],
        ["sweep", "-i", "{bad}", "--loads", "5", "-o", "{out}"],
        ["emit-lp", "-i", "{bad}", "-o", "{out}"],
        ["gen-traffic", "-i", "{bad}", "--load", "5"],
        ["timeline", "-i", "{bad}", "-s", "{schedule}"],
        ["timeline", "-i", "{fig2}", "-s", "{bad}"],
    ])
    def test_not_json(self, tmp_path, fig2_file, schedule_doc, capsys, argv):
        files = {"bad": tmp_path / "bad.json", "fig2": fig2_file,
                 "schedule": tmp_path / "schedule.json", "out": tmp_path / "out.csv"}
        files["bad"].write_text("{not json")
        files["schedule"].write_text(json.dumps(schedule_doc))
        assert cli.run([arg.format(**files) for arg in argv]) == 1
        assert capsys.readouterr().err.startswith(f"error: {files['bad']}: invalid JSON: ")

class TestEmitLpCommand:
    def test_byte_identical_across_runs(self, tmp_path, fig2_file):
        a = tmp_path / "a.lp"
        b = tmp_path / "b.lp"
        assert cli.run(["emit-lp", "-i", str(fig2_file), "-o", str(a)]) == 0
        assert cli.run(["emit-lp", "-i", str(fig2_file), "-o", str(b)]) == 0
        for suffix in (".phase1.lp", ".phase2.lp"):
            assert (tmp_path / ("a" + suffix)).read_text() == \
                (tmp_path / ("b" + suffix)).read_text()

    def test_budget_bound_pin_is_named(self, tmp_path, fig2_file, capsys):
        """A phase-1 solve that stops on its budget says the pin it wrote is
        not a proven optimum; the exit code and the LP files are unchanged."""
        out = tmp_path / "p.lp"
        assert cli.run(["emit-lp", "-i", str(fig2_file), "-o", str(out),
                        "--node-budget", "2"]) == 0
        err = capsys.readouterr().err
        value = solve_exact(fig2_fixture(), SolveLimits(node_budget=2)).throughput_gbps
        assert err.count("\n") == 1
        assert f"fix_throughput >= {value:g} is the best throughput found within the " \
            "node/time budget, not a proven optimum" in err
        explicit = tmp_path / "explicit.lp"
        assert cli.run(["emit-lp", "-i", str(fig2_file), "-o", str(explicit),
                        "--phase1-value", str(value)]) == 0
        for suffix in (".phase1.lp", ".phase2.lp"):
            assert (tmp_path / ("p" + suffix)).read_bytes() == \
                (tmp_path / ("explicit" + suffix)).read_bytes()

    def test_proven_pin_prints_nothing(self, tmp_path, fig2_file, capsys):
        assert cli.run(["emit-lp", "-i", str(fig2_file), "-o", str(tmp_path / "model.lp")]) == 0
        assert capsys.readouterr().err == ""
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in FIG2_LP_SHA256} == FIG2_LP_SHA256

    def test_explicit_phase1_value(self, tmp_path, fig2_file, capsys):
        assert cli.run(["emit-lp", "-i", str(fig2_file), "-o",
                        str(tmp_path / "p.lp"), "--phase1-value", "17"]) == 0
        capsys.readouterr()
        assert "fix_throughput" in (tmp_path / "p.phase2.lp").read_text()


class TestSweepCommand:
    """Sweep traffic is drawn at the instance's granularity, up to its link
    capacity."""

    def _planner_copy(self, tmp_path, fig2_file, **planner):
        doc = json.loads(fig2_file.read_text())
        doc["planner"].update(planner)
        for r in doc["requests"]:
            r["bandwidth_gbps"] = 4.0
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return path

    def test_granularity_two(self, tmp_path, fig2_file, capsys):
        path = self._planner_copy(tmp_path, fig2_file, granularity_gbps=2)
        out = tmp_path / "sweep.csv"
        assert cli.run(["sweep", "-i", str(path), "--loads", "20,38", "--trials", "3",
                        "--node-budget", "2000", "-o", str(out)]) == 0
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        assert meta["bandwidth_law"] == "uniform multiples of 2.0 Gb/s on (0, 10.0]"

    def test_meta_records_the_limits(self, tmp_path, fig2_file, capsys):
        out = tmp_path / "sweep.csv"
        assert cli.run(["sweep", "-i", str(fig2_file), "--loads", "20", "--trials", "1",
                        "--node-budget", "700", "--time-budget", "30", "--k-paths", "3",
                        "-o", str(out)]) == 0
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        assert (meta["node_budget"], meta["time_budget_s"], meta["k_paths"],
                meta["all_mode_subsets"]) == (700, 30.0, 3, False)

    def test_rows_do_not_depend_on_solver_order(self, tmp_path, fig2_file, capsys):
        by_order = {}
        for solvers in ("exact,greedy", "greedy,exact"):
            out = tmp_path / f"{solvers}.csv"
            assert cli.run(["sweep", "-i", str(fig2_file), "--loads", "120,240",
                            "--trials", "2", "--node-budget", "2000",
                            "--solvers", solvers, "-o", str(out)]) == 0
            by_solver = {}
            with open(out, newline="") as fh:
                for row in csv.DictReader(fh):
                    del row["solve_ms"]
                    by_solver.setdefault(row["solver"], []).append(row)
            by_order[solvers] = by_solver
        exact_first = by_order["exact,greedy"]
        assert set(exact_first) == {"exact", "greedy"}
        assert all(len(rows) == 4 for rows in exact_first.values())
        assert exact_first == by_order["greedy,exact"]

    def test_capacity_below_granularity(self, tmp_path, fig2_file, capsys):
        path = self._planner_copy(tmp_path, fig2_file, granularity_gbps=2,
                                  link_capacity_gbps=1)
        assert cli.run(["sweep", "-i", str(path), "--loads", "20",
                        "-o", str(tmp_path / "sweep.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: $.planner.link_capacity_gbps: ")


class TestGenTrafficCommand:
    def test_round_trip(self, tmp_path, fig2_file, capsys):
        out = tmp_path / "reqs.json"
        assert cli.run(["gen-traffic", "-i", str(fig2_file), "--load", "25",
                        "--seed", "траф", "-o", str(out)]) == 0
        reqs = json.loads(out.read_text())
        assert sum(r["bandwidth_gbps"] for r in reqs) == pytest.approx(25.0)

    def test_stdout_when_no_output(self, fig2_file, capsys):
        assert cli.run(["gen-traffic", "-i", str(fig2_file), "--load", "5"]) == 0
        assert json.loads(capsys.readouterr().out)

    def test_capacity_equal_to_granularity(self, fig2_file, capsys):
        assert cli.run(["gen-traffic", "-i", str(fig2_file), "--load", "5",
                        "--granularity", "2.5", "--capacity", "2.5"]) == 0
        assert {r["bandwidth_gbps"] for r in json.loads(capsys.readouterr().out)} == {2.5}

    @pytest.mark.parametrize("bare, location", [(False, "$.topology.links[24]"),
                                                (True, "$.links[24]")])
    def test_topology_error_at_its_document_location(self, tmp_path, fig2_file, capsys,
                                                     bare, location):
        doc = json.loads(fig2_file.read_text())
        assert len(doc["topology"]["links"]) == 24
        doc["topology"]["links"].append({"from": "e1", "to": "e1", "length_m": 10.0})
        path = tmp_path / "self-loop.json"
        path.write_text(json.dumps(doc["topology"] if bare else doc))
        assert cli.run(["gen-traffic", "-i", str(path), "--load", "5"]) == 1
        assert capsys.readouterr().err.strip() == f"error: {location}: self-loop at 'e1'"


class TestFixturesCommand:
    @pytest.mark.parametrize("name", ["fig2", "fig4"])
    def test_emits_loadable_instance(self, tmp_path, name, capsys):
        out = tmp_path / f"{name}.json"
        assert cli.run(["fixtures", "--name", name, "-o", str(out)]) == 0
        from otssplan.model import load_instance
        inst = load_instance(json.loads(out.read_text()))
        assert inst.requests

    def test_unknown_name_is_usage(self, capsys):
        assert cli.run(["fixtures", "--name", "fig9"]) == 2
        capsys.readouterr()


class TestTimeline:
    def test_two_request_grid(self):
        inst = two_request_200m_instance()
        sched = Schedule(
            (Assignment("ra", (("n1", "n2"),), (0,), 0, 2),
             Assignment("rb", (("n1", "n2"),), (0,), 2, 4)),
            (), 10.0, 4, True)
        text = timeline.render_timeline(inst, sched)
        lines = text.splitlines()
        assert lines[0] == "link n1 -> n2 (200 m, 4 slots)"
        assert lines[1] == "m1 AABB"
        assert lines[2] == "m2 ...."
        assert "legend: A=ra  B=rb" in text

    def test_guard_separator(self):
        from dataclasses import replace
        inst = two_request_200m_instance()
        inst = replace(inst, frame=replace(inst.frame, guard_us=50.0))
        sched = Schedule((Assignment("ra", (("n1", "n2"),), (0,), 0, 2),),
                         ("rb",), 5.0, 2, True)
        text = timeline.render_timeline(inst, sched)
        assert "m1 A|A|.|." in text
        assert "guard interval: 50 us" in text

    def test_zero_guard_is_no_guard(self, tmp_path, fig2_file, capsys):
        doc = json.loads(fig2_file.read_text())
        doc["frame"]["guard_us"] = 0
        path, sched = tmp_path / "unguarded.json", tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert cli.run(["plan", "-i", str(path), "-o", str(sched)]) == 0
        capsys.readouterr()
        assert cli.run(["timeline", "-i", str(path), "-s", str(sched)]) == 0
        text = capsys.readouterr().out
        assert "|" not in text and "guard" not in text

    def test_link_not_in_topology(self):
        inst = two_request_200m_instance()
        sched = Schedule((), ("ra", "rb"), 0.0, 0, True)
        with pytest.raises(ValidationError) as err:
            timeline.render_timeline(inst, sched, ("n1", "zz"))
        assert err.value.failures == [("$.topology.links", "no link n1 -> zz")]

    def test_interval_past_the_frame_draws_only_frame_cells(self):
        inst = two_request_200m_instance()
        mode = CountingMode(0, cap=1000)
        sched = Schedule((Assignment("ra", (("n1", "n2"),), (mode,), 2, 10**9),),
                         ("rb",), 5.0, 2, True)
        assert timeline.render_timeline(inst, sched).splitlines()[1] == "m1 ..AA"
        assert mode.hashes < 10

    @pytest.mark.parametrize("edit, message", [
        (lambda a: a["path"].__setitem__(0, ["zz", "yy"]), "uses unknown link ('zz', 'yy')"),
        (lambda a: a.update(modes=[9]), "uses unknown mode 9"),
    ])
    def test_structure_error(self, tmp_path, fig2_file, capsys, edit, message):
        sched = tmp_path / "s.json"
        assert cli.run(["plan", "-i", str(fig2_file), "-o", str(sched)]) == 0
        capsys.readouterr()
        doc = json.loads(sched.read_text())
        edit(doc["accepted"][0])
        sched.write_text(json.dumps(doc))
        assert cli.run(["timeline", "-i", str(fig2_file), "-s", str(sched)]) == 1
        request = doc["accepted"][0]["request_id"]
        assert capsys.readouterr().err.strip() == (
            f"structural error: request {request!r} {message}")

    def test_instance_without_links(self, tmp_path, capsys):
        """A network with no link plans and validates, and timeline names
        the missing links instead of failing internally."""
        doc = serialize_instance(two_request_200m_instance())
        doc["topology"]["links"] = []
        inst, sched = tmp_path / "i.json", tmp_path / "s.json"
        inst.write_text(json.dumps(doc))
        assert cli.run(["plan", "-i", str(inst), "-o", str(sched)]) == 0
        assert cli.run(["validate", "-i", str(inst), "-s", str(sched)]) == 0
        capsys.readouterr()
        assert cli.run(["timeline", "-i", str(inst), "-s", str(sched)]) == 1
        assert capsys.readouterr().err.strip() == (
            "error: $.topology.links: no link to draw a timeline of")

    def test_cli_command(self, tmp_path, fig2_file, capsys):
        inst_doc = json.loads(fig2_file.read_text())
        from otssplan.model import load_instance
        sched = solve_exact(load_instance(inst_doc))
        sched_path = tmp_path / "s.json"
        sched_path.write_text(sched.to_json())
        assert cli.run(["timeline", "-i", str(fig2_file), "-s", str(sched_path),
                        "--link", "e1:a1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("link e1 -> a1")
