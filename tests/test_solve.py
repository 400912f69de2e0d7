import builtins
import copy
import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import math
import operator
import random
import threading
import time
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_force_best, random_micro_instance, two_request_200m_instance
from otssplan import solve as solve_mod, validate, xtalk
from otssplan.model import (AccumulationModel, CrosstalkMatrix, FrameConfig, Instance,
                            LinkSpec, NodeSpec, PlannerConfig, Request, Topology,
                            build_fat_tree, collapse_frame, left_sum, load_instance,
                            serialize_instance)
from otssplan.solve import (SolveLimits, _SearchState, enumerate_candidates, k_shortest_paths,
                            solve, solve_baseline_conventional, solve_exact, solve_greedy)
from otssplan.harness import fig2_fixture, gen_uniform_traffic


class TestKShortestPaths:
    def test_fig2_pair(self):
        topo = fig2_fixture().topology
        paths = k_shortest_paths(topo, "e1", "e2", 4)
        assert paths[0] == ("e1", "a1", "e2")
        assert paths[1] == ("e1", "a2", "e2")
        assert len(paths) == 2 or all(len(p) > 3 for p in paths[2:])

    def test_disconnected(self):
        from otssplan.model import LinkSpec, NodeSpec, Topology
        topo = Topology((NodeSpec("a", "edge"), NodeSpec("b", "edge"),
                         NodeSpec("c", "edge")), (LinkSpec("a", "b", 100.0),))
        assert k_shortest_paths(topo, "a", "c", 3) == []

    def test_orders_by_length_then_sequence(self):
        from otssplan.model import LinkSpec, NodeSpec, Topology
        topo = Topology(
            (NodeSpec("a", "edge"), NodeSpec("b", "edge"), NodeSpec("m1", "edge"),
             NodeSpec("m2", "edge")),
            (LinkSpec("a", "m1", 50.0), LinkSpec("m1", "b", 50.0),
             LinkSpec("a", "m2", 50.0), LinkSpec("m2", "b", 50.0),
             LinkSpec("a", "b", 300.0)))
        paths = k_shortest_paths(topo, "a", "b", 3)
        assert paths == [("a", "m1", "b"), ("a", "m2", "b"), ("a", "b")]


class TestEnumerateCandidates:
    def test_single_unit_demand(self):
        inst = two_request_200m_instance()
        inst = replace(inst, planner=PlannerConfig(granularity_gbps=0.5))
        inst = inst.with_requests([replace(inst.requests[0], bandwidth_gbps=2.5)])
        cands = enumerate_candidates(inst.requests[0], inst, 2)
        # 2 modes x 4 single-slot start positions
        assert len(cands) == 8
        assert all(c.supply == 1 for c in cands)

    def test_forced_full_frame(self):
        inst = two_request_200m_instance()
        inst = replace(inst, mode_count=1,
                       crosstalk=type(inst.crosstalk)(((None,),)))
        inst = inst.with_requests([replace(inst.requests[0], bandwidth_gbps=10.0)])
        cands = enumerate_candidates(inst.requests[0], inst, 2)
        assert len(cands) == 1
        assert cands[0].slot_start == 0 and cands[0].slot_end == 4

    def test_disconnected_endpoints(self):
        from otssplan.model import (CrosstalkMatrix, FrameConfig, Instance,
                                    LinkSpec, NodeSpec, Request, Topology)
        topo = Topology((NodeSpec("a", "edge"), NodeSpec("b", "edge")),
                        (LinkSpec("b", "a", 100.0),))
        inst = Instance(topology=topo, requests=(Request("r", "a", "b", 1.0),),
                        frame=FrameConfig(20.0, 5.0), mode_count=1,
                        crosstalk=CrosstalkMatrix(((None,),)))
        assert enumerate_candidates(inst.requests[0], inst, 3) == []

    def test_no_grossly_oversized(self):
        inst = fig2_fixture()
        for r in inst.requests:
            q = inst.slot_units(r)
            for c in enumerate_candidates(r, inst, 4):
                assert c.supply >= q
                assert c.supply - q < min(len(c.modes), c.slot_end - c.slot_start)


class TestSolveExact:
    def test_single_request_accepted(self, tiny):
        s = solve_exact(tiny)
        assert s.accepted_ids == ("r1",)
        assert s.throughput_gbps == 5.0
        assert s.optimal

    def test_two_request_200m(self, two_request_200m):
        s = solve_exact(two_request_200m)
        assert s.throughput_gbps == 10.0
        a, b = s.assignments
        # disjoint intervals: no temporal overlap between the two requests
        assert min(a.slot_end, b.slot_end) <= max(a.slot_start, b.slot_start) \
            or set(a.modes).isdisjoint(b.modes)
        assert validate.check_schedule(two_request_200m, s).passed

    def test_matches_brute_force_on_200m(self, two_request_200m):
        limits = SolveLimits(all_mode_subsets=True, k_paths=8)
        s = solve_exact(two_request_200m, limits)
        assert (s.throughput_gbps, s.lambda_count) == brute_force_best(two_request_200m)

    def test_determinism(self, two_request_200m):
        s1 = solve_exact(two_request_200m)
        s2 = solve_exact(two_request_200m)
        assert s1.to_json() == s2.to_json()

    def test_budget_exhaustion_flags_not_optimal(self):
        inst = fig2_fixture()
        s = solve_exact(inst, SolveLimits(node_budget=5, time_budget_s=60.0))
        assert not s.optimal
        assert validate.check_schedule(inst, s).passed

    def test_relaxing_threshold_never_decreases_throughput(self):
        rng = random.Random("xt-monotone")
        for _ in range(10):
            inst = random_micro_instance(rng)
            tight = replace(inst, planner=replace(inst.planner, xt_threshold_db=-16.0))
            loose = replace(inst, planner=replace(inst.planner, xt_threshold_db=-10.0))
            assert solve_exact(loose).throughput_gbps >= solve_exact(tight).throughput_gbps

    def test_initial_incumbent_respected(self, two_request_200m):
        good = solve_exact(two_request_200m)
        s = solve_exact(two_request_200m, SolveLimits(node_budget=2), initial=good)
        assert s.throughput_gbps >= good.throughput_gbps


class TestSolveGreedy:
    def test_never_beats_exact(self):
        rng = random.Random("greedy-vs-exact")
        for _ in range(15):
            inst = random_micro_instance(rng)
            assert solve_greedy(inst).throughput_gbps <= \
                solve_exact(inst).throughput_gbps + 1e-9

    def test_single_request_matches_exact(self, tiny):
        assert solve_greedy(tiny).to_document()["accepted"] == \
            solve_exact(tiny).to_document()["accepted"]

    def test_two_request_200m_both_accepted(self, two_request_200m):
        s = solve_greedy(two_request_200m)
        assert s.throughput_gbps == 10.0


class TestBaseline:
    def test_two_request_200m_one_accepted(self, two_request_200m):
        s = solve_baseline_conventional(two_request_200m)
        assert s.throughput_gbps == 5.0
        assert len(s.assignments) == 1

    def test_single_request_same_acceptance(self, tiny):
        assert solve_baseline_conventional(tiny).accepted_ids == \
            solve_exact(tiny).accepted_ids

    def test_never_beats_sliced(self):
        rng = random.Random("baseline-contained")
        for _ in range(15):
            inst = random_micro_instance(rng)
            assert solve_baseline_conventional(inst).throughput_gbps <= \
                solve_exact(inst).throughput_gbps + 1e-9

    def test_validates_on_collapsed_instance(self, two_request_200m):
        from otssplan.model import collapse_frame
        s = solve_baseline_conventional(two_request_200m)
        assert validate.check_schedule(collapse_frame(two_request_200m), s).passed


class TestOracleEquivalence:
    def test_micro_corpus_sample(self):
        rng = random.Random("oracle-sample")
        limits = SolveLimits(all_mode_subsets=True, k_paths=8)
        for _ in range(20):
            inst = random_micro_instance(rng)
            s = solve_exact(inst, limits)
            assert s.optimal
            expected = brute_force_best(inst)
            assert (s.throughput_gbps, s.lambda_count) == pytest.approx(expected)

    @pytest.mark.parametrize("model", [AccumulationModel("paper-literal-db"),
                                       AccumulationModel("tanh-coupling", h=2e-3)],
                             ids=lambda m: m.variant)
    def test_micro_corpus_other_accumulation_models(self, model):
        rng = random.Random(f"oracle-{model.variant}")
        limits = SolveLimits(all_mode_subsets=True, k_paths=8)
        for _ in range(40):
            # three nodes crowd requests onto shared links, so crosstalk binds
            inst = random_micro_instance(rng, max_nodes=3)
            inst = replace(inst, planner=replace(inst.planner, accumulation_model=model))
            s = solve_exact(inst, limits)
            assert s.optimal
            assert (s.throughput_gbps, s.lambda_count) == pytest.approx(brute_force_best(inst))


# SHA-256 of Schedule.to_json() at a 2000-node budget on two seeded
# 240 Gb/s fig2 instances, each with its (throughput, lambda count). A
# speed-up or refactor of the search must keep them; only a change meant
# to alter schedules may re-record them, and the pairs show what moved.
PINNED_SCHEDULES = {
    (0, "baseline"):
        ("82993edab628156c235ec61a1d16da47346b72f4ec84f463cef18aec03e182d0", (151.0, 42)),
    (0, "exact"):
        ("c643d5c8fa3912de1f489dd0c554977ca4735b00af5ea90255d9fe9baee65e21", (152.0, 134)),
    (0, "greedy"):
        ("c27af73aed6d05d4be47e481708f363d1799fc209d64f950c1e70f8c40a19550", (152.0, 140)),
    (1, "baseline"):
        ("c98836a8b04cc05afa78e52a1df08029fbc8624dbbfbad5927dda808de812a26", (162.0, 44)),
    (1, "exact"):
        ("b50760d8cfe8b5968180ee0e14ce56362abb27474ca8888d263bd94d848a6bf3", (173.0, 158)),
    (1, "greedy"):
        ("defedffc81fc5bc6a87a625d25c2a44d533c4be65bd8d175b391ca0ccd7fcea9", (148.0, 134)),
}


def _assert_pinned(schedule, pin, label) -> None:
    """`schedule` has the pinned (throughput, lambda count), then the pinned digest."""
    digest, pair = pin
    assert (schedule.throughput_gbps, schedule.lambda_count) == pair, label
    assert hashlib.sha256(schedule.to_json().encode()).hexdigest() == digest, label


@pytest.mark.parametrize("seed", [0, 1])
def test_pinned_heavy_schedules(seed):
    template = fig2_fixture().with_requests([])
    inst = template.with_requests(gen_uniform_traffic(template.topology, 240.0, seed=seed))
    limits = SolveLimits(node_budget=2000, time_budget_s=3600.0)
    for solver in ("baseline", "exact", "greedy"):
        _assert_pinned(solve(inst, solver, limits), PINNED_SCHEDULES[seed, solver], solver)


# The same pins for seed 1 under three other configurations, kept under
# the same rule: the paper-literal-db model, whose additive terms are
# negative, every mode subset over eight paths, and the tanh-coupling
# model (h = 2e-3).
PINNED_VARIANT_SCHEDULES = {
    ("paper-literal-db", "baseline"):
        ("26fc44cf86133a91a493f2bd9b4ebe0ddf6086216b65b0e11961e3a9afee67c5", (198.0, 62)),
    ("paper-literal-db", "exact"):
        ("1da26c8be604b7f068e659bd1470069346975cf73976565999196a4808407031", (223.0, 208)),
    ("paper-literal-db", "greedy"):
        ("1da26c8be604b7f068e659bd1470069346975cf73976565999196a4808407031", (223.0, 208)),
    ("all-mode-subsets", "baseline"):
        ("c98836a8b04cc05afa78e52a1df08029fbc8624dbbfbad5927dda808de812a26", (162.0, 44)),
    ("all-mode-subsets", "exact"):
        ("5ed148c6a61c78cad8f6adf92969907098fc110f92d4182174a836a94796ba84", (175.0, 164)),
    ("all-mode-subsets", "greedy"):
        ("49dfbf58ad21b65f99f5daa1e355ffd14889693f27441bb05a8736a15716cbb5", (144.0, 130)),
    # exact read (112.0, 96) with the first-fit density probe this descent
    # replaced: a known trade under tanh-coupling, where crosstalk binds hardest
    ("tanh-coupling", "baseline"):
        ("e9c085f7aef6ccfb4738a11c194720ec2dfa0b6f0068a93ea5a5a45a7df2ebeb", (102.0, 24)),
    ("tanh-coupling", "exact"):
        ("dbab1693ca63a27b453975d91ff224845e91bd565e8b0bf67eba7a3f2012167f", (109.0, 100)),
    ("tanh-coupling", "greedy"):
        ("edbb165e0eec355699a886a3a2fb1e710c7b6f1d593450c77ba2b687ee786855", (102.0, 92)),
}


def _heavy_fig2(seed: int):
    template = fig2_fixture().with_requests([])
    return template.with_requests(gen_uniform_traffic(template.topology, 240.0, seed=seed))


@pytest.mark.parametrize("variant", ["paper-literal-db", "all-mode-subsets", "tanh-coupling"])
def test_pinned_variant_schedules(variant):
    inst = _heavy_fig2(1)
    limits = SolveLimits(node_budget=2000, time_budget_s=3600.0)
    if variant == "all-mode-subsets":
        limits = replace(limits, all_mode_subsets=True, k_paths=8)
    else:
        inst = _with_model(inst, variant)
    for solver in ("baseline", "exact", "greedy"):
        _assert_pinned(solve(inst, solver, limits), PINNED_VARIANT_SCHEDULES[variant, solver],
                       solver)


# The same pin for exact alone at a 20,000-node budget on seed 1, where
# most nodes find their group's free placements already listed.
PINNED_HOT_EXACT = ("b50760d8cfe8b5968180ee0e14ce56362abb27474ca8888d263bd94d848a6bf3",
                    (173.0, 158))


def test_pinned_exact_at_20k_nodes():
    limits = SolveLimits(node_budget=20_000, time_budget_s=3600.0)
    schedule = solve_exact(_heavy_fig2(1), limits)
    assert not schedule.optimal
    _assert_pinned(schedule, PINNED_HOT_EXACT, "exact")


def test_time_budget_stops_search_when_nodes_cannot():
    inst = _heavy_fig2(0)
    limits = SolveLimits(node_budget=10**9, time_budget_s=1e-3)
    # in a thread, so a search that ignores its deadline fails the test
    # instead of hanging it
    schedules = []
    worker = threading.Thread(target=lambda: schedules.append(solve_exact(inst, limits)),
                              daemon=True)
    start = time.monotonic()
    worker.start()
    worker.join(timeout=10.0)
    assert not worker.is_alive()
    assert time.monotonic() - start < 1.0
    assert not schedules[0].optimal
    assert validate.check_schedule(inst, schedules[0]).passed


@pytest.mark.parametrize("field", ["node_budget", "time_budget_s", "k_paths"])
@pytest.mark.parametrize("value", [0, -1, float("nan")])
def test_solve_limits_reject_non_positive_and_nan(field, value):
    with pytest.raises(ValueError, match=field):
        SolveLimits(**{field: value})


@pytest.mark.parametrize("field", ["node_budget", "k_paths"])
@pytest.mark.parametrize("value", [1e6, 1.5, 2.0, True, "4"])
def test_solve_limits_reject_counts_that_are_not_ints(field, value):
    """A float budget would reach the search's bit tests, and a fractional
    k_paths would plan as the next int up: both are refused by name."""
    with pytest.raises(ValueError, match=field):
        SolveLimits(**{field: value})


# the accumulation models of the search, by name; tanh-coupling with the
# coupling parameter the oracle tests use
MODELS = {"linear-power": AccumulationModel("linear-power"),
          "paper-literal-db": AccumulationModel("paper-literal-db"),
          "tanh-coupling": AccumulationModel("tanh-coupling", h=2e-3)}


def _with_model(inst: Instance, model: str) -> Instance:
    return replace(inst, planner=replace(inst.planner, accumulation_model=MODELS[model]))


def _pinned_case(case: str) -> Instance:
    """A fresh instance of a pinned configuration: the heavy fig2 instance
    of seed 0 or 1, or seed 1 under the paper-literal-db or the
    tanh-coupling model."""
    if case in MODELS:
        return _with_model(_heavy_fig2(1), case)
    return _heavy_fig2(int(case.removeprefix("seed-")))


@pytest.mark.parametrize("model", ["linear-power", "tanh-coupling"])
def test_exact_first_descent_is_greedy(model):
    """Exact takes requests in greedy's order, so under a monotone model
    its first root-to-leaf descent, the only leaf a budget of the request
    count + 2 reaches, is greedy's schedule byte for byte."""
    for seed in range(8):
        inst = _with_model(_heavy_fig2(seed), model)
        limits = SolveLimits(node_budget=len(inst.requests) + 2)
        assert solve_exact(inst, limits).to_json() == solve_greedy(inst).to_json(), seed


@pytest.mark.parametrize("model", sorted(MODELS))
def test_exact_never_below_greedy(model):
    """Unseeded exact at 2n + 3 nodes (n requests; the least budget the
    best-fit descent runs at), 100 and 2,000 nodes is never lexicographically
    below greedy in (throughput, -lambda), and both schedules are valid."""
    for seed in range(8):
        inst = _with_model(_heavy_fig2(seed), model)
        assert solve_mod._density_order(inst) != solve_mod._request_order(inst), seed
        greedy = solve_greedy(inst)
        assert validate.check_schedule(inst, greedy).passed, seed
        for budget in (2 * len(inst.requests) + 3, 100, 2000):
            exact = solve_exact(inst, SolveLimits(node_budget=budget))
            assert validate.check_schedule(inst, exact).passed, (seed, budget)
            assert (exact.throughput_gbps, -exact.lambda_count) >= \
                (greedy.throughput_gbps, -greedy.lambda_count), (seed, budget)


@pytest.mark.parametrize("model", ["linear-power", "tanh-coupling"])
def test_descent_charges_its_nodes(model, monkeypatch):
    """At 2n + 3 nodes the best-fit descent is charged n + 1 and leaves the
    search n + 2, just enough to reach greedy's leaf, so exact answers the
    lexicographically better of the descent's leaf and greedy's schedule,
    the descent's on ties; a seed the descent only ties stays the
    incumbent. One node fewer and the descent does not run. Greedy is one
    first-fit descent and no branch-and-bound."""
    calls = []
    branch, descent_of = solve_mod._branch, solve_mod._descent

    def logged_branch(*args, **kwargs):
        calls.append(("branch", kwargs.get("node_budget")))
        return branch(*args, **kwargs)

    def logged_descent(instance, state, requests, best_fit=False):
        calls.append(("descent", best_fit))
        return descent_of(instance, state, requests, best_fit=best_fit)

    for seed in range(8):
        inst = _with_model(_heavy_fig2(seed), model)
        n = len(inst.requests)
        state = _SearchState(solve_mod._Tables.of(inst, SolveLimits()))
        leaf = descent_of(inst, state, solve_mod._density_order(inst), best_fit=True)
        descent = solve_mod._finish(inst, leaf, optimal=False)
        greedy = solve_greedy(inst)
        greedy_wins = solve_mod._lex_better(greedy.throughput_gbps, greedy.lambda_count,
                                            descent.throughput_gbps, descent.lambda_count)
        monkeypatch.setattr(solve_mod, "_branch", logged_branch)
        monkeypatch.setattr(solve_mod, "_descent", logged_descent)
        calls.clear()
        exact = solve_exact(inst, SolveLimits(node_budget=2 * n + 3))
        assert calls == [("descent", True), ("branch", n + 2)], seed
        assert exact.to_json() == (greedy if greedy_wins else descent).to_json(), seed
        # a seed with the descent's totals and no assignments, to tell them apart
        tied = solve_exact(inst, SolveLimits(node_budget=2 * n + 3),
                           initial=replace(descent, assignments=()))
        assert tied.assignments == (greedy.assignments if greedy_wins else ()), seed
        calls.clear()
        solve_exact(inst, SolveLimits(node_budget=2 * n + 2))
        assert calls == [("branch", 2 * n + 2)], seed
        calls.clear()
        assert solve_greedy(inst).to_json() == greedy.to_json(), seed
        assert calls == [("descent", False)], seed
        monkeypatch.undo()


@pytest.mark.parametrize("model", sorted(MODELS))
def test_best_fit_takes_the_least_added_crosstalk_under_its_cap(model):
    """Replayed pick by pick on a second state, each pick of the best-fit
    descent costs no more lambdas than its request's first committable
    free placement, and no committable free placement under that cap adds
    less crosstalk, measured as the rise in the sum of every commit's
    total; a request is rejected only if none commits. The leaf passes
    check_schedule, and the descent leaves its state with no commit."""
    limits = SolveLimits()
    for seed in range(4):
        inst = _with_model(_heavy_fig2(seed), model)
        tables = solve_mod._Tables.of(inst, limits)
        state = _SearchState(tables)
        order = solve_mod._density_order(inst)
        leaf = solve_mod._descent(inst, state, order, best_fit=True)
        _assert_clean(state, tables.limit)
        report = validate.check_schedule(inst, solve_mod._finish(inst, leaf, optimal=False))
        assert report.passed, (seed, report.violations)
        picks = {a.request_id: a for a in leaf}
        replay = _SearchState(tables)

        def added(placement):
            """The rise in the sum of every commit's total if `placement`
            commits, else None."""
            before = left_sum(record[0] for _, record in replay.entries)
            token = replay.commit(placement)
            if token is None:
                return None
            rise = left_sum(record[0] for _, record in replay.entries) - before
            replay.undo(token)
            return rise

        for r in order:
            placements = tables.group(r, inst).placements
            scores = [(p, added(p)) for p in placements
                      if not p.base * p.mode_slots & replay.occupied]
            committable = [(p, score) for p, score in scores if score is not None]
            if r.id not in picks:
                assert not committable, (seed, r.id)
                continue
            cap = committable[0][0].lambda_count
            (pick, pick_score), = [(p, score) for p, score in committable
                                   if p.assignment(r.id) == picks[r.id]]
            assert pick.lambda_count <= cap, (seed, r.id)
            # scores within _EPS tie, and the two sums round differently
            tolerance = solve_mod._EPS + 1e-12 * max(1.0, abs(pick_score))
            assert all(score >= pick_score - tolerance for p, score in committable
                       if p.lambda_count <= cap), (seed, r.id)
            assert replay.commit(pick) is not None


def test_density_order_ties_exactly():
    """On fig2's 2.5 Gb/s slots, 7.5 and 5 Gb/s (3 and 2 units) tie at 2.5
    Gb/s per unit, as 6.6 and 2.2 Gb/s (3 units and 1) tie at 2.2, which
    float division splits; ties fall back to bandwidth, then id."""
    base = fig2_fixture()
    inst = replace(base, planner=replace(base.planner, granularity_gbps=0.1), requests=tuple(
        Request(rid, "e1", "e2", bw) for rid, bw in
        (("a", 5.0), ("b", 7.5), ("c", 9.0), ("d", 2.2), ("e", 6.6), ("f", 5.0))))
    assert [r.id for r in solve_mod._density_order(inst)] == ["b", "a", "f", "c", "e", "d"]
    # the baseline's frame is one unit per request, so there the two orders coincide
    collapsed = collapse_frame(inst)
    assert solve_mod._density_order(collapsed) == solve_mod._request_order(collapsed)


def _assert_clean(state: _SearchState, limit: float) -> None:
    assert not state.entries and state.occupied == 0
    assert not any(state.by_link) and not any(state.link_cells)
    assert state.limit == limit


@pytest.mark.parametrize("model", ["linear-power", "paper-literal-db"])
def test_branch_leaves_the_shared_state_clean(model):
    """After a first-fit descent, and after `_branch`'s budget stop and
    completed search, the solve's state has nothing committed and its
    limit restored (paper-literal-db's exact search lifts it to inf), so
    a second search on the same state finds what the first did."""
    heavy = _with_model(_heavy_fig2(1), model)
    small = _with_model(fig2_fixture(), model)
    limits = SolveLimits(time_budget_s=3600.0)
    # options None: the first-fit descent, greedy's pass
    for inst, options, stopped in ((heavy, None, False),
                                   (heavy, {"node_budget": 300}, True),
                                   (small, {"node_budget": 10**6}, False)):
        state = _SearchState(solve_mod._Tables.of(inst, limits))
        limit = state.limit
        runs = []
        for order in (solve_mod._request_order(inst), solve_mod._density_order(inst)) * 2:
            if options is None:
                best, exhausted = solve_mod._descent(inst, state, order), False
            else:
                best, exhausted = solve_mod._branch(inst, state, order, **options)
            assert exhausted == stopped, options
            assert best, options
            _assert_clean(state, limit)
            runs.append(best)
        assert runs[:2] == runs[2:], options


@pytest.mark.parametrize("case", ["seed-0", "seed-1", "paper-literal-db"])
def test_solve_order_does_not_leak_through_shared_tables(case):
    """Every order of the three solvers on one instance, whose solves share
    one set of search tables, gives each solver's schedule on a freshly
    loaded instance."""
    limits = SolveLimits(node_budget=2000, time_budget_s=3600.0)
    fresh = {solver: solve(_pinned_case(case), solver, limits).to_json()
             for solver in solve_mod.SOLVERS}
    for order in itertools.permutations(solve_mod.SOLVERS):
        inst = _pinned_case(case)
        assert {solver: solve(inst, solver, limits).to_json() for solver in order} == fresh, \
            order


def test_tables_keyed_by_all_they_depend_on():
    """Instances on one topology that differ in threshold, accumulation model,
    crosstalk, frame, mode count or solve options each get the schedules they
    get alone on an empty network cache."""
    base = _heavy_fig2(0)
    limits = SolveLimits(node_budget=500, time_budget_s=3600.0)
    rows = [[e if e is None else e + 2.0 for e in row] for row in base.crosstalk.db_per_100m]
    variants = [
        (base, limits),
        (replace(base, planner=replace(base.planner, xt_threshold_db=-16.0)), limits),
        (replace(base, planner=replace(base.planner,
                                       accumulation_model=AccumulationModel("paper-literal-db"))),
         limits),
        (replace(base, crosstalk=CrosstalkMatrix(tuple(map(tuple, rows)))), limits),
        (replace(base, frame=FrameConfig(20.0, 10.0)), limits),
        (replace(base, mode_count=3, crosstalk=CrosstalkMatrix(
            tuple(row[:3] for row in base.crosstalk.db_per_100m[:3]))), limits),
        (base, replace(limits, k_paths=1)),
        (base, replace(limits, all_mode_subsets=True)),
    ]

    def outputs(inst, lim):
        tables = solve_mod._Tables.of(inst, lim)
        return ([solve(inst, solver, lim).to_json() for solver in ("exact", "greedy")],
                [[(p.path, p.modes, p.slot_start) for p in tables.group(r, inst).placements]
                 for r in inst.requests])

    def cold(inst, lim):
        solve_mod._cache.network = None
        return outputs(inst, lim)

    shared = [outputs(inst, lim) for inst, lim in variants]
    alone = [cold(inst, lim) for inst, lim in variants]
    assert shared == alone
    # each variant changes what the base instance gives
    assert all(out != alone[0] for out in alone[1:])


def _loaded_case(text: str, variant: str) -> tuple[Instance, SolveLimits]:
    """A heavy fig2 instance loaded from its JSON text, so its topology is
    an object of its own, and its limits: under `variant`, either the
    paper-literal-db model or every mode subset over eight paths."""
    inst = load_instance(text)
    limits = SolveLimits(node_budget=2000, time_budget_s=3600.0)
    if variant == "paper-literal-db":
        inst = _with_model(inst, variant)
    elif variant == "all-mode-subsets":
        limits = replace(limits, all_mode_subsets=True, k_paths=8)
    return inst, limits


@pytest.mark.parametrize("variant", ["default", "paper-literal-db", "all-mode-subsets"])
def test_warm_network_cache_gives_cold_schedules(variant):
    """Instances loaded apart on one network share its cache entry, and
    every solver, run forward and then in reverse order on warm tables,
    gives the schedule it gives on a cold cache."""
    texts = [json.dumps(serialize_instance(_heavy_fig2(seed))) for seed in (0, 1)]
    runs = [(t, solver) for t in range(len(texts)) for solver in solve_mod.SOLVERS]
    cold = {}
    for t, solver in runs:
        solve_mod._cache.network = None
        inst, limits = _loaded_case(texts[t], variant)
        cold[t, solver] = solve(inst, solver, limits).to_json()
    solve_mod._cache.network = None
    entries = set()
    for t, solver in runs + runs[::-1]:
        inst, limits = _loaded_case(texts[t], variant)
        assert solve(inst, solver, limits).to_json() == cold[t, solver], (t, solver)
        entries.add(id(solve_mod._cache.network))
    assert len(entries) == 1


def _on_fibers(base: Instance, length_m: float) -> Instance:
    """`base` with every link `length_m` long: another network."""
    topo = base.topology
    return replace(base, topology=Topology(
        topo.nodes, tuple(replace(l, length_m=length_m) for l in topo.links)))


def test_network_cache_keeps_the_last_network(monkeypatch):
    """A solve on another network replaces the cached one; going back
    rebuilds its tables and gives the same schedules."""
    base = _heavy_fig2(0)
    limits = SolveLimits(node_budget=500, time_budget_s=3600.0)
    first = {solver: solve(_on_fibers(base, 100.0), solver, limits).to_json()
             for solver in solve_mod.SOLVERS}
    solve(_on_fibers(base, 110.0), "greedy", limits)
    assert solve_mod._cache.network[0] == _on_fibers(base, 110.0).topology
    groups = _counting(monkeypatch, "_Group")
    assert {solver: solve(_on_fibers(base, 100.0), solver, limits).to_json()
            for solver in solve_mod.SOLVERS} == first
    assert groups
    assert solve_mod._cache.network[0] == _on_fibers(base, 100.0).topology


def test_network_cache_holds_only_what_the_network_bounds():
    """Distinct traffic on one network plans as it does on a cold cache,
    and the tables it leaves cached hold nothing keyed by traffic: no pair
    or route memo."""
    limits = SolveLimits(node_budget=500, time_budget_s=3600.0)
    cells = [_heavy_fig2(seed) for seed in range(100, 108)]
    cold = []
    for inst in cells:
        solve_mod._cache.network = None
        cold.append(solve(inst, "exact", limits).to_json())
    solve_mod._cache.network = None
    assert [solve(inst, "exact", limits).to_json() for inst in cells] == cold
    for tables in solve_mod._cache.network[2].values():
        assert not hasattr(tables, "pairs") and not hasattr(tables, "interned")
        assert not any(isinstance(part, dict) for group in tables.groups.values()
                       for route in group.routes for part in route)


def _fat_tree_instance(edges: int, aggs: int, cores: int, load_gbps: float,
                       seed: str) -> Instance:
    """fig2's modes, crosstalk, frame and planner on a fat tree of 100 m
    links, under uniform traffic drawn from `seed`."""
    topology = build_fat_tree(edges, aggs, cores, 100.0)
    return replace(fig2_fixture(), topology=topology,
                   requests=gen_uniform_traffic(topology, load_gbps, seed=seed))


def test_placements_hold_nothing_network_wide():
    """On a fat tree, each placement's slot run and (mode, slot) mask fit
    the slot grid, the placements of one route share one `base` int, and
    base * mode_slots sets exactly the (link, mode, slot) cells its
    assignment covers."""
    inst = _fat_tree_instance(6, 3, 2, 60.0, "placements")
    tables = solve_mod._Tables.of(inst, SolveLimits())
    slots, modes = inst.slot_count, inst.mode_count
    checked = 0
    for r in inst.requests:
        bases = {}
        for p in tables.group(r, inst).placements:
            assert 0 < p.run < 1 << slots and 0 < p.mode_slots < 1 << modes * slots
            assert bases.setdefault(p.links, p.base) is p.base
            assert p.base * p.mode_slots == sum(
                1 << (tables.link_index[link] * modes + m) * slots + t
                for link, m, t in p.assignment(r.id).cells())
            checked += 1
        assert len({id(base) for base in bases.values()}) == len(bases)
    assert checked > 500


def test_cache_entry_memory_on_a_16_edge_fat_tree():
    """Greedy on fat_tree(16, 8, 4) at 960 Gb/s leaves a network cache
    entry of at most 4 MB traced (the memory freed when it is dropped): a
    group's placements hold no mask wider than the slot grid but their
    route's shared base."""
    inst = _fat_tree_instance(16, 8, 4, 960.0, "scale:16:0")
    solve_mod._cache.network = None
    gc.collect()
    tracemalloc.start()
    try:
        solve_greedy(inst, SolveLimits(node_budget=500))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        solve_mod._cache.network = None
        gc.collect()
        entry = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    print(f"cache entry: {entry / 1e6:.2f} MB")
    assert entry <= 4_000_000


def test_each_thread_keeps_its_own_network():
    """A solve in another thread neither reads nor replaces this thread's
    cached network, and gives the schedule it gives here."""
    base = _heavy_fig2(0)
    limits = SolveLimits(node_budget=500, time_budget_s=3600.0)
    here = solve(base, "exact", limits).to_json()
    entry = solve_mod._cache.network
    seen = []
    worker = threading.Thread(target=lambda: seen.append(
        (solve(base, "exact", limits).to_json(), solve_mod._cache.network)))
    worker.start()
    worker.join()
    assert seen[0][0] == here
    assert seen[0][1] is not entry and seen[0][1][0] == entry[0]
    assert solve_mod._cache.network is entry


def test_no_solve_writes_to_a_cached_placement():
    """Every solver, under every accumulation model, leaves each cached
    placement of the sliced and the collapsed frame as it was built: the
    tables a solve leaves behind hold nothing that solve learnt."""
    limits = SolveLimits(node_budget=2000, time_budget_s=3600.0)
    cases = [_with_model(_heavy_fig2(0), model) for model in sorted(MODELS)]
    frames = [on for inst in cases for on in (inst, collapse_frame(inst))]

    def snapshot():
        return [tuple(getattr(p, f.name) for f in dataclasses.fields(p))
                for on in frames for r in on.requests
                for p in solve_mod._Tables.of(on, limits).group(r, on).placements]

    before = copy.deepcopy(snapshot())
    for inst in cases:
        for solver in solve_mod.SOLVERS:
            solve(inst, solver, limits)
    assert snapshot() == before


def _commit_log(inst: Instance, limits: SolveLimits, report_blockers: bool):
    """Every solver's schedule on `inst`, the placements committed in order
    with their depth, and the number of commit calls; without
    `report_blockers` the record of the placed victim that rejected a
    candidate (its blocker) is cleared after every commit, so the search
    sets no candidate dead."""
    commit = _SearchState.commit
    calls, accepted = [], []

    def logged(state, new):
        token = commit(state, new)
        if not report_blockers:
            state.rejected_by = None
        calls.append(new)
        if token is not None:
            accepted.append((new.path, new.modes, new.slot_start, len(state.entries)))
        return token

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(_SearchState, "commit", logged)
        schedules = [solve(inst, solver, limits).to_json() for solver in solve_mod.SOLVERS]
    return schedules, accepted, len(calls)


@pytest.mark.parametrize("case", ["seed-0", "seed-1", "paper-literal-db", "tanh-coupling"])
def test_inline_blocker_skip_changes_no_decision(case):
    """Every solver commits the same placements in the same order whether
    or not commit reports a rejected placement's blocker, so no dead mask
    ever drops a candidate commit would accept."""
    limits = SolveLimits(node_budget=2000, time_budget_s=3600.0)
    kept = _commit_log(_pinned_case(case), limits, True)
    forgotten = _commit_log(_pinned_case(case), limits, False)
    assert kept[:2] == forgotten[:2]
    if case == "paper-literal-db":
        # exact checks crosstalk at its leaves there, so only greedy's
        # commits can be rejected, and it tries each request once
        assert kept[2] <= forgotten[2]
    else:
        # the dead masks ran: most rejected commits never happened
        assert kept[2] < forgotten[2] / 2


def _crowded_instance(rng: random.Random) -> Instance:
    """Six to twelve requests over the two links between two nodes, 50 or
    100 m long, on a 1- or 2-slot frame: placements crowd each other, so
    totals cross the limit, and under paper-literal-db, where every term
    is negative, a total over the limit falls back under it."""
    nodes = (NodeSpec("n1", "edge"), NodeSpec("n2", "edge"))
    links = (LinkSpec("n1", "n2", rng.choice([50.0, 100.0])),
             LinkSpec("n2", "n1", rng.choice([50.0, 100.0])))
    modes = rng.randint(2, 4)
    matrix = CrosstalkMatrix(tuple(
        tuple(None if a == v else round(rng.uniform(-30.0, -11.0), 1) for v in range(modes))
        for a in range(modes)))
    slots = rng.randint(1, 2)
    requests = tuple(
        Request(f"r{i + 1}", *rng.sample(["n1", "n2"], 2), rng.choice([2.0, 5.0, 10.0]))
        for i in range(rng.randint(6, 12)))
    return Instance(topology=Topology(nodes, links), requests=requests,
                    frame=FrameConfig(5.0 * slots, 5.0), mode_count=modes, crosstalk=matrix,
                    planner=PlannerConfig(xt_threshold_db=round(rng.uniform(-20.0, -8.0), 1)))


@given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(sorted(MODELS)))
@example(seed=21, model="paper-literal-db")
@settings(max_examples=150, deadline=None)
def test_blocker_memory_changes_no_decision_on_small_instances(seed, model):
    """The same property on small crowded instances under every model; the
    explicit example is one where a dead mask kept under paper-literal-db
    drops a placement greedy commits."""
    inst = _with_model(_crowded_instance(random.Random(seed)), model)
    limits = SolveLimits(node_budget=300, time_budget_s=3600.0)
    kept = _commit_log(inst, limits, True)
    assert kept[:2] == _commit_log(inst, limits, False)[:2]


def _counting(monkeypatch, name: str) -> list:
    """Replace solve.<name> with a wrapper that logs each call's arguments."""
    calls: list = []
    fn = getattr(solve_mod, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(solve_mod, name, counted)
    return calls


class TestRoutesAndGroups:
    def test_route_memo_survives_mutating_a_returned_list(self):
        topo = fig2_fixture().topology
        expected = k_shortest_paths(topo, "e1", "e3", 4)
        returned = solve_mod._routes(topo, "e1", "e3", 4)
        assert returned == expected
        returned.clear()
        returned.append(("e1", "e3"))
        assert solve_mod._routes(topo, "e1", "e3", 4) == expected
        inst = fig2_fixture().with_requests([Request("r", "e1", "e3", 2.0)])
        assert {c.path for c in enumerate_candidates(inst.requests[0], inst, 4)} == \
            {tuple(zip(p, p[1:])) for p in expected}

    def test_yen_runs_once_per_pair_across_solvers(self, monkeypatch):
        inst = _heavy_fig2(0)
        calls = _counting(monkeypatch, "k_shortest_paths")
        limits = SolveLimits(node_budget=200, time_budget_s=3600.0)
        for solver in ("baseline", "exact", "greedy"):
            solve(inst, solver, limits)
        pairs = {(r.source, r.destination) for r in inst.requests}
        assert sorted(c[1:] for c in calls) == sorted((s, d, 4) for s, d in pairs)

    @pytest.mark.parametrize("solver", ["exact", "greedy"])
    def test_candidates_enumerated_once_per_group(self, monkeypatch, solver):
        inst = _heavy_fig2(0)
        calls = _counting(monkeypatch, "_Group")
        solve(inst, solver, SolveLimits(node_budget=200, time_budget_s=3600.0))
        groups = {(r.source, r.destination, inst.slot_units(r)) for r in inst.requests}
        assert len(groups) < len(inst.requests)
        assert len(calls) == len(groups)

    def test_candidates_enumerated_once_per_group_across_solvers(self, monkeypatch):
        inst = _heavy_fig2(0)
        calls = _counting(monkeypatch, "_Group")
        limits = SolveLimits(node_budget=200, time_budget_s=3600.0)
        for solver in ("exact", "greedy"):
            solve(inst, solver, limits)
        # a copy with other requests shares the tables too
        solve(inst.with_requests(inst.requests[::2]), "greedy", limits)
        groups = {(r.source, r.destination, inst.slot_units(r)) for r in inst.requests}
        assert len(calls) == len(groups)
        assert set(solve_mod._Tables.of(inst, limits).groups) == groups


def _reference_commit(instance, placed, records, new):
    """The crosstalk records ([total, index of the last commit that added to
    it]) after committing `new` onto `placed`, or None if it is infeasible,
    from xtalk.pairwise_contribution summed in xtalk.overlap_terms order:
    `new` collects its own terms one by one, and each placed victim gains
    its terms from `new` summed from 0.0."""
    model = instance.planner.accumulation_model
    limit = xtalk.feasibility_limit(instance.planner.xt_threshold_db, model)

    def terms(victim, aggressor):
        return [xtalk.pairwise_contribution(instance.crosstalk, m_a, m_v,
                                            instance.topology.length(link), model)
                for link, m_a, m_v in xtalk.overlap_terms(victim, aggressor)]

    if set(new.cells()) & {cell for a in placed for cell in a.cells()}:
        return None
    own, after, m = 0.0, [list(r) for r in records], len(placed)
    for k, other in enumerate(placed):
        for term in terms(new, other):
            own += term
        inc = 0.0
        for term in terms(other, new):
            inc += term
        if inc:
            after[k] = [records[k][0] + inc, m]
            if not after[k][0] <= limit:
                return None
    if own and not own <= limit:
        return None
    return after + [[own, m]]


def _records(state):
    return [record for _, record in state.entries]


@pytest.mark.parametrize("variant", ["linear-power", "paper-literal-db"])
def test_every_pair_on_one_link_matches_reference(variant):
    """Every pair of placements of two requests on one 170 m link, over all
    mode subsets: the order of a pair's terms shows in the totals' last
    bits. Undo restores the first placement's record."""
    topo = Topology((NodeSpec("n1", "edge"), NodeSpec("n2", "edge")),
                    (LinkSpec("n1", "n2", 170.0),))
    inst = Instance(topology=topo, requests=(Request("a", "n1", "n2", 5.0),
                                             Request("b", "n1", "n2", 4.0)),
                    frame=FrameConfig(20.0, 5.0), mode_count=4,
                    crosstalk=fig2_fixture().crosstalk,
                    planner=PlannerConfig(xt_threshold_db=-3.0,
                                          accumulation_model=AccumulationModel(variant)))
    tables = solve_mod._Tables.of(inst, SolveLimits(all_mode_subsets=True))
    state = _SearchState(tables)
    for x in tables.group(inst.requests[0], inst).placements:
        first = state.commit(x)
        assert _records(state) == [[0.0, 0]]
        for y in tables.group(inst.requests[1], inst).placements:
            expected = _reference_commit(inst, [x.assignment("a")], [[0.0, 0]],
                                         y.assignment("b"))
            token = state.commit(y)
            assert (token is None) == (expected is None)
            if token is not None:
                assert _records(state) == expected
                state.undo(token)
            assert _records(state) == [[0.0, 0]]
        state.undo(first)


@given(picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=16),
       ops=st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=60),
       threshold_db=st.floats(-24.0, -6.0),
       variant=st.sampled_from(["linear-power", "paper-literal-db"]))
# a victim rejection, then a slot conflict
@example(picks=[0, 0, 2], ops=[(True, 0), (True, 14), (True, 0)], threshold_db=-15.0,
         variant="linear-power")
@settings(max_examples=150, deadline=None)
def test_commit_and_undo_match_reference(picks, ops, threshold_db, variant):
    base = fig2_fixture()
    planner = replace(base.planner, xt_threshold_db=threshold_db,
                      accumulation_model=AccumulationModel(variant))
    # requests that share uplinks and downlinks, so placements co-propagate
    inst = replace(base, planner=planner, requests=(
        Request("a", "e1", "e2", 3.0), Request("b", "e1", "e3", 5.0),
        Request("c", "e4", "e2", 2.0), Request("d", "e3", "e2", 8.0)))
    tables = solve_mod._Tables.of(inst, SolveLimits())
    state = _SearchState(tables)
    every = [(r.id, p) for r in inst.requests for p in tables.group(r, inst).placements]
    # a few placements, so a rejected one is often tried again on a changed state
    pool = [every[i % len(every)] for i in picks]
    placed, records, history = [], [], []
    for is_commit, pick in ops:
        if is_commit:
            rid, new = pool[pick % len(pool)]
            expected = _reference_commit(inst, placed, records, new.assignment(rid))
            clash = new.base * new.mode_slots & state.occupied
            token = state.commit(new)
            assert (token is None) == (expected is None)
            # a slot conflict names no record, a victim rejection a live one of this state
            if token is None and clash:
                assert state.rejected_by is None
            elif token is None and state.rejected_by is not None:
                assert any(state.rejected_by is record for record in _records(state))
            if token is not None:
                history.append((token, records))
                placed, records = placed + [new.assignment(rid)], expected
        elif history:
            token, records = history.pop()
            placed = placed[:-1]
            state.undo(token)
        assert _records(state) == records
        assert [p.assignment("x") for p, _ in state.entries] == \
            [replace(a, request_id="x") for a in placed]


def test_free_lists_match_occupancy(monkeypatch):
    """Each group is built once with its footprint, the OR of its placements'
    occupancy masks, and no exact or greedy solve hands commit a placement
    that meets an occupied cell: the memoized free lists the search reads
    hold only the placements the current occupancy leaves free."""
    base = fig2_fixture()
    inst = replace(base, requests=(
        Request("a", "e1", "e2", 3.0), Request("b", "e1", "e3", 5.0),
        Request("c", "e4", "e2", 2.0), Request("d", "e3", "e2", 8.0),
        Request("e", "e1", "e2", 3.0)))
    tables = solve_mod._Tables.of(inst, SolveLimits())
    groups = [tables.group(r, inst) for r in inst.requests]
    assert groups[0] is groups[4]
    assert all(g.footprint == functools.reduce(operator.or_, (p.base * p.mode_slots for p in g.placements))
               for g in groups)

    commit = _SearchState.commit
    offered = []

    def checked(state, new):
        assert not new.base * new.mode_slots & state.occupied
        offered.append(new)
        return commit(state, new)

    monkeypatch.setattr(_SearchState, "commit", checked)
    limits = SolveLimits(node_budget=2000, time_budget_s=3600.0)
    for case in ("seed-0", "seed-1", "paper-literal-db"):
        heavy = _pinned_case(case)
        for solver in ("exact", "greedy"):
            solve(heavy, solver, limits)
    solve(inst, "exact", limits)
    assert len(offered) > 1000


# SHA-256 over enumerate_candidates' (path, modes, slots), in order, for
# every request of _heavy_fig2(0) and _heavy_fig2(1): the candidate order
# every schedule pin above rests on. Kept under the same rule.
PINNED_CANDIDATES = {
    "default": "8c7edcd7d1e8c8aff4a7b3ec3f366fa47a48ea26620f4ca8d460ddf4bbaa7b07",
    "all-mode-subsets": "868c9877b0fc0ffe3d8e74d3e6f51a9661822e77ce308d2f2378e8448a6679c7",
}


@pytest.mark.parametrize("options", ["default", "all-mode-subsets"])
def test_pinned_candidate_order(options):
    k, all_mode_subsets = (4, False) if options == "default" else (8, True)
    digest = hashlib.sha256()
    for seed in (0, 1):
        inst = _heavy_fig2(seed)
        for r in inst.requests:
            cands = enumerate_candidates(r, inst, k, all_mode_subsets)
            digest.update(json.dumps([[c.path, c.modes, c.slot_start, c.slot_end]
                                      for c in cands]).encode() + b"\n")
    assert digest.hexdigest() == PINNED_CANDIDATES[options]


@pytest.mark.parametrize("seed", [0, 1])
def test_greedy_ignores_budgets(seed):
    inst = _heavy_fig2(seed)
    starved = solve_greedy(inst, SolveLimits(node_budget=1, time_budget_s=1e-9))
    assert starved.to_json() == solve_greedy(inst).to_json()


def test_thousand_request_instance_solves_without_recursion():
    """Over a thousand requests, one search level each, exceed Python's
    default recursion limit; every solver still returns a valid schedule."""
    template = fig2_fixture().with_requests([])
    inst = template.with_requests(gen_uniform_traffic(template.topology, 6000.0, seed=0))
    assert len(inst.requests) > 1000
    limits = SolveLimits(node_budget=5000)
    for solver in solve_mod.SOLVERS:
        schedule = solve(inst, solver, limits)
        checked = collapse_frame(inst) if solver == "baseline" else inst
        assert validate.check_schedule(checked, schedule).passed, solver
        assert schedule.assignments, solver


def _two_route_instance() -> Instance:
    """fig2's planner, modes, crosstalk and frame, with one 5 Gb/s request
    from s to t over two routes: s-a-b-t on links of 0.1, 0.2 and 0.3 m,
    and s-c-t on two of 0.3 m. Added left to right, the first route is
    0.6000000000000001 m long; with compensated rounding it is 0.6 m, a
    tie with the second."""
    topo = Topology(tuple(NodeSpec(n, "edge") for n in "sabct"),
                    (LinkSpec("s", "a", 0.1), LinkSpec("a", "b", 0.2), LinkSpec("b", "t", 0.3),
                     LinkSpec("s", "c", 0.3), LinkSpec("c", "t", 0.3)))
    return replace(fig2_fixture(), topology=topo, requests=(Request("r", "s", "t", 5.0),))


def _plans(inst: Instance) -> list:
    """inst's candidates and, per solver on a cold network cache, its
    schedule, its check_schedule report and each accepted request's
    crosstalk report."""
    solve_mod._cache.network = None
    out: list = [enumerate_candidates(inst.requests[0], inst, 4)]
    for solver in solve_mod.SOLVERS:
        solve_mod._cache.network = None
        schedule = solve(inst, solver)
        checked = collapse_frame(inst) if solver == "baseline" else inst
        out += [schedule.to_json(), validate.check_schedule(checked, schedule),
                [xtalk.accumulate_for_request(rid, schedule, checked)
                 for rid in schedule.accepted_ids]]
    return out


@pytest.mark.parametrize("case", ["two-route", "fig2"])
def test_plans_do_not_depend_on_how_sum_rounds(case, monkeypatch):
    """From Python 3.12 the builtin sum of floats compensates its rounding.
    With sum made to do so on any version, every solver's schedule, its
    check and its crosstalk totals stay as they are."""
    inst = _two_route_instance() if case == "two-route" else fig2_fixture()
    plain = _plans(inst)
    if case == "two-route":  # s-c-t is the shorter route
        shorter = (("s", "c"), ("c", "t"))
        assert plain[0][0].path == solve_greedy(inst).assignments[0].path == shorter
    builtin_sum = sum

    def compensated(values, start=0):
        values = list(values)
        if start == 0 and values and all(type(x) is float for x in values):
            return math.fsum(values)
        return builtin_sum(values, start)

    monkeypatch.setattr(builtins, "sum", compensated)
    assert _plans(inst) == plain
