import random
from dataclasses import replace

import pytest

from conftest import CountingMode, random_micro_instance, two_request_200m_instance
from otssplan import validate
from otssplan.harness import fig2_fixture
from otssplan.model import collapse_frame
from otssplan.solve import (Assignment, Schedule, solve_baseline_conventional,
                            solve_exact, solve_greedy)


def empty_schedule(instance) -> Schedule:
    return Schedule((), tuple(r.id for r in instance.requests), 0.0, 0, True)


class TestCheckSchedule:
    def test_empty_schedule_passes(self, two_request_200m):
        assert validate.check_schedule(two_request_200m, empty_schedule(two_request_200m)).passed

    def test_double_booking_single_eq7_violation(self, two_request_200m):
        link = ("n1", "n2")
        sched = Schedule(
            (Assignment("ra", (link,), (0,), 0, 2),
             Assignment("rb", (link,), (0, 1), 0, 2)),
            (), 10.0, 6, True)
        report = validate.check_schedule(two_request_200m, sched)
        eq7 = [v for v in report.violations if v.family == "eq7"]
        assert len(eq7) == 2  # two double-booked cells on mode 0
        assert "slot 0" in eq7[0].location or "slot" in eq7[0].location

    def test_overlapping_intervals_eq11(self, two_request_200m):
        link = ("n1", "n2")
        sched = Schedule(
            (Assignment("ra", (link,), (0,), 0, 2),
             Assignment("rb", (link,), (1,), 0, 2)),
            (), 10.0, 4, True)
        report = validate.check_schedule(two_request_200m, sched)
        eq11 = [v for v in report.violations if v.family == "eq11"]
        assert eq11
        # the second mode's victim sees 2 * 10^-1.58 -> -12.79 dB
        rb = [v for v in eq11 if "rb" in v.location]
        assert rb and "-12.79" in rb[0].message

    def test_sliced_disjoint_passes(self, two_request_200m):
        link = ("n1", "n2")
        sched = Schedule(
            (Assignment("ra", (link,), (0,), 0, 2),
             Assignment("rb", (link,), (1,), 2, 4)),
            (), 10.0, 4, True)
        assert validate.check_schedule(two_request_200m, sched).passed

    def test_interval_past_the_frame_walks_only_frame_cells(self, two_request_200m):
        """eq8 reports an interval reaching far past the frame; eq7 still
        finds the double booking inside the frame and visits no cell
        outside it."""
        link = ("n1", "n2")
        mode = CountingMode(0, cap=1000)
        sched = Schedule(
            (Assignment("ra", (link,), (0,), 0, 2),
             Assignment("rb", (link,), (mode,), 1, 10**9)),
            (), 10.0, 4, True)
        report = validate.check_schedule(two_request_200m, sched)
        assert [(v.family, v.location) for v in report.violations] == [
            ("eq8", "request rb"), ("eq7", "link ('n1', 'n2') mode 0 slot 1")]
        assert mode.hashes < 10

    def test_dangling_request_is_structural(self, two_request_200m):
        sched = Schedule((Assignment("ghost", (("n1", "n2"),), (0,), 0, 2),),
                         ("ra", "rb"), 0.0, 2, True)
        with pytest.raises(validate.StructureError):
            validate.check_schedule(two_request_200m, sched)

    def test_unknown_link_is_structural(self, two_request_200m):
        sched = Schedule((Assignment("ra", (("n2", "n1"),), (0,), 0, 2),),
                         ("rb",), 5.0, 2, True)
        with pytest.raises(validate.StructureError):
            validate.check_schedule(two_request_200m, sched)

    def test_missing_status_is_structural(self, two_request_200m):
        sched = Schedule((), ("ra",), 0.0, 0, True)  # rb unaccounted
        with pytest.raises(validate.StructureError):
            validate.check_schedule(two_request_200m, sched)

    def test_request_accepted_twice_is_structural(self):
        inst = fig2_fixture()
        schedule = solve_exact(inst)
        copy = replace(schedule.assignment("r1"), path=(("e1", "a2"), ("a2", "e2")))
        twice = replace(schedule, assignments=schedule.assignments + (copy,))
        with pytest.raises(validate.StructureError, match="'r1' accepted more than once"):
            validate.check_schedule(inst, twice)

    def test_solver_outputs_pass_over_corpus(self):
        rng = random.Random("validate-corpus")
        for _ in range(30):
            inst = random_micro_instance(rng)
            for schedule in (solve_exact(inst), solve_greedy(inst)):
                assert validate.check_schedule(inst, schedule).passed
            baseline = solve_baseline_conventional(inst)
            assert validate.check_schedule(collapse_frame(inst), baseline).passed


class TestMutations:
    """Each single-field mutation of a passing schedule is caught."""

    @pytest.fixture
    def dense(self):
        # full grid on one link: any shift or swap must collide or escape
        inst = two_request_200m_instance()
        sched = Schedule(
            (Assignment("ra", (("n1", "n2"),), (0,), 0, 2),
             Assignment("rb", (("n1", "n2"),), (0,), 2, 4)),
            (), 10.0, 4, True)
        assert validate.check_schedule(inst, sched).passed
        return inst, sched

    def shifted(self, a, delta):
        return replace(a, slot_start=a.slot_start + delta, slot_end=a.slot_end + delta)

    def test_shift_interval_caught(self, dense):
        inst, sched = dense
        mutated = Schedule((self.shifted(sched.assignments[0], 1),) + sched.assignments[1:],
                           (), 10.0, 4, True)
        report = validate.check_schedule(inst, mutated)
        assert any(v.family == "eq7" for v in report.violations)

    def test_shift_out_of_frame_caught(self, dense):
        inst, sched = dense
        mutated = Schedule(sched.assignments[:1] + (self.shifted(sched.assignments[1], 1),),
                           (), 10.0, 4, True)
        report = validate.check_schedule(inst, mutated)
        assert any(v.family == "eq8" for v in report.violations)

    def test_swap_mode_caught(self, dense):
        inst, sched = dense
        # move rb onto mode 1 overlapping ra's interval via a widened span
        mutated = Schedule(
            (sched.assignments[0],
             replace(sched.assignments[1], modes=(1,), slot_start=0, slot_end=2)),
            (), 10.0, 4, True)
        report = validate.check_schedule(inst, mutated)
        assert any(v.family == "eq11" for v in report.violations)

    def test_drop_link_caught(self):
        from otssplan.harness import fig2_fixture
        inst = fig2_fixture()
        sched = solve_exact(inst)
        victim = sched.assignments[0]
        assert len(victim.path) >= 2
        mutated = Schedule((replace(victim, path=victim.path[1:]),) + sched.assignments[1:],
                           sched.rejected, sched.throughput_gbps, sched.lambda_count, True)
        report = validate.check_schedule(inst, mutated)
        assert any(v.family == "eq2" for v in report.violations)

    def test_shrink_interval_caught(self, dense):
        inst, sched = dense
        mutated = Schedule(
            (replace(sched.assignments[0], slot_end=1),) + sched.assignments[1:],
            (), 10.0, 3, True)
        report = validate.check_schedule(inst, mutated)
        assert any(v.family == "eq10" for v in report.violations)


class TestMetrics:
    def test_all_rejected_zero(self, two_request_200m):
        assert validate.throughput_gbps(two_request_200m,
                                        empty_schedule(two_request_200m)) == 0

    def test_throughput_sum(self, two_request_200m):
        s = solve_exact(two_request_200m)
        assert validate.throughput_gbps(two_request_200m, s) == 10.0

    def test_resource_usage(self):
        a = Assignment("r", (("x", "y"), ("y", "z")), (0,), 0, 2)
        assert validate.resource_usage(Schedule((a,), (), 0.0, 4, True)) == 4
        b = replace(a, modes=(0, 1))
        assert validate.resource_usage(Schedule((b,), (), 0.0, 8, True)) == 8

    def test_metrics_match_solver_reported(self):
        rng = random.Random("metrics-match")
        for _ in range(15):
            inst = random_micro_instance(rng)
            s = solve_exact(inst)
            assert validate.throughput_gbps(inst, s) == pytest.approx(s.throughput_gbps)
            assert validate.resource_usage(s) == s.lambda_count
