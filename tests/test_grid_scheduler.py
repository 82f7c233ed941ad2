"""Tests for the batch queue: FCFS, backfill, reservations, outages."""

import pytest

from repro.errors import SchedulingError
from repro.grid import BatchQueue, ComputeResource, EventLoop, Job, JobState


def make_queue(procs=100, speed=1.0, load=0.0):
    loop = EventLoop()
    r = ComputeResource("X", "G", total_procs=procs, speed=speed,
                        background_load=load)
    return BatchQueue(r, loop), loop


class TestBasicScheduling:
    def test_single_job_runs(self):
        q, loop = make_queue()
        j = Job("a", procs=50, duration_hours=2.0)
        q.submit(j)
        loop.run()
        assert j.state is JobState.COMPLETED
        assert j.start_time == 0.0
        assert j.end_time == 2.0

    def test_fcfs_when_full(self):
        q, loop = make_queue(procs=100)
        j1 = Job("a", 100, 2.0)
        j2 = Job("b", 100, 1.0)
        q.submit(j1)
        q.submit(j2)
        loop.run()
        assert j1.end_time == 2.0
        assert j2.start_time == 2.0

    def test_parallel_fit(self):
        q, loop = make_queue(procs=100)
        jobs = [Job(f"j{i}", 25, 1.0) for i in range(4)]
        for j in jobs:
            q.submit(j)
        loop.run()
        assert all(j.start_time == 0.0 for j in jobs)

    def test_speed_scales_walltime(self):
        q, loop = make_queue(speed=2.0)
        j = Job("a", 10, 4.0)
        q.submit(j)
        loop.run()
        assert j.end_time == pytest.approx(2.0)

    def test_background_load_reduces_capacity(self):
        q, _ = make_queue(procs=100, load=0.6)
        assert q.capacity == 40
        with pytest.raises(SchedulingError):
            q.submit(Job("big", 50, 1.0))

    def test_too_large_rejected(self):
        q, _ = make_queue(procs=100)
        with pytest.raises(SchedulingError):
            q.submit(Job("big", 200, 1.0))


class TestBackfill:
    def test_small_job_backfills(self):
        q, loop = make_queue(procs=100)
        running = Job("running", 80, 4.0)
        head = Job("head", 100, 2.0)     # must wait for 'running'
        small = Job("small", 20, 2.0)    # fits beside 'running', ends before head starts
        q.submit(running)
        q.submit(head)
        q.submit(small)
        loop.run()
        assert small.start_time == 0.0   # backfilled
        assert head.start_time == pytest.approx(4.0)

    def test_backfill_never_delays_head(self):
        q, loop = make_queue(procs=100)
        running = Job("running", 80, 4.0)
        head = Job("head", 100, 2.0)
        blocker = Job("blocker", 20, 10.0)  # would delay head if started
        q.submit(running)
        q.submit(head)
        q.submit(blocker)
        loop.run()
        assert head.start_time == pytest.approx(4.0)
        assert blocker.start_time >= head.start_time

    def test_utilization_tracked(self):
        q, loop = make_queue(procs=100)
        q.submit(Job("a", 100, 2.0))
        loop.run()
        assert q.utilization(horizon=2.0) == pytest.approx(1.0)
        # Half of a 4-hour horizon.
        assert q.utilization(horizon=4.0) == pytest.approx(0.5)


class TestReservations:
    def test_reservation_blocks_jobs(self):
        q, loop = make_queue(procs=100)
        q.reserve(start=1.0, duration=2.0, procs=100)
        j = Job("a", 100, 2.0)
        q.submit(j)
        loop.run()
        # Job would overlap [1, 3): cannot start at 0; starts after the window.
        assert j.start_time >= 3.0

    def test_job_fits_before_reservation_window(self):
        q, loop = make_queue(procs=100)
        q.reserve(start=5.0, duration=2.0, procs=100)
        j = Job("a", 100, 2.0)
        q.submit(j)
        loop.run()
        assert j.start_time == 0.0

    def test_capacity_overcommit_rejected(self):
        q, _ = make_queue(procs=100)
        q.reserve(start=1.0, duration=2.0, procs=60)
        with pytest.raises(SchedulingError):
            q.reserve(start=2.0, duration=2.0, procs=60)

    def test_cancel_frees_window(self):
        q, loop = make_queue(procs=100)
        res = q.reserve(start=1.0, duration=10.0, procs=100)
        q.cancel_reservation(res.res_id)
        j = Job("a", 100, 2.0)
        q.submit(j)
        loop.run()
        assert j.start_time == 0.0

    def test_cancel_unknown(self):
        q, _ = make_queue()
        with pytest.raises(SchedulingError):
            q.cancel_reservation(99)

    def test_past_reservation_rejected(self):
        q, loop = make_queue()
        loop.schedule(5.0, lambda: None)
        loop.run()
        with pytest.raises(SchedulingError):
            q.reserve(start=1.0, duration=1.0, procs=10)


class TestOutages:
    def test_outage_kills_running(self):
        q, loop = make_queue(procs=100)
        j = Job("a", 100, 10.0)
        q.submit(j)
        q.schedule_outage(start=2.0, duration=5.0)
        loop.run()
        assert j.state is JobState.KILLED
        assert j in q.killed

    def test_queue_closed_during_outage(self):
        q, loop = make_queue(procs=100)
        q.schedule_outage(start=0.5, duration=10.0)
        j = Job("late", 100, 1.0)
        loop.schedule(1.0, lambda: q.submit(j))
        loop.run()
        # Dispatched only after the outage ends.
        assert j.start_time >= 10.5
        assert j.state is JobState.COMPLETED

    def test_outage_validation(self):
        q, _ = make_queue()
        with pytest.raises(SchedulingError):
            q.schedule_outage(start=0.0, duration=0.0)


class TestUtilizationGuards:
    def test_empty_trace_returns_zero(self):
        # Regression: the old guard (`a or b and c`) indexed trace[-1]
        # before checking emptiness and raised IndexError.
        q, loop = make_queue()
        q.utilization_trace = []
        loop.run()
        assert q.utilization(horizon=10.0) == 0.0

    def test_zero_horizon_returns_zero(self):
        q, _ = make_queue()
        assert q.utilization() == 0.0
        assert q.utilization(horizon=0.0) == 0.0

    def test_single_sample_at_horizon_returns_zero(self):
        q, _ = make_queue()
        q.utilization_trace = [(10.0, 50)]
        assert q.utilization(horizon=10.0) == 0.0

    def test_single_sample_before_horizon_integrates(self):
        q, _ = make_queue(procs=100)
        q.utilization_trace = [(0.0, 50)]
        assert q.utilization(horizon=10.0) == pytest.approx(0.5)


class TestOverlappingOutages:
    def test_first_come_up_does_not_resurrect_inside_second_window(self):
        # Regression: outage A = [5, 10), outage B = [7, 20).  A's come_up
        # at t=10 used to reopen the queue inside B's window.
        q, loop = make_queue()
        q.schedule_outage(5.0, 5.0)
        q.schedule_outage(7.0, 13.0)
        j = Job("late", 50, 1.0)
        loop.schedule(6.0, lambda: q.submit(j))
        loop.run()
        assert j.state is JobState.COMPLETED
        assert j.start_time >= 20.0

    def test_no_double_kill_on_overlap(self):
        # A job running when outage A hits must be killed exactly once even
        # though outage B's go_down fires while the queue is already down.
        q, loop = make_queue()
        j = Job("victim", 50, 100.0)
        q.submit(j)
        q.schedule_outage(5.0, 5.0)
        q.schedule_outage(7.0, 13.0)
        loop.run(until=25.0)
        assert q.killed.count(j) == 1
        assert q.procs_in_use == 0  # not driven negative

    def test_contained_overlap_respects_longest_window(self):
        # B = [6, 8) entirely inside A = [5, 12): B's come_up at 8 must not
        # reopen the queue before A's end.
        q, loop = make_queue()
        q.schedule_outage(5.0, 7.0)
        q.schedule_outage(6.0, 2.0)
        j = Job("late", 50, 1.0)
        loop.schedule(6.5, lambda: q.submit(j))
        loop.run()
        assert j.start_time >= 12.0

    def test_disjoint_outages_unaffected(self):
        q, loop = make_queue()
        q.schedule_outage(2.0, 2.0)
        q.schedule_outage(10.0, 2.0)
        j = Job("between", 50, 1.0)
        loop.schedule(5.0, lambda: q.submit(j))
        loop.run()
        assert j.start_time == pytest.approx(5.0)
        assert j.state is JobState.COMPLETED
