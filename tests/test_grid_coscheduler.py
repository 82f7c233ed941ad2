"""Tests for cross-grid co-scheduling (Sections V-C3 and V-C6)."""

import pytest

from repro.errors import CoSchedulingError
from repro.grid import (
    BatchQueue,
    ComputeResource,
    CoScheduler,
    EventLoop,
    ManualReservationWorkflow,
    ReservationRequest,
)


def setup_queues(names=("NCSA", "NGS-Manchester")):
    loop = EventLoop()
    return {
        n: BatchQueue(ComputeResource(n, "G", 512), loop) for n in names
    }


def perfect_workflows(names):
    return {n: ManualReservationWorkflow(error_rate=0.0, seed=i)
            for i, n in enumerate(names)}


class TestCoScheduler:
    def test_all_or_nothing_success(self):
        names = ("NCSA", "NGS-Manchester")
        queues = setup_queues(names)
        cs = CoScheduler(perfect_workflows(names), lightpath_success_rate=1.0, seed=0)
        reqs = {n: ReservationRequest(10.0, 4.0, 128) for n in names}
        result = cs.co_allocate(queues, reqs, need_lightpath=True)
        assert result.succeeded
        assert set(result.reservations) == set(names)
        assert result.lightpath_allocated

    def test_rollback_on_partial_failure(self):
        names = ("NCSA", "NGS-Manchester")
        queues = setup_queues(names)
        workflows = {
            "NCSA": ManualReservationWorkflow(error_rate=0.0, seed=1),
            # This one always fails (max 1 attempt, certain error).
            "NGS-Manchester": ManualReservationWorkflow(
                error_rate=0.99, human_layers=3, max_attempts=1, seed=2),
        }
        cs = CoScheduler(workflows, seed=3)
        reqs = {n: ReservationRequest(10.0, 4.0, 128) for n in names}
        result = cs.co_allocate(queues, reqs)
        assert not result.succeeded
        assert result.rolled_back
        # Nothing left behind on either queue.
        assert all(not q.reservations for q in queues.values())

    def test_lightpath_failure_rolls_back(self):
        names = ("NCSA",)
        queues = setup_queues(names)
        cs = CoScheduler(perfect_workflows(names), lightpath_success_rate=0.0, seed=4)
        result = cs.co_allocate(queues, {"NCSA": ReservationRequest(5.0, 2.0, 64)},
                                need_lightpath=True)
        assert not result.succeeded
        assert not queues["NCSA"].reservations

    def test_coordination_cost_accumulates(self):
        names = ("A", "B", "C")
        queues = setup_queues(names)
        workflows = {n: ManualReservationWorkflow(error_rate=0.4, seed=i)
                     for i, n in enumerate(names)}
        cs = CoScheduler(workflows, seed=5)
        reqs = {n: ReservationRequest(10.0, 4.0, 64) for n in names}
        result = cs.co_allocate(queues, reqs)
        emails, hours = result.coordination_cost
        assert emails >= 3  # at least one email per grid
        assert hours > 0

    def test_missing_queue_rejected(self):
        cs = CoScheduler(perfect_workflows(("A",)), seed=6)
        with pytest.raises(CoSchedulingError):
            cs.co_allocate({}, {"A": ReservationRequest(1.0, 1.0, 1)})

    def test_missing_workflow_rejected(self):
        queues = setup_queues(("A",))
        cs = CoScheduler(perfect_workflows(("B",)), seed=7)
        with pytest.raises(CoSchedulingError):
            cs.co_allocate(queues, {"A": ReservationRequest(1.0, 1.0, 1)})

    def test_empirical_success_decays_with_grids(self):
        """Monte-Carlo check of the Section V-C6 claim: success probability
        decays roughly exponentially in the number of independent grids."""
        def success_rate(n_grids, trials=60):
            wins = 0
            for t in range(trials):
                names = tuple(f"G{i}" for i in range(n_grids))
                queues = setup_queues(names)
                workflows = {
                    n: ManualReservationWorkflow(
                        error_rate=0.5, human_layers=2, max_attempts=2,
                        seed=1000 * t + i)
                    for i, n in enumerate(names)
                }
                cs = CoScheduler(workflows, seed=t)
                reqs = {n: ReservationRequest(10.0, 4.0, 64) for n in names}
                if cs.co_allocate(queues, reqs).succeeded:
                    wins += 1
            return wins / trials

        p1, p3 = success_rate(1), success_rate(3)
        assert p3 < p1
        # Roughly multiplicative: p3 ~ p1^3 (generous band).
        assert p3 == pytest.approx(p1**3, abs=0.25)
