"""Tests for the synthetic background workload."""

import pytest

from repro.errors import ConfigurationError
from repro.grid import (
    BackgroundWorkload,
    BatchQueue,
    ComputeResource,
    EventLoop,
    Job,
    JobState,
)


def fresh_queue(procs=1024):
    loop = EventLoop()
    # No deterministic shaving: contention is explicit here.
    return BatchQueue(ComputeResource("X", "G", procs), loop), loop


class TestBackgroundWorkload:
    def test_injects_jobs(self):
        q, loop = fresh_queue()
        jobs = BackgroundWorkload().inject(q, horizon_hours=100.0, seed=1)
        assert jobs
        loop.run()
        assert all(j.state is JobState.COMPLETED for j in jobs)

    def test_utilization_near_target(self):
        q, loop = fresh_queue()
        wl = BackgroundWorkload(target_utilization=0.5)
        wl.inject(q, horizon_hours=2000.0, seed=2)
        loop.run(until=2000.0)
        u = q.utilization(horizon=2000.0)
        assert u == pytest.approx(0.5, abs=0.15)

    def test_campaign_slower_with_contention(self):
        """Full-width probe jobs, one every 25 h, wait longer in total on a
        contended queue than on an idle one."""
        def probe_wait(contended: bool) -> float:
            q, loop = fresh_queue(procs=512)
            if contended:
                BackgroundWorkload(target_utilization=0.7).inject(
                    q, horizon_hours=300.0, seed=3)
            probes = [Job(f"probe-{k}", procs=512, duration_hours=1.0)
                      for k in range(10)]
            for k, probe in enumerate(probes):
                loop.schedule_at(25.0 * (k + 1),
                                 lambda p=probe: q.submit(p))
            loop.run()
            return sum(p.wait_hours for p in probes)

        assert probe_wait(True) > probe_wait(False)

    def test_deterministic(self):
        q1, l1 = fresh_queue()
        q2, l2 = fresh_queue()
        a = BackgroundWorkload().inject(q1, 200.0, seed=7)
        b = BackgroundWorkload().inject(q2, 200.0, seed=7)
        assert [(j.procs, j.duration_hours) for j in a] == \
            [(j.procs, j.duration_hours) for j in b]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BackgroundWorkload(target_utilization=1.5)
        q, _ = fresh_queue()
        with pytest.raises(ConfigurationError):
            BackgroundWorkload().inject(q, horizon_hours=0.0)
