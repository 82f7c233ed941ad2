"""Tests for the heartbeat failure detector."""

import pytest

from repro.errors import ConfigurationError
from repro.grid import BatchQueue, ComputeResource, EventLoop, Job
from repro.obs import Obs
from repro.resil import HeartbeatFailureDetector, SiteHealth


def make_queue(loop, name="SITE", procs=256):
    return BatchQueue(ComputeResource(name, "TeraGrid", procs), loop)


class TestDetectorBasics:
    def test_watch_is_idempotent(self):
        loop = EventLoop()
        det = HeartbeatFailureDetector(loop)
        q = make_queue(loop)
        det.watch(q)
        det.watch(q)
        assert det.sites == ["SITE"]
        assert det.watching("SITE")
        assert not det.watching("OTHER")

    def test_unknown_site_raises(self):
        det = HeartbeatFailureDetector(EventLoop())
        with pytest.raises(ConfigurationError):
            det.health("nope")


class TestDetection:
    def test_healthy_site_stays_alive_and_loop_drains(self):
        loop = EventLoop()
        q = make_queue(loop)
        det = HeartbeatFailureDetector(loop)
        det.watch(q)
        q.submit(Job("j", 128, 2.0))
        loop.run()
        assert det.health("SITE") is SiteHealth.ALIVE
        assert det.transitions == []
        # The detector must go quiet once the work is done.
        assert loop.now < 10.0

    def test_outage_walks_suspect_then_dead_then_recovers(self):
        loop = EventLoop()
        q = make_queue(loop)
        det = HeartbeatFailureDetector(loop)
        det.watch(q)
        q.schedule_outage(1.0, 5.0)
        loop.run()
        states = [(site, old, new) for _t, site, old, new in det.transitions]
        assert states == [
            ("SITE", SiteHealth.ALIVE, SiteHealth.SUSPECT),
            ("SITE", SiteHealth.SUSPECT, SiteHealth.DEAD),
            ("SITE", SiteHealth.DEAD, SiteHealth.ALIVE),
        ]
        assert det.health("SITE") is SiteHealth.ALIVE

    def test_detection_lag_not_oracle(self):
        """The detector must confirm death *after* the outage starts —
        it observes missed beats, it does not read the flag."""
        loop = EventLoop()
        q = make_queue(loop)
        det = HeartbeatFailureDetector(loop)
        det.watch(q)
        q.schedule_outage(2.0, 10.0)
        loop.run()
        dead_at = next(t for t, _s, _o, new in det.transitions
                       if new is SiteHealth.DEAD)
        assert dead_at >= 2.0 + 4 * 0.5 - 1.0  # confirm lag, minus slack

    def test_short_blip_below_suspect_threshold_is_invisible(self):
        loop = EventLoop()
        q = make_queue(loop)
        det = HeartbeatFailureDetector(loop)
        det.watch(q)
        q.schedule_outage(1.0, 0.5)  # under SUSPECT_AFTER missed beats
        loop.run()
        assert all(new is not SiteHealth.DEAD
                   for _t, _s, _o, new in det.transitions)

    def test_is_alive_gives_suspects_benefit_of_doubt(self):
        loop = EventLoop()
        q = make_queue(loop)
        det = HeartbeatFailureDetector(loop)
        det.watch(q)
        q.schedule_outage(1.0, 5.0)
        # Stop mid-outage, after suspicion but before confirmation.
        loop.run(until=2.2)
        assert det.suspected("SITE")
        assert det.is_alive("SITE")


class TestDetectorObs:
    def test_transitions_and_recovery_metrics(self):
        loop = EventLoop()
        obs = Obs()
        q = make_queue(loop)
        det = HeartbeatFailureDetector(loop, obs=obs)
        det.watch(q)
        q.schedule_outage(1.0, 6.0)
        loop.run()
        assert obs.metrics.counter(
            "resil.detector.transitions.SITE").value == 3
        rec = obs.metrics.histogram(
            "resil.detector.recovery_hours.SITE").summary()
        assert rec["count"] == 1
        assert rec["max"] > 0.0
