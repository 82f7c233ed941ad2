"""Tests for failure injection (Section V-C4)."""

import pytest

from repro.errors import ConfigurationError
from repro.grid import (
    BatchQueue,
    CampaignManager,
    ComputeResource,
    EventLoop,
    FailureInjector,
    FederatedGrid,
    Grid,
    Job,
    SECURITY_BREACH_WEEKS,
)


class TestFailureInjector:
    def test_security_breach_weeks_long(self):
        loop = EventLoop()
        q = BatchQueue(ComputeResource("UK", "NGS", 256), loop)
        inj = FailureInjector(seed=0)
        inj.security_breach(q, at_hours=10.0)
        j = Job("late", 128, 1.0)
        loop.schedule(12.0, lambda: q.submit(j))
        loop.run()
        # Queue reopens only after SECURITY_BREACH_WEEKS.
        assert j.start_time >= 10.0 + SECURITY_BREACH_WEEKS * 7 * 24

    def test_breach_recorded(self):
        loop = EventLoop()
        q = BatchQueue(ComputeResource("UK", "NGS", 256), loop)
        inj = FailureInjector(seed=1)
        inj.security_breach(q, at_hours=5.0)
        name, at, dur, reason = inj.injected[0]
        assert name == "UK"
        assert reason == "security breach"
        assert dur == pytest.approx(SECURITY_BREACH_WEEKS * 7 * 24)

    def test_random_failures_poisson(self):
        loop = EventLoop()
        queues = [
            BatchQueue(ComputeResource(f"R{i}", "G", 128), loop) for i in range(4)
        ]
        inj = FailureInjector(seed=2)
        n = inj.random_failures(queues, horizon_hours=5000.0)
        # Expect ~ 4 * 5000 / (200 + 12) = 94 failures.
        assert 50 < n < 150

    def test_validation(self):
        loop = EventLoop()
        q = BatchQueue(ComputeResource("X", "G", 128), loop)
        inj = FailureInjector()
        with pytest.raises(ConfigurationError):
            inj.security_breach(q, at_hours=0.0, weeks=0.0)
        with pytest.raises(ConfigurationError):
            inj.random_failures([q], horizon_hours=-1.0)


class TestRedundancyScenario:
    def run_campaign(self, n_uk_sites):
        """Steering-constrained UK jobs with a breach on the first UK site."""
        loop = EventLoop()
        uk_sites = [
            ComputeResource(f"UK-{i}", "NGS", 256, background_load=0.0)
            for i in range(n_uk_sites)
        ]
        fed = FederatedGrid([Grid("NGS", uk_sites, loop)])
        mgr = CampaignManager(fed)
        inj = FailureInjector(seed=3)
        inj.security_breach(fed.all_queues()["UK-0"], at_hours=1.0, weeks=2.0)
        jobs = [Job(f"j{i}", 128, 4.0) for i in range(12)]
        report = mgr.run(jobs)
        return report

    def test_single_point_of_failure_stalls_weeks(self):
        report = self.run_campaign(n_uk_sites=1)
        assert report.all_completed
        # Time to solution dominated by the breach: > 2 weeks.
        assert report.makespan_hours > 2 * 7 * 24

    def test_redundant_site_absorbs_breach(self):
        report = self.run_campaign(n_uk_sites=2)
        assert report.all_completed
        assert report.makespan_hours < 7 * 24  # far less than the breach


class TestInjectorDeterminism:
    def test_random_failures_identical_under_fixed_seed(self):
        def build(seed):
            loop = EventLoop()
            queues = [
                BatchQueue(ComputeResource(f"S{i}", "G", 256), loop)
                for i in range(4)
            ]
            inj = FailureInjector(seed=seed)
            n = inj.random_failures(queues, horizon_hours=2000.0)
            return n, inj.injected

        n_a, injected_a = build(5)
        n_b, injected_b = build(5)
        assert n_a == n_b
        assert injected_a == injected_b
        assert n_a > 0

    def test_different_seeds_differ(self):
        def build(seed):
            loop = EventLoop()
            q = BatchQueue(ComputeResource("S", "G", 256), loop)
            inj = FailureInjector(seed=seed)
            inj.random_failures([q], horizon_hours=5000.0)
            return inj.injected

        assert build(1) != build(2)


class TestChaosFaults:
    def test_link_flap_schedules_even_hard_cuts(self):
        from repro.net import QoSSpec, ReliableChannel

        ch = ReliableChannel(QoSSpec(1.0, 0.0, 0.0, 1000.0), seed=0,
                             name="link")
        inj = FailureInjector(seed=0)
        inj.link_flap(ch, at_s=0.0, duration_s=60.0, n_flaps=3)
        windows = [(w.start_s, w.end_s) for w in ch._faults]
        assert windows == [(0.0, 10.0), (20.0, 30.0), (40.0, 50.0)]
        assert inj.injected[-1][3] == "link flap x3"

    def test_loss_burst_recorded(self):
        from repro.net import QoSSpec, ReliableChannel

        ch = ReliableChannel(QoSSpec(1.0, 0.0, 0.0, 1000.0), seed=0,
                             name="link")
        inj = FailureInjector(seed=0)
        inj.loss_burst(ch, at_s=5.0, duration_s=2.0, loss_rate=0.25)
        assert ch._faults[0].loss_rate == 0.25
        assert "loss burst" in inj.injected[-1][3]

    def test_network_partition_registers_on_the_bundle(self):
        from repro.resil import Resilience
        from repro.workflow import build_default_federation

        resil = Resilience.for_federation(build_default_federation())
        inj = FailureInjector(seed=0)
        inj.network_partition(resil, "NGS", at_hours=8.0, duration_hours=12.0)
        assert len(resil.partitions) == 1
        assert not resil.reachable("NGS", 10.0)
        assert resil.reachable("NGS", 21.0)
        assert resil.reachable("TeraGrid", 10.0)
        with pytest.raises(ConfigurationError):
            inj.network_partition(resil, "NGS", 0.0, 0.0)

    def test_middleware_faults_recorded(self):
        from repro.grid import GridMiddleware

        mw = GridMiddleware()
        mw.inject_fault("NCSA", "auth", 1.0, 2.0)
        mw.inject_fault("SDSC", "transfer", 3.0, 1.0)
        assert mw.fault_active("NCSA", "auth", 1.5)
        assert not mw.fault_active("NCSA", "auth", 3.5)
        assert mw.fault_active("SDSC", "transfer", 3.5)
