"""Tests for grids, federation and campaign management."""

import pytest

from repro.errors import ConfigurationError
from repro.grid import (
    CampaignManager,
    ComputeResource,
    EventLoop,
    FailureInjector,
    FederatedGrid,
    Grid,
    Job,
    ngs_sites,
    spice_batch_jobs,
    teragrid_sites,
)


def build_federation():
    loop = EventLoop()
    return FederatedGrid([
        Grid("TeraGrid", teragrid_sites(), loop),
        Grid("NGS", ngs_sites(), loop),
    ])


class TestConstruction:
    def test_grid_needs_resources(self):
        with pytest.raises(ConfigurationError):
            Grid("empty", [], EventLoop())

    def test_federation_shares_loop(self):
        l1, l2 = EventLoop(), EventLoop()
        g1 = Grid("A", [ComputeResource("X", "A", 10)], l1)
        g2 = Grid("B", [ComputeResource("Y", "B", 10)], l2)
        with pytest.raises(ConfigurationError):
            FederatedGrid([g1, g2])

    def test_duplicate_resource_names(self):
        loop = EventLoop()
        g1 = Grid("A", [ComputeResource("X", "A", 10)], loop)
        g2 = Grid("B", [ComputeResource("X", "B", 10)], loop)
        with pytest.raises(ConfigurationError):
            FederatedGrid([g1, g2]).all_queues()



class TestCampaign:
    def test_paper_batch_completes_under_a_week(self):
        """Section III: 72 jobs, ~75,000 CPU-h, 'in under a week'."""
        fed = build_federation()
        mgr = CampaignManager(fed)
        jobs = spice_batch_jobs(n_jobs=72, ns_per_job=0.35)
        report = mgr.run(jobs)
        assert report.all_completed
        assert len(report.completed) == 72
        assert report.total_cpu_hours == pytest.approx(75600.0)
        assert report.makespan_hours < 7 * 24.0

    def test_federation_beats_single_site(self):
        def makespan(groups):
            loop = EventLoop()
            fed = FederatedGrid([Grid(n, s, loop) for n, s in groups])
            mgr = CampaignManager(fed)
            return mgr.run(spice_batch_jobs(n_jobs=72, ns_per_job=0.35))

        fed_report = makespan([("TeraGrid", teragrid_sites()), ("NGS", ngs_sites())])
        ncsa_report = makespan([("NCSA", [teragrid_sites()[0]])])
        assert fed_report.makespan_hours < ncsa_report.makespan_hours

    def test_steering_jobs_avoid_unreachable_sites(self):
        fed = build_federation()
        mgr = CampaignManager(fed)
        jobs = spice_batch_jobs(n_jobs=24, ns_per_job=0.35)
        for j in jobs:
            j.steering_required = True
        report = mgr.run(jobs)
        assert report.all_completed
        assert "HPCx" not in report.per_resource_jobs
        # Only lightpath-equipped, reachable UK site is Manchester.
        uk_used = [r for r in report.per_resource_jobs if r.startswith("NGS")]
        assert set(uk_used) <= {"NGS-Manchester"}

    def test_unplaceable_jobs_reported(self):
        loop = EventLoop()
        fed = FederatedGrid([Grid("small", [ComputeResource("tiny", "G", 64)], loop)])
        mgr = CampaignManager(fed)
        report = mgr.run([Job("big", procs=512, duration_hours=1.0)])
        assert not report.all_completed
        assert len(report.unplaced) == 1

    def test_requeue_after_outage(self):
        loop = EventLoop()
        a = ComputeResource("A", "G", 256, background_load=0.0)
        b = ComputeResource("B", "G", 256, background_load=0.0)
        fed = FederatedGrid([Grid("G", [a, b], loop)])
        mgr = CampaignManager(fed)
        qa = fed.all_queues()["A"]
        FailureInjector(seed=0).hardware_failure(qa, at_hours=0.5, repair_hours=100.0)
        jobs = [Job(f"j{i}", 256, 3.0) for i in range(4)]
        report = mgr.run(jobs)
        assert report.all_completed
        assert report.requeues >= 1
        # Everything ends up on B while A is down.
        assert all(
            j.resource == "B" for j in report.completed if j.requeues > 0
        )

    def test_waiting_job_moves_off_a_downed_site(self):
        """A job still queued (never started) on a site that goes down is
        resubmitted to a live eligible site and completes there."""
        loop = EventLoop()
        a = ComputeResource("A", "G", 256, background_load=0.0)
        b = ComputeResource("B", "G", 256, background_load=0.0)
        fed = FederatedGrid([Grid("G", [a, b], loop)])
        qa = fed.all_queues()["A"]
        # A reservation holds all of A, so the job placed there waits.
        qa.reserve(0.0, 24.0, 256)
        FailureInjector(seed=0).hardware_failure(qa, at_hours=0.5, repair_hours=100.0)
        job = Job("w", 256, 3.0)
        report = CampaignManager(fed).run([job])
        assert job.site_history == ["A", "B"]
        assert report.completed == [job] and job.resource == "B"
        assert job.start_time == pytest.approx(1.0)  # the first requeue check
        assert all(procs == 0 for _t, procs in qa.utilization_trace)
        assert not qa.completed and not qa.killed
        assert job.requeues == 1 and report.requeues == 1

    def test_mean_wait_reported(self):
        fed = build_federation()
        mgr = CampaignManager(fed)
        report = mgr.run(spice_batch_jobs(n_jobs=72, ns_per_job=0.35))
        assert report.mean_wait_hours >= 0.0

    def test_estimated_start_prefers_idle(self):
        loop = EventLoop()
        busy = ComputeResource("busy", "G", 256)
        idle = ComputeResource("idle", "G", 256)
        fed = FederatedGrid([Grid("G", [busy, idle], loop)])
        mgr = CampaignManager(fed)
        qb = fed.all_queues()["busy"]
        qb.submit(Job("bg", 256, 10.0))
        j = Job("probe", 256, 1.0)
        chosen = mgr.place(j)
        assert chosen.resource.name == "idle"
