"""Tests for jobs and resource presets."""

import pytest

from repro.errors import ConfigurationError
from repro.grid import (
    ComputeResource,
    Job,
    JobState,
    ngs_sites,
    spice_batch_jobs,
    teragrid_sites,
)


class TestJob:
    def test_cpu_hours(self):
        j = Job("x", procs=128, duration_hours=8.0)
        assert j.cpu_hours == pytest.approx(1024.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Job("x", procs=0, duration_hours=1.0)
        with pytest.raises(ConfigurationError):
            Job("x", procs=1, duration_hours=0.0)

    def test_wait_hours(self):
        j = Job("x", procs=1, duration_hours=1.0)
        assert j.wait_hours is None
        j.submit_time, j.start_time = 1.0, 4.0
        assert j.wait_hours == 3.0

    def test_requeue_resets(self):
        j = Job("x", procs=1, duration_hours=1.0)
        j.state = JobState.KILLED
        j.resource = "NCSA"
        j.start_time = 5.0
        j.reset_for_requeue()
        assert j.state is JobState.PENDING
        assert j.resource is None
        assert j.requeues == 1

    def test_unique_ids(self):
        a, b = Job("a", 1, 1.0), Job("b", 1, 1.0)
        assert a.job_id != b.job_id


class TestSpiceBatchJobs:
    def test_72_jobs_paper_cost(self):
        jobs = spice_batch_jobs(n_jobs=72)
        assert len(jobs) == 72
        total = sum(j.cpu_hours for j in jobs)
        # 72 * 0.35 ns * 3000 CPU-h/ns = 75,600 ~ the paper's ~75,000.
        assert total == pytest.approx(75600.0)

    def test_proc_mix(self):
        jobs = spice_batch_jobs(n_jobs=4)
        assert [j.procs for j in jobs] == [128, 256, 128, 256]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            spice_batch_jobs(n_jobs=0)


class TestComputeResource:
    def test_wall_hours_speed_scaling(self):
        r = ComputeResource("X", "G", total_procs=100, speed=2.0)
        assert r.wall_hours(10.0) == pytest.approx(5.0)

    def test_reachability_logic(self):
        open_r = ComputeResource("A", "G", 10)
        hidden = ComputeResource("B", "G", 10, hidden_ip=True)
        gated = ComputeResource("C", "G", 10, hidden_ip=True, has_gateway=True)
        assert open_r.externally_reachable
        assert not hidden.externally_reachable
        assert gated.externally_reachable

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ComputeResource("X", "G", total_procs=0)
        with pytest.raises(ConfigurationError):
            ComputeResource("X", "G", 10, background_load=1.0)


class TestPresets:
    def test_teragrid_composition(self):
        names = {r.name for r in teragrid_sites()}
        assert names == {"NCSA", "SDSC", "PSC"}

    def test_psc_has_gateway(self):
        psc = next(r for r in teragrid_sites() if r.name == "PSC")
        assert psc.hidden_ip and psc.has_gateway
        assert psc.externally_reachable

    def test_hpcx_unusable_for_steering(self):
        hpcx = next(r for r in ngs_sites() if r.name == "HPCx")
        assert hpcx.hidden_ip and not hpcx.has_gateway
        assert not hpcx.externally_reachable
        assert not hpcx.lightpath

    def test_single_uk_lightpath(self):
        # The paper: near SC05 only one UK node could coordinate with the US.
        uk_lightpaths = [r.name for r in ngs_sites() if r.lightpath]
        assert uk_lightpaths == ["NGS-Manchester"]
