"""End-to-end deterministic resume: the tentpole acceptance tests.

A SPICE campaign killed mid-flight (chaos hook: the store raises
``CampaignInterrupted`` *after* a durable write, modelling a process kill
between tasks) and re-run against the same store must

* recompute exactly the tasks whose records are missing (asserted via the
  ``store.*`` hit/miss counters),
* produce a PMF bit-identical to the uninterrupted run, and
* produce a canonical run report byte-identical to the uninterrupted run.
"""

import os

import numpy as np
import pytest

from repro.errors import CampaignInterrupted
from repro.obs import Obs, campaign_run_report, canonical_run_report
from repro.rng import stream_for
from repro.store import ResultStore, canonical_json
from repro.workflow import SpiceCampaign, build_default_federation

SEED = 2005


def run_campaign(store_root, *, interrupt_after=None, replicas=6,
                 chaos=False):
    """One instrumented campaign against a store; returns everything."""
    obs = Obs()
    federation = build_default_federation(obs=obs)
    store = ResultStore(store_root, obs=obs)
    store.interrupt_after_writes = interrupt_after
    resil = None
    if chaos:
        from repro.grid.failures import FailureInjector
        from repro.resil import Resilience

        resil = Resilience.for_federation(
            federation, seed=SEED, obs=obs,
            failure_threshold=2, reset_timeout_hours=6.0)
        injector = FailureInjector(seed=stream_for(SEED, "resil", "chaos"))
        queues = federation.all_queues()
        site = sorted(queues)[0]
        injector.hardware_failure(queues[site], 2.0, repair_hours=12.0)
    campaign = SpiceCampaign(
        federation=federation, replicas_per_cell=replicas, seed=SEED,
        obs=obs, resil=resil, store=store)
    result = campaign.run()
    report = campaign_run_report(result, obs, store=store,
                                 command="campaign", seed=SEED)
    return result, report, store


def n_shards(store):
    return len({fp[:2] for fp in store.fingerprints()})


def canonical_bytes(report):
    return canonical_json(canonical_run_report(report)).encode()


class TestDeterministicResume:
    #: Tasks completed before the "kill" — mid-flight through the paper's
    #: 72-job batch.
    N_DONE = 29

    @pytest.fixture(scope="class")
    def control(self, tmp_path_factory):
        root = os.fspath(tmp_path_factory.mktemp("control") / "store")
        return run_campaign(root)

    @pytest.fixture(scope="class")
    def resumed(self, tmp_path_factory):
        root = os.fspath(tmp_path_factory.mktemp("resumed") / "store")
        with pytest.raises(CampaignInterrupted):
            run_campaign(root, interrupt_after=self.N_DONE)
        # Only the durably-written records survived the kill.
        assert len(ResultStore(root)) == self.N_DONE
        return run_campaign(root)

    def test_control_ran_all_72_jobs(self, control):
        result, _report, store = control
        assert len(result.batch.jobs) == 72
        assert store.stats() == {
            "hits": 0, "misses": 72, "writes": 72,
            "corrupt_evicted": 0, "records": 72,
            "shards": n_shards(store), "reindexed_shards": 0,
        }

    def test_resume_recomputes_exactly_the_missing_tasks(self, resumed):
        _result, _report, store = resumed
        assert store.stats() == {
            "hits": self.N_DONE,
            "misses": 72 - self.N_DONE,
            "writes": 72 - self.N_DONE,
            "corrupt_evicted": 0,
            "records": 72,
            "shards": n_shards(store),
            "reindexed_shards": 0,
        }

    def test_resumed_store_content_identical_to_control(
            self, control, resumed):
        assert control[2].content_digest() == resumed[2].content_digest()

    def test_resumed_pmf_bit_identical_to_control(self, control, resumed):
        pmf_a, pmf_b = control[0].pmf, resumed[0].pmf
        assert control[0].optimal_parameters == resumed[0].optimal_parameters
        np.testing.assert_array_equal(pmf_a.values, pmf_b.values)
        np.testing.assert_array_equal(pmf_a.displacements,
                                      pmf_b.displacements)
        # Every cell's raw physics, not just the winner's estimate.
        for key, ens in control[0].batch.study.ensembles.items():
            np.testing.assert_array_equal(
                ens.works, resumed[0].batch.study.ensembles[key].works)

    def test_resumed_canonical_report_byte_identical(self, control, resumed):
        assert canonical_bytes(control[1]) == canonical_bytes(resumed[1])

    def test_volatile_fields_differ_but_are_stripped(self, control, resumed):
        """The raw reports *do* disagree on work-performed counters — the
        canonical projection is load-bearing, not a no-op."""
        assert control[1]["physics"]["je_samples"] == 72
        assert resumed[1]["physics"]["je_samples"] == 72 - self.N_DONE
        assert "je_samples" not in canonical_run_report(control[1])["physics"]


class TestSkipCompleted:
    """The grid view of resume: jobs backed by store records short-circuit."""

    def make_phase(self, store, *, skip_completed=False, obs=None):
        from repro.workflow import BatchPhase

        obs = obs if obs is not None else Obs()
        return BatchPhase(
            federation=build_default_federation(obs=obs),
            kappas=(100.0,), velocities=(12.5, 25.0),
            replicas_per_cell=2, window=(-2.0, 2.0),
            seed=SEED, obs=obs, store=store, skip_completed=skip_completed)

    def test_all_jobs_short_circuit_after_a_full_run(self, result_store):
        first = self.make_phase(result_store).run()
        assert len(first.campaign.completed) == 4
        assert not first.campaign.short_circuited

        obs = Obs()
        second = self.make_phase(result_store, obs=obs,
                                 skip_completed=True).run()
        assert not second.campaign.completed
        assert len(second.campaign.short_circuited) == 4
        assert second.campaign.all_completed
        assert obs.metrics.counter("grid.shortcircuited").value == 4
        # Physics comes entirely from the store, and agrees.
        assert result_store.stats()["hits"] >= 4
        assert second.optimal == first.optimal
        np.testing.assert_array_equal(
            first.study.estimates[first.optimal].values,
            second.study.estimates[second.optimal].values)

    def test_partial_store_short_circuits_only_backed_jobs(
            self, result_store):
        result_store.interrupt_after_writes = 2
        with pytest.raises(CampaignInterrupted):
            self.make_phase(result_store).run()
        result_store.interrupt_after_writes = None

        result = self.make_phase(result_store, skip_completed=True).run()
        done = {j.name for j in result.campaign.short_circuited}
        scheduled = {j.name for j in result.campaign.completed}
        assert len(done) == 2 and len(scheduled) == 2
        assert done.isdisjoint(scheduled)
        assert done | scheduled == {j.name for j in result.jobs}
        assert result.campaign.all_completed
        for job in result.campaign.short_circuited:
            assert job.completed_fraction == 1.0

    def test_job_names_map_one_to_one_onto_store_fingerprints(
            self, result_store):
        from repro.smd import parameter_grid

        phase = self.make_phase(result_store)
        phase.run()
        protocols = parameter_grid(kappas=(100.0,), velocities=(12.5, 25.0),
                                   distance=4.0, start_z=-2.0)
        pairs = phase.job_task_fingerprints(protocols)
        assert len(pairs) == 4
        assert {name for name, _ in pairs} == {
            j.name for j in phase.build_jobs(protocols)}
        for _name, fp in pairs:
            assert fp in result_store


class TestResumeUnderChaos:
    """Kill + resume composed with the chaos harness's injected faults."""

    def test_resume_is_bit_identical_under_injected_faults(self, tmp_path):
        root_a = os.fspath(tmp_path / "a")
        root_b = os.fspath(tmp_path / "b")
        control = run_campaign(root_a, replicas=2, chaos=True)
        with pytest.raises(CampaignInterrupted):
            run_campaign(root_b, replicas=2, chaos=True, interrupt_after=10)
        resumed = run_campaign(root_b, replicas=2, chaos=True)
        assert resumed[2].stats()["hits"] == 10
        assert resumed[2].stats()["misses"] == 24 - 10
        # Identical fault schedule + identical physics -> identical report.
        assert canonical_bytes(control[1]) == canonical_bytes(resumed[1])
        assert control[1]["cost"]["requeues"] == resumed[1]["cost"]["requeues"]
        np.testing.assert_array_equal(control[0].pmf.values,
                                      resumed[0].pmf.values)
