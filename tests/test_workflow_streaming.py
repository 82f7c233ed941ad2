"""Lazy task streaming: bit-identity with the classic drivers, durable
cursor resume, and degraded completion through the dead-letter queue.

The slow-marked class at the bottom is the million-task acceptance test
(`pytest -m slow`): a resumed 10^6-task campaign must clear its completed
prefix in under five seconds, because the cursor skips it without
fingerprinting a single task.
"""

import os
import time

import numpy as np
import pytest

from repro.core import run_parameter_study
from repro.errors import (
    CampaignInterrupted,
    ConfigurationError,
    PermanentTaskFailure,
    StoreError,
)
from repro.perf import synthetic_stream
from repro.pore.reduced import ReducedTranslocationModel, default_reduced_potential
from repro.resil.dlq import DeadLetterQueue
from repro.resil.policy import RetryPolicy
from repro.smd import cell_labels, run_work_ensemble
from repro.smd.protocol import PullingProtocol
from repro.store import ResultStore, ShardedResultStore
from repro.workflow import (
    StreamCursor,
    StreamTask,
    run_streamed_study,
    run_streamed_tasks,
    stream_study_tasks,
)

SEED = 2005


def model():
    return ReducedTranslocationModel(default_reduced_potential())


def grid_protocols():
    return [
        PullingProtocol(kappa_pn=kappa, velocity=velocity, distance=2.0,
                        equilibration_ns=0.0)
        for kappa in (100.0, 1000.0) for velocity in (25.0, 50.0)
    ]


def run_study(store, **kwargs):
    defaults = dict(n_samples=4, n_records=11, n_bootstrap=10, seed=SEED,
                    samples_per_task=2, store=store)
    defaults.update(kwargs)
    return run_parameter_study(model(), grid_protocols(), **defaults)


class TestBitIdentity:
    @pytest.fixture(scope="class")
    def classic(self, tmp_path_factory):
        root = os.fspath(tmp_path_factory.mktemp("classic") / "store")
        return run_study(ResultStore(root))

    def test_streamed_study_matches_classic(self, classic, tmp_path):
        streamed = run_study(ShardedResultStore(os.fspath(tmp_path / "s")),
                             window=3)
        assert streamed.optimal == classic.optimal
        assert sorted(streamed.ensembles) == sorted(classic.ensembles)
        for key, ens in classic.ensembles.items():
            np.testing.assert_array_equal(ens.works,
                                          streamed.ensembles[key].works)
            np.testing.assert_array_equal(ens.positions,
                                          streamed.ensembles[key].positions)
        for key, est in classic.estimates.items():
            np.testing.assert_array_equal(est.values,
                                          streamed.estimates[key].values)

    def test_streamed_accepts_a_generator(self, classic, tmp_path):
        store = ShardedResultStore(os.fspath(tmp_path / "s"))
        streamed = run_parameter_study(
            model(), (p for p in grid_protocols()), n_samples=4,
            n_records=11, n_bootstrap=10, seed=SEED, samples_per_task=2,
            store=store, window=3)
        assert streamed.optimal == classic.optimal

    def test_streamed_and_classic_share_store_records(self, tmp_path):
        """Same descriptors, same fingerprints: a streamed resume over a
        classically-filled store computes nothing."""
        root = os.fspath(tmp_path / "s")
        run_study(ResultStore(root, sync=False))
        protocols = grid_protocols()
        store = ResultStore(os.fspath(tmp_path / "streamed"))
        # Prove fingerprint identity by filling a second store through
        # the streamed path and comparing contents.
        run_study(store, window=3)
        assert (sorted(ResultStore(root).fingerprints())
                == sorted(store.fingerprints()))
        assert len(protocols) * 2 == len(store)  # 2 tasks per cell
        # Exact per-step work (force_sample_time=None) is requestable on
        # the streamed path too, and keys exactly as the classic path does.
        exact = ResultStore(os.fspath(tmp_path / "exact"), sync=False)
        run_work_ensemble(model(), protocols[0], 2, 2, seed=SEED,
                          labels=cell_labels(protocols[0]), store=exact,
                          n_records=11, force_sample_time=None)
        streamed = stream_study_tasks(model(), protocols[:1], 2, 2,
                                      seed=SEED, n_records=11,
                                      force_sample_time=None)
        assert (sorted(task.fingerprint for task in streamed)
                == exact.fingerprints())


class TestCursorResume:
    def test_fully_complete_resume_is_all_hits(self, tmp_path):
        store = ShardedResultStore(os.fspath(tmp_path / "s"))
        first = run_study(store, window=3)
        resumed_store = ShardedResultStore(store.root)
        resumed = run_study(resumed_store, window=3)
        assert resumed_store.stats()["misses"] == 0
        assert resumed.optimal == first.optimal
        for key, est in first.estimates.items():
            np.testing.assert_array_equal(est.values,
                                          resumed.estimates[key].values)

    def test_kill_mid_stream_then_resume_bit_identical(self, tmp_path):
        control = run_study(
            ShardedResultStore(os.fspath(tmp_path / "control")), window=3)
        root = os.fspath(tmp_path / "killed")
        store = ShardedResultStore(root)
        store.interrupt_after_writes = 3
        with pytest.raises(CampaignInterrupted):
            run_study(store, window=3)
        survivor = ShardedResultStore(root)
        assert len(survivor) == 3
        resumed = run_study(survivor, window=3)
        assert survivor.stats()["hits"] == 3
        assert survivor.stats()["writes"] == 5  # 8 tasks total, 3 done
        assert resumed.optimal == control.optimal
        for key, est in control.estimates.items():
            np.testing.assert_array_equal(est.values,
                                          resumed.estimates[key].values)

    def test_completion_pass_skips_prefix_without_fingerprinting(
            self, tmp_path):
        store = ShardedResultStore(os.fspath(tmp_path / "s"), sync=False)
        key = ["cursor-test", SEED, 50]
        cold = run_streamed_tasks(synthetic_stream(50, SEED), store=store,
                                  campaign_key=key, window=8, collect=False)
        assert cold.computed == 50
        assert cold.watermark == 50
        warm = run_streamed_tasks(synthetic_stream(50, SEED), store=store,
                                  campaign_key=key, window=8, collect=False)
        assert warm.skipped_prefix == 50
        assert warm.hits == warm.computed == 0

    def test_cursor_is_campaign_scoped(self, tmp_path):
        store = ShardedResultStore(os.fspath(tmp_path / "s"), sync=False)
        run_streamed_tasks(synthetic_stream(20, SEED), store=store,
                           campaign_key=["a", SEED], window=8, collect=False)
        assert StreamCursor(store.root, ["a", SEED]).load() == 20
        # A different campaign over the same store trusts nothing.
        assert StreamCursor(store.root, ["b", SEED]).load() == 0
        other = run_streamed_tasks(
            synthetic_stream(20, SEED), store=store,
            campaign_key=["b", SEED], window=8, collect=False)
        assert other.skipped_prefix == 0
        assert other.hits == 20  # records are shared; the cursor is not

    def test_cursor_file_is_hidden_from_the_store_scan(self, tmp_path):
        store = ShardedResultStore(os.fspath(tmp_path / "s"), sync=False)
        run_streamed_tasks(synthetic_stream(10, SEED), store=store,
                           campaign_key=["a", SEED], window=4, collect=False)
        assert os.path.isdir(os.path.join(store.root, ".stream"))
        # Re-opening the store tolerates the hidden entry and sees exactly
        # the records.
        assert len(ShardedResultStore(store.root)) == 10

    def test_window_validation(self, tmp_path):
        store = ShardedResultStore(os.fspath(tmp_path / "s"))
        with pytest.raises(ConfigurationError):
            run_streamed_tasks(synthetic_stream(2, SEED), store=store,
                               window=0)
        with pytest.raises(ConfigurationError):
            run_streamed_tasks(synthetic_stream(2, SEED), store=store,
                               window=4, checkpoint_windows=0)


class TestDegradedCompletion:
    def test_poisoned_tasks_dead_letter_and_campaign_completes(
            self, tmp_path):
        store = ShardedResultStore(os.fspath(tmp_path / "s"), sync=False)
        dlq = DeadLetterQueue(os.fspath(tmp_path / "DLQ.jsonl"))
        retry = RetryPolicy(max_attempts=3, base_delay=1e-6)
        report = run_streamed_tasks(
            synthetic_stream(40, SEED, poisoned=frozenset({7, 23})),
            store=store, campaign_key=["p", SEED], window=8, dlq=dlq,
            retry=retry)
        assert report.computed == 38
        assert report.dead_lettered == 2
        assert report.degraded is True
        assert report.retries == 2 * 2  # two failed attempts before the last
        assert sorted(report.failures) == [7, 23]
        assert 7 not in report.results and 23 not in report.results
        assert len(dlq) == 2
        for entry in dlq.entries():
            assert entry["reason"] == "retry-exhausted"
            assert entry["attempts"] == 3

    def test_terminal_failure_without_dlq_refuses_silent_loss(
            self, tmp_path):
        store = ShardedResultStore(os.fspath(tmp_path / "s"), sync=False)
        with pytest.raises(StoreError):
            run_streamed_tasks(
                synthetic_stream(10, SEED, poisoned=frozenset({3})),
                store=store, window=4,
                retry=RetryPolicy(max_attempts=2, base_delay=1e-6))

    def test_permanent_failure_skips_the_retry_loop(self, tmp_path):
        store = ShardedResultStore(os.fspath(tmp_path / "s"), sync=False)
        dlq = DeadLetterQueue(os.fspath(tmp_path / "DLQ.jsonl"))

        def tasks():
            for spec in synthetic_stream(5, SEED):
                if spec.index == 2:
                    def boom():
                        raise PermanentTaskFailure("bad parameters")
                    spec = StreamTask(index=spec.index, key=spec.key,
                                      cell=spec.cell, task=spec.task,
                                      compute=boom)
                yield spec

        report = run_streamed_tasks(
            tasks(), store=store, window=4, dlq=dlq,
            retry=RetryPolicy(max_attempts=5, base_delay=1e-6))
        assert report.retries == 0
        [entry] = dlq.entries()
        assert entry["reason"] == "permanent-failure"
        assert entry["attempts"] == 1

    def test_resume_keeps_dead_letters_dead(self, tmp_path):
        store = ShardedResultStore(os.fspath(tmp_path / "s"), sync=False)
        path = os.fspath(tmp_path / "DLQ.jsonl")
        retry = RetryPolicy(max_attempts=2, base_delay=1e-6)
        kwargs = dict(store=store, campaign_key=["p", SEED], window=8,
                      retry=retry)
        run_streamed_tasks(
            synthetic_stream(30, SEED, poisoned=frozenset({11})),
            dlq=DeadLetterQueue(path), **kwargs)
        dlq = DeadLetterQueue(path)
        resumed = run_streamed_tasks(
            synthetic_stream(30, SEED, poisoned=frozenset({11})),
            dlq=dlq, **kwargs)
        # The poisoned task is recognized from the durable queue — not
        # re-attempted, not re-recorded.
        assert resumed.computed == 0
        assert resumed.retries == 0
        assert resumed.dead_lettered == 1
        assert len(dlq) == 1
        assert dlq.redeliveries == 0
        # Degraded prefix still advances the watermark past the failure.
        assert resumed.watermark == 30

    def test_streamed_study_omits_failed_cells(self, tmp_path):
        store = ShardedResultStore(os.fspath(tmp_path / "s"))
        dlq = DeadLetterQueue(os.fspath(tmp_path / "DLQ.jsonl"))
        poisoned_cell = ("cell", 100000, 25000)

        def poison(spec, attempts):
            if spec.cell == poisoned_cell:
                raise PermanentTaskFailure("cell poisoned")

        merged, report = run_streamed_study(
            model(), grid_protocols(), n_samples=4, samples_per_task=2,
            seed=SEED, store=store, window=3, dlq=dlq,
            retry=RetryPolicy(max_attempts=2, base_delay=1e-6),
            fault=poison, n_records=11)
        assert report.degraded is True
        assert poisoned_cell not in merged
        assert len(merged) == 3  # the other cells completed
        # Degraded cells are omitted wholesale, not half-assembled.
        assert all(ens.works.shape[0] == 4 for ens in merged.values())


@pytest.mark.slow
class TestMillionTaskResume:
    """Acceptance: a resumed 10^6-task campaign clears its completed
    prefix in < 5 s, because the cursor skip never fingerprints it."""

    N = 1_000_000

    def test_million_task_skip_ahead_under_five_seconds(self, tmp_path):
        store = ShardedResultStore(os.fspath(tmp_path / "s"), sync=False)
        key = ["million", SEED, self.N]

        shared = next(synthetic_stream(1, SEED))

        def prefix_stream(n, tail=0):
            """n tasks sharing one descriptor (hits after the first), plus
            `tail` genuinely new tasks at the end."""
            for index in range(n):
                yield StreamTask(index=index, key=shared.key,
                                 cell=shared.cell, task=shared.task,
                                 compute=shared.compute)
            for spec in synthetic_stream(tail, SEED + 1):
                yield StreamTask(index=n + spec.index, key=spec.key,
                                 cell=spec.cell, task=spec.task,
                                 compute=spec.compute)

        cold = run_streamed_tasks(prefix_stream(self.N), store=store,
                                  campaign_key=key, window=4096,
                                  collect=False)
        assert cold.computed == 1
        assert cold.hits == self.N - 1
        assert cold.watermark == self.N

        t0 = time.perf_counter()
        resumed = run_streamed_tasks(prefix_stream(self.N, tail=3),
                                     store=store, campaign_key=key,
                                     window=4096, collect=False)
        wall = time.perf_counter() - t0
        assert resumed.skipped_prefix == self.N
        assert resumed.computed == 3  # went straight to the new misses
        assert wall < 5.0, f"skip-ahead took {wall:.2f}s"
