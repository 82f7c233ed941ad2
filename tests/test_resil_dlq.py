"""Dead-letter queue: durability, idempotency, and the permafail chaos
scenario that drives two poisoned tasks into it."""

import os

import pytest

from repro.errors import ConfigurationError
from repro.resil import SCENARIOS, run_chaos_scenario
from repro.resil.dlq import DLQ_SCHEMA, DeadLetterQueue, task_key_tuple
from repro.store import canonical_json

SEED = 2005


class TestRecording:
    def test_entry_fields_and_schema(self, tmp_path):
        dlq = DeadLetterQueue(os.fspath(tmp_path / "DLQ.jsonl"))
        entry = dlq.record(
            task_key=(SEED, "smd", "cell", 3), reason="retry-exhausted",
            attempts=3, last_error="boom", fingerprint="ab" * 32,
            site_history=["NCSA", "SDSC"])
        assert entry["schema"] == DLQ_SCHEMA
        assert entry["task_key"] == [SEED, "smd", "cell", 3]
        assert entry["reason"] == "retry-exhausted"
        assert entry["attempts"] == 3
        assert entry["site_history"] == ["NCSA", "SDSC"]
        assert task_key_tuple(entry) == (SEED, "smd", "cell", 3)

    def test_unknown_reason_rejected(self, tmp_path):
        dlq = DeadLetterQueue(os.fspath(tmp_path / "DLQ.jsonl"))
        with pytest.raises(ConfigurationError):
            dlq.record(task_key=("a",), reason="gremlins", attempts=1,
                       last_error="x")

    def test_long_error_truncated(self, tmp_path):
        dlq = DeadLetterQueue(os.fspath(tmp_path / "DLQ.jsonl"))
        entry = dlq.record(task_key=("a",), reason="permanent-failure",
                           attempts=1, last_error="x" * 2000)
        assert len(entry["last_error"]) == 500

    def test_contains_by_fingerprint_and_key(self, tmp_path):
        dlq = DeadLetterQueue(os.fspath(tmp_path / "DLQ.jsonl"))
        dlq.record(task_key=("a", 1), reason="retry-exhausted", attempts=2,
                   last_error="x", fingerprint="fp-a")
        dlq.record(task_key=("b", 2), reason="retry-exhausted", attempts=2,
                   last_error="x")
        assert "fp-a" in dlq
        assert ("b", 2) in dlq
        assert ("c", 3) not in dlq


class TestDurabilityAndIdempotency:
    def test_reload_sees_recorded_entries(self, tmp_path):
        path = os.fspath(tmp_path / "DLQ.jsonl")
        first = DeadLetterQueue(path)
        first.record(task_key=("a", 1), reason="retry-exhausted",
                     attempts=3, last_error="boom", fingerprint="fp-a")
        reloaded = DeadLetterQueue(path)
        assert len(reloaded) == 1
        assert reloaded.entries() == first.entries()

    def test_redelivery_counts_but_does_not_duplicate(self, tmp_path):
        path = os.fspath(tmp_path / "DLQ.jsonl")
        dlq = DeadLetterQueue(path)
        for _ in range(3):
            dlq.record(task_key=("a", 1), reason="retry-exhausted",
                       attempts=3, last_error="boom", fingerprint="fp-a")
        assert len(dlq) == 1
        assert dlq.redeliveries == 2
        # Resume path: the reloaded queue dedups too.
        again = DeadLetterQueue(path)
        again.record(task_key=("a", 1), reason="retry-exhausted",
                     attempts=3, last_error="boom", fingerprint="fp-a")
        assert len(again) == 1
        assert again.redeliveries == 1

    def test_summary_histogram(self, tmp_path):
        dlq = DeadLetterQueue(os.fspath(tmp_path / "DLQ.jsonl"))
        dlq.record(task_key=("a",), reason="retry-exhausted", attempts=3,
                   last_error="x")
        dlq.record(task_key=("b",), reason="retry-exhausted", attempts=3,
                   last_error="x")
        dlq.record(task_key=("c",), reason="breaker-rejected", attempts=8,
                   last_error="x")
        summary = dlq.summary()
        assert summary["depth"] == 3
        assert summary["reasons"] == {"breaker-rejected": 1,
                                      "retry-exhausted": 2}
        assert summary["task_keys"] == [["a"], ["b"], ["c"]]


@pytest.mark.chaos
class TestPermafailScenario:
    """The chaos CLI scenario: two poisoned tasks land in the DLQ and the
    campaign completes degraded — deterministically per seed."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_chaos_scenario(SCENARIOS["permafail"], seed=SEED)

    def test_exactly_two_durable_entries(self, report):
        dlq = report["dlq"]
        assert dlq["depth"] == 2
        assert dlq["reasons"] == {"retry-exhausted": 2}
        assert len(dlq["entries"]) == 2
        for entry in dlq["entries"]:
            assert entry["reason"] == "retry-exhausted"
            assert entry["attempts"] == 3
            assert "poisoned" in entry["last_error"]

    def test_campaign_completes_degraded(self, report):
        dlq = report["dlq"]
        assert dlq["degraded"] is True
        assert dlq["tasks"] == dlq["computed"] + dlq["dead_lettered"]
        assert dlq["dead_lettered"] == 2
        # The non-poisoned cells still produced merged ensembles.
        assert len(dlq["completed_cells"]) >= 1

    def test_same_seed_runs_bit_identical(self, report):
        twin = run_chaos_scenario(SCENARIOS["permafail"], seed=SEED)
        assert canonical_json(twin) == canonical_json(report)

    def test_different_seed_still_two_entries(self):
        other = run_chaos_scenario(SCENARIOS["permafail"], seed=SEED + 1)
        assert other["dlq"]["depth"] == 2


class TestRequeue:
    """The requeue/replay half of the queue: `repro dlq retry` and the
    service's DLQ-retry endpoint ride on these semantics."""

    def _seed(self, path):
        dlq = DeadLetterQueue(path)
        dlq.record(task_key=("a", 1), reason="retry-exhausted", attempts=3,
                   last_error="boom", fingerprint="fp-a")
        dlq.record(task_key=("b", 2), reason="permanent-failure", attempts=1,
                   last_error="poisoned", fingerprint="fp-b")
        return dlq

    def test_requeue_all_empties_the_active_set(self, tmp_path):
        dlq = self._seed(os.fspath(tmp_path / "DLQ.jsonl"))
        flipped = dlq.requeue()
        assert [e["fingerprint"] for e in flipped] == ["fp-a", "fp-b"]
        assert dlq.active_entries() == []
        assert len(dlq.requeued_entries()) == 2
        assert len(dlq) == 2  # entries are tombstoned, never deleted

    def test_requeue_by_fingerprint_is_selective(self, tmp_path):
        dlq = self._seed(os.fspath(tmp_path / "DLQ.jsonl"))
        flipped = dlq.requeue(fingerprints=["fp-b", "fp-unknown"])
        assert [e["fingerprint"] for e in flipped] == ["fp-b"]
        assert [e["fingerprint"] for e in dlq.active_entries()] == ["fp-a"]

    def test_requeue_by_task_key(self, tmp_path):
        path = os.fspath(tmp_path / "DLQ.jsonl")
        dlq = DeadLetterQueue(path)
        dlq.record(task_key=("a", 1), reason="unplaceable", attempts=5,
                   last_error="no site")  # no fingerprint: keyed by task
        assert len(dlq.requeue(task_keys=[("a", 1)])) == 1
        assert dlq.active_entries() == []

    def test_requeue_is_idempotent(self, tmp_path):
        dlq = self._seed(os.fspath(tmp_path / "DLQ.jsonl"))
        assert len(dlq.requeue()) == 2
        assert dlq.requeue() == []  # replayed retry: nothing to flip
        assert dlq.summary()["requeued"] == 2

    def test_requeue_survives_reload(self, tmp_path):
        path = os.fspath(tmp_path / "DLQ.jsonl")
        dlq = self._seed(path)
        dlq.requeue(fingerprints=["fp-a"])
        reloaded = DeadLetterQueue(path)
        assert [e["fingerprint"] for e in reloaded.active_entries()] \
            == ["fp-b"]
        assert reloaded.requeued_entries()[0]["fingerprint"] == "fp-a"

    def test_record_after_requeue_reactivates_in_place(self, tmp_path):
        path = os.fspath(tmp_path / "DLQ.jsonl")
        dlq = self._seed(path)
        dlq.requeue(fingerprints=["fp-b"])
        entry = dlq.record(task_key=("b", 2), reason="retry-exhausted",
                           attempts=3, last_error="still failing",
                           fingerprint="fp-b")
        assert entry["requeued"] is False
        assert entry["deliveries"] == 2
        assert entry["reason"] == "retry-exhausted"  # refreshed
        assert entry["last_error"] == "still failing"
        assert len(dlq) == 2  # reactivated, not duplicated
        assert dlq.redeliveries == 1
        # Durable: the reload sees the bumped delivery accounting.
        reborn = DeadLetterQueue(path)
        fp_b = [e for e in reborn.entries()
                if e["fingerprint"] == "fp-b"][0]
        assert fp_b["deliveries"] == 2 and fp_b["requeued"] is False

    def test_record_on_active_entry_leaves_deliveries_alone(self, tmp_path):
        dlq = self._seed(os.fspath(tmp_path / "DLQ.jsonl"))
        entry = dlq.record(task_key=("a", 1), reason="retry-exhausted",
                           attempts=3, last_error="boom",
                           fingerprint="fp-a")
        # Plain resume-path redelivery (never requeued): counted on the
        # queue, not on the entry.
        assert entry["deliveries"] == 1
        assert dlq.redeliveries == 1

    def test_summary_separates_active_from_requeued(self, tmp_path):
        dlq = self._seed(os.fspath(tmp_path / "DLQ.jsonl"))
        dlq.requeue(fingerprints=["fp-a"])
        summary = dlq.summary()
        assert summary["depth"] == 1
        assert summary["reasons"] == {"permanent-failure": 1}
        assert summary["task_keys"] == [["b", 2]]
        assert summary["requeued"] == 1
        assert summary["total"] == 2

    def test_streaming_executor_recomputes_requeued_tasks(self, tmp_path):
        """active_entries() is the executors' dead set: a requeued task is
        recomputed on the next run instead of being skipped as dead."""
        from repro.pore import (
            ReducedTranslocationModel,
            default_reduced_potential,
        )
        from repro.smd import PullingProtocol
        from repro.store import ResultStore
        from repro.workflow.streaming import run_streamed_study

        model = ReducedTranslocationModel(default_reduced_potential())
        protocols = [PullingProtocol(kappa_pn=0.1, velocity=12.5)]
        store = ResultStore(os.fspath(tmp_path / "store"), sync=False)
        dlq = DeadLetterQueue(os.fspath(tmp_path / "DLQ.jsonl"))

        def poison(task, attempt):
            from repro.errors import PermanentTaskFailure

            raise PermanentTaskFailure("poisoned")

        merged, report = run_streamed_study(
            model, protocols, n_samples=2, samples_per_task=2, seed=SEED,
            store=store, dlq=dlq, fault=poison, n_records=9)
        assert report.dead_lettered == 1 and merged == {}
        # Without a requeue, the dead set keeps the task skipped...
        merged, report = run_streamed_study(
            model, protocols, n_samples=2, samples_per_task=2, seed=SEED,
            store=store, dlq=dlq, n_records=9)
        assert report.dead_lettered == 1 and merged == {}
        # ...and after a requeue the same run recomputes it cleanly.
        dlq.requeue()
        merged, report = run_streamed_study(
            model, protocols, n_samples=2, samples_per_task=2, seed=SEED,
            store=store, dlq=dlq, n_records=9)
        assert report.computed == 1 and len(merged) == 1
        assert dlq.summary()["depth"] == 0
