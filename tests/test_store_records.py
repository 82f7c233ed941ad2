"""Record round-trip and ResultStore crash-consistency tests."""

import hashlib
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
    return pulling_task(model, proto, n_samples=3, n_records=11, seed_key=42)


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


# -- verification by the stored task's bytes ---------------------------------

_MARKER = f',"schema":"{RECORD_SCHEMA}","task":'


def _fingerprint_of_bytes(task_text):
    """What a record's bytes hash to: the task text inside the
    ``task_fingerprint`` envelope."""
    payload = '{"schema_version":1,"task":' + task_text + "}"
    return hashlib.sha256(payload.encode()).hexdigest()


def _verdict(load, text, expected):
    try:
        load(text, expected)
    except StoreCorruptionError:
        return "rejected"
    return "accepted"


def _rehash_verdict(text, expected):
    """The parsed-task re-hash alone: every record is parsed whole and its
    task re-fingerprinted."""
    try:
        record = json.loads(text)
    except ValueError:
        return "rejected"
    return _verdict(validate_record, record, expected)


def _record_texts(task, ensemble):
    """(name, text, expected fingerprint, verdict) for each case."""
    record = build_record(task, ensemble)
    text = dumps_record(record)
    fp = record["fingerprint"]
    head, task_text = text[:-2].split(_MARKER)
    other = json.dumps(dict(task, n_samples=99), sort_keys=True,
                       separators=(",", ":"))
    pretty_task = json.dumps(task, sort_keys=True, indent=1)
    marked = dict(task, zz={"schema": RECORD_SCHEMA, "task": {"a": 1}})
    trailing = f"{task_text},\"task\":{other}"
    extra = f'{task_text},"zzz":1'
    forged_trailing = _fingerprint_of_bytes(trailing)
    forged_extra = _fingerprint_of_bytes(extra)
    return [
        ("canonical", text, fp, "accepted"),
        ("reformatted", json.dumps(record, indent=2) + "\n", fp, "accepted"),
        ("task-reformatted", f"{head}{_MARKER}{pretty_task}}}\n", fp,
         "accepted"),
        ("task-swapped", f"{head}{_MARKER}{other}}}\n", fp, "rejected"),
        ("duplicate-task-first-wrong",
         f"{head},\"task\":{other}{_MARKER}{task_text}}}\n", fp, "accepted"),
        ("duplicate-task-last-wrong", f"{head}{_MARKER}{trailing}}}\n", fp,
         "rejected"),
        ("duplicate-task-bytes-forged",
         f"{head.replace(fp, forged_trailing)}{_MARKER}{trailing}}}\n",
         forged_trailing, "rejected"),
        ("trailing-member", f"{head}{_MARKER}{extra}}}\n", fp, "accepted"),
        ("trailing-member-bytes-forged",
         f"{head.replace(fp, forged_extra)}{_MARKER}{extra}}}\n",
         forged_extra, "rejected"),
        ("marker-inside-task", dumps_record(build_record(marked, ensemble)),
         task_fingerprint(marked), "accepted"),
        ("fingerprint-edited", text.replace(fp, "0" * 64), "0" * 64,
         "rejected"),
        ("fingerprint-edited-unlooked", text.replace(fp, "0" * 64), "",
         "rejected"),
        ("expected-elsewhere", text, "f" * 64, "rejected"),
        ("truncated", text[: len(text) // 2], fp, "rejected"),
        ("no-newline", text[:-1], fp, "accepted"),
        ("empty-head", "{" + text[text.index(_MARKER):], fp, "rejected"),
    ]


class TestVerificationByBytes:
    """``loads_record`` hashes the stored task's bytes when the text has
    the written layout, and re-hashes the parsed task otherwise; it
    accepts exactly the records the re-hash alone accepts."""

    def test_every_case_has_the_rehash_verdict(self, task, ensemble):
        for name, text, expected, verdict in _record_texts(task, ensemble):
            assert _rehash_verdict(text, expected) == verdict, name
            assert _verdict(loads_record, text, expected) == verdict, name

    def test_a_written_record_is_verified_without_rehashing(
            self, task, ensemble, monkeypatch):
        import repro.store.record as record_module

        hashed = []

        def spy(descriptor):
            hashed.append(descriptor)
            return task_fingerprint(descriptor)

        cases = _record_texts(task, ensemble)
        monkeypatch.setattr(record_module, "task_fingerprint", spy)
        text = cases[0][1]
        assert loads_record(text)["task"] == task
        assert hashed == []
        for name, text, expected, verdict in cases:
            if name in ("reformatted", "task-reformatted",
                        "duplicate-task-first-wrong", "trailing-member"):
                del hashed[:]
                assert _verdict(loads_record, text, expected) == verdict
                assert len(hashed) == 1, name

    def test_bytes_path_parses_as_the_whole_text(self, task, ensemble):
        text = dumps_record(build_record(task, ensemble))
        assert loads_record(text) == json.loads(text)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_values_are_corrupt(self, result_store, task,
                                           ensemble, constant):
        """The writer never emits these tokens; a record holding one is
        evicted and recomputed, never served into a PMF."""
        fp = result_store.put(task, ensemble)
        path = result_store.path_for(fp)
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        record["result"]["works"][0][1] = float(constant)
        text = json.dumps(record, sort_keys=True, separators=(",", ":"))
        assert constant in text
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        with pytest.raises(StoreCorruptionError, match=constant):
            loads_record(text + "\n")
        assert result_store.get(fp) is None
        assert result_store.stats()["corrupt_evicted"] == 1
        assert os.path.exists(path + ".corrupt")


class TestVanishingRecords:
    """A record removed by someone else mid-read is a miss, not a crash."""

    def test_a_record_gone_before_the_read_is_a_plain_miss(
            self, result_store, task, ensemble, monkeypatch):
        fp = result_store.put(task, ensemble)
        os.remove(result_store.path_for(fp))
        # Any existence probe answers as it did before the removal.
        monkeypatch.setattr(os.path, "isfile", lambda path: True)
        assert result_store.get(fp) is None
        stats = result_store.stats()
        assert (stats["misses"], stats["corrupt_evicted"]) == (1, 0)

    def test_a_record_gone_before_its_eviction_is_a_miss(
            self, result_store, task, ensemble, monkeypatch):
        import repro.store.store as store_module

        fp = result_store.put(task, ensemble)
        path = result_store.path_for(fp)

        def vanish_then_refuse(text, expected_fingerprint=""):
            os.remove(path)
            raise StoreCorruptionError("torn")

        monkeypatch.setattr(store_module, "loads_record", vanish_then_refuse)
        assert result_store.get(fp) is None
        stats = result_store.stats()
        assert (stats["misses"], stats["corrupt_evicted"]) == (1, 0)
        assert not os.path.exists(path + ".corrupt")
        assert fp not in result_store
