"""The store's index layer: index-driven enumeration, heal/compaction,
legacy-directory upgrade, the shared durable line-log, corrupted resume.

The contract under test: :class:`~repro.store.ResultStore` enumerates by
trusting per-shard INDEX files and only rescans shards that changed, its
``heal()`` pass rebuilds indexes from records, quarantining corruption
inside its own shard, and a directory written by the pre-INDEX layout
opens as a store whose every shard is stale.

The end-to-end class is the satellite acceptance test: a campaign killed
mid-flight with one record *and* one shard index corrupted by byte
truncation must resume, recompute exactly the lost tasks, and land on a
PMF and canonical run report byte-identical to an uninterrupted control.
"""

import os
import shutil

import numpy as np
import pytest

from repro.errors import CampaignInterrupted, StoreError
from repro.obs import Obs, campaign_run_report, canonical_run_report
from repro.resil import DeadLetterQueue
from repro.service.state import ServiceState
from repro.store import (
    ResultStore,
    ShardedResultStore,
    build_record,
    canonical_json,
    dumps_record,
)
from repro.store.index import (
    INDEX_NAME,
    append_line,
    atomic_write_text,
    read_complete_lines,
    read_index_lines,
)
from repro.workflow import SpiceCampaign, build_default_federation

SEED = 2005


def make_ensemble(index):
    """A tiny deterministic WorkEnsemble, distinct per index."""
    from repro.rng import stream_for
    from repro.smd.protocol import PullingProtocol
    from repro.smd.work import WorkEnsemble

    rng = stream_for(SEED, "test", "sharded", index)
    works = np.zeros((2, 3))
    works[:, 1:] = rng.normal(5.0, 1.0, size=(2, 2)).cumsum(axis=1)
    positions = np.tile(np.array([0.0, 1.0, 2.0]), (2, 1))
    return WorkEnsemble(
        protocol=PullingProtocol(kappa_pn=100.0, velocity=25.0,
                                 distance=2.0, equilibration_ns=0.0),
        displacements=np.array([0.0, 1.0, 2.0]),
        works=works,
        positions=positions,
        temperature=300.0,
        cpu_hours=0.0,
    )


def make_task(index):
    return {"kind": "test-sharded", "index": index}


def fill(store, n=12):
    fps = []
    for i in range(n):
        fps.append(store.put(make_task(i), make_ensemble(i)))
    return fps


class TestDropInParity:
    def test_one_class_two_names(self):
        assert ShardedResultStore is ResultStore

    def test_roundtrip_returns_identical_ensemble(self, tmp_path):
        store = ResultStore(os.fspath(tmp_path / "s"))
        [fp] = fill(store, 1)
        cached = store.get(fp)
        expected = make_ensemble(0)
        np.testing.assert_array_equal(cached.works, expected.works)
        np.testing.assert_array_equal(cached.positions, expected.positions)


class TestIndexDrivenEnumeration:
    def test_every_shard_has_an_index_listing_its_records(self, tmp_path):
        store = ResultStore(os.fspath(tmp_path / "s"))
        fps = fill(store)
        for fp in fps:
            listed = read_index_lines(
                os.path.join(store.root, fp[:2], INDEX_NAME))
            assert fp in listed

    def test_fresh_instance_trusts_clean_indexes(self, tmp_path):
        root = os.fspath(tmp_path / "s")
        first = ResultStore(root)
        fill(first)
        fresh = ResultStore(root)
        assert fresh.fingerprints() == first.fingerprints()
        assert fresh.reindexed_shards == 0

    def test_missing_index_rescans_only_that_shard(self, tmp_path):
        root = os.fspath(tmp_path / "s")
        first = ResultStore(root)
        fps = fill(first)
        os.remove(os.path.join(root, fps[0][:2], INDEX_NAME))
        fresh = ResultStore(root)
        assert fresh.fingerprints() == first.fingerprints()
        assert fresh.reindexed_shards == 1
        # The rescan rewrote the index: the next instance trusts it again.
        assert ResultStore(root).reindexed_shards == 0

    def test_eviction_removes_the_index_line(self, tmp_path):
        root = os.fspath(tmp_path / "s")
        store = ResultStore(root)
        fps = fill(store)
        victim = fps[0]
        path = store.path_for(victim)
        with open(path, "r+b") as handle:
            handle.truncate(30)
        assert store.get(victim) is None  # corrupt -> evicted, miss
        assert victim not in read_index_lines(
            os.path.join(root, victim[:2], INDEX_NAME))
        assert victim not in store.fingerprints()


    def test_len_and_put_never_sort_the_view(self, tmp_path, monkeypatch):
        """``len()`` and the ``store.records`` gauge ``put()`` sets under
        obs read the memoized set's size; sorting it per write was
        O(n log n) per task."""
        store = ResultStore(os.fspath(tmp_path / "s"), obs=Obs())
        fill(store, 3)
        assert len(store) == 3  # view populated

        def forbidden():
            raise AssertionError("fingerprints() called on the write path")

        monkeypatch.setattr(store, "fingerprints", forbidden)
        fill(store, 5)
        assert len(store) == 5
        assert store.stats()["records"] == 5
        assert len(store.fingerprint_set()) == 5


def write_legacy_store(root, n=12):
    """A directory as the pre-INDEX layout wrote it: records under
    ``<fp[:2]>/``, the legacy ``meta.json`` (no "layout" key), no INDEX."""
    fps = []
    os.makedirs(root)
    with open(os.path.join(root, "meta.json"), "w", encoding="utf-8") as f:
        f.write(LEGACY_META)
    for i in range(n):
        record = build_record(make_task(i), make_ensemble(i))
        fp = record["fingerprint"]
        os.makedirs(os.path.join(root, fp[:2]), exist_ok=True)
        with open(os.path.join(root, fp[:2], fp + ".json"), "w",
                  encoding="utf-8") as f:
            f.write(dumps_record(record))
        fps.append(fp)
    return fps


LEGACY_META = ('{"record_schema":"repro.store.record/v1",'
               '"schema_version":1,"store":"repro.store"}\n')
CURRENT_META = ('{"layout":"sharded","record_schema":"repro.store.record/v1",'
                '"schema_version":1,"store":"repro.store"}\n')


class TestLegacyUpgrade:
    """A flat-layout directory (the CLI default before the layouts were
    folded) is an indexed store whose every INDEX is missing."""

    def test_legacy_directory_opens_and_upgrades_in_place(self, tmp_path):
        root = os.fspath(tmp_path / "legacy")
        fps = write_legacy_store(root)
        writer = ResultStore(os.fspath(tmp_path / "writer"))
        assert fill(writer) == fps

        store = ResultStore(root)
        with open(os.path.join(root, "meta.json"), encoding="utf-8") as f:
            assert f.read() == CURRENT_META
        assert store.fingerprints() == sorted(fps)
        assert store.content_digest() == writer.content_digest()
        assert store.reindexed_shards == store.stats()["shards"]
        for i, fp in enumerate(fps):
            np.testing.assert_array_equal(store.get(fp).works,
                                          make_ensemble(i).works)
        assert store.stats()["hits"] == len(fps)

        again = ResultStore(root)
        assert again.fingerprints() == sorted(fps)
        assert again.reindexed_shards == 0

    def test_legacy_directory_resumes_with_all_hits(self, tmp_path,
                                                    reduced_model):
        from repro.smd import PullingProtocol, run_work_ensemble

        protocol = PullingProtocol(kappa_pn=100.0, velocity=25.0,
                                   distance=2.0, equilibration_ns=0.0)

        def run(store):
            return run_work_ensemble(reduced_model, protocol, n_tasks=3,
                                     samples_per_task=2, seed=SEED,
                                     n_records=5, store=store)

        root = os.fspath(tmp_path / "s")
        first = run(ResultStore(root))
        # Strip it back to what the flat layout left on disk.
        for shard in os.listdir(root):
            index = os.path.join(root, shard, INDEX_NAME)
            if os.path.isfile(index):
                os.remove(index)
        with open(os.path.join(root, "meta.json"), "w",
                  encoding="utf-8") as f:
            f.write(LEGACY_META)

        store = ResultStore(root)
        second = run(store)
        np.testing.assert_array_equal(first.works, second.works)
        assert store.stats()["hits"] == 3
        assert store.stats()["misses"] == store.stats()["writes"] == 0

    def test_foreign_directories_are_still_refused(self, tmp_path):
        other = tmp_path / "other"
        other.mkdir()
        (other / "meta.json").write_text('{"store":"something-else"}\n')
        with pytest.raises(StoreError):
            ResultStore(os.fspath(other))
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "notes.txt").write_text("not a store")
        with pytest.raises(StoreError):
            ResultStore(os.fspath(bare))


FP_A, FP_B, FP_C = "a" * 64, "ab" + "c" * 62, "ab" + "d" * 62
SPEC_DOC = {"kappas_pn": [100.0], "velocities": [25.0]}


class _IndexLog:
    """A shard INDEX holding two fingerprints."""

    torn = "deadbeef"

    def __init__(self, tmp_path):
        self.path = os.fspath(tmp_path / "ab" / INDEX_NAME)
        for fp in (FP_B, FP_A):
            append_line(self.path, fp, sync=False)

    def read(self):
        return read_index_lines(self.path)

    expected = [FP_A, FP_B]

    def append(self):
        append_line(self.path, FP_C, sync=False)
        return FP_C

    def read_past_garbage(self):
        # An INDEX with a malformed line is untrusted as a whole (the store
        # rescans the shard), so look at the raw complete lines instead.
        with pytest.raises(ValueError):
            self.read()
        return [line for line in read_complete_lines(self.path)
                if line != self.torn]


class _EventLog:
    """A campaign event log holding seq 1 (pending) and seq 2."""

    torn = '{"seq": 3, "kind": "torn'

    def __init__(self, tmp_path):
        self.state = ServiceState(os.fspath(tmp_path / "svc"), sync=False)
        self.id = self.state.create("ada", SPEC_DOC, "fp-1").id
        self.state.append_event(self.id, {"kind": "progress"})
        self.path = os.path.join(self.state.root, "events",
                                 self.id + ".jsonl")

    def read(self):
        return [e["seq"] for e in self.state.read_events(self.id)]

    read_past_garbage = read
    expected = [1, 2]

    def append(self):
        return self.state.append_event(self.id, {"kind": "progress"})


class _DlqLog:
    """A DLQ.jsonl holding two entries."""

    torn = '{"schema": "repro.resil.dlq/v1", "task'

    def __init__(self, tmp_path):
        self.path = os.fspath(tmp_path / "DLQ.jsonl")
        dlq = DeadLetterQueue(self.path, sync=False)
        for key in ("a", "b"):
            dlq.record(task_key=(key, 1), reason="retry-exhausted",
                       attempts=3, last_error="boom")

    def read(self):
        return [e["task_key"] for e in DeadLetterQueue(self.path).entries()]

    read_past_garbage = read
    expected = [["a", 1], ["b", 1]]

    def append(self):
        DeadLetterQueue(self.path, sync=False).record(
            task_key=("c", 1), reason="retry-exhausted", attempts=3,
            last_error="boom")
        return ["c", 1]


class TestLineLog:
    """INDEX files, campaign event logs and ``DLQ.jsonl`` share one append
    and one torn-tail reader; each keeps its own policy for a complete
    line it cannot parse."""

    @pytest.mark.parametrize("log_type", [_IndexLog, _EventLog, _DlqLog],
                             ids=["index", "events", "dlq"])
    def test_torn_final_line_is_dropped(self, tmp_path, log_type):
        log = log_type(tmp_path)
        complete = read_complete_lines(log.path)
        with open(log.path, "a", encoding="utf-8") as handle:
            handle.write(log.torn)  # crash mid-append: no newline
        assert read_complete_lines(log.path) == complete
        assert log.read() == log.expected

    @pytest.mark.parametrize("log_type", [_IndexLog, _EventLog, _DlqLog],
                             ids=["index", "events", "dlq"])
    def test_entry_appended_after_a_torn_tail_is_read_back(self, tmp_path,
                                                           log_type):
        """The first entry written after a crash must not be glued onto
        the fragment the crash left behind."""
        log = log_type(tmp_path)
        with open(log.path, "a", encoding="utf-8") as handle:
            handle.write(log.torn)
        appended = log.append()
        assert read_complete_lines(log.path)[-2] == log.torn
        assert sorted(log.read_past_garbage()) == sorted(
            log.expected + [appended])

    def test_durable_writes_create_a_missing_directory(self, tmp_path):
        """Both primitives open first and make the directory only when the
        open fails: the first write into a shard, and a shard directory
        removed between two writes."""
        shard = tmp_path / "store" / "ab"
        log, record = os.fspath(shard / INDEX_NAME), os.fspath(shard / "r")
        append_line(log, FP_A, sync=False)              # first write
        append_line(log, FP_B, sync=False)
        assert read_complete_lines(log) == [FP_A, FP_B]
        shutil.rmtree(shard)
        atomic_write_text(record, "payload\n", sync=False)  # removed between
        atomic_write_text(record, "payload\n", sync=False)
        assert os.listdir(shard) == ["r"]               # no tmp left behind
        shutil.rmtree(shard)
        append_line(log, FP_A, sync=False)
        assert read_complete_lines(log) == [FP_A]

    def test_torn_index_append_does_not_hide_records(self, tmp_path):
        root = os.fspath(tmp_path / "s")
        store = ResultStore(root)
        fps = fill(store)
        with open(os.path.join(root, fps[0][:2], INDEX_NAME), "a",
                  encoding="utf-8") as handle:
            handle.write("deadbeef")
        assert ResultStore(root).fingerprints() == store.fingerprints()

    def test_next_event_seq_supersedes_a_torn_line(self, tmp_path):
        log = _EventLog(tmp_path)
        with open(log.path, "a", encoding="utf-8") as handle:
            handle.write(log.torn)
        assert log.state.append_event(log.id, {"kind": "progress"}) == 3

    @staticmethod
    def _insert_garbage(path):
        lines = read_complete_lines(path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join([lines[0], "{not a line", *lines[1:]])
                         + "\n")

    def test_interior_garbage_makes_an_index_untrusted(self, tmp_path):
        root = os.fspath(tmp_path / "s")
        store = ResultStore(root)
        fps = fill(store)
        index_path = os.path.join(root, fps[0][:2], INDEX_NAME)
        append_line(index_path, fps[0])  # >= 2 lines to put garbage between
        self._insert_garbage(index_path)
        with pytest.raises(ValueError):
            read_index_lines(index_path)
        fresh = ResultStore(root)
        assert fresh.fingerprints() == store.fingerprints()
        assert fresh.reindexed_shards == 1
        assert read_index_lines(index_path) == sorted(
            fp for fp in fps if fp[:2] == fps[0][:2])

    @pytest.mark.parametrize("log_type", [_EventLog, _DlqLog],
                             ids=["events", "dlq"])
    def test_interior_garbage_is_skipped_by_events_and_dlq(self, tmp_path,
                                                           log_type):
        log = log_type(tmp_path)
        self._insert_garbage(log.path)
        assert log.read() == log.expected


class TestHeal:
    def test_heal_on_clean_store_is_a_no_op(self, tmp_path):
        store = ResultStore(os.fspath(tmp_path / "s"))
        fill(store)
        report = store.heal()
        assert report["reindexed"] == []
        assert report["quarantined"] == []
        assert report["records"] == 12

    def test_heal_rebuilds_a_deleted_index(self, tmp_path):
        root = os.fspath(tmp_path / "s")
        store = ResultStore(root)
        fps = fill(store)
        shard = fps[0][:2]
        os.remove(os.path.join(root, shard, INDEX_NAME))
        report = store.heal()
        assert shard in report["reindexed"]
        assert fps[0] in read_index_lines(
            os.path.join(root, shard, INDEX_NAME))

    def test_deep_heal_quarantines_corrupt_record_in_its_shard(
            self, tmp_path):
        root = os.fspath(tmp_path / "s")
        store = ResultStore(root)
        fps = fill(store)
        victim = fps[3]
        with open(store.path_for(victim), "r+b") as handle:
            handle.truncate(40)
        report = store.heal(deep=True)
        assert report["quarantined"] == [victim]
        assert os.path.isfile(store.path_for(victim) + ".corrupt")
        assert victim not in store.fingerprints()
        # Every other record survived, in every other shard.
        assert sorted(set(fps) - {victim}) == store.fingerprints()

    def test_stats_report_shards_and_reindexes(self, tmp_path):
        store = ResultStore(os.fspath(tmp_path / "s"))
        fill(store)
        stats = store.stats()
        assert stats["records"] == 12
        assert stats["shards"] == len({fp[:2] for fp in store.fingerprints()})
        assert stats["reindexed_shards"] == 0


def run_campaign(store_root, *, interrupt_after=None, replicas=4):
    """One instrumented campaign against a store."""
    obs = Obs()
    federation = build_default_federation(obs=obs)
    store = ResultStore(store_root, obs=obs)
    store.interrupt_after_writes = interrupt_after
    campaign = SpiceCampaign(
        federation=federation, replicas_per_cell=replicas, seed=SEED,
        obs=obs, store=store)
    result = campaign.run()
    report = campaign_run_report(result, obs, store=store,
                                 command="campaign", seed=SEED)
    return result, report, store


def canonical_bytes(report):
    return canonical_json(canonical_run_report(report)).encode()


class TestCorruptedResume:
    """Satellite acceptance: kill + byte-truncate one record and one shard
    index mid-campaign; the resume recomputes exactly the lost tasks and
    reproduces the control bit-for-bit."""

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
        survivors = ResultStore(root)
        fps = survivors.fingerprints()
        assert len(fps) == self.N_DONE
        # Byte-truncate one durable record and one shard INDEX — disk
        # corruption the crash-consistency argument does NOT cover (a
        # truncated index is *ahead* of nothing but *behind* its shard
        # without any mtime evidence), which is exactly what the heal
        # pass is for.
        with open(survivors.path_for(fps[0]), "r+b") as handle:
            handle.truncate(50)
        index_path = os.path.join(root, fps[1][:2], INDEX_NAME)
        with open(index_path, "r+b") as handle:
            handle.truncate(10)
        heal_report = ResultStore(root).heal(deep=True)
        # The truncated record is quarantined; the truncated index (and
        # the quarantined record's own shard) are rebuilt from records.
        assert heal_report["quarantined"] == [fps[0]]
        assert fps[1][:2] in heal_report["reindexed"]
        return run_campaign(root)

    def test_resume_recomputed_exactly_the_lost_tasks(self, control, resumed):
        _result, _report, store = resumed
        n_jobs = len(control[0].batch.jobs)
        # The quarantined record is a miss the resume recomputes;
        # everything else the kill left durable is a hit.
        assert store.stats()["hits"] == self.N_DONE - 1
        assert store.stats()["misses"] == n_jobs - self.N_DONE + 1
        assert store.stats()["corrupt_evicted"] == 0
        assert store.stats()["records"] == n_jobs

    def test_pmf_bit_identical_to_control(self, control, resumed):
        np.testing.assert_array_equal(
            control[0].pmf.values, resumed[0].pmf.values)
        np.testing.assert_array_equal(
            control[0].pmf.displacements, resumed[0].pmf.displacements)

    def test_canonical_report_byte_identical_to_control(self, control,
                                                        resumed):
        assert canonical_bytes(control[1]) == canonical_bytes(resumed[1])

    def test_stores_converge_to_the_same_content(self, control, resumed):
        assert (control[2].content_digest()
                == resumed[2].content_digest())
