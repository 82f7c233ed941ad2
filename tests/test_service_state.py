"""Job-state layer: the lifecycle state machine, durable records, event
logs with monotonic sequence numbers served from memory, and restart
recovery."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LifecycleError, ServiceError
from repro.service import state as state_module
from repro.store.index import append_line
from repro.service import (
    STATES,
    TERMINAL_STATES,
    TRANSITIONS,
    CampaignRecord,
    ServiceState,
)

SPEC_DOC = {"kappas": [0.1], "velocities": [12.5]}


@pytest.fixture
def state(tmp_path):
    return ServiceState(os.fspath(tmp_path / "state"), sync=False)


class TestStateMachine:
    def test_legal_path_to_completed(self, state):
        record = state.create("ada", SPEC_DOC, "fp-1")
        assert record.state == "pending" and record.seq == 0
        state.transition(record.id, "running")
        record = state.transition(record.id, "completed", detail="2 task(s)")
        assert record.state == "completed"
        assert record.seq == 2
        assert [t["to"] for t in record.transitions] == [
            "running", "completed"]

    def test_illegal_edges_raise(self, state):
        record = state.create("ada", SPEC_DOC, "fp-1")
        state.transition(record.id, "running")
        state.transition(record.id, "cancelled")
        with pytest.raises(LifecycleError):
            state.transition(record.id, "completed")
        with pytest.raises(LifecycleError):
            state.transition(record.id, "running")

    def test_degraded_has_the_retry_edge(self, state):
        record = state.create("ada", SPEC_DOC, "fp-1")
        state.transition(record.id, "running")
        state.transition(record.id, "degraded")
        # The one terminal state with an outgoing edge: DLQ retry.
        record = state.transition(record.id, "running", detail="dlq retry")
        assert record.state == "running"
        with pytest.raises(LifecycleError):
            state.transition(record.id, "pending")

    def test_unknown_state_and_id(self, state):
        record = state.create("ada", SPEC_DOC, "fp-1")
        with pytest.raises(LifecycleError):
            state.transition(record.id, "exploded")
        with pytest.raises(ServiceError):
            state.transition("c-999999", "running")

    def test_transition_table_is_closed_over_states(self):
        assert set(TRANSITIONS) == set(STATES)
        for source, targets in TRANSITIONS.items():
            assert targets <= set(STATES)
        for terminal in TERMINAL_STATES - {"degraded"}:
            assert not TRANSITIONS[terminal]


class TestDurability:
    def test_records_survive_restart_and_ids_continue(self, state):
        first = state.create("ada", SPEC_DOC, "fp-1")
        state.transition(first.id, "running")
        second = state.create("vis", SPEC_DOC, "fp-2")
        reborn = ServiceState(state.root, sync=False)
        assert {r.id for r in reborn.list()} == {first.id, second.id}
        recovered = reborn.get(first.id)
        assert recovered.state == "running"
        assert recovered.transitions == state.get(first.id).transitions
        third = reborn.create("ada", SPEC_DOC, "fp-3")
        assert third.id not in (first.id, second.id)

    def test_record_document_is_canonical_json(self, state):
        record = state.create("ada", SPEC_DOC, "fp-1")
        path = os.path.join(state.root, "campaigns", record.id + ".json")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        doc = json.loads(text)
        assert doc == CampaignRecord.from_dict(doc).as_dict()
        assert "timestamp" not in text and "time" not in doc

    def test_foreign_garbage_in_campaigns_dir_is_skipped(self, state):
        state.create("ada", SPEC_DOC, "fp-1")
        junk = os.path.join(state.root, "campaigns", "c-000099.json")
        with open(junk, "w", encoding="utf-8") as handle:
            handle.write("{torn")
        reborn = ServiceState(state.root, sync=False)
        assert len(reborn.list()) == 1

    def test_result_documents_are_spec_keyed(self, state):
        state.save_result("fp-1", {"cells": [1]})
        assert state.load_result("fp-1") == {"cells": [1]}
        assert state.load_result("fp-other") is None


class TestEvents:
    def test_seq_is_monotonic_and_since_filters(self, state):
        record = state.create("ada", SPEC_DOC, "fp-1")  # seq 1: pending
        state.append_event(record.id, {"kind": "progress", "resolved": 1})
        state.append_event(record.id, {"kind": "progress", "resolved": 2})
        events = state.read_events(record.id)
        assert [e["seq"] for e in events] == [1, 2, 3]
        assert [e["seq"] for e in state.read_events(record.id, since=2)] \
            == [3]
        assert state.read_events(record.id, since=3) == []

    def test_seq_continues_after_restart(self, state):
        record = state.create("ada", SPEC_DOC, "fp-1")
        state.append_event(record.id, {"kind": "progress"})
        reborn = ServiceState(state.root, sync=False)
        seq = reborn.append_event(record.id, {"kind": "progress"})
        assert seq == 3

    def test_events_for_unknown_campaign_are_empty(self, state):
        assert state.read_events("c-404404") == []

    def test_reads_never_open_the_log_after_the_first_touch(
            self, state, monkeypatch):
        record = state.create("ada", SPEC_DOC, "fp-1")     # seq 1
        state.append_event(record.id, *({"kind": "progress",
                                         "resolved": resolved}
                                        for resolved in range(5)))
        reborn = ServiceState(state.root, sync=False)
        assert len(reborn.read_events(record.id)) == 6     # first touch

        def forbidden(*args, **kwargs):
            raise AssertionError("the event log was opened")

        monkeypatch.setattr(state_module, "read_complete_lines", forbidden)
        monkeypatch.setattr("builtins.open", forbidden)
        for live in (state, reborn):
            assert [e["seq"] for e in live.read_events(record.id, since=3)] \
                == [4, 5, 6]
            assert [e["resolved"] for e in live.read_events(record.id,
                                                            since=1)] \
                == [0, 1, 2, 3, 4]
            assert live.read_events(record.id, since=6) == []
            assert live.read_events(record.id, since=60) == []

    def test_a_failed_append_consumes_no_seq(self, state, monkeypatch):
        record = state.create("ada", SPEC_DOC, "fp-1")     # seq 1
        failures = []

        def fail_once(path, *lines, sync=True):
            if not failures:
                failures.append(lines)
                raise OSError(28, "No space left on device")
            append_line(path, *lines, sync=sync)

        monkeypatch.setattr(state_module, "append_line", fail_once)
        with pytest.raises(OSError):
            state.append_event(record.id, {"kind": "progress"})
        assert state.append_event(record.id, {"kind": "progress"}) == 2
        assert [e["seq"] for e in state.read_events(record.id)] == [1, 2]

    def test_a_batch_is_one_append_in_seq_order(self, state, monkeypatch):
        record = state.create("ada", SPEC_DOC, "fp-1")     # seq 1
        appends = []
        append_line = state_module.append_line

        def recording(path, *lines, sync=True):
            appends.append(len(lines))
            return append_line(path, *lines, sync=sync)

        monkeypatch.setattr(state_module, "append_line", recording)
        last = state.append_event(record.id, *({"kind": "progress",
                                                "resolved": resolved}
                                               for resolved in range(5)))
        assert last == 6 and appends == [5]
        events = state.read_events(record.id)
        assert [e["seq"] for e in events] == [1, 2, 3, 4, 5, 6]
        assert [e["resolved"] for e in events[1:]] == [0, 1, 2, 3, 4]

    def test_a_read_seeks_into_the_middle_of_a_batch(self, state,
                                                     monkeypatch):
        record = state.create("ada", SPEC_DOC, "fp-1")     # seq 1
        state.append_event(record.id, *({"kind": "progress",
                                         "resolved": resolved}
                                        for resolved in range(5)))

        def forbidden(path):
            raise AssertionError("the event log was read again")

        monkeypatch.setattr(state_module, "read_complete_lines", forbidden)
        events = state.read_events(record.id, since=3)
        assert [e["seq"] for e in events] == [4, 5, 6]
        assert [e["resolved"] for e in events] == [2, 3, 4]
        assert state.read_events(record.id, since=6) == []

    def test_a_non_integer_seq_line_is_skipped(self, state):
        record = state.create("ada", SPEC_DOC, "fp-1")     # seq 1
        state.append_event(record.id, {"kind": "progress"})
        path = os.path.join(state.root, "events", record.id + ".jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq":"7"}\n{"seq":true}\n{"kind":"progress"}\n')
        reborn = ServiceState(state.root, sync=False)
        assert [e["seq"] for e in reborn.read_events(record.id)] == [1, 2]
        assert [e["seq"] for e in reborn.read_events(record.id, since=1)] \
            == [2]
        assert reborn.read_events(record.id, since=2) == []
        assert reborn.append_event(record.id, {"kind": "progress"}) == 3
        assert [e["seq"] for e in reborn.read_events(record.id, since=1)] \
            == [2, 3]


def _partial_batch(path, seq, n, whole, cut):
    """What a crash or a failed write leaves of an ``n``-line batch from
    ``seq`` on: every line but the last newline, or a prefix of that."""
    append_line(path, sync=False)  # terminate a torn tail
    data = b"".join(
        json.dumps({"kind": "lost", "seq": s},
                   separators=(",", ":")).encode() + b"\n"
        for s in range(seq, seq + n))[:-1]
    with open(path, "ab") as handle:
        handle.write(data if whole else data[:1 + cut % (len(data) - 1)])


def _failing_append(seq, *partial):
    """An ``append_line`` that writes part of a batch, then raises."""
    def failing(path, *lines, sync=True):
        _partial_batch(path, seq, *partial)
        raise OSError(5, "Input/output error")
    return failing


_PARTIAL = (st.integers(1, 3), st.booleans(), st.integers(0, 10 ** 6))

_EVENT_OPS = st.lists(st.one_of(
    st.tuples(st.just("append"), st.integers(1, 3)),
    # The process dies mid-append, and the service restarts.
    st.tuples(st.just("crash"), *_PARTIAL),
    # The append raises (ENOSPC, EIO) after part of the batch is written;
    # the process lives on.
    st.tuples(st.just("fail"), *_PARTIAL),
    st.tuples(st.just("restart")),
    st.tuples(st.just("read"), st.integers(-2, 20)),
), max_size=30)


class TestHeldEvents:
    @settings(max_examples=200, deadline=None)
    @given(ops=_EVENT_OPS)
    def test_live_reads_equal_a_fresh_reload(self, ops):
        with tempfile.TemporaryDirectory() as root:
            state = ServiceState(root, sync=False)
            cid = state.create("ada", SPEC_DOC, "fp-1").id
            path = os.path.join(root, "events", cid + ".jsonl")

            def top():
                return max([e["seq"] for e in state.read_events(cid)],
                           default=0)

            def check(first=0):
                reload = ServiceState(root, sync=False)
                seqs = [e["seq"] for e in state.read_events(cid)]
                assert seqs == sorted(set(seqs))
                for since in [first, *range(-1, top() + 2)]:
                    assert state.read_events(cid, since=since) == \
                        reload.read_events(cid, since=since), since

            for op, *args in ops:
                if op == "append":
                    before = top()
                    assert state.append_event(
                        cid, *[{"kind": "progress"}] * args[0]) \
                        == before + args[0] == top()
                elif op == "crash":
                    _partial_batch(path, top() + 1, *args)
                    state = ServiceState(root, sync=False)
                elif op == "fail":
                    state_module.append_line = _failing_append(top() + 1,
                                                               *args)
                    try:
                        with pytest.raises(OSError):
                            state.append_event(cid, {"kind": "progress"})
                    finally:
                        state_module.append_line = append_line
                elif op == "restart":
                    state = ServiceState(root, sync=False)
                check(args[0] if op == "read" else 0)


class TestQueries:
    def test_list_filters_by_user(self, state):
        a = state.create("ada", SPEC_DOC, "fp-1")
        state.create("vis", SPEC_DOC, "fp-2")
        assert [r.id for r in state.list(user="ada")] == [a.id]
        assert len(state.list()) == 2

    def test_find_by_spec_in_id_order(self, state):
        first = state.create("ada", SPEC_DOC, "fp-same")
        state.create("ada", SPEC_DOC, "fp-other")
        second = state.create("vis", SPEC_DOC, "fp-same")
        assert [r.id for r in state.find_by_spec("fp-same")] \
            == [first.id, second.id]

    def test_active_count_excludes_terminal(self, state):
        first = state.create("ada", SPEC_DOC, "fp-1")
        state.create("ada", SPEC_DOC, "fp-2")
        assert state.active_count("ada") == 2
        state.transition(first.id, "cancelled")
        assert state.active_count("ada") == 1
        assert state.active_count("vis") == 0
