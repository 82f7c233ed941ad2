"""Job-state layer: the lifecycle state machine, durable records, event
logs with monotonic sequence numbers and their seek-by-seq reads, and
restart recovery."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LifecycleError, ServiceError
from repro.service import state as state_module
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

    def test_a_watcher_read_opens_only_the_new_events(self, state,
                                                      monkeypatch):
        record = state.create("ada", SPEC_DOC, "fp-1")
        for resolved in range(5):
            state.append_event(record.id, {"kind": "progress",
                                           "resolved": resolved})
        assert len(state.read_events(record.id)) == 6
        reads = []
        read_complete_lines = state_module.read_complete_lines

        def recording(path, offset=0):
            reads.append(offset)
            return read_complete_lines(path, offset)

        monkeypatch.setattr(state_module, "read_complete_lines", recording)
        # No news: answered from the index, the file is not opened.
        assert state.read_events(record.id, since=6) == []
        assert state.read_events(record.id, since=60) == []
        assert reads == []
        # News: one read, starting at the first new event.
        seq = state.append_event(record.id, {"kind": "progress"})
        assert [e["seq"] for e in state.read_events(record.id, since=6)] \
            == [seq]
        assert [e["seq"] for e in state.read_events(record.id, since=4)] \
            == [5, 6, seq]
        # The append extended the index: caught up again, nothing opened.
        assert state.read_events(record.id, since=seq) == []
        path = os.path.join(state.root, "events", record.id + ".jsonl")
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
        assert reads == [sum(len(line) + 1 for line in lines[:6]),
                         sum(len(line) + 1 for line in lines[:4])]

    def test_a_read_between_write_and_index_update_sees_the_line(
            self, state, monkeypatch):
        record = state.create("ada", SPEC_DOC, "fp-1")
        state.append_event(record.id, {"kind": "progress"})
        assert len(state.read_events(record.id)) == 2
        seen = []
        append_line = state_module.append_line

        def append_then_read(path, *lines, sync=True):
            start = append_line(path, *lines, sync=sync)
            # The line is in the log; the index does not know it yet.
            seen.append(state.read_events(record.id, since=2))
            return start

        monkeypatch.setattr(state_module, "append_line", append_then_read)
        seq = state.append_event(record.id, {"kind": "progress"})
        assert [[e["seq"] for e in batch] for batch in seen] == [[seq]]

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
        assert len(state.read_events(record.id)) == 1      # index seeded
        state.append_event(record.id, *({"kind": "progress",
                                         "resolved": resolved}
                                        for resolved in range(5)))
        reads = []
        read_complete_lines = state_module.read_complete_lines

        def recording(path, offset=0):
            reads.append(offset)
            return read_complete_lines(path, offset)

        monkeypatch.setattr(state_module, "read_complete_lines", recording)
        assert [e["seq"] for e in state.read_events(record.id, since=3)] \
            == [4, 5, 6]
        assert state.read_events(record.id, since=6) == []
        path = os.path.join(state.root, "events", record.id + ".jsonl")
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
        # One read, from where seq 4 starts; never the whole log.
        assert reads == [sum(len(line) + 1 for line in lines[:3])]

    def test_a_non_integer_seq_line_is_skipped(self, state):
        record = state.create("ada", SPEC_DOC, "fp-1")     # seq 1
        state.append_event(record.id, {"kind": "progress"})
        path = os.path.join(state.root, "events", record.id + ".jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq":"7"}\n{"seq":true}\n{"kind":"progress"}\n')
        assert [e["seq"] for e in state.read_events(record.id)] == [1, 2]
        assert [e["seq"] for e in state.read_events(record.id, since=1)] \
            == [2]
        assert state.read_events(record.id, since=2) == []
        reborn = ServiceState(state.root, sync=False)
        assert reborn.append_event(record.id, {"kind": "progress"}) == 3
        assert [e["seq"] for e in reborn.read_events(record.id, since=1)] \
            == [2, 3]

    def test_an_outside_rewrite_is_noticed_and_reindexed(self, state,
                                                         monkeypatch):
        record = state.create("ada", SPEC_DOC, "fp-1")
        for resolved in range(4):
            state.append_event(record.id, {"kind": "progress",
                                           "resolved": resolved})
        assert len(state.read_events(record.id)) == 5
        # Rewritten without the "resolved" field: every line after the
        # first is shorter, so the indexed offsets point past their lines.
        path = os.path.join(state.root, "events", record.id + ".jsonl")
        with open(path, encoding="utf-8") as handle:
            docs = [json.loads(line) for line in handle]
        lines = [json.dumps({k: v for k, v in doc.items()
                             if k != "resolved"}) for doc in docs]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
        reads = []
        read_complete_lines = state_module.read_complete_lines

        def recording(path, offset=0):
            reads.append(offset)
            return read_complete_lines(path, offset)

        monkeypatch.setattr(state_module, "read_complete_lines", recording)
        expected = [json.loads(line) for line in lines[2:]]
        assert state.read_events(record.id, since=2) == expected
        assert state.read_events(record.id, since=2) == expected
        # The stale seek, the full read that rebuilt the index, then a seek
        # to where event 3 now starts.
        assert reads[1:] == [0, sum(len(line) + 1 for line in lines[:2])]


def _log_events(path, since):
    """The reference: every complete log line that is a JSON object with
    ``seq > since``, in file order."""
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")[:-1]
    out = []
    for line in lines:
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict) and doc.get("seq", 0) > since:
            out.append(doc)
    return out


def _rewrite(path, how):
    """An outside rewrite of an event log: dropped garbage, re-spaced
    JSON (every offset moves), or a truncation to its first half."""
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")[:-1]
    kept = []
    for line in lines:
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        kept.append(json.dumps(doc).encode() if how == "respace" else line)
    if how == "truncate":
        kept = kept[:len(kept) // 2]
    with open(path, "wb") as handle:
        handle.write(b"".join(line + b"\n" for line in kept))


_EVENT_OPS = st.lists(st.one_of(
    st.tuples(st.just("append"), st.integers(1, 3)),
    # A crash mid-append: the whole next line without its newline, or a
    # prefix of it.
    st.tuples(st.just("torn"), st.booleans(), st.integers(0, 10 ** 6)),
    st.tuples(st.just("restart")),
    st.tuples(st.just("rewrite"),
              st.sampled_from(["compact", "respace", "truncate"])),
    st.tuples(st.just("read"), st.integers(-2, 20)),
), max_size=30)




class TestEventIndex:
    @settings(max_examples=200, deadline=None)
    @given(ops=_EVENT_OPS)
    def test_seeked_reads_equal_the_full_log_filter(self, ops):
        with tempfile.TemporaryDirectory() as root:
            state = ServiceState(root, sync=False)
            cid = state.create("ada", SPEC_DOC, "fp-1").id
            path = os.path.join(root, "events", cid + ".jsonl")

            def check(first):
                top = max([e["seq"] for e in _log_events(path, 0)],
                          default=0)
                for since in [first, *range(-1, top + 2)]:
                    assert state.read_events(cid, since=since) == \
                        _log_events(path, since), since

            for op, *args in ops:
                if op == "append":
                    for _ in range(args[0]):
                        state.append_event(cid, {"kind": "progress"})
                elif op == "torn":
                    whole, cut = args
                    seq = max([e["seq"] for e in _log_events(path, 0)],
                              default=0) + 1
                    line = json.dumps({"kind": "progress", "seq": seq},
                                      separators=(",", ":")).encode()
                    with open(path, "ab") as handle:
                        handle.write(line if whole
                                     else line[:1 + cut % (len(line) - 1)])
                elif op == "restart":
                    state = ServiceState(root, sync=False)
                elif op == "rewrite":
                    _rewrite(path, args[0])
                else:
                    check(args[0])
            check(0)


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
