"""Job-state layer: the lifecycle state machine, durable records, event
logs with monotonic sequence numbers, and restart recovery."""

import json
import os

import pytest

from repro.errors import LifecycleError, ServiceError
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
