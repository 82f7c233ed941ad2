"""The sans-IO API core, end to end: submission through result fetch,
coalescing against the shared store, conditional GETs, cancellation
mid-run, event reads and long-polls, and the DLQ retry loop — all without
sockets.
"""

import json
import os
import threading

import pytest

from repro.errors import PermanentTaskFailure
from repro.obs import Obs
from repro.pore import ReducedTranslocationModel, default_reduced_potential
from repro.pore.landscape import AxialLandscape
from repro.service import (
    AuthRegistry,
    CampaignRunner,
    Principal,
    Request,
    ServiceApp,
    ServiceState,
    build_service,
)
from repro.service import runner as runner_module
from repro.service.spec import CampaignSpec
from repro.smd.plan import DEFAULT_WINDOW
from repro.store import ShardedResultStore
from repro.workflow.streaming import run_streamed_study

OPERATOR = "spice-operator-token"
ADMIN = "spice-admin-token"

SPEC = {"kappas": [0.1], "velocities": [12.5], "n_samples": 4,
        "samples_per_task": 2, "n_records": 9}


def _post(path, token=OPERATOR, body=None, headers=None):
    merged = {"authorization": f"Bearer {token}"}
    merged.update(headers or {})
    return Request("POST", path, headers=merged,
                   body=json.dumps(SPEC if body is None else body).encode())


def _get(path, token=OPERATOR, query=None, headers=None):
    merged = {"authorization": f"Bearer {token}"}
    merged.update(headers or {})
    return Request("GET", path, query=query or {}, headers=merged)


@pytest.fixture
def app(tmp_path):
    service = build_service(os.fspath(tmp_path / "store"), inline=True,
                            sync=False, obs=Obs())
    yield service
    service.runner.close()


class TestSubmitToResult:
    def test_submit_completes_and_serves_the_pmf(self, app):
        created = app.handle(_post("/v1/campaigns"))
        assert created.status == 201
        doc = created.json()
        cid = doc["id"]
        assert created.headers["Location"] == f"/v1/campaigns/{cid}"
        assert doc["state"] == "completed"  # inline runner: synchronous
        assert doc["coalesced_with"] is None
        assert doc["links"]["result"] == f"/v1/campaigns/{cid}/result"

        fetched = app.handle(_get(f"/v1/campaigns/{cid}/result"))
        assert fetched.status == 200
        result = fetched.json()
        assert result["schema"] == "repro.service.result/v1"
        assert result["n_cells"] == 1 and result["n_tasks"] == 2
        assert result["degraded"] is False and result["dead_tasks"] == []
        cell = result["cells"][0]
        assert cell["kappa_pn"] == 0.1 and cell["velocity"] == 12.5
        assert len(cell["pmf"]) == len(cell["displacements"]) > 0
        assert cell["n_samples"] == SPEC["n_samples"]
        assert fetched.headers["ETag"] == f'"{result["content_digest"]}"'
        refreshed = app.handle(_get(f"/v1/campaigns/{cid}")).json()
        assert refreshed["result_digest"] == result["content_digest"]

    def test_etag_304_round_trip(self, app):
        cid = app.handle(_post("/v1/campaigns")).json()["id"]
        first = app.handle(_get(f"/v1/campaigns/{cid}/result"))
        etag = first.headers["ETag"]
        second = app.handle(_get(f"/v1/campaigns/{cid}/result",
                                 headers={"if-none-match": etag}))
        assert second.status == 304
        assert second.body == b""
        assert second.headers["ETag"] == etag
        assert app.obs.metrics.counter(
            "service.http.not_modified").value == 1
        # A stale ETag still gets the full document.
        stale = app.handle(_get(f"/v1/campaigns/{cid}/result",
                                headers={"If-None-Match": '"old"'}))
        assert stale.status == 200

    def test_result_of_nonterminal_campaign_is_409(self, tmp_path):
        gate = threading.Event()
        service = build_service(
            os.fspath(tmp_path / "store"), sync=False,
            task_fault=lambda cid, task, n: gate.wait(10))
        try:
            cid = service.handle(_post("/v1/campaigns")).json()["id"]
            response = service.handle(_get(f"/v1/campaigns/{cid}/result"))
            assert response.status == 409
            assert response.json()["error"]["code"] == "conflict"
        finally:
            gate.set()
            service.runner.close()

    def test_identical_resubmission_is_a_result_cache_hit(self, app):
        first = app.handle(_post("/v1/campaigns")).json()
        store = app.runner.store
        writes_before = store.writes
        second = app.handle(_post("/v1/campaigns"))
        assert second.status == 200  # not 201: nothing new was created
        doc = second.json()
        assert doc["coalesced_with"] == first["id"]
        assert doc["state"] == "completed"
        assert store.writes == writes_before  # zero store traffic
        assert app.obs.metrics.counter(
            "service.campaigns.cache_hits").value == 1
        # Both ids serve byte-identical results.
        a = app.handle(_get(f"/v1/campaigns/{first['id']}/result"))
        b = app.handle(_get(f"/v1/campaigns/{doc['id']}/result"))
        assert a.body == b.body and a.headers["ETag"] == b.headers["ETag"]

    def test_kernel_and_window_do_not_change_identity(self, app):
        first = app.handle(_post("/v1/campaigns")).json()
        other = dict(SPEC, kernel="reference", window=4)
        second = app.handle(_post("/v1/campaigns", body=other)).json()
        assert second["coalesced_with"] == first["id"]


class TestDefaultWindow:
    """A served grid of at most ``DEFAULT_WINDOW`` tasks is one window: one
    stacked engine call whose loop runs as long as its longest cell."""

    #: 2 kappa x 2 v x 8 one-replica tasks: two 16-task kappa rows.
    GRID = {"kappas": [100.0, 1000.0], "velocities": [25.0, 100.0],
            "n_samples": 8, "samples_per_task": 1, "n_records": 5,
            "distance": 0.5, "equilibration_ns": 0.001}

    def test_default_window_steps_the_grid_in_one_loop(
            self, app, monkeypatch):
        calls = []
        runs = []
        bind = AxialLandscape.stacked_derivative

        def spy(potential, total, column):
            evaluate = bind(potential, total, column)
            return lambda z: calls.append(len(z)) or evaluate(z)

        class Recording(runner_module._ProgressObs):
            def __init__(self, *args):
                super().__init__(*args)
                runs.append(self)

        monkeypatch.setattr(AxialLandscape, "stacked_derivative", spy)
        monkeypatch.setattr(runner_module, "_ProgressObs", Recording)
        spec = CampaignSpec.from_dict(self.GRID)
        assert spec.window == DEFAULT_WINDOW >= spec.n_tasks == 32

        def iterations(proto):
            """Loop iterations of one cell pulled alone (the first
            evaluation is the engine's set-up shape check)."""
            del calls[:]
            run_streamed_study(
                ReducedTranslocationModel(default_reduced_potential()),
                [proto], n_samples=spec.n_samples,
                samples_per_task=spec.samples_per_task, seed=spec.seed,
                store=None, n_records=spec.n_records)
            return len(calls) - 1

        alone = [iterations(proto) for proto in spec.protocols()]
        rows = [alone[:2], alone[2:]]                   # kappa-major grid
        del calls[:]
        created = app.handle(_post("/v1/campaigns", body=self.GRID))
        assert created.json()["state"] == "completed"
        [run] = runs
        assert len(run.tracer.named("smd.ensemble")) == 1
        assert len(calls) - 1 == max(alone) < sum(max(row) for row in rows)

    def test_window_never_changes_the_served_result(self, tmp_path):
        served = set()
        for window in (1, 16, None):
            spec = dict(self.GRID)
            if window is not None:
                spec["window"] = window
            service = build_service(os.fspath(tmp_path / f"w{window}"),
                                    inline=True, sync=False)
            try:
                cid = service.handle(
                    _post("/v1/campaigns", body=spec)).json()["id"]
                fetched = service.handle(_get(f"/v1/campaigns/{cid}/result"))
            finally:
                service.runner.close()
            assert fetched.status == 200
            served.add((fetched.body, fetched.headers["ETag"]))
        assert len(served) == 1


class TestConcurrentSubmissions:
    def test_two_clients_one_computation(self, tmp_path):
        """The acceptance check: two concurrent identical submissions
        produce exactly one set of store writes and bit-identical PMFs."""
        release = threading.Event()
        obs = Obs()
        store = ShardedResultStore(os.fspath(tmp_path / "store"), obs,
                                   sync=False)
        state = ServiceState(os.path.join(store.root, ".service"),
                             sync=False)
        runner = CampaignRunner(
            store, state, obs=obs,
            task_fault=lambda cid, task, n: release.wait(10))
        app = ServiceApp(runner, AuthRegistry.demo(), obs=obs)
        app.registry._tokens["other-token"] = Principal("bob", "operator")
        try:
            first = app.handle(_post("/v1/campaigns", OPERATOR)).json()
            assert first["state"] in ("pending", "running")
            # Second tenant submits the same physics mid-run.
            second = app.handle(_post("/v1/campaigns", "other-token"))
            assert second.status == 200
            doc = second.json()
            assert doc["coalesced_with"] == first["id"]
            assert doc["state"] == "running"
        finally:
            release.set()
            runner.close()

        spec_tasks = 2  # 1 cell x (4 samples / 2 per task)
        assert store.writes == spec_tasks
        assert store.misses == spec_tasks and store.hits == 0
        assert len(store) == spec_tasks
        assert obs.metrics.counter("service.campaigns.coalesced").value == 1

        a = app.handle(_get(f"/v1/campaigns/{first['id']}/result", OPERATOR))
        b = app.handle(_get(f"/v1/campaigns/{doc['id']}/result",
                            "other-token"))
        assert a.status == b.status == 200
        assert a.body == b.body
        assert a.headers["ETag"] == b.headers["ETag"]
        assert app.handle(
            _get(f"/v1/campaigns/{first['id']}", OPERATOR)
        ).json()["state"] == "completed"
        assert app.handle(
            _get(f"/v1/campaigns/{doc['id']}", "other-token")
        ).json()["state"] == "completed"

    def test_follower_cancel_leaves_primary_running(self, tmp_path):
        release = threading.Event()
        service = build_service(
            os.fspath(tmp_path / "store"), sync=False,
            task_fault=lambda cid, task, n: release.wait(10))
        try:
            first = service.handle(_post("/v1/campaigns")).json()
            follower = service.handle(_post("/v1/campaigns")).json()
            assert follower["coalesced_with"] == first["id"]
            cancelled = service.handle(
                _post(f"/v1/campaigns/{follower['id']}/cancel", body={}))
            assert cancelled.status == 202
            assert cancelled.json()["state"] == "cancelled"
        finally:
            release.set()
            service.runner.close()
        assert service.handle(
            _get(f"/v1/campaigns/{first['id']}")).json()["state"] \
            == "completed"
        assert service.handle(
            _get(f"/v1/campaigns/{follower['id']}")).json()["state"] \
            == "cancelled"


class TestCancellation:
    def test_cancel_mid_stream_leaves_store_consistent(self, tmp_path):
        """Cancel lands on a task boundary: durable records stay valid
        cache entries, and an identical resubmission resumes from them."""
        reached = threading.Event()
        release = threading.Event()
        calls = []

        def fault(cid, task, attempt):
            calls.append(task)
            if len(calls) == 2:
                reached.set()
                release.wait(10)

        spec = dict(SPEC, n_samples=6)  # 3 tasks
        service = build_service(os.fspath(tmp_path / "store"), sync=False,
                                task_fault=fault)
        store = service.runner.store
        cid = service.handle(_post("/v1/campaigns", body=spec)).json()["id"]
        assert reached.wait(10)  # worker holds before task 2's compute
        response = service.handle(
            _post(f"/v1/campaigns/{cid}/cancel", body={}))
        assert response.status == 202
        release.set()
        service.runner.close()

        doc = service.handle(_get(f"/v1/campaigns/{cid}")).json()
        assert doc["state"] == "cancelled"
        assert doc["result_digest"] is None
        # Two tasks crossed their boundary before the cancel landed; both
        # records are durable and the store scan-checks clean.
        assert store.writes == 2 and len(store) == 2
        assert len(store.fingerprints()) == 2
        result = service.handle(_get(f"/v1/campaigns/{cid}/result"))
        assert result.status == 409

        # The same spec resubmitted becomes a FRESH primary (cancelled
        # runs are never coalesced onto) and resumes via store hits.
        service.runner.task_fault = None
        resubmit = service.handle(_post("/v1/campaigns", body=spec))
        assert resubmit.status == 201
        service.runner.close()
        done = service.handle(
            _get(f"/v1/campaigns/{resubmit.json()['id']}")).json()
        assert done["state"] == "completed"
        assert store.writes == 3 and store.hits == 2

    def test_cancel_terminal_campaign_is_409(self, app):
        cid = app.handle(_post("/v1/campaigns")).json()["id"]
        response = app.handle(_post(f"/v1/campaigns/{cid}/cancel", body={}))
        assert response.status == 409


class TestEvents:
    def test_event_log_tells_the_campaign_story(self, app):
        cid = app.handle(_post("/v1/campaigns")).json()["id"]
        response = app.handle(_get(f"/v1/campaigns/{cid}/events"))
        assert response.status == 200
        assert response.headers["Content-Type"] == "application/jsonl"
        events = [json.loads(line)
                  for line in response.text.splitlines() if line]
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "state" and "progress" in kinds
        assert events[-1] == {"kind": "state", "seq": len(events),
                              "state": "completed",
                              "detail": "2 task(s), 0 dead-lettered"}
        progress = [e for e in events if e["kind"] == "progress"]
        assert progress[-1]["resolved"] == progress[-1]["total"] == 2

    def test_since_filters_and_wait_returns_on_terminal(self, app):
        cid = app.handle(_post("/v1/campaigns")).json()["id"]
        all_events = app.handle(
            _get(f"/v1/campaigns/{cid}/events")).text.splitlines()
        last = json.loads(all_events[-1])["seq"]
        tail = app.handle(_get(f"/v1/campaigns/{cid}/events",
                               query={"since": str(last - 1)}))
        assert len(tail.text.splitlines()) == 1
        # wait=1 on a drained terminal campaign returns empty immediately
        # instead of blocking out the long-poll timeout.
        empty = app.handle(_get(f"/v1/campaigns/{cid}/events",
                                query={"since": str(last), "wait": "1"}))
        assert empty.text == ""

    def test_bad_since_is_400(self, app):
        cid = app.handle(_post("/v1/campaigns")).json()["id"]
        response = app.handle(_get(f"/v1/campaigns/{cid}/events",
                                   query={"since": "soon"}))
        assert response.status == 400


    def test_a_non_integer_seq_line_does_not_break_the_read(self, app):
        cid = app.handle(_post("/v1/campaigns")).json()["id"]
        before = app.handle(_get(f"/v1/campaigns/{cid}/events")).text
        path = os.path.join(app.runner.state.root, "events", cid + ".jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq":"7"}\n{"seq":true}\n')
        for query in ({}, {"since": "1"}):
            response = app.handle(_get(f"/v1/campaigns/{cid}/events",
                                       query=query))
            assert response.status == 200
            assert response.text == "".join(
                before.splitlines(keepends=True)[int(query.get("since", 0)):])


def _event_log(service, cid):
    """One campaign's event log: its bytes and its parsed lines."""
    path = os.path.join(service.runner.state.root, "events", cid + ".jsonl")
    with open(path, "rb") as handle:
        data = handle.read()
    return data, [json.loads(line) for line in data.splitlines()]


class TestWindowProgress:
    """Progress events are committed once per executor window: the same
    lines, seqs and order as one append per event, at one fsync a window."""

    FIRST = {"kappas": [0.1], "velocities": [12.5], "n_samples": 8,
             "samples_per_task": 2, "n_records": 9}
    #: FIRST's four tasks are hits here; the kappa=0.2 cell's four are
    #: computed, but for task 6, which dead-letters.  Windows of 3 tasks.
    MIXED = dict(FIRST, kappas=[0.1, 0.2], window=3)
    #: 64 one-replica tasks: one default window.
    WIDE = {"kappas": [100.0], "velocities": [25.0], "n_samples": 64,
            "samples_per_task": 1, "n_records": 5, "distance": 0.5,
            "equilibration_ns": 0.001}

    def _transcript(self, root):
        def fault(cid, task, attempt):
            if cid == "c-000002" and task.index == 6:
                raise PermanentTaskFailure("injected pore collapse")

        service = build_service(root, inline=True, sync=True,
                                task_fault=fault)
        try:
            ids = [service.handle(_post("/v1/campaigns", body=body))
                   .json()["id"] for body in (self.FIRST, self.MIXED)]
            return [_event_log(service, cid) for cid in ids]
        finally:
            service.runner.close()

    def test_the_transcript_is_that_of_one_append_per_event(
            self, tmp_path, monkeypatch):
        batched = self._transcript(os.fspath(tmp_path / "batched"))
        append_event = ServiceState.append_event

        def one_per_call(state, campaign_id, *events):
            for event in events:
                seq = append_event(state, campaign_id, event)
            return seq

        monkeypatch.setattr(ServiceState, "append_event", one_per_call)
        reference = self._transcript(os.fspath(tmp_path / "reference"))
        assert [data for data, _ in batched] == \
            [data for data, _ in reference]
        _, events = batched[1]
        assert events[-1]["state"] == "degraded"
        assert [(e["hits"], e["computed"], e["dead_lettered"])
                for e in events if e["kind"] == "progress"] == [
            (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0), (4, 1, 0),
            (4, 2, 0), (4, 2, 1), (4, 3, 1)]

    @pytest.mark.parametrize("window, windows", [(None, 1), (16, 4)])
    def test_one_event_fsync_per_window_and_lifecycle_event(
            self, tmp_path, monkeypatch, window, windows):
        synced = []
        fsync = os.fsync

        def spy(fd):
            stat = os.fstat(fd)
            synced.append((stat.st_dev, stat.st_ino))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        body = dict(self.WIDE) if window is None \
            else dict(self.WIDE, window=window)
        service = build_service(os.fspath(tmp_path / "store"), inline=True,
                                sync=True)
        try:
            cid = service.handle(_post("/v1/campaigns", body=body)).json()["id"]
            _, events = _event_log(service, cid)
        finally:
            service.runner.close()
        assert [e["state"] for e in events if e["kind"] == "state"] == [
            "pending", "running", "completed"]
        assert len(events) == 64 + 3
        log = os.stat(os.path.join(service.runner.state.root, "events",
                                   cid + ".jsonl"))
        assert synced.count((log.st_dev, log.st_ino)) == windows + 3

    def test_a_cancel_commits_the_resolved_progress_first(self, tmp_path):
        def fault(cid, task, attempt):
            if task.index == 2:     # the first task of the second window
                service.runner.cancel(cid)

        service = build_service(os.fspath(tmp_path / "store"), inline=True,
                                sync=False, task_fault=fault)
        try:
            body = dict(SPEC, n_samples=12, window=2)           # 6 tasks
            cid = service.handle(_post("/v1/campaigns", body=body)).json()["id"]
            _, events = _event_log(service, cid)
        finally:
            service.runner.close()
        # Task 2 was put before task 3's cancel check raised mid-window.
        assert service.runner.store.writes == 3
        assert [e.get("state") or e["resolved"] for e in events] == [
            "pending", "running", 1, 2, 3, "cancelled"]


class TestDlqRetry:
    SPEC2 = {"kappas": [0.1, 0.2], "velocities": [12.5], "n_samples": 2,
             "samples_per_task": 2, "n_records": 9}
    POISONED = ("cell", 200, 12500)  # the kappa=0.2 cell's label

    def test_degraded_campaign_retries_to_completion(self, tmp_path):
        poison = {"on": True}

        def fault(cid, task, attempt):
            if poison["on"] and task.cell == self.POISONED:
                raise PermanentTaskFailure("injected pore collapse")

        service = build_service(os.fspath(tmp_path / "store"), inline=True,
                                sync=False, obs=Obs(), task_fault=fault)
        cid = service.handle(
            _post("/v1/campaigns", body=self.SPEC2)).json()["id"]
        doc = service.handle(_get(f"/v1/campaigns/{cid}")).json()
        assert doc["state"] == "degraded"

        degraded = service.handle(
            _get(f"/v1/campaigns/{cid}/result")).json()
        assert degraded["degraded"] is True
        assert degraded["n_cells"] == 1 and len(degraded["dead_tasks"]) == 1
        old_etag = f'"{degraded["content_digest"]}"'

        listed = service.handle(_get(f"/v1/campaigns/{cid}/dlq")).json()
        assert listed["depth"] == 1 and len(listed["entries"]) == 1
        assert listed["entries"][0]["reason"] == "permanent-failure"

        # Heal the fault, then retry: requeued task recomputes, healthy
        # task is a store hit, result document is rebuilt clean.
        poison["on"] = False
        retried = service.handle(
            _post(f"/v1/campaigns/{cid}/dlq/retry", body={}))
        assert retried.status == 202
        doc = service.handle(_get(f"/v1/campaigns/{cid}")).json()
        assert doc["state"] == "completed"
        healed = service.handle(_get(f"/v1/campaigns/{cid}/result"))
        assert healed.status == 200
        fresh = healed.json()
        assert fresh["degraded"] is False and fresh["n_cells"] == 2
        assert healed.headers["ETag"] != old_etag  # dead set changed
        # Conditional GET with the stale degraded-era ETag refetches.
        assert service.handle(
            _get(f"/v1/campaigns/{cid}/result",
                 headers={"If-None-Match": old_etag})).status == 200

        after = service.handle(_get(f"/v1/campaigns/{cid}/dlq")).json()
        assert after["depth"] == 0
        assert after["entries"][0]["requeued"] is True
        assert service.obs.metrics.counter(
            "service.dlq.requeued").value == 1
        service.runner.close()

    def _primary_and_twin(self, tmp_path, fault, spec=None):
        """A degraded primary and its result-cache twin, both served the
        one degraded result document."""
        service = build_service(os.fspath(tmp_path / "store"), inline=True,
                                sync=False, task_fault=fault)
        spec = spec or self.SPEC2
        primary = service.handle(
            _post("/v1/campaigns", body=spec)).json()["id"]
        twin = service.handle(_post("/v1/campaigns", body=spec)).json()
        assert twin["state"] == "degraded"
        assert twin["coalesced_with"] == primary
        return service, primary, twin["id"]

    @staticmethod
    def _served(service, cid):
        """(state, ETag, body) of one campaign, checking the ETag names
        the body it came with."""
        state = service.handle(_get(f"/v1/campaigns/{cid}")).json()["state"]
        served = service.handle(_get(f"/v1/campaigns/{cid}/result"))
        assert served.status == 200
        body = served.json()
        assert served.headers["ETag"] == f'"{body["content_digest"]}"'
        return state, served.headers["ETag"], body

    @pytest.mark.parametrize("retried", ["primary", "twin"])
    def test_healed_retry_carries_every_twin_to_the_new_result(
            self, tmp_path, retried):
        """A twin served from the result cache shares its primary's result
        document; once a DLQ retry (posted on either record) rewrites that
        document, the other record's state and ETag follow it without
        passing through ``running``."""
        poison = {"on": True}

        def fault(cid, task, attempt):
            if poison["on"] and task.cell == self.POISONED:
                raise PermanentTaskFailure("injected pore collapse")

        service, primary, twin = self._primary_and_twin(tmp_path, fault)
        target, other = (primary, twin) if retried == "primary" \
            else (twin, primary)
        poison["on"] = False
        assert service.handle(_post(f"/v1/campaigns/{target}/dlq/retry",
                                    body={})).status == 202
        for cid in (target, other):
            state, _, body = self._served(service, cid)
            assert state == "completed" and body["degraded"] is False
        history = service.handle(
            _get(f"/v1/campaigns/{other}")).json()["transitions"]
        assert [t["to"] for t in history][-1] == "completed"
        assert "running" not in [t["to"] for t in history[1:]]
        service.runner.close()

    def test_cancelled_retry_leaves_the_twin_serving_its_result(
            self, tmp_path):
        """Two poisoned tasks: the retry is cancelled at the first one's
        compute, so the second never runs and the document is untouched."""
        phase = {"now": "poisoned"}

        def fault(cid, task, attempt):
            if task.cell != self.POISONED:
                return
            if phase["now"] == "poisoned":
                raise PermanentTaskFailure("injected pore collapse")
            service.handle(_post(f"/v1/campaigns/{cid}/cancel", body={}))

        spec = dict(self.SPEC2, n_samples=4)  # two tasks per cell
        service, primary, twin = self._primary_and_twin(tmp_path, fault,
                                                         spec)
        before = self._served(service, twin)
        phase["now"] = "healing"
        assert service.handle(_post(f"/v1/campaigns/{primary}/dlq/retry",
                                    body={})).status == 202
        assert service.handle(
            _get(f"/v1/campaigns/{primary}")).json()["state"] == "cancelled"
        assert self._served(service, twin) == before
        assert before[0] == "degraded"
        service.runner.close()

    def test_failed_retry_leaves_the_twin_serving_its_result(self, tmp_path):
        phase = {"now": "poisoned"}

        def fault(cid, task, attempt):
            if task.cell != self.POISONED:
                return
            if phase["now"] == "poisoned":
                raise PermanentTaskFailure("injected pore collapse")
            raise RuntimeError("worker lost its scratch disk")

        service, primary, twin = self._primary_and_twin(tmp_path, fault)
        before = self._served(service, twin)
        phase["now"] = "broken"
        assert service.handle(_post(f"/v1/campaigns/{primary}/dlq/retry",
                                    body={})).status == 202
        assert service.handle(
            _get(f"/v1/campaigns/{primary}")).json()["state"] == "failed"
        assert self._served(service, twin) == before
        assert before[0] == "degraded"
        service.runner.close()

    def test_retry_on_non_degraded_campaign_is_409(self, app):
        cid = app.handle(_post("/v1/campaigns")).json()["id"]
        response = app.handle(
            _post(f"/v1/campaigns/{cid}/dlq/retry", body={}))
        assert response.status == 409
        assert "degraded" in response.json()["error"]["message"]

    def test_dlq_view_is_scoped_to_the_campaign(self, tmp_path):
        poison = {"on": True}

        def fault(cid, task, attempt):
            if poison["on"] and task.cell == self.POISONED:
                raise PermanentTaskFailure("injected")

        service = build_service(os.fspath(tmp_path / "store"), inline=True,
                                sync=False, task_fault=fault)
        bad = service.handle(
            _post("/v1/campaigns", body=self.SPEC2)).json()["id"]
        poison["on"] = False
        clean = service.handle(_post("/v1/campaigns")).json()["id"]
        assert service.handle(
            _get(f"/v1/campaigns/{bad}/dlq")).json()["depth"] == 1
        # The healthy campaign shares the queue file but sees none of it.
        assert service.handle(
            _get(f"/v1/campaigns/{clean}/dlq")).json() == {
                "campaign": clean, "depth": 0, "entries": []}
        service.runner.close()


class TestRoutingAndMetrics:
    def test_unknown_path_and_method_mismatch_are_404(self, app):
        assert app.handle(_get("/v1/nope")).status == 404
        assert app.handle(
            Request("DELETE", "/v1/campaigns",
                    headers={"authorization": f"Bearer {OPERATOR}"})
        ).status == 404

    def test_healthz_reports_campaign_count(self, app):
        assert app.handle(_get("/v1/healthz")).json()["campaigns"] == 0
        app.handle(_post("/v1/campaigns"))
        assert app.handle(_get("/v1/healthz")).json()["campaigns"] == 1

    def test_metrics_surface_service_store_and_dlq(self, app):
        app.handle(_post("/v1/campaigns"))
        doc = app.handle(_get("/v1/metrics", ADMIN)).json()
        assert doc["service"]["service.campaigns.submitted"] == 1
        assert doc["service"]["service.campaigns.completed"] == 1
        assert doc["store"]["writes"] == 2
        assert doc["store"]["records"] == 2
        assert doc["dlq"]["depth"] == 0

    def test_list_orders_campaigns_by_id(self, app):
        first = app.handle(_post("/v1/campaigns")).json()["id"]
        second = app.handle(_post(
            "/v1/campaigns", body=dict(SPEC, kappas=[0.3]))).json()["id"]
        listed = app.handle(_get("/v1/campaigns")).json()["campaigns"]
        assert [c["id"] for c in listed] == [first, second]
