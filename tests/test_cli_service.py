"""CLI surface of the service layer: `repro submit` / `repro status`
against a live server, `repro dlq list|retry` offline, and the
missing-flag guards every service command must raise cleanly."""

import asyncio
import json
import os
import shlex
import threading

import pytest

from repro.cli import main
from repro.resil import DeadLetterQueue
from repro.service import ServiceServer, build_service

SPEC = {"kappas": [0.1], "velocities": [12.5], "n_samples": 4,
        "samples_per_task": 2, "n_records": 9}


class TestMissingFlagGuards:
    """The parser keeps every flag optional (the global CLI contract);
    the runners must reject missing ones with a readable error."""

    def test_serve_requires_store(self, capsys):
        assert main(["serve"]) == 1
        assert "--store" in capsys.readouterr().err

    def test_submit_requires_spec(self, capsys):
        assert main(["submit"]) == 1
        assert "--spec" in capsys.readouterr().err

    def test_dlq_requires_store(self, capsys):
        assert main(["dlq"]) == 1
        assert "--store" in capsys.readouterr().err

    def test_dlq_requires_existing_queue(self, tmp_path, capsys):
        assert main(["dlq", "--store", os.fspath(tmp_path)]) == 1
        assert "no dead-letter queue" in capsys.readouterr().err

    def test_submit_unreadable_spec_file(self, tmp_path, capsys):
        missing = os.fspath(tmp_path / "nope.json")
        assert main(["submit", "--spec", missing]) == 1
        assert "cannot read spec file" in capsys.readouterr().err


class TestDlqCommand:
    @pytest.fixture
    def store(self, tmp_path):
        root = os.fspath(tmp_path / "store")
        dlq = DeadLetterQueue(os.path.join(root, "DLQ.jsonl"))
        dlq.record(task_key=("cell", 1), reason="retry-exhausted",
                   attempts=3, last_error="boom", fingerprint="fp-a")
        dlq.record(task_key=("cell", 2), reason="permanent-failure",
                   attempts=1, last_error="poisoned", fingerprint="fp-b")
        return root

    def test_list_shows_depth_and_entries(self, store, capsys):
        assert main(["dlq", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "depth 2" in out and "total 2" in out
        assert "[retry-exhausted] cell,1" in out
        assert "[permanent-failure] cell,2" in out

    def test_retry_requeues_everything(self, store, capsys):
        assert main(["dlq", "retry", "--store", store, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["action"] == "retry"
        assert sorted(doc["requeued"]) == ["fp-a", "fp-b"]
        assert doc["summary"]["depth"] == 0
        assert doc["summary"]["requeued"] == 2
        # Durable: a fresh listing sees the tombstones, and a second
        # retry is an idempotent no-op.
        assert main(["dlq", "--store", store]) == 0
        assert "[requeued]" in capsys.readouterr().out
        assert main(["dlq", "retry", "--store", store, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["requeued"] == []

    def test_retry_by_fingerprint_is_selective(self, store, capsys):
        assert main(["dlq", "retry", "--store", store,
                     "--fingerprint", "fp-b", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["requeued"] == ["fp-b"]
        assert doc["summary"]["depth"] == 1

    def test_retry_prints_the_replay_hint(self, store, capsys):
        assert main(["dlq", "retry", "--store", store]) == 0
        out = capsys.readouterr().out
        assert f"repro campaign --store {store} --resume --dlq" in out

    def test_replay_hint_runs_on_a_plain_campaign_store(self, tmp_path,
                                                        capsys):
        """The printed command must be accepted by the store directory a
        plain ``campaign --store D --dlq`` wrote (it used to add a layout
        flag that such a directory refused)."""
        root = os.fspath(tmp_path / "store")
        size = ["--replicas", "2", "--seed", "1"]
        assert main(["campaign", "--store", root, "--dlq", *size]) == 0
        DeadLetterQueue(os.path.join(root, "DLQ.jsonl")).record(
            task_key=("cell", 1), reason="retry-exhausted", attempts=3,
            last_error="boom", fingerprint="fp-a")
        capsys.readouterr()
        assert main(["dlq", "retry", "--store", root]) == 0
        hint = capsys.readouterr().out.split("replay with: repro ")[1]
        assert main([*shlex.split(hint), *size, "--json"]) == 0
        traffic = json.loads(capsys.readouterr().out)["store"]["traffic"]
        assert traffic["misses"] == traffic["writes"] == 0

    def test_layout_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--store", "x", "--sharded"])
        assert exc.value.code == 2
        assert "--sharded" in capsys.readouterr().err


class _LiveServer:
    def __init__(self, app):
        self.server = ServiceServer(app, port=0)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main, daemon=True)

    def _main(self):
        async def body():
            await self.server.start()
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._ready.set()
            await self._stop.wait()
            await self.server.stop()

        asyncio.run(body())

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10)
        return self

    def __exit__(self, *exc_info):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server.port}"


class TestSubmitAndStatus:
    @pytest.fixture
    def live(self, tmp_path):
        app = build_service(os.fspath(tmp_path / "store"), sync=False)
        with _LiveServer(app) as server:
            yield server

    def test_submit_wait_then_status(self, live, tmp_path, capsys):
        spec_path = os.fspath(tmp_path / "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(SPEC, handle)

        assert main(["submit", "--url", live.url, "--spec", spec_path,
                     "--wait", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)["campaign"]
        assert doc["state"] == "completed"
        cid = doc["id"]

        assert main(["status", "--url", live.url]) == 0
        listing = capsys.readouterr().out
        assert cid in listing and "completed" in listing

        assert main(["status", cid, "--url", live.url, "--result",
                     "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["campaign"]["id"] == cid
        assert summary["result"]["n_cells"] == 1
        assert summary["result"]["content_digest"] \
            == summary["campaign"]["result_digest"]

    def test_submit_from_stdin_and_coalescing_note(self, live, tmp_path,
                                                   capsys, monkeypatch):
        import io

        spec_path = os.fspath(tmp_path / "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(SPEC, handle)
        assert main(["submit", "--url", live.url, "--spec", spec_path,
                     "--wait"]) == 0
        capsys.readouterr()
        # Identical spec over stdin: the CLI surfaces the coalescing.
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(SPEC)))
        assert main(["submit", "--url", live.url, "--spec", "-"]) == 0
        out = capsys.readouterr().out
        assert "coalesced: served by c-000001" in out

    def test_status_of_unknown_campaign_fails_cleanly(self, live, capsys):
        assert main(["status", "c-999999", "--url", live.url]) == 1
        assert "404" in capsys.readouterr().err
