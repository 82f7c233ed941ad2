"""Generate docs/API.md and docs/api-transcripts.json from a live service.

The endpoint reference is a *captured* artifact, not a hand-written one:
this script builds an in-memory service (demo tokens, inline runner,
fixed seed), drives one scripted session through every endpoint, and
renders the real request/response pairs into markdown.  Because the
service persists no wall-clock timestamps and the physics is seeded, the
output is byte-reproducible — ``tests/test_service_docs.py`` regenerates
it and diffs against the committed files, and the CI ``service-smoke``
job does the same, so the documentation can never drift from the code.

Regenerate after any API change::

    PYTHONPATH=src python tools/make_api_docs.py
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.errors import PermanentTaskFailure  # noqa: E402
from repro.obs import Obs  # noqa: E402
from repro.service import Request, build_service  # noqa: E402
from repro.store import canonical_json  # noqa: E402

TRANSCRIPT_SCHEMA = "repro.service.transcripts/v1"

#: The tiny demo campaign every sample uses: 1 cell, 2 store tasks.
DEMO_SPEC = {"kappas": [0.1], "velocities": [12.5], "n_samples": 4,
             "samples_per_task": 2, "n_records": 9}

#: A 2-cell spec whose kappa=0.2 cell is poisoned to demo the DLQ flow.
DEGRADED_SPEC = {"kappas": [0.1, 0.2], "velocities": [12.5],
                 "n_samples": 2, "samples_per_task": 2, "n_records": 9}
POISONED_CELL = ("cell", 200, 12500)

OPERATOR = "spice-operator-token"
VIEWER = "spice-viewer-token"
ADMIN = "spice-admin-token"


class _DeferredExecutor:
    """Captures scheduled runs instead of spawning threads, so the
    cancel-before-start sample is single-threaded and deterministic."""

    def __init__(self):
        self.calls = []

    def submit(self, fn, *args):
        self.calls.append((fn, args))

    def shutdown(self, wait=True):
        pass

    def drain(self):
        for fn, args in self.calls:
            fn(*args)
        self.calls.clear()


class _Session:
    """One scripted API session; records every exchange it performs."""

    def __init__(self, app):
        self.app = app
        self.exchanges = []

    def call(self, title, notes, method, path, *, token=None, body=None,
             query=None, headers=None):
        send_headers = {}
        if token:
            send_headers["Authorization"] = f"Bearer {token}"
        send_headers.update(headers or {})
        raw = b""
        if body is not None:
            raw = json.dumps(body, sort_keys=True).encode("utf-8")
            send_headers["Content-Type"] = "application/json"
        request = Request(method, path, query=dict(query or {}),
                          headers=send_headers, body=raw)
        response = self.app.handle(request)
        exchange = {
            "title": title,
            "notes": notes,
            "request": {
                "method": method,
                "path": path,
                "query": dict(query or {}),
                "headers": send_headers,
                "body": body,
            },
            "response": {
                "status": response.status,
                "headers": dict(response.headers),
                "body": response.body.decode("utf-8"),
            },
        }
        self.exchanges.append(exchange)
        return response


def drive_session(app):
    """Run the scripted session; returns the recorded exchanges."""
    s = _Session(app)
    runner = app.runner

    s.call(
        "Liveness probe", [
            "The only unauthenticated endpoint — suitable for load "
            "balancer and container health checks.",
        ],
        "GET", "/v1/healthz")

    created = s.call(
        "Submit a campaign", [
            "Requires the `operator` role.  The spec is validated "
            "strictly (unknown fields are a 400, not a silent default) "
            "and normalized; its fingerprint is the coalescing key.",
            "A fresh submission answers **201** with a `Location` header. "
            "The demo runner here is synchronous, so the returned "
            "resource is already `completed`; against a real server "
            "expect `pending`/`running` and poll `/events`.",
        ],
        "POST", "/v1/campaigns", token=OPERATOR, body=DEMO_SPEC)
    cid = created.json()["id"]

    s.call(
        "Resubmit an identical spec", [
            "Same physics, second client: the service answers **200** "
            "(not 201) with a fresh campaign id whose `coalesced_with` "
            "names the original.  No store task is recomputed — the "
            "whole point of content-addressed caching.  Submissions "
            "identical to an *in-flight* campaign attach the same way "
            "and complete when their primary does.",
        ],
        "POST", "/v1/campaigns", token=OPERATOR, body=DEMO_SPEC)

    s.call(
        "List campaigns", [
            "Non-admin principals see only their own campaigns; admins "
            "see everyone's.",
        ],
        "GET", "/v1/campaigns", token=OPERATOR)

    s.call(
        "Fetch one campaign", [
            "The full durable record: spec, owner, lifecycle history "
            "(every transition, sequence-numbered) and the result "
            "digest once terminal.",
        ],
        "GET", f"/v1/campaigns/{cid}", token=OPERATOR)

    s.call(
        "Read the event log", [
            "JSON lines, each with a per-campaign monotonic `seq`.  "
            "`?since=N` returns only events newer than the client's "
            "watermark; `?wait=1` long-polls until there is news or the "
            "server timeout lapses.  A disconnected client resumes with "
            "`since=<last seq>` and misses nothing.",
        ],
        "GET", f"/v1/campaigns/{cid}/events", token=OPERATOR,
        query={"since": "2"})

    result = s.call(
        "Fetch the result", [
            "Only terminal campaigns have results (**409** otherwise: "
            "poll `/events`).  The `ETag` is the campaign's "
            "content digest — a SHA-256 over its sorted store task "
            "fingerprints, dead-letter set and spec identity — so it is "
            "bit-stable across re-runs, kernels and coalesced "
            "submissions (see DESIGN.md §13).",
        ],
        "GET", f"/v1/campaigns/{cid}/result", token=OPERATOR)
    etag = result.headers["ETag"]

    s.call(
        "Conditional fetch (ETag round-trip)", [
            "Replay the `ETag` as `If-None-Match`: an unchanged result "
            "is a bodyless **304**, so pollers pay one header exchange, "
            "not a PMF download.",
        ],
        "GET", f"/v1/campaigns/{cid}/result", token=OPERATOR,
        headers={"If-None-Match": etag})

    # Cancel sample: defer execution so the campaign is still pending
    # when the cancel lands (single-threaded, hence byte-reproducible).
    deferred = _DeferredExecutor()
    runner.inline = False
    runner._executor = deferred
    cancel_spec = dict(DEMO_SPEC, kappas=[0.3])
    pending = s.call(
        "Submit, then cancel", [
            "Cancellation is a *request* (**202**): it lands on the "
            "next task boundary, so every store record already written "
            "stays durable and remains a valid cache entry for any "
            "future identical submission.  Terminal campaigns answer "
            "**409**.",
        ],
        "POST", "/v1/campaigns", token=OPERATOR, body=cancel_spec)
    pending_id = pending.json()["id"]
    s.call(
        "Cancel the pending campaign", [],
        "POST", f"/v1/campaigns/{pending_id}/cancel", token=OPERATOR)
    runner.inline = True
    runner._executor = None
    deferred.drain()
    s.call(
        "A cancelled campaign has no result", [
            "`failed` and `cancelled` campaigns answer **409** on "
            "`/result`; resubmitting the same spec starts a fresh "
            "primary that reuses every store record the cancelled run "
            "left behind.",
        ],
        "GET", f"/v1/campaigns/{pending_id}/result", token=OPERATOR)

    # Degraded campaign: poison one cell, then heal and retry via DLQ.
    poison = {"on": True}

    def task_fault(campaign_id, task, attempt):
        if poison["on"] and task.cell == POISONED_CELL:
            raise PermanentTaskFailure("injected pore collapse (docs demo)")

    runner.task_fault = task_fault
    degraded = s.call(
        "A degraded campaign", [
            "One cell's task fails terminally (a `PermanentTaskFailure` "
            "injected for this demo).  The campaign still completes — "
            "state `degraded` — with the surviving cells' PMFs and the "
            "failed task dead-lettered, never silently dropped.",
        ],
        "POST", "/v1/campaigns", token=OPERATOR, body=DEGRADED_SPEC)
    degraded_id = degraded.json()["id"]

    s.call(
        "Inspect its dead letters", [
            "The shared queue filtered to this campaign's task "
            "fingerprints (one tenant's failures are invisible to "
            "another's view).  `depth` counts entries still active; "
            "requeued entries remain as tombstones with their delivery "
            "history.",
        ],
        "GET", f"/v1/campaigns/{degraded_id}/dlq", token=OPERATOR)

    poison["on"] = False
    runner.task_fault = None
    s.call(
        "Requeue and re-run the dead letters", [
            "Only `degraded` campaigns have this edge (**409** "
            "otherwise).  Requeueing is idempotent; on the re-run, "
            "completed tasks resolve as store hits and only the "
            "requeued ones recompute.  Here the fault was transient, so "
            "the campaign finishes `completed` with a new result digest "
            "(the dead set changed, so the ETag changed with it).",
        ],
        "POST", f"/v1/campaigns/{degraded_id}/dlq/retry", token=OPERATOR)

    s.call(
        "Fetch the healed result", [],
        "GET", f"/v1/campaigns/{degraded_id}/result", token=OPERATOR)

    s.call(
        "Missing credentials", [
            "Every endpoint except `/v1/healthz` requires "
            "`Authorization: Bearer <token>`.  Errors never echo the "
            "presented token.",
        ],
        "GET", "/v1/campaigns")
    s.call(
        "Insufficient role", [
            "`viewer` tokens may read but not submit, cancel or retry.",
        ],
        "POST", "/v1/campaigns", token=VIEWER, body=DEMO_SPEC)
    s.call(
        "Invalid spec", [
            "Unknown fields are rejected rather than ignored — a typo "
            "must never silently change the physics a client requested.",
        ],
        "POST", "/v1/campaigns", token=OPERATOR,
        body=dict(DEMO_SPEC, sample_per_task=2))
    s.call(
        "Unknown (or foreign) campaign", [
            "A campaign owned by another user answers the *same* 404 as "
            "a nonexistent id — the API never leaks which ids exist.",
        ],
        "GET", "/v1/campaigns/c-999999", token=OPERATOR)

    s.call(
        "Service metrics", [
            "Counters for this server's lifetime (requires any valid "
            "token): the `service.*` families, the shared store's "
            "hit/miss/write traffic, and the DLQ summary.  This endpoint "
            "is the only place they are served; `repro report` run "
            "reports do not carry them.",
        ],
        "GET", "/v1/metrics", token=ADMIN)

    return s.exchanges


# -- rendering -----------------------------------------------------------------

_PREAMBLE = """\
# Campaign service API (v1)

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: PYTHONPATH=src python tools/make_api_docs.py
     tests/test_service_docs.py and the CI service-smoke job diff this
     file against a fresh capture, so edits here will fail the build. -->

An async HTTP/JSON API over the campaign layer: submit study campaigns,
watch their progress, fetch PMF results — many clients, one shared
content-addressed result store, so identical physics is computed once no
matter how many tenants ask for it.

Start a server and talk to it:

```console
$ repro serve --store /var/lib/spice/store --port 8750
$ repro submit --url http://127.0.0.1:8750 --spec examples/specs/tiny_study.json --wait
$ repro status --url http://127.0.0.1:8750
```

Every sample below is a real request/response pair captured from a live
in-memory service by `tools/make_api_docs.py` (demo tokens, fixed seed).
The service persists no wall-clock timestamps — ordering is carried by
sequence numbers — which is why these payloads are byte-reproducible.

## Authentication

All endpoints except `GET /v1/healthz` require a bearer token:

    Authorization: Bearer <token>

Three ordered roles: `viewer` (read), `operator` (read + submit/cancel/
retry own campaigns), `admin` (everything, all campaigns).  Non-admins
see and control only campaigns they own; a foreign campaign id behaves
exactly like a nonexistent one.  Tokens come from a JSON tokens file
(`repro serve --tokens FILE`, see `repro.service.auth`); without one the
server uses fixed demo tokens (`spice-admin-token`,
`spice-operator-token`, `spice-viewer-token`) suitable only for a
laptop.

## Errors

Errors are JSON (`{"error": {"code": ..., "message": ...}}`) with a
fixed machine-readable code per status:

| Status | Code | Meaning |
|---|---|---|
| 400 | `invalid-spec` | malformed JSON body, unknown/ill-typed spec field, or more than 10 000 000 record values (kappas × velocities × `n_samples` × `n_records`) |
| 401 | `unauthenticated` | missing, malformed or unknown bearer token |
| 403 | `forbidden` | the token's role may not perform this action |
| 404 | `not-found` | no such route, campaign id, or not your campaign |
| 409 | `conflict` | illegal lifecycle edge (result of a running campaign, cancel of a terminal one, retry of a non-degraded one) |
| 413 | — | request body over 8 MiB (rejected at the framing layer) |
| 429 | `quota-exceeded` | per-user active-campaign or task-count ceiling hit |

## Campaign lifecycle

```
pending ──> running ──> completed
   │           ├──────> degraded ──(dlq retry)──> running
   │           ├──────> failed
   └───────────┴──────> cancelled
```

`completed`, `failed` and `cancelled` are terminal.  `degraded` is
terminal except for the DLQ-retry edge, and for `degraded -> completed`:
a result-cache twin whose spec's retry healed the result both serve.
Coalesced submissions may jump `pending -> completed/degraded` directly
(a result-cache hit never runs).

## Endpoints

"""


def _pretty_body(exchange):
    text = exchange["response"]["body"]
    content_type = exchange["response"]["headers"].get("Content-Type", "")
    if not text:
        return ""
    if "jsonl" in content_type:
        return text.rstrip("\n")
    try:
        return json.dumps(json.loads(text), indent=2, sort_keys=True)
    except ValueError:
        return text.rstrip("\n")


def _render_exchange(exchange):
    lines = []
    request = exchange["request"]
    response = exchange["response"]
    target = request["path"]
    if request["query"]:
        target += "?" + "&".join(
            f"{k}={v}" for k, v in sorted(request["query"].items()))
    lines.append(f"### {exchange['title']}")
    lines.append("")
    for note in exchange["notes"]:
        lines.append(note)
        lines.append("")
    lines.append("```http")
    lines.append(f"{request['method']} {target} HTTP/1.1")
    for name in sorted(request["headers"]):
        lines.append(f"{name}: {request['headers'][name]}")
    if request["body"] is not None:
        lines.append("")
        lines.append(json.dumps(request["body"], indent=2, sort_keys=True))
    lines.append("```")
    lines.append("")
    lines.append("```http")
    lines.append(f"HTTP/1.1 {response['status']}")
    for name in sorted(response["headers"]):
        lines.append(f"{name}: {response['headers'][name]}")
    body = _pretty_body(exchange)
    if body:
        lines.append("")
        lines.append(body)
    lines.append("```")
    lines.append("")
    return lines


def generate():
    """Build (api_md_text, transcripts_json_text), byte-reproducibly."""
    with tempfile.TemporaryDirectory() as root:
        app = build_service(os.path.join(root, "store"), inline=True,
                            sync=False, obs=Obs())
        try:
            exchanges = drive_session(app)
        finally:
            app.runner.close()
    lines = [_PREAMBLE]
    for exchange in exchanges:
        lines.extend(_render_exchange(exchange))
    api_md = "\n".join(lines).rstrip("\n") + "\n"
    transcripts = canonical_json({
        "schema": TRANSCRIPT_SCHEMA,
        "exchanges": exchanges,
    }) + "\n"
    return api_md, transcripts


def main():
    docs_dir = os.path.join(os.path.dirname(__file__), "..", "docs")
    os.makedirs(docs_dir, exist_ok=True)
    api_md, transcripts = generate()
    md_path = os.path.join(docs_dir, "API.md")
    json_path = os.path.join(docs_dir, "api-transcripts.json")
    with open(md_path, "w", encoding="utf-8") as handle:
        handle.write(api_md)
    with open(json_path, "w", encoding="utf-8") as handle:
        handle.write(transcripts)
    print(f"wrote {os.path.relpath(md_path)} "
          f"({len(api_md.splitlines())} lines) and "
          f"{os.path.relpath(json_path)}")


if __name__ == "__main__":
    main()
