"""The sans-IO request handler core: HTTP semantics without sockets.

:class:`ServiceApp` maps plain :class:`Request` values to plain
:class:`Response` values — no event loop, no socket, no framing.  The
asyncio front-end (:mod:`repro.service.http`) owns the bytes; everything
the API *means* (routing, auth, ownership, status codes, ETags,
long-polling, event streaming) lives here, where a unit test can drive it
with constructed requests and assert on whole responses.

Conventions the endpoints share:

* Every route except ``GET /v1/healthz`` authenticates a ``Bearer`` token
  (:mod:`repro.service.auth`).  Errors never echo the token.
* Typed service errors map 1:1 to status codes (the table in
  :class:`repro.errors.ServiceError`); handlers raise, the dispatcher
  translates — no handler builds an error response by hand.
* A campaign another user owns is a **404**, byte-identical to a
  nonexistent id, so the API never leaks which ids exist.
* Result responses carry the campaign's store-derived ``content_digest``
  as a strong ``ETag``; ``If-None-Match`` round-trips as **304** with no
  body.  The digest is a pure function of the spec's task fingerprints,
  which is what makes it safe (see DESIGN.md §13).
* Event responses are JSON-lines; ``stream=1`` returns an incremental
  producer the HTTP layer sends chunked, ``wait=1`` long-polls until the
  campaign has news or a deadline passes.  Both are driven by the same
  durable per-campaign event log, so a disconnected client resumes with
  ``since=<last seq>`` and misses nothing.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import (
    AccessDeniedError,
    AuthenticationError,
    LifecycleError,
    QuotaExceededError,
    ServiceError,
    SpecError,
)
from ..obs import Obs, as_obs
from .auth import AuthRegistry, Principal, check_owner
from .runner import CampaignRunner
from .spec import CampaignSpec
from .state import CampaignRecord

__all__ = ["API_VERSION", "Request", "Response", "ServiceApp"]

API_VERSION = "v1"

#: Long-poll pacing: seconds between re-reads of the event log, and how
#: long ``wait=1`` may block before returning an empty batch.
POLL_INTERVAL_S = 0.05
LONG_POLL_TIMEOUT_S = 10.0

#: Typed error -> (status, machine-readable code).  Order matters only in
#: that subclasses must precede :class:`ServiceError`.
_ERROR_TABLE: Tuple[Tuple[type, int, str], ...] = (
    (SpecError, 400, "invalid-spec"),
    (AuthenticationError, 401, "unauthenticated"),
    (AccessDeniedError, 403, "forbidden"),
    (LifecycleError, 409, "conflict"),
    (QuotaExceededError, 429, "quota-exceeded"),
    (ServiceError, 404, "not-found"),
)


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request, transport-free.

    ``headers`` keys are lower-cased by the constructor path the HTTP
    layer uses; :meth:`header` performs a case-insensitive lookup either
    way so hand-built test requests need not care.
    """

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str) -> Optional[str]:
        """Case-insensitive header lookup."""
        lowered = name.lower()
        for key, value in self.headers.items():
            if key.lower() == lowered:
                return value
        return None

    def json(self) -> Any:
        """The body parsed as JSON; :class:`SpecError` on malformed."""
        if not self.body:
            raise SpecError("request body must be a JSON document")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise SpecError(f"request body is not valid JSON: {exc}")


@dataclass
class Response:
    """One response: status, headers, body — or an incremental stream.

    When ``stream`` is set the HTTP layer sends ``Transfer-Encoding:
    chunked`` and writes each yielded chunk as it is produced (the
    progress-streaming path); ``body`` is ignored.  Sans-IO tests can
    still drain ``stream`` synchronously.
    """

    status: int
    body: bytes = b""
    headers: Dict[str, str] = field(default_factory=dict)
    stream: Optional[Iterator[bytes]] = None

    @property
    def text(self) -> str:
        return self.body.decode("utf-8")

    def json(self) -> Any:
        """The body parsed as JSON (test convenience)."""
        return json.loads(self.body.decode("utf-8"))


def _json_response(status: int, doc: Any,
                   headers: Optional[Dict[str, str]] = None) -> Response:
    from ..store.fingerprint import canonical_json

    body = (canonical_json(doc) + "\n").encode("utf-8")
    merged = {"Content-Type": "application/json"}
    if headers:
        merged.update(headers)
    return Response(status=status, body=body, headers=merged)


class ServiceApp:
    """Router + handlers over a :class:`~repro.service.runner.CampaignRunner`.

    Parameters
    ----------
    runner:
        Executes and coalesces campaigns; owns store/state/DLQ handles.
    registry:
        Token registry for request authentication.
    obs:
        Service-level instrumentation (``service.http.*`` counters).
        Usually the same handle the runner carries, so one run report
        shows the whole ``service.*`` family.
    """

    def __init__(self, runner: CampaignRunner, registry: AuthRegistry, *,
                 obs: Optional[Obs] = None) -> None:
        self.runner = runner
        self.registry = registry
        self.obs = as_obs(obs)
        #: (method, route) -> handler; routes use ``{id}`` placeholders.
        self._routes: List[Tuple[str, Tuple[str, ...], Callable[..., Response]]]
        self._routes = [
            ("GET", ("v1", "healthz"), self._healthz),
            ("GET", ("v1", "metrics"), self._metrics),
            ("POST", ("v1", "campaigns"), self._submit),
            ("GET", ("v1", "campaigns"), self._list),
            ("GET", ("v1", "campaigns", "{id}"), self._get),
            ("GET", ("v1", "campaigns", "{id}", "events"), self._events),
            ("GET", ("v1", "campaigns", "{id}", "result"), self._result),
            ("POST", ("v1", "campaigns", "{id}", "cancel"), self._cancel),
            ("GET", ("v1", "campaigns", "{id}", "dlq"), self._dlq),
            ("POST", ("v1", "campaigns", "{id}", "dlq", "retry"),
             self._dlq_retry),
        ]

    # -- dispatch --------------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Route one request; typed errors become error responses here."""
        if self.obs.enabled:
            self.obs.inc("service.http.requests")
        try:
            handler, params = self._match(request)
            return handler(request, **params)
        except ServiceError as exc:
            return self._error_response(exc)

    def _match(self, request: Request
               ) -> Tuple[Callable[..., Response], Dict[str, str]]:
        parts = tuple(p for p in request.path.split("/") if p)
        seen_path = False
        for method, route, handler in self._routes:
            params = _route_params(route, parts)
            if params is None:
                continue
            seen_path = True
            if method == request.method:
                return handler, params
        if seen_path:
            raise ServiceError(
                f"method {request.method} not supported on {request.path}")
        raise ServiceError(f"no such resource: {request.path}")

    def _error_response(self, exc: ServiceError) -> Response:
        for kind, status, code in _ERROR_TABLE:
            if isinstance(exc, kind):
                if self.obs.enabled:
                    self.obs.inc(f"service.http.errors.{status}")
                return _json_response(
                    status, {"error": {"code": code, "message": str(exc)}})
        raise exc  # pragma: no cover - table ends with ServiceError

    def _authenticate(self, request: Request) -> Principal:
        return self.registry.authenticate(request.header("Authorization"))

    def _owned(self, principal: Principal, campaign_id: str
               ) -> CampaignRecord:
        """The campaign, if it exists *and* the principal may see it.

        Foreign campaigns raise the same not-found error as unknown ids —
        deliberately indistinguishable, so the API never leaks which ids
        exist (see :func:`repro.service.auth.check_owner`).
        """
        record = self.runner.state.get(campaign_id)
        if record is None or not check_owner(principal, record.user):
            raise ServiceError(f"no campaign {campaign_id!r}")
        return record

    # -- endpoints -------------------------------------------------------------

    def _healthz(self, request: Request) -> Response:
        """``GET /v1/healthz`` — liveness probe, unauthenticated."""
        return _json_response(200, {
            "status": "ok",
            "api": API_VERSION,
            "campaigns": len(self.runner.state.list()),
        })

    def _metrics(self, request: Request) -> Response:
        """``GET /v1/metrics`` — service/store/DLQ counters (viewer+)."""
        self._authenticate(request)
        store = self.runner.store
        return _json_response(200, {
            "service": _family(self.obs, "service"),
            "store": {
                "hits": store.hits,
                "misses": store.misses,
                "writes": store.writes,
                "records": len(store),
            },
            "dlq": self.runner.dlq.summary(),
        })

    def _submit(self, request: Request) -> Response:
        """``POST /v1/campaigns`` — validate, coalesce, schedule (operator+).

        201 with a ``Location`` header for a fresh primary; 200 when the
        submission coalesced onto (or was served from the cached result
        of) an identical earlier campaign — same resource shape either
        way, with ``coalesced_with`` naming the primary.
        """
        principal = self._authenticate(request)
        principal.require_role("operator")
        spec = CampaignSpec.from_dict(request.json())
        record = self.runner.submit(spec, principal)
        status = 200 if record.coalesced_with else 201
        return _json_response(status, self._campaign_doc(record), headers={
            "Location": f"/v1/campaigns/{record.id}",
        })

    def _list(self, request: Request) -> Response:
        """``GET /v1/campaigns`` — own campaigns (admins: everyone's)."""
        principal = self._authenticate(request)
        user = None if principal.is_admin else principal.user
        records = self.runner.state.list(user=user)
        return _json_response(200, {
            "campaigns": [self._campaign_doc(r) for r in records],
        })

    def _get(self, request: Request, id: str) -> Response:
        """``GET /v1/campaigns/{id}`` — one campaign's full record."""
        principal = self._authenticate(request)
        record = self._owned(principal, id)
        return _json_response(200, self._campaign_doc(record))

    def _events(self, request: Request, id: str) -> Response:
        """``GET /v1/campaigns/{id}/events`` — progress as JSON lines.

        Query parameters: ``since=<seq>`` returns only events newer than
        the client's watermark; ``wait=1`` long-polls until news arrives
        or the timeout lapses; ``stream=1`` holds the response open and
        chunks events out as they are appended, ending when the campaign
        reaches a terminal state.
        """
        principal = self._authenticate(request)
        record = self._owned(principal, id)
        since = _int_query(request, "since", 0)
        if request.query.get("stream") in ("1", "true"):
            return Response(
                status=200, stream=self._event_stream(record.id, since),
                headers={"Content-Type": "application/jsonl"})
        events = self.runner.state.read_events(record.id, since=since)
        if not events and request.query.get("wait") in ("1", "true"):
            deadline = time.monotonic() + LONG_POLL_TIMEOUT_S
            while time.monotonic() < deadline:
                events = self.runner.state.read_events(record.id, since=since)
                if events or self.runner.state.get(record.id).terminal:
                    break
                time.sleep(POLL_INTERVAL_S)
        body = "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)
        return Response(status=200, body=body.encode("utf-8"),
                        headers={"Content-Type": "application/jsonl"})

    def _event_stream(self, campaign_id: str, since: int) -> Iterator[bytes]:
        """Incremental event producer backing ``stream=1`` responses.

        Yields one JSON line per event as the log grows, then returns
        once the campaign is terminal and fully drained — at which point
        the HTTP layer closes the chunked response.  A client that
        disconnects mid-stream loses nothing: events are durable, so
        reconnecting with ``since=<last seq>`` resumes exactly.
        """
        watermark = since
        while True:
            events = self.runner.state.read_events(campaign_id,
                                                   since=watermark)
            for event in events:
                watermark = event["seq"]
                yield (json.dumps(event, sort_keys=True) + "\n"
                       ).encode("utf-8")
            record = self.runner.state.get(campaign_id)
            if record is None or record.terminal:
                if not events:
                    return
                continue  # drain anything appended during the yield loop
            time.sleep(POLL_INTERVAL_S)

    def _result(self, request: Request, id: str) -> Response:
        """``GET /v1/campaigns/{id}/result`` — the PMF document.

        The response's ``ETag`` is the campaign's ``content_digest``
        (SHA-256 over its sorted store task fingerprints + dead set +
        spec identity); a conditional request whose ``If-None-Match``
        matches short-circuits to **304** with no body.  Still-running
        campaigns are a **409** — the result does not exist yet, and
        polling ``/events`` is the intended wait path.
        """
        principal = self._authenticate(request)
        record = self._owned(principal, id)
        if not record.terminal:
            raise LifecycleError(
                f"campaign {id} is {record.state}; the result exists only "
                f"after completion (poll /events or use wait=1)")
        if record.state in ("failed", "cancelled") or \
                record.result_digest is None:
            raise LifecycleError(
                f"campaign {id} ended {record.state} and has no result")
        etag = f'"{record.result_digest}"'
        if request.header("If-None-Match") == etag:
            if self.obs.enabled:
                self.obs.inc("service.http.not_modified")
            return Response(status=304, headers={"ETag": etag})
        result = self.runner.state.load_result(record.spec_fingerprint)
        if result is None:
            raise ServiceError(f"result document for {id} is missing")
        return _json_response(200, result, headers={"ETag": etag})

    def _cancel(self, request: Request, id: str) -> Response:
        """``POST /v1/campaigns/{id}/cancel`` — request cancellation.

        202: the cancel is a *request* — it lands on the next task
        boundary (completed store records stay durable and reusable).
        Terminal campaigns are a 409.
        """
        principal = self._authenticate(request)
        principal.require_role("operator")
        self._owned(principal, id)
        record = self.runner.cancel(id)
        return _json_response(202, self._campaign_doc(record))

    def _dlq(self, request: Request, id: str) -> Response:
        """``GET /v1/campaigns/{id}/dlq`` — this campaign's dead letters.

        The shared queue filtered down to the campaign's own task
        fingerprints, so one tenant's failures are never visible in
        another's campaign view.
        """
        principal = self._authenticate(request)
        record = self._owned(principal, id)
        spec = CampaignSpec.from_dict(record.spec)
        mine = set(self.runner._task_fingerprints(spec))
        entries = [e for e in self.runner.dlq.entries()
                   if e.get("fingerprint") in mine]
        return _json_response(200, {
            "campaign": record.id,
            "depth": sum(1 for e in entries if not e.get("requeued")),
            "entries": entries,
        })

    def _dlq_retry(self, request: Request, id: str) -> Response:
        """``POST /v1/campaigns/{id}/dlq/retry`` — requeue + re-run.

        Only ``degraded`` campaigns have this edge (409 otherwise).  The
        campaign's dead fingerprints are requeued idempotently and the
        spec re-runs: completed tasks are store hits, requeued ones
        recompute; tasks that fail again are re-dead-lettered with their
        ``deliveries`` counter bumped, never duplicated.
        """
        principal = self._authenticate(request)
        principal.require_role("operator")
        self._owned(principal, id)
        record = self.runner.retry_dead_letters(id)
        return _json_response(202, self._campaign_doc(record))

    # -- document builders -----------------------------------------------------

    def _campaign_doc(self, record: CampaignRecord) -> Dict[str, Any]:
        """The campaign resource body (the record document + progress)."""
        doc = record.as_dict()
        doc["links"] = {
            "self": f"/v1/campaigns/{record.id}",
            "events": f"/v1/campaigns/{record.id}/events",
            "result": f"/v1/campaigns/{record.id}/result",
            "dlq": f"/v1/campaigns/{record.id}/dlq",
        }
        return doc


def _route_params(route: Tuple[str, ...], parts: Tuple[str, ...]
                  ) -> Optional[Dict[str, str]]:
    """Match one route pattern; returns bound ``{placeholder}`` params."""
    if len(route) != len(parts):
        return None
    params: Dict[str, str] = {}
    for pattern, part in zip(route, parts):
        if pattern.startswith("{") and pattern.endswith("}"):
            params[pattern[1:-1]] = part
        elif pattern != part:
            return None
    return params


def _int_query(request: Request, name: str, default: int) -> int:
    value = request.query.get(name)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise SpecError(f"query parameter {name!r} must be an integer")


def _family(obs: Obs, prefix: str) -> Dict[str, Any]:
    """Snapshot of one metric family (counter/gauge values by name)."""
    out: Dict[str, Any] = {}
    if not obs.enabled:
        return out
    for inst in obs.metrics.matching(prefix):
        out[inst.name] = (inst.value if hasattr(inst, "value")
                          else inst.summary())
    return out
