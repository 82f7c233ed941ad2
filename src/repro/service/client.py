"""Minimal blocking client for the campaign service (``http.client``,
stdlib-only).

Used by ``repro submit`` / ``repro status`` and the CI smoke job — and a
reasonable starting point for any script that talks to the service.  One
method per endpoint, JSON in/out, with the conditional-GET and long-poll
conveniences (`If-None-Match`, ``wait=1``) spelled out so callers do not
reimplement HTTP plumbing.

A client keeps one connection alive across its calls (so it belongs to
one thread at a time; :meth:`ServiceClient.close` releases it).  When the
server has closed a *reused* connection — it does so to idle connections
when it stops — the call fails before any response arrives; a GET is then
sent once more on a fresh connection, a POST never is, since it may have
reached the handler.

Errors: non-2xx responses raise :class:`ServiceClientError` carrying the
status code and the server's machine-readable error code — *except* 304,
which :meth:`ServiceClient.result` reports as ``(None, etag)`` because
"your copy is current" is an answer, not a failure.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from ..errors import ServiceError

__all__ = ["ServiceClientError", "ServiceClient"]

_TERMINAL = ("completed", "degraded", "failed", "cancelled")


class ServiceClientError(ServiceError):
    """A non-2xx service response (or a transport failure).

    Attributes
    ----------
    status:
        HTTP status code (0 for transport-level failures).
    code:
        The server's machine-readable error code (``invalid-spec``,
        ``unauthenticated``...), empty when unavailable.
    """

    def __init__(self, message: str, *, status: int = 0,
                 code: str = "") -> None:
        super().__init__(message)
        self.status = status
        self.code = code


class ServiceClient:
    """Blocking JSON client bound to one service base URL and token."""

    def __init__(self, base_url: str, token: str, *,
                 timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.timeout = timeout
        self._connection: Optional[HTTPConnection] = None

    def close(self) -> None:
        """Close the kept-alive connection (a later call opens a new one)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    # -- endpoint wrappers -----------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """``GET /v1/healthz`` (sent unauthenticated, as a probe would)."""
        status, _headers, doc = self._request("GET", "/v1/healthz",
                                              auth=False)
        return doc

    def metrics(self) -> Dict[str, Any]:
        """``GET /v1/metrics``."""
        return self._request("GET", "/v1/metrics")[2]

    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /v1/campaigns`` — returns the campaign resource."""
        return self._request("POST", "/v1/campaigns", body=spec)[2]

    def campaigns(self) -> List[Dict[str, Any]]:
        """``GET /v1/campaigns`` — the caller's campaign list."""
        return self._request("GET", "/v1/campaigns")[2]["campaigns"]

    def campaign(self, campaign_id: str) -> Dict[str, Any]:
        """``GET /v1/campaigns/{id}``."""
        return self._request("GET", f"/v1/campaigns/{campaign_id}")[2]

    def events(self, campaign_id: str, *, since: int = 0,
               wait: bool = False) -> List[Dict[str, Any]]:
        """``GET /v1/campaigns/{id}/events`` — one JSON-lines batch."""
        query = f"?since={since}" + ("&wait=1" if wait else "")
        status, _headers, lines = self._request(
            "GET", f"/v1/campaigns/{campaign_id}/events{query}", raw=True)
        return _parse_jsonl(lines)

    def result(self, campaign_id: str, *, etag: Optional[str] = None
               ) -> Tuple[Optional[Dict[str, Any]], str]:
        """``GET /v1/campaigns/{id}/result`` with conditional-GET support.

        Returns ``(document, etag)``; with a matching ``etag`` the server
        answers 304 and the document comes back as ``None`` — the
        caller's cached copy is bit-current.
        """
        headers = {"If-None-Match": etag} if etag else {}
        status, response_headers, doc = self._request(
            "GET", f"/v1/campaigns/{campaign_id}/result",
            headers=headers, allow_not_modified=True)
        new_etag = response_headers.get("ETag", "")
        if status == 304:
            return None, new_etag
        return doc, new_etag

    def cancel(self, campaign_id: str) -> Dict[str, Any]:
        """``POST /v1/campaigns/{id}/cancel``."""
        return self._request(
            "POST", f"/v1/campaigns/{campaign_id}/cancel", body={})[2]

    def dlq(self, campaign_id: str) -> Dict[str, Any]:
        """``GET /v1/campaigns/{id}/dlq``."""
        return self._request("GET", f"/v1/campaigns/{campaign_id}/dlq")[2]

    # -- convenience -----------------------------------------------------------

    def wait_for(self, campaign_id: str) -> Dict[str, Any]:
        """Long-poll ``/events`` until the campaign is terminal; returns
        the final campaign resource.

        A round is one request: each long-poll blocks server-side until
        there is news, and the campaign resource is fetched only when the
        last ``state`` event seen is terminal or a poll came back empty
        (its timeout lapsed).  A ``degraded`` campaign whose dead letters
        are being retried reads ``running`` there, and the watch goes on.
        """
        since = 0
        state = None
        while True:
            events = self.events(campaign_id, since=since, wait=True)
            for event in events:
                since = max(since, event.get("seq", since))
                if event.get("kind") == "state":
                    state = event.get("state")
            if events and state not in _TERMINAL:
                continue
            doc = self.campaign(campaign_id)
            if doc["state"] in _TERMINAL:
                return doc

    # -- plumbing --------------------------------------------------------------

    def _request(self, method: str, path: str, *,
                 body: Optional[Dict[str, Any]] = None,
                 headers: Optional[Dict[str, str]] = None,
                 auth: bool = True, raw: bool = False,
                 allow_not_modified: bool = False
                 ) -> Tuple[int, Dict[str, str], Any]:
        send_headers = dict(headers or {})
        if auth:
            send_headers["Authorization"] = f"Bearer {self.token}"
        data = None
        if body is not None:
            data = json.dumps(body, sort_keys=True).encode("utf-8")
            send_headers["Content-Type"] = "application/json"
        status, out_headers, payload = self._exchange(
            method, path, data, send_headers)
        if allow_not_modified and status == 304:
            return 304, out_headers, None
        if not 200 <= status < 300:
            raise _error(status, payload)
        if raw:
            return status, out_headers, payload.decode("utf-8")
        return status, out_headers, (json.loads(payload) if payload else None)

    def _exchange(self, method: str, path: str, data: Optional[bytes],
                  headers: Dict[str, str]
                  ) -> Tuple[int, Dict[str, str], bytes]:
        """One request/response on the kept-alive connection."""
        split = urlsplit(self.base_url)
        if self._connection is None:
            kind = HTTPSConnection if split.scheme == "https" \
                else HTTPConnection
            self._connection = kind(split.hostname or "", split.port,
                                    timeout=self.timeout)
        connection = self._connection
        target = split.path + path
        reused = connection.sock is not None
        try:
            try:
                connection.request(method, target, body=data,
                                   headers=headers)
                response = connection.getresponse()
            except ConnectionError:
                if not (reused and method == "GET"):
                    raise
                # The server closed the idle connection: no response came
                # back, so nothing was handled; a GET may go once more.
                connection.close()
                connection.request(method, target, body=data,
                                   headers=headers)
                response = connection.getresponse()
            payload = response.read()
        except (OSError, HTTPException) as exc:
            self.close()
            raise ServiceClientError(
                f"cannot reach service at {self.base_url}: {exc}")
        return response.status, dict(response.getheaders()), payload


def _error(status: int, payload: bytes) -> ServiceClientError:
    code = ""
    message = f"HTTP {status}"
    try:
        doc = json.loads(payload)
        code = doc["error"]["code"]
        message = f"HTTP {status} ({code}): {doc['error']['message']}"
    except (ValueError, KeyError, TypeError):
        pass
    return ServiceClientError(message, status=status, code=code)


def _parse_jsonl(text: str) -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict):
            out.append(doc)
    return out
