"""Minimal blocking client for the campaign service (urllib, stdlib-only).

Used by ``repro submit`` / ``repro status`` and the CI smoke job — and a
reasonable starting point for any script that talks to the service.  One
method per endpoint, JSON in/out, with the conditional-GET and long-poll
conveniences (`If-None-Match`, ``wait=1``) spelled out so callers do not
reimplement HTTP plumbing.

Errors: non-2xx responses raise :class:`ServiceClientError` carrying the
status code and the server's machine-readable error code — *except* 304,
which :meth:`ServiceClient.result` reports as ``(None, etag)`` because
"your copy is current" is an answer, not a failure.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple
from urllib.error import HTTPError, URLError
from urllib.request import Request as UrlRequest
from urllib.request import urlopen

from ..errors import ServiceError

__all__ = ["ServiceClientError", "ServiceClient"]


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

    def retry_dlq(self, campaign_id: str) -> Dict[str, Any]:
        """``POST /v1/campaigns/{id}/dlq/retry``."""
        return self._request(
            "POST", f"/v1/campaigns/{campaign_id}/dlq/retry", body={})[2]

    # -- convenience -----------------------------------------------------------

    def wait_for(self, campaign_id: str) -> Dict[str, Any]:
        """Long-poll ``/events`` until the campaign is terminal; returns
        the final campaign resource.  Network-efficient: each round trip
        blocks server-side until there is news, instead of hammering the
        state endpoint."""
        since = 0
        while True:
            for event in self.events(campaign_id, since=since, wait=True):
                since = max(since, event.get("seq", since))
            doc = self.campaign(campaign_id)
            if doc["state"] in ("completed", "degraded", "failed",
                                "cancelled"):
                return doc

    # -- plumbing --------------------------------------------------------------

    def _request(self, method: str, path: str, *,
                 body: Optional[Dict[str, Any]] = None,
                 headers: Optional[Dict[str, str]] = None,
                 auth: bool = True, raw: bool = False,
                 allow_not_modified: bool = False
                 ) -> Tuple[int, Dict[str, str], Any]:
        url = self.base_url + path
        send_headers = dict(headers or {})
        if auth:
            send_headers["Authorization"] = f"Bearer {self.token}"
        data = None
        if body is not None:
            data = json.dumps(body, sort_keys=True).encode("utf-8")
            send_headers["Content-Type"] = "application/json"
        request = UrlRequest(url, data=data, headers=send_headers,
                             method=method)
        try:
            with urlopen(request, timeout=self.timeout) as response:
                payload = response.read()
                out_headers = dict(response.headers.items())
                status = response.status
        except HTTPError as exc:
            if allow_not_modified and exc.code == 304:
                return 304, dict(exc.headers.items()), None
            raise self._error(exc)
        except URLError as exc:
            raise ServiceClientError(
                f"cannot reach service at {self.base_url}: {exc.reason}")
        if raw:
            return status, out_headers, payload.decode("utf-8")
        return status, out_headers, (json.loads(payload) if payload else None)

    @staticmethod
    def _error(exc: HTTPError) -> ServiceClientError:
        code = ""
        message = f"HTTP {exc.code}"
        try:
            doc = json.loads(exc.read())
            code = doc["error"]["code"]
            message = f"HTTP {exc.code} ({code}): {doc['error']['message']}"
        except (ValueError, KeyError, TypeError):
            pass
        return ServiceClientError(message, status=exc.code, code=code)


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
