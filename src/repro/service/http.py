"""Asyncio HTTP/1.1 front-end for the sans-IO service core.

Stdlib-only by design (the repo's no-new-dependencies rule): a small
:func:`asyncio.start_server` loop that parses one request per connection,
hands the transport-free :class:`~repro.service.api.Request` to
:meth:`ServiceApp.handle` **on a worker thread** (handlers may block — the
long-poll and stream endpoints do so deliberately), and writes the
response back — chunked transfer encoding when the handler returned an
incremental stream, plain ``Content-Length`` otherwise.

The split keeps every piece testable at its own level: HTTP semantics are
unit-tested against :class:`ServiceApp` without sockets; this module's
tests drive a real socket round-trip; and the CI smoke job drives the
whole stack over localhost with the CLI.

Deliberate simplifications (documented, not accidental): one request per
connection (``Connection: close``), no TLS (deploy behind a terminating
proxy), bodies capped at 8 MiB, HTTP/1.1 only.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional
from urllib.parse import parse_qsl, urlsplit

from .api import Request, Response, ServiceApp

__all__ = ["MAX_BODY_BYTES", "ServiceServer"]

#: Submission specs are small JSON documents; anything near this limit is
#: a client error, not a campaign.
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted", 304: "Not Modified",
    400: "Bad Request", 401: "Unauthorized", 403: "Forbidden",
    404: "Not Found", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
}

_SENTINEL = object()


class ServiceServer:
    """One listening socket bound to one :class:`ServiceApp`.

    Parameters
    ----------
    app:
        The sans-IO handler core.
    host / port:
        Bind address; ``port=0`` asks the OS for a free port (tests), the
        bound port is exposed as :attr:`port` after :meth:`start`.
    """

    def __init__(self, app: ServiceApp, *, host: str = "127.0.0.1",
                 port: int = 8750) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None

    async def start(self) -> None:
        """Bind and start accepting connections (non-blocking)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections and drain the runner's worker."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.get_running_loop().run_in_executor(
            None, self.app.runner.close)

    def run(self) -> None:
        """Blocking convenience: serve until KeyboardInterrupt."""
        try:
            asyncio.run(self.serve_forever())
        except KeyboardInterrupt:
            self.app.runner.close()

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            parsed = await self._read_request(reader)
            if isinstance(parsed, Response):  # framing-level error
                await self._write_response(writer, parsed)
                return
            loop = asyncio.get_running_loop()
            try:
                response = await loop.run_in_executor(
                    None, self.app.handle, parsed)
            except Exception as exc:  # handler bug: never drop the socket
                response = _internal_error(exc)
            await self._write_response(writer, response)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> "Request | Response":
        """Parse one HTTP/1.1 request; framing errors return a Response."""
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            return _framing_error(400, "request line too long")
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            return _framing_error(400, "malformed request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                return _framing_error(400, "header line too long")
            text = line.decode("latin-1").strip()
            if not text:
                break
            if ":" not in text:
                return _framing_error(400, "malformed header line")
            name, _, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length_text = headers.get("content-length")
        if length_text is not None:
            try:
                length = int(length_text)
            except ValueError:
                return _framing_error(400, "malformed Content-Length")
            if length < 0:
                return _framing_error(400, "negative Content-Length")
            if length > MAX_BODY_BYTES:
                return _framing_error(413, "request body too large")
            if length:
                body = await reader.readexactly(length)
        split = urlsplit(target)
        query = dict(parse_qsl(split.query))
        return Request(method=method.upper(), path=split.path, query=query,
                       headers=headers, body=body)

    async def _write_response(self, writer: asyncio.StreamWriter,
                              response: Response) -> None:
        headers = dict(response.headers)
        headers["Connection"] = "close"
        if response.stream is not None:
            headers["Transfer-Encoding"] = "chunked"
            writer.write(_head(response.status, headers))
            await writer.drain()
            loop = asyncio.get_running_loop()
            iterator = iter(response.stream)
            while True:
                # The producer blocks between events (it tails the durable
                # event log), so each pull runs on a worker thread.
                chunk = await loop.run_in_executor(
                    None, next, iterator, _SENTINEL)
                if chunk is _SENTINEL:
                    break
                writer.write(b"%x\r\n%s\r\n" % (len(chunk), chunk))
                await writer.drain()
            writer.write(b"0\r\n\r\n")
            await writer.drain()
            return
        if response.status != 304:
            headers.setdefault("Content-Length", str(len(response.body)))
        writer.write(_head(response.status, headers))
        if response.body and response.status != 304:
            writer.write(response.body)
        await writer.drain()


def _head(status: int, headers: Dict[str, str]) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def _framing_error(status: int, message: str) -> Response:
    body = (json.dumps(
        {"error": {"code": "bad-request", "message": message}},
        sort_keys=True) + "\n").encode("utf-8")
    return Response(status=status, body=body,
                    headers={"Content-Type": "application/json"})


def _internal_error(exc: Exception) -> Response:
    body = (json.dumps(
        {"error": {"code": "internal",
                   "message": f"{type(exc).__name__}: {exc}"}},
        sort_keys=True) + "\n").encode("utf-8")
    return Response(status=500, body=body,
                    headers={"Content-Type": "application/json"})
