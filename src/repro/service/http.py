"""Asyncio HTTP/1.1 front-end for the sans-IO service core.

Stdlib-only by design (the repo's no-new-dependencies rule): a small
:func:`asyncio.start_server` loop that parses the requests of a
connection one after another, hands each transport-free
:class:`~repro.service.api.Request` to :meth:`ServiceApp.handle` **on a
worker thread** (the long-poll blocks deliberately), and writes the
response back with a ``Content-Length`` body (a 304 has none).

Connections are kept alive, so a watcher's poll rounds cost one request
each, not a TCP handshake and teardown as well.  A connection is closed
after the response when the client asked (``Connection: close``, or an
HTTP/1.0 request), after a framing error (whatever follows on the socket
cannot be trusted to be a request — a 413's unread body, say), and when
the server stops.

The split keeps every piece testable at its own level: HTTP semantics are
unit-tested against :class:`ServiceApp` without sockets; this module's
tests drive a real socket round-trip; and the CI smoke job drives the
whole stack over localhost with the CLI.

Deliberate simplifications (documented, not accidental): requests on one
connection are answered in order, one at a time; no chunked request
bodies (``Transfer-Encoding`` is refused); no TLS (deploy behind a
terminating proxy); bodies capped at 8 MiB; HTTP/1.1 only.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple, Union
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
        #: Connections waiting for their next request, by writer.
        self._idle: Dict[asyncio.StreamWriter, asyncio.Task[None]] = {}
        self._closing = False

    async def start(self) -> None:
        """Bind and start accepting connections (non-blocking)."""
        self._closing = False
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
        """Stop accepting connections, close the idle kept-alive ones (a
        busy one closes after its response) and drain the runner's
        worker."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            idle = list(self._idle.items())
            for writer, _task in idle:
                writer.close()
            if idle:
                await asyncio.wait([task for _writer, task in idle])
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
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        assert task is not None
        try:
            keep_alive = True
            while keep_alive and not self._closing:
                self._idle[writer] = task
                try:
                    parsed = await self._read_request(reader)
                finally:
                    del self._idle[writer]
                if parsed is None:
                    return  # the client closed between requests
                request, keep_alive = parsed
                if isinstance(request, Response):  # framing-level error
                    await self._write_response(writer, request, False)
                    return
                try:
                    response = await loop.run_in_executor(
                        None, self.app.handle, request)
                except Exception as exc:  # handler bug: never drop the socket
                    response = _internal_error(exc)
                keep_alive = keep_alive and not self._closing
                await self._write_response(writer, response, keep_alive)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
            self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[Union[Request, Response], bool]]:
        """Parse one HTTP/1.1 request.

        Returns ``None`` when the client closed the connection before a
        request line, else ``(request, keep_alive)`` — ``keep_alive``
        false when the client asked to close.  A framing error comes back
        as ``(error response, False)``: the connection closes after it.
        """
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            return _framing_error(400, "request line too long"), False
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            return _framing_error(400, "malformed request line"), False
        method, target, version = parts
        headers: Dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                return _framing_error(400, "header line too long"), False
            text = line.decode("latin-1").strip()
            if not text:
                break
            if ":" not in text:
                return _framing_error(400, "malformed header line"), False
            name, _, value = text.partition(":")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                return _framing_error(
                    400, "conflicting Content-Length headers"), False
            headers[name] = value
        if "transfer-encoding" in headers:
            # Its body would be read as the next request on this socket.
            return _framing_error(
                400, "Transfer-Encoding request bodies are not supported"
            ), False
        body = b""
        length_text = headers.get("content-length")
        if length_text is not None:
            try:
                length = int(length_text)
            except ValueError:
                return _framing_error(400, "malformed Content-Length"), False
            if length < 0:
                return _framing_error(400, "negative Content-Length"), False
            if length > MAX_BODY_BYTES:
                return _framing_error(413, "request body too large"), False
            if length:
                body = await reader.readexactly(length)
        split = urlsplit(target)
        query = dict(parse_qsl(split.query))
        tokens = {token.strip().lower()
                  for token in headers.get("connection", "").split(",")}
        keep_alive = version == "HTTP/1.1" and "close" not in tokens
        return Request(method=method.upper(), path=split.path, query=query,
                       headers=headers, body=body), keep_alive

    async def _write_response(self, writer: asyncio.StreamWriter,
                              response: Response, keep_alive: bool) -> None:
        headers = dict(response.headers)
        headers["Connection"] = "keep-alive" if keep_alive else "close"
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
