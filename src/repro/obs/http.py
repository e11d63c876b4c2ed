"""Minimal shared HTTP/1.1 plumbing for the observability surfaces.

Two subsystems expose HTTP without pulling in a framework: the
prediction server (``repro serve``) and the distributed coordinator's
read-only observability twins (``--http-port``: ``/metrics``,
``/healthz``, ``/status``).  Both ride the same stdlib-only request
parser and response writer here, so content-type quirks, keep-alive
semantics and body limits are fixed in exactly one place.

:class:`ObservabilityEndpoint` is the ready-made read-only flavour: a
table of GET routes, each a zero-argument callable returning
``(status, body_bytes, content_type)``.  The prediction server keeps
its own richer dispatch (POST bodies, backpressure) but uses the same
primitives below.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable, Dict, Mapping, Optional, Tuple

__all__ = [
    "BadRequest",
    "ObservabilityEndpoint",
    "PROMETHEUS_CONTENT_TYPE",
    "dump_json",
    "json_error",
    "read_request",
    "reject_bad_request",
    "wants_keep_alive",
    "write_response",
]

#: The content type Prometheus scrapers expect from a text exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4"

#: Largest accepted request body — a defence against accidental
#: uploads, not a tuning knob.
MAX_BODY = 4 << 20

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: A route handler: () -> (status, body, content_type).
RouteHandler = Callable[[], Tuple[int, bytes, str]]


class BadRequest(ValueError):
    """A malformed client request, answered with a 400 and this message."""


async def read_request(
    reader: asyncio.StreamReader, max_body: int = MAX_BODY
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one HTTP/1.1 request; ``None`` on a cleanly closed
    connection or a blank request line.  Returns
    ``(method, target, headers, body)`` with the method upper-cased and
    header names lower-cased; header values keep their case.

    Raises:
        BadRequest: on a request line that is not
            ``METHOD TARGET HTTP/x``, a request or header line longer
            than the reader's limit, or a ``Content-Length`` that is
            not a decimal byte count.
        ConnectionError: on a body larger than ``max_body``.
        asyncio.IncompleteReadError: when the body ends early.
    """
    try:
        request_line = await _read_line(reader)
    except ConnectionError:
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if not parts:
        return None
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise BadRequest("malformed request line")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length") or "0"
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise BadRequest(f"malformed Content-Length {raw_length!r}")
    # Compare digit counts first: int() refuses very long digit strings.
    digits = raw_length.lstrip("0") or "0"
    if len(digits) > len(str(max_body)) or int(digits) > max_body:
        raise ConnectionError("request body too large")
    length = int(digits)
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, headers, body


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One line; an overlong one is the client's error, not ours."""
    try:
        return await reader.readline()
    except ValueError as error:  # the StreamReader limit was exceeded
        raise BadRequest("request line or header line too long") from error


def wants_keep_alive(headers: Mapping[str, str]) -> bool:
    """False when the client sent ``Connection: close`` (any case)."""
    return headers.get("connection", "keep-alive").lower() != "close"


def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: bytes,
    content_type: str,
    keep_alive: bool,
    extra: Mapping[str, str],
) -> None:
    """Serialise one response onto ``writer`` (caller drains)."""
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    head.extend(f"{name}: {value}" for name, value in extra.items())
    writer.write(
        ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload
    )


def dump_json(payload: Dict) -> bytes:
    """A JSON response body (newline-terminated, curl-friendly)."""
    return (json.dumps(payload) + "\n").encode("utf-8")


def json_error(
    status: int,
    message: str,
    extra: Optional[Dict[str, str]] = None,
    request_id: Optional[str] = None,
) -> Tuple[int, bytes, str, Dict[str, str]]:
    """The standard error shape: ``{"error": message}`` + headers.

    When the caller assigns request ids (the prediction server does),
    the id rides in the body so a shed request can be correlated from
    the client's side against the server log.
    """
    payload: Dict[str, str] = {"error": message}
    if request_id is not None:
        payload["request_id"] = request_id
    return (
        status,
        dump_json(payload),
        "application/json",
        dict(extra or {}),
    )


async def reject_bad_request(
    writer: asyncio.StreamWriter, error: BadRequest
) -> None:
    """Answer a request :func:`read_request` refused: 400, then close."""
    status, payload, content_type, extra = json_error(400, str(error))
    write_response(
        writer, status, payload, content_type, keep_alive=False, extra=extra
    )
    await writer.drain()


class ObservabilityEndpoint:
    """A read-only GET-routed asyncio HTTP sidecar.

    Args:
        routes: ``{path: handler}``; each handler is synchronous and
            returns ``(status, body_bytes, content_type)``.  Handlers
            run on the event loop, so they must be cheap — snapshot
            serialisation, not simulation.
        host: Bind address.
        port: Bind port; 0 picks a free one (read :attr:`port` after
            :meth:`start`).
    """

    def __init__(
        self,
        routes: Mapping[str, RouteHandler],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.routes = dict(routes)
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()

    async def start(self) -> None:
        """Bind the socket (resolves :attr:`port` when it was 0)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the socket and every open connection."""
        if self._server is None:
            return
        self._server.close()
        for writer in list(self._connections):
            writer.close()
        await self._server.wait_closed()
        self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except BadRequest as error:
                    await reject_bad_request(writer, error)
                    break
                if request is None:
                    break
                method, target, headers, _body = request
                path = target.split("?", 1)[0]
                handler = self.routes.get(path)
                if handler is None:
                    status, payload, content_type, extra = json_error(
                        404, f"unknown path {path!r}"
                    )
                elif method != "GET":
                    status, payload, content_type, extra = json_error(
                        405, "use GET"
                    )
                else:
                    extra = {}
                    try:
                        status, payload, content_type = handler()
                    except Exception as error:  # noqa: BLE001 — a broken
                        # handler must answer 500, not kill the endpoint.
                        status, payload, content_type, extra = json_error(
                            500, f"handler failed: {error}"
                        )
                keep_alive = wants_keep_alive(headers)
                write_response(
                    writer, status, payload, content_type,
                    keep_alive=keep_alive, extra=extra,
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
