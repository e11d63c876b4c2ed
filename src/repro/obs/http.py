"""Minimal HTTP/1.1 plumbing for the prediction server.

``repro serve`` speaks HTTP without pulling in a framework: the
stdlib-only request parser and response writer here fix content-type
quirks, keep-alive semantics and body limits in one place, and the
server keeps its own dispatch (POST bodies, admission, backpressure)
on top of them.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "BadRequest",
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

