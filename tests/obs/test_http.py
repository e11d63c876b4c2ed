"""The shared HTTP/1.1 request parser and the read-only endpoint.

A malformed request line or ``Content-Length``, or a line longer than
the reader's limit, must be answered with a 400 and a closed connection
(never a silently dropped socket), header values must keep their case,
and ``Connection: close`` must be honoured in any case.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.obs.http import BadRequest, ObservabilityEndpoint, read_request


def _parse(raw: bytes):
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(scenario())


def _exchange(raw: bytes) -> bytes:
    """Send ``raw`` to a live endpoint; everything it answers until it
    hangs up (a keep-alive answer fails the read timeout)."""

    async def scenario():
        endpoint = ObservabilityEndpoint(
            {"/healthz": lambda: (200, b"{}\n", "application/json")}
        )
        await endpoint.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", endpoint.port
            )
            writer.write(raw)
            await writer.drain()
            answer = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            return answer
        finally:
            await endpoint.stop()

    return asyncio.run(scenario())


class TestReadRequest:
    @pytest.mark.parametrize("length", ["abc", "-5", "+5", "1_0", "²"])
    def test_malformed_content_length_raises_bad_request(self, length):
        raw = (
            f"POST /predict HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
        ).encode("utf-8")
        with pytest.raises(BadRequest, match="Content-Length"):
            _parse(raw)

    def test_header_values_keep_their_case(self):
        method, target, headers, body = _parse(
            b"post /predict HTTP/1.1\r\nX-Client-Id: Alice\r\n"
            b"Content-Length: 2\r\n\r\n{}"
        )
        assert (method, target, body) == ("POST", "/predict", b"{}")
        assert headers["x-client-id"] == "Alice"


class TestEndpointRejections:
    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_gets_400_and_close(self, length):
        answer = _exchange(
            f"GET /healthz HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
            .encode("latin-1")
        )
        head = answer.split(b"\r\n\r\n", 1)[0]
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert b"Content-Length" in answer.split(b"\r\n\r\n", 1)[1]

    @pytest.mark.parametrize("where", ["request line", "header line"])
    def test_overlong_line_gets_400_and_close(self, where):
        filler = b"a" * 70_000  # past the 64 KiB StreamReader limit
        answer = _exchange(
            b"GET /" + filler + b" HTTP/1.1\r\n\r\n"
            if where == "request line"
            else b"GET /healthz HTTP/1.1\r\nX-Big: " + filler + b"\r\n\r\n"
        )
        head, _, body = answer.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert b"too long" in body

    @pytest.mark.parametrize(
        "raw", [b"GARBAGE\r\n\r\n", b"GET /healthz\r\n\r\n"]
    )
    def test_malformed_request_line_gets_400_and_close(self, raw):
        head, _, body = _exchange(raw).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert b"request line" in body

    def test_connection_close_is_case_insensitive(self):
        answer = _exchange(
            b"GET /healthz HTTP/1.1\r\nConnection: Close\r\n\r\n"
        )
        assert answer.startswith(b"HTTP/1.1 200 ")
        assert b"Connection: close" in answer
