"""The shared HTTP/1.1 request parser.

A malformed ``Content-Length`` must raise :class:`BadRequest` (the
server answers it with a 400 and a closed connection; see
``tests/serve/test_server.py::TestMalformedRequests``), and header
values must keep their case.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.obs.http import BadRequest, read_request


def _parse(raw: bytes):
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

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
