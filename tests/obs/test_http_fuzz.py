"""Seeded fuzzing of the shared HTTP/1.1 request parser.

Every case feeds a mutated request — a mangled request line, a hostile
header set, a wrong ``Content-Length``, a truncation — into
:func:`read_request` and requires one of its documented outcomes: a
parsed request, ``None`` (end of input or a blank request line), or
:class:`BadRequest`, :class:`asyncio.IncompleteReadError` or
:class:`ConnectionError`.  Never a hang, never any other exception
type.  The reader's line limit is shrunk so overlong lines stay cheap;
one case checks the default 64 KiB limit as well.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.obs.http import MAX_BODY, BadRequest, read_request

SEED = 0x4E77
ROUNDS = 300
LIMIT = 256
READ_TIMEOUT = 2.0

#: Outcomes a caller of read_request is prepared to handle.
EXPECTED_ERRORS = (BadRequest, asyncio.IncompleteReadError, ConnectionError)

_LENGTHS = (
    "", "0", "5", "-1", "+5", "abc", "1e3", " 7", "0x10", "1_0", "²", "٣",
    "9" * 5000, "0" * 5000 + "3", str(MAX_BODY), str(MAX_BODY + 1),
)


def _parse_all(raws, limit=LIMIT):
    """Parse each raw request on a fresh reader; outcome per request."""

    async def one(raw):
        reader = asyncio.StreamReader(limit=limit)
        reader.feed_data(raw)
        reader.feed_eof()
        try:
            return await asyncio.wait_for(
                read_request(reader), timeout=READ_TIMEOUT
            )
        except EXPECTED_ERRORS as error:
            return error

    async def scenario():
        return [await one(raw) for raw in raws]

    return asyncio.run(scenario())


def _token(rng, size=None) -> bytes:
    size = int(rng.integers(1, 12)) if size is None else size
    return bytes(rng.integers(97, 123, size=size, dtype=np.uint8))


def _noise(rng, size) -> bytes:
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def _request_line(rng) -> bytes:
    kind = int(rng.integers(0, 6))
    if kind == 0:
        return b"GET /healthz HTTP/1.1"
    if kind == 1:
        return b"post /predict HTTP/1.1"
    if kind == 2:  # overlong
        return b"GET /" + _token(rng, LIMIT + int(rng.integers(1, 64)))
    if kind == 3:  # too few or too many parts
        return b" ".join(
            _token(rng) for _ in range(int(rng.choice([0, 1, 2, 4, 5])))
        )
    if kind == 4:
        return _noise(rng, int(rng.integers(0, 40))).replace(b"\n", b"")
    return b"GET  /a?b=c   HTTP/1.0 "


def _headers(rng) -> list:
    lines = []
    for _ in range(int(rng.integers(0, 6))):
        kind = int(rng.integers(0, 5))
        if kind == 0:
            lines.append(_token(rng) + b": " + _token(rng))
        elif kind == 1:  # no colon at all
            lines.append(_token(rng))
        elif kind == 2:  # overlong value
            lines.append(b"X-Big: " + _token(rng, LIMIT + 1))
        elif kind == 3:
            lines.append(b"Connection: " + rng.choice([b"close", b"Close"]))
        else:
            lines.append(_noise(rng, int(rng.integers(1, 30))).replace(
                b"\n", b""
            ))
    if rng.random() < 0.7:
        length = _LENGTHS[int(rng.integers(0, len(_LENGTHS)))]
        lines.append(b"Content-Length: " + length.encode("utf-8"))
    return lines


def _mutated_request(rng) -> bytes:
    eol = b"\r\n" if rng.random() < 0.8 else b"\n"
    head = [_request_line(rng)] + _headers(rng)
    raw = eol.join(head) + eol + eol + _noise(rng, int(rng.integers(0, 16)))
    if rng.random() < 0.3:  # truncation anywhere
        raw = raw[: int(rng.integers(0, len(raw) + 1))]
    return raw


def _assert_documented(raw, outcome) -> None:
    if outcome is None:
        # Only end of input or a blank request line closes quietly;
        # anything else must be answered.
        assert not raw.split(b"\n", 1)[0].decode("latin-1").split(), raw
        return
    if isinstance(outcome, EXPECTED_ERRORS):
        return
    method, target, headers, body = outcome
    assert isinstance(method, str) and method == method.upper()
    assert isinstance(target, str)
    assert all(name == name.lower() for name in headers)
    assert isinstance(body, bytes)


class TestMutatedRequests:
    def test_every_mutation_has_a_documented_outcome(self):
        rng = np.random.default_rng(SEED)
        raws = [_mutated_request(rng) for _ in range(ROUNDS)]
        outcomes = _parse_all(raws)
        for raw, outcome in zip(raws, outcomes):
            _assert_documented(raw, outcome)
        kinds = {type(o).__name__ for o in outcomes}
        # The seed reaches every outcome, so the contract is exercised.
        assert {"tuple", "NoneType", "BadRequest"} <= kinds

    def test_well_formed_requests_round_trip(self):
        rng = np.random.default_rng(SEED + 1)
        raws, expected = [], []
        for _ in range(ROUNDS // 3):
            body = _noise(rng, int(rng.integers(0, 64)))
            names = [_token(rng) for _ in range(int(rng.integers(0, 4)))]
            values = [_token(rng).upper() for _ in names]
            head = [b"put /" + _token(rng) + b" HTTP/1.1"] + [
                name.upper() + b": " + value
                for name, value in zip(names, values)
            ] + [b"Content-Length: %d" % len(body)]
            raws.append(b"\r\n".join(head) + b"\r\n\r\n" + body)
            expected.append((dict(zip(names, values)), body))
        for outcome, (headers, body) in zip(_parse_all(raws), expected):
            method, _target, parsed, parsed_body = outcome
            assert method == "PUT"
            assert parsed_body == body
            for name, value in headers.items():
                assert parsed[name.decode()] == value.decode()


class TestOverlongLines:
    @pytest.mark.parametrize("where", ["request line", "header line"])
    def test_overlong_line_is_a_bad_request(self, where):
        filler = b"a" * (LIMIT + 1)
        raw = (
            b"GET /" + filler + b" HTTP/1.1\r\n\r\n"
            if where == "request line"
            else b"GET / HTTP/1.1\r\nX-Big: " + filler + b"\r\n\r\n"
        )
        (outcome,) = _parse_all([raw])
        assert isinstance(outcome, BadRequest)
        assert "too long" in str(outcome)

    def test_default_limit_line_is_a_bad_request(self):
        raw = b"GET / HTTP/1.1\r\nX-Big: " + b"a" * (1 << 17) + b"\r\n\r\n"
        (outcome,) = _parse_all([raw], limit=1 << 16)
        assert isinstance(outcome, BadRequest)

    def test_huge_digit_count_is_too_large_not_a_crash(self):
        raw = (
            b"POST / HTTP/1.1\r\nContent-Length: " + b"9" * 5000
            + b"\r\n\r\n"
        )
        (outcome,) = _parse_all([raw], limit=1 << 16)
        assert isinstance(outcome, ConnectionError)

    def test_leading_zeros_keep_their_value(self):
        raw = (
            b"POST / HTTP/1.1\r\nContent-Length: " + b"0" * 5000 + b"2"
            + b"\r\n\r\n{}"
        )
        (outcome,) = _parse_all([raw], limit=1 << 16)
        assert outcome[3] == b"{}"
