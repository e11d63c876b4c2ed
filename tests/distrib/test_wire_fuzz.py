"""Seeded fuzzing of the wire codec.

Every case feeds hostile bytes — mangled length prefixes, truncated
frames, wrong-version headers, flipped payload bytes, raw garbage —
into :func:`read_message` / :func:`decode_frame` and requires the same
outcome: a clean :class:`ProtocolError` (or ``None`` for a clean EOF),
never a hang, never any other exception type.  Each read is wrapped in
``asyncio.wait_for`` so a codec that blocks on malformed input fails
the test instead of wedging the suite.
"""

from __future__ import annotations

import asyncio
import json
import struct

import numpy as np
import pytest

from repro.distrib.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    read_message,
)

SEED = 0xC0FFEE
ROUNDS = 50
READ_TIMEOUT = 2.0


def _sample_payload(rng: np.random.Generator) -> dict:
    return {
        "type": "result",
        "lease": f"lease-{int(rng.integers(0, 1 << 30))}",
        "cell": f"gzip:{int(rng.integers(0, 512))}",
        "values": [float(v) for v in rng.normal(size=4)],
    }


def _read_all(data: bytes):
    """Drive read_message over ``data`` until EOF, error or timeout."""

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        messages = []
        while True:
            message = await asyncio.wait_for(
                read_message(reader), timeout=READ_TIMEOUT
            )
            if message is None:
                return messages
            messages.append(message)

    return asyncio.run(scenario())


class TestLengthPrefixFuzz:
    def test_random_length_prefixes_never_hang(self):
        rng = np.random.default_rng(SEED)
        for _ in range(ROUNDS):
            prefix = rng.integers(0, 256, size=4, dtype=np.uint8).tobytes()
            (length,) = struct.unpack(">I", prefix)
            tail_len = int(rng.integers(0, 64))
            tail = rng.integers(
                0, 256, size=tail_len, dtype=np.uint8
            ).tobytes()
            if length == 0 and tail_len == 0:
                continue  # a zero-length frame decodes as empty JSON -> error anyway
            with pytest.raises(ProtocolError):
                _read_all(prefix + tail)

    def test_oversized_announcement_rejected_before_reading_body(self):
        prefix = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            _read_all(prefix)

    def test_partial_length_prefix_is_an_error(self):
        rng = np.random.default_rng(SEED + 1)
        for cut in (1, 2, 3):
            frame = encode_frame(_sample_payload(rng))
            with pytest.raises(ProtocolError, match="mid-length-prefix"):
                _read_all(frame[:cut])


class TestTruncationFuzz:
    def test_truncated_frames_raise_cleanly(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(ROUNDS):
            frame = encode_frame(_sample_payload(rng))
            cut = int(rng.integers(4, len(frame)))  # keep full prefix
            with pytest.raises(ProtocolError, match="mid-frame"):
                _read_all(frame[:cut])

    def test_truncated_second_frame_after_a_good_first(self):
        rng = np.random.default_rng(SEED + 3)
        first = encode_frame(_sample_payload(rng))
        second = encode_frame(_sample_payload(rng))
        cut = len(second) // 2

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(first + second[:cut])
            reader.feed_eof()
            good = await asyncio.wait_for(
                read_message(reader), timeout=READ_TIMEOUT
            )
            assert good is not None and good["type"] == "result"
            with pytest.raises(ProtocolError):
                await asyncio.wait_for(
                    read_message(reader), timeout=READ_TIMEOUT
                )

        asyncio.run(scenario())

    def test_clean_eof_between_frames_returns_none(self):
        rng = np.random.default_rng(SEED + 4)
        frame = encode_frame(_sample_payload(rng))
        assert len(_read_all(frame)) == 1
        assert _read_all(b"") == []


class TestHeaderFuzz:
    def _reframe(self, envelope: dict) -> bytes:
        body = json.dumps(envelope).encode("utf-8")
        return struct.pack(">I", len(body)) + body

    def test_wrong_version_headers_rejected(self):
        rng = np.random.default_rng(SEED + 5)
        for _ in range(ROUNDS):
            frame = encode_frame(_sample_payload(rng))
            envelope = json.loads(frame[4:].decode("utf-8"))
            wrong = int(rng.integers(-3, 100))
            if wrong == PROTOCOL_VERSION:
                continue  # the one accepted version, not a mismatch
            envelope["v"] = wrong
            with pytest.raises(ProtocolError, match="version mismatch"):
                _read_all(self._reframe(envelope))

    def test_only_the_current_version_accepted(self):
        rng = np.random.default_rng(SEED + 5)
        payload = _sample_payload(rng)
        frame = encode_frame(payload)
        envelope = json.loads(frame[4:].decode("utf-8"))
        assert _read_all(self._reframe(envelope)) == [payload]
        for version in range(0, PROTOCOL_VERSION + 10):
            if version == PROTOCOL_VERSION:
                continue
            mangled = dict(envelope)
            mangled["v"] = version
            with pytest.raises(ProtocolError, match="version mismatch"):
                _read_all(self._reframe(mangled))

    def test_non_integer_versions_rejected(self):
        rng = np.random.default_rng(SEED + 6)
        frame = encode_frame(_sample_payload(rng))
        envelope = json.loads(frame[4:].decode("utf-8"))
        for wrong in (
            None, "2", 2.5, [PROTOCOL_VERSION],
            float(PROTOCOL_VERSION), str(PROTOCOL_VERSION), True,
        ):
            mangled = dict(envelope)
            mangled["v"] = wrong
            with pytest.raises(ProtocolError, match="version mismatch"):
                _read_all(self._reframe(mangled))

    def test_missing_envelope_keys_rejected(self):
        rng = np.random.default_rng(SEED + 7)
        frame = encode_frame(_sample_payload(rng))
        envelope = json.loads(frame[4:].decode("utf-8"))
        for key in ("v", "sha256", "payload"):
            mangled = {k: v for k, v in envelope.items() if k != key}
            with pytest.raises(ProtocolError):
                _read_all(self._reframe(mangled))


class TestCorruptionFuzz:
    def test_flipped_bytes_never_pass_the_checksum(self):
        rng = np.random.default_rng(SEED + 8)
        for _ in range(ROUNDS):
            frame = bytearray(encode_frame(_sample_payload(rng)))
            index = int(rng.integers(4, len(frame)))
            bit = 1 << int(rng.integers(0, 8))
            frame[index] ^= bit
            if bytes(frame) == encode_frame(_sample_payload(rng)):
                continue  # pragma: no cover - flip was a no-op
            # Depending on where the flip lands this is a JSON error, a
            # shape error, a version mismatch or a checksum failure; it
            # must always surface as ProtocolError, never decode.
            with pytest.raises(ProtocolError):
                _read_all(bytes(frame))

    def test_checksum_field_corruption_detected(self):
        rng = np.random.default_rng(SEED + 9)
        for _ in range(10):
            frame = encode_frame(_sample_payload(rng))
            envelope = json.loads(frame[4:].decode("utf-8"))
            digest = list(envelope["sha256"])
            pos = int(rng.integers(0, len(digest)))
            digest[pos] = "0" if digest[pos] != "0" else "f"
            envelope["sha256"] = "".join(digest)
            body = json.dumps(envelope).encode("utf-8")
            with pytest.raises(ProtocolError, match="checksum"):
                decode_frame(body)

    def test_random_garbage_never_decodes(self):
        rng = np.random.default_rng(SEED + 10)
        for _ in range(ROUNDS):
            size = int(rng.integers(1, 512))
            blob = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
            with pytest.raises(ProtocolError):
                decode_frame(blob)

    def test_valid_json_wrong_shape_never_decodes(self):
        shapes = [
            b"null",
            b"[]",
            b'"frame"',
            b"{}",
            b'{"v": 2}',
            b'{"v": 2, "sha256": "00", "payload": []}',
            b'{"v": 2, "sha256": "00", "payload": {"no_type": 1}}',
        ]
        for blob in shapes:
            with pytest.raises(ProtocolError):
                decode_frame(blob)
