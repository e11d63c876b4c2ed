"""The length-prefixed, versioned, checksummed JSON wire protocol.

Every message between a coordinator and a worker is one *frame*::

    [4-byte big-endian length][UTF-8 JSON envelope]

and every envelope carries the same three keys::

    {"v": <protocol version>, "sha256": <hex digest>, "payload": {...}}

The digest covers the canonical (sorted-keys, ``allow_nan=False``) JSON
encoding of the payload, so a frame damaged anywhere between the two
``sha256`` computations — a truncated send, a proxy mangling bytes, a
version writing a different canonical form — is rejected as a
:class:`ProtocolError` instead of being half-trusted.  The protocol
version is checked on *every* frame, not just the handshake: a
coordinator and worker from incompatible releases fail loudly on the
first message rather than corrupting a campaign three hours in.
Exactly :data:`PROTOCOL_VERSION` is accepted: coordinator and workers
ship from one release, so there is no older vocabulary to decode.

Payloads are dicts with a ``"type"`` key; the coordinator and worker
modules define the message vocabulary.  This module owns only framing,
integrity and size limits.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import struct
from typing import Dict, Optional

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "read_message",
    "write_message",
]

#: Bumped on any change to the envelope or message vocabulary.  Both
#: sides must speak exactly this version.
PROTOCOL_VERSION = 5

#: Hard ceiling on one frame — a 128-configuration chunk of four
#: float64 arrays is ~20 kB of JSON; 32 MiB leaves three orders of
#: magnitude of headroom while still catching a garbage length prefix.
MAX_FRAME_BYTES = 32 << 20

_LENGTH = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """A frame violated the protocol (size, version, checksum, shape)."""


def _canonical(payload: Dict) -> bytes:
    """The byte string the envelope digest is computed over."""
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    except ValueError as error:
        raise ProtocolError(
            f"payload is not wire-encodable JSON: {error}"
        ) from error


def encode_frame(payload: Dict) -> bytes:
    """One complete frame (length prefix included) for ``payload``."""
    if not isinstance(payload, dict) or "type" not in payload:
        raise ProtocolError('a payload must be a dict with a "type" key')
    body = _canonical(payload)
    envelope = json.dumps(
        {
            "v": PROTOCOL_VERSION,
            "sha256": hashlib.sha256(body).hexdigest(),
            "payload": payload,
        },
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    ).encode("utf-8")
    if len(envelope) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(envelope)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(envelope)) + envelope


def decode_frame(envelope: bytes) -> Dict:
    """Verify and unwrap one envelope (without its length prefix)."""
    try:
        message = json.loads(envelope.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame is not JSON: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError("frame envelope is not an object")
    version = message.get("v")
    if type(version) is not int or version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version!r}, "
            f"this side speaks {PROTOCOL_VERSION} — run coordinator "
            "and workers from the same release"
        )
    payload = message.get("payload")
    if not isinstance(payload, dict) or "type" not in payload:
        raise ProtocolError('frame payload must be a dict with a "type"')
    recorded = message.get("sha256")
    if hashlib.sha256(_canonical(payload)).hexdigest() != recorded:
        raise ProtocolError(
            "frame failed its payload checksum (corrupted in transit)"
        )
    return payload


async def read_message(
    reader: asyncio.StreamReader,
) -> Optional[Dict]:
    """Read one frame; ``None`` on a cleanly closed connection.

    Raises:
        ProtocolError: on an oversized, truncated or corrupt frame.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # peer closed between frames: a clean goodbye
        raise ProtocolError("connection dropped mid-length-prefix") from error
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"announced frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    try:
        envelope = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError(
            f"connection dropped mid-frame ({len(error.partial)} of "
            f"{length} bytes)"
        ) from error
    return decode_frame(envelope)


async def write_message(
    writer: asyncio.StreamWriter, payload: Dict
) -> None:
    """Frame and send one payload, draining the transport."""
    writer.write(encode_frame(payload))
    await writer.drain()
