"""The one checksummed ``.npz`` artifact writer/reader.

Every durable array artefact in this repository — trained model pools,
fitted predictors, simulated datasets, registry entries — shares the
same failure modes: a truncated download, a bit flip, a hand-edited
matrix, an archive produced by an incompatible code version.  They used
to share the *defences* only by copy-paste (``core/persistence.py`` and
``exploration/persistence.py`` each grew their own version/checksum
plumbing); this module is the single implementation both of them, and
the model registry, now build on.

An archive written by :func:`write_archive` carries two reserved keys:

* ``format_version`` — the caller's schema version; a read accepts
  exactly the version the calling code writes;
* ``checksum`` — a SHA-256 digest over every other entry's *name*,
  dtype, shape and bytes, recomputed and compared on read.

Writes are atomic (scratch file, fsync, rename), so a crash mid-write
leaves either the previous artifact or none — never a torn archive that
a later load would have to distrust.  Reads wrap every way an archive
can be unreadable (truncation, zip damage, missing keys) into one
:class:`ValueError` with the path in the message.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import zipfile
import zlib
from typing import Dict, Mapping, Union

import numpy as np

__all__ = [
    "CHECKSUM_KEY",
    "FORMAT_KEY",
    "payload_checksum",
    "read_archive",
    "write_archive",
]

#: Reserved archive key holding the caller's schema version.
FORMAT_KEY = "format_version"

#: Reserved archive key holding the content digest.
CHECKSUM_KEY = "checksum"

_RESERVED = (FORMAT_KEY, CHECKSUM_KEY)


def payload_checksum(payload: Mapping[str, np.ndarray]) -> str:
    """SHA-256 hex digest over named arrays, in sorted key order.

    The key names are folded into the digest alongside each array's
    dtype, shape and bytes, so renaming an entry — not just corrupting
    one — changes the checksum.
    """
    digest = hashlib.sha256()
    for name in sorted(payload):
        if name in _RESERVED:
            continue
        array = np.asarray(payload[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def write_archive(
    path: Union[str, pathlib.Path],
    payload: Mapping[str, np.ndarray],
    format_version: int,
) -> pathlib.Path:
    """Write ``payload`` to ``path`` with version and checksum embedded.

    Args:
        path: Destination ``.npz`` path.
        payload: Named arrays (anything ``np.asarray`` accepts).  The
            reserved keys ``format_version`` and ``checksum`` are
            written by this function and must not appear in it.
        format_version: The caller's schema version.

    Returns:
        The destination path.
    """
    path = pathlib.Path(path)
    reserved = sorted(set(payload) & set(_RESERVED))
    if reserved:
        raise ValueError(f"payload uses reserved archive keys: {reserved}")
    complete = {
        FORMAT_KEY: np.array(int(format_version)),
        CHECKSUM_KEY: np.array(payload_checksum(payload)),
        **payload,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    # numpy appends ".npz" to names lacking it, so the scratch file must
    # already end in ".npz" for the rename below to find it.
    scratch = path.with_name(path.stem + ".tmp.npz")
    try:
        np.savez_compressed(scratch, **complete)
        with open(scratch, "rb") as handle:
            os.fsync(handle.fileno())
        os.replace(scratch, path)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise
    return path


def read_archive(
    path: Union[str, pathlib.Path],
    format_version: int,
    label: str = "archive",
) -> Dict[str, np.ndarray]:
    """Load and verify an archive written by :func:`write_archive`.

    Args:
        path: The ``.npz`` archive.
        format_version: The schema version this code writes — the only
            one it reads.  The archive must also carry a matching
            content checksum.
        label: Human-facing artefact kind for error messages
            ("dataset archive", "model pool", ...).

    Returns:
        The payload with every array materialised and the reserved keys
        stripped.

    Raises:
        ValueError: on a truncated or unreadable file, an unsupported
            version, or a checksum mismatch.
    """
    path = pathlib.Path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files}
    except (
        zipfile.BadZipFile, zlib.error, EOFError, OSError, KeyError,
        ValueError,
    ) as error:
        raise ValueError(
            f"corrupt or truncated {label} {path}: {error}"
        ) from error
    if FORMAT_KEY not in payload:
        raise ValueError(
            f"corrupt or truncated {label} {path}: no format version"
        )
    version = int(payload.pop(FORMAT_KEY))
    if version != int(format_version):
        raise ValueError(f"unsupported {label} format version {version}")
    recorded = payload.pop(CHECKSUM_KEY, None)
    if recorded is None:
        raise ValueError(
            f"corrupt or truncated {label} {path}: no checksum"
        )
    if payload_checksum(payload) != str(recorded):
        raise ValueError(
            f"{label} {path} failed its content checksum "
            "(the file was corrupted or tampered with)"
        )
    return payload
