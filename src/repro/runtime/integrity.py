"""Content checksums guarding on-disk simulation artefacts.

A silently truncated archive or a bit-flipped metric matrix is worse
than a lost one: it hydrates into a plausible-looking dataset and
poisons every model trained on it.  Both the campaign journal and the
dataset persistence layer therefore fingerprint their payloads with
SHA-256 and refuse to load anything whose recomputed digest disagrees.
"""

from __future__ import annotations

import hashlib
import pathlib
from typing import Union

import numpy as np

from repro.sim.interval import BatchResult

from .artifact import payload_checksum

_BATCH_FIELDS = ("cycles", "energy", "ed", "edd")


def array_checksum(*arrays: np.ndarray) -> str:
    """SHA-256 hex digest over a sequence of arrays.

    Shape and dtype are folded into the digest so that a reshaped or
    re-typed matrix with identical bytes does not collide.
    """
    digest = hashlib.sha256()
    for array in arrays:
        array = np.asarray(array)
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def file_checksum(path: Union[str, pathlib.Path]) -> str:
    """SHA-256 hex digest of a file's raw bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def batch_checksum(batch: BatchResult) -> str:
    """The per-cell content digest of a batch's four metric arrays.

    Exactly the digest :func:`repro.runtime.artifact.payload_checksum`
    would embed when the arrays are archived.  The campaign journals it
    for every cell, whichever executor computed the cell, and a resume
    re-checks each stored row against it before trusting the row.
    """
    return payload_checksum(
        {field: getattr(batch, field) for field in _BATCH_FIELDS}
    )
