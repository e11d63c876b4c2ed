"""Append-only on-disk journal of completed campaign cells.

The journal is the campaign's source of truth for what is already done.
Each completed (program, chunk) cell has exactly one JSON line — cell
id, result file, row, content digest — and a committed group's lines go
down in one write with one fsync, so a ``kill -9`` loses at most the
group in flight.  A half-written trailing line (the signature of an
interrupted append) is ignored on read, never treated as data, and cut
off before the next append so the new lines cannot fuse with it.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import BinaryIO, Dict, Iterator, List, Union

from repro.obs import get_logger

_log = get_logger(__name__)


class CampaignJournal:
    """One append-only JSONL file recording completed cells.

    Args:
        path: Journal file location (parent directories are created).
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def exists(self) -> bool:
        """True when a journal file is already on disk."""
        return self.path.exists()

    def append(self, *records: Dict) -> None:
        """Durably append records, one JSON line each, in one write."""
        lines = [json.dumps(record, sort_keys=True) for record in records]
        if any("\n" in line for line in lines):
            raise ValueError("journal records must serialise to one line")
        data = "".join(line + "\n" for line in lines).encode("utf-8")
        with open(self.path, "a+b") as handle:
            self._cut_torn_tail(handle)
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def _cut_torn_tail(self, handle: BinaryIO) -> None:
        """Truncate an unterminated last line left by an interrupted
        append, and make the cut durable before anything follows it."""
        end = handle.seek(0, os.SEEK_END)
        if end == 0:
            return
        handle.seek(end - 1)
        if handle.read(1) == b"\n":
            return
        handle.seek(0)
        keep = handle.read().rfind(b"\n") + 1
        handle.truncate(keep)
        os.fsync(handle.fileno())
        _log.warning(
            "journal %s ended in a torn record; cut %d byte(s)",
            self.path, end - keep,
            extra={"event": "campaign.journal_repaired", "bytes": end - keep},
        )

    def records(self) -> List[Dict]:
        """All intact records, oldest first (torn tail lines skipped)."""
        return list(self._iter_records())

    def _iter_records(self) -> Iterator[Dict]:
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().split("\n")
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # A torn line can only be the interrupted final append;
                # corruption anywhere else means the file was tampered
                # with and the cells after it cannot be trusted either.
                remaining = [l for l in lines[index + 1 :] if l.strip()]
                if remaining:
                    raise ValueError(
                        f"corrupt journal line {index + 1} in {self.path}"
                    )
                return
            if not isinstance(record, dict):
                raise ValueError(
                    f"journal line {index + 1} in {self.path} is not an "
                    "object"
                )
            yield record
