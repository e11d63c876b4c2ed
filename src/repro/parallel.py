"""Shared helpers for the process-parallel execution knobs.

Several layers fan work out over a ``ProcessPoolExecutor`` — the
offline training pool, the campaign runner, the CLI — and they all
speak the same ``n_jobs`` dialect, resolved here
so every layer agrees on what ``None`` and ``-1`` mean.  The
``REPRO_JOBS`` environment variable supplies the default when a caller
passes ``None``, so CI and operators set the fleet-wide worker count
once instead of per entry point.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["resolve_jobs"]

#: Environment variable consulted when ``n_jobs`` is ``None``.
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(n_jobs: Optional[int], default: int = 1) -> int:
    """Normalise an ``n_jobs`` request to a concrete worker count.

    ``None`` defers to the ``REPRO_JOBS`` environment variable, then to
    ``default`` (serial unless the caller says otherwise); ``-1`` means
    one worker per CPU; any other positive integer is taken literally.
    ``REPRO_JOBS`` accepts the same dialect (``-1`` or a positive
    integer).

    Raises:
        ValueError: for zero or negative counts other than -1, whether
            they come from the argument or the environment.
    """
    if n_jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if not env:
            return resolve_jobs(default) if default != 1 else 1
        try:
            n_jobs = int(env)
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV} must be an integer or -1, got {env!r}"
            ) from None
    if n_jobs == -1:
        return max(1, os.cpu_count() or 1)
    if n_jobs < 1:
        raise ValueError(
            f"n_jobs must be a positive integer or -1, got {n_jobs}"
        )
    return n_jobs
