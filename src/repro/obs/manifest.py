"""Per-run manifests: what ran, from which code, with which inputs.

A manifest is the provenance record ArchGym-style reproducibility
needs: a unique run id, the seed, the git commit of the code, a
checksum of the inputs, wall-clock bounds, a per-stage timing summary
and the final metric counters — one JSON file written next to the run's
other artefacts (campaign checkpoints, benchmark results).  Two runs
whose manifests agree on seed, git sha and input checksum are claims
about the *same* experiment; diverging numbers then point at the
environment, not the configuration.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import platform
import subprocess
import sys
import time
import uuid
from typing import Dict, Optional, Union

from .metrics import MetricsRegistry, get_registry
from .tracing import Tracer, get_tracer

__all__ = ["build_manifest", "write_manifest", "git_sha"]

#: Manifest schema version, bumped on breaking layout changes.
MANIFEST_SCHEMA = 1


@functools.lru_cache(maxsize=None)
def git_sha() -> Optional[str]:
    """The repository HEAD sha, or ``None`` outside a git checkout.

    Resolved relative to this file so an installed-from-checkout
    package reports its commit; failures (no git binary, no repository,
    a shallow CI export) degrade to ``None`` rather than raising.
    Resolved once per process: a running process cannot change the
    code it imported, so the first answer is also the accurate one.
    """
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def build_manifest(
    run_id: Optional[str] = None,
    seed: Optional[int] = None,
    config_checksum: Optional[str] = None,
    extra: Optional[Dict] = None,
    tracer: Optional[Tracer] = None,
    trace_start: int = 0,
    registry: Optional[MetricsRegistry] = None,
    started: Optional[float] = None,
) -> Dict:
    """Assemble a manifest dict for the current run.

    Args:
        run_id: Stable identifier; a fresh UUID4 hex when omitted.
        seed: The run's base seed (``None`` when seedless).
        config_checksum: Checksum of the run's input configuration
            (campaigns use their sampled-configuration checksum).
        extra: Run-specific payload merged in under ``"run"`` —
            accounting counts, CLI argv, anything the caller owes its
            future self.
        tracer: Timing source (the global tracer by default).
        trace_start: :meth:`Tracer.mark` value taken when the run
            began, so the timing summary covers only this run's spans.
        registry: Metrics source (the global registry by default).
        started: Epoch seconds when the run began (for the wall-clock
            bound; defaults to "now", i.e. a zero-length run).
    """
    tracer = tracer if tracer is not None else get_tracer()
    registry = registry if registry is not None else get_registry()
    now = time.time()
    return {
        "schema": MANIFEST_SCHEMA,
        "run_id": run_id if run_id is not None else uuid.uuid4().hex,
        "seed": seed,
        "git_sha": git_sha(),
        "config_checksum": config_checksum,
        "started": started if started is not None else now,
        "finished": now,
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "pid": os.getpid(),
            "argv": list(sys.argv),
        },
        "timing": tracer.summary(trace_start),
        "spans_dropped": tracer.dropped,
        "metrics": registry.to_json(),
        "run": dict(extra or {}),
    }


def write_manifest(
    path: Union[str, pathlib.Path], manifest: Dict
) -> pathlib.Path:
    """Atomically write a manifest as pretty-printed JSON.

    Temp-file-then-rename, like every other checkpoint artefact: a
    crash mid-write leaves the previous manifest intact, never a torn
    file.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(path.name + ".tmp")
    scratch.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    os.replace(scratch, path)
    return path
