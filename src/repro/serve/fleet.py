"""Multi-process serving: a prefork fleet behind one port.

``repro serve --workers N`` runs N full :class:`PredictionServer`
processes answering on one ``host:port``.  The parent loads the
published predictor **once**; workers are forked, so every process
reads the same registry snapshot through copy-on-write memory instead
of N loads.  Every worker binds its own listening socket with
``SO_REUSEPORT`` and the kernel balances incoming connections across
them.  The parent holds a bound (never listening) placeholder on the
port from before the first fork until every worker is ready, so port 0
resolves once and no stranger can grab the port in between.

Lifecycle is supervisor-shaped: the parent relays SIGTERM to every
worker (each drains gracefully — in-flight requests answered, new
ones 503'd), waits, and then merges each worker's final metrics
snapshot into its own registry via the same
:meth:`~repro.obs.MetricsRegistry.merge` machinery the ``--jobs``
campaign workers use — so ``--metrics-out`` after a fleet run holds
fleet-wide totals (``serve_requests{status="200"}`` across every
worker), plus ``serve_fleet_workers`` / ``serve_fleet_exit_codes``
for the roster.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import signal
import socket
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs import get_logger, get_registry

__all__ = ["FleetReport", "ServingFleet"]

_log = get_logger("serve.fleet")


@dataclass
class FleetReport:
    """What a stopped fleet left behind."""

    workers: int
    exit_codes: List[int]
    snapshots: List[Optional[Dict]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when every worker drained and exited 0."""
        return all(code == 0 for code in self.exit_codes)


class ServingFleet:
    """N forked :class:`PredictionServer` workers behind one port.

    Args:
        predictor: The fitted predictor, loaded once pre-fork.
        workers: Process count (>= 1).
        host / port: Shared bind address (port 0 picks a free one,
            resolved before the first fork).
        model_info: Identity dict forwarded to every worker.
        max_batch / batch_window / cache_size / queue_limit: Each
            worker's :class:`PredictionServer` batcher settings.
        max_inflight / client_rate / client_burst: Admission limits;
            each worker builds its own
            :class:`~repro.serve.admission.AdmissionController`
            (admission state is per worker).

    Raises:
        RuntimeError: where the platform lacks ``fork`` or
            ``SO_REUSEPORT``.
    """

    def __init__(
        self,
        predictor,
        workers: int,
        host: str = "127.0.0.1",
        port: int = 0,
        model_info: Optional[Dict] = None,
        max_batch: int = 64,
        batch_window: float = 0.002,
        cache_size: int = 4096,
        queue_limit: int = 1024,
        max_inflight: int = 0,
        client_rate: float = 0.0,
        client_burst: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError("a fleet needs at least one worker")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "a serving fleet needs the fork start method (the "
                "predictor is inherited, not pickled); this platform "
                "does not support it"
            )
        if not hasattr(socket, "SO_REUSEPORT"):
            raise RuntimeError(
                "a serving fleet needs SO_REUSEPORT (every worker binds "
                "the shared port); this platform does not support it"
            )
        self._predictor = predictor
        self.workers = workers
        self.host = host
        self.port = port
        self.model_info = dict(model_info or {})
        self._options = {
            "max_batch": max_batch,
            "batch_window": batch_window,
            "cache_size": cache_size,
            "queue_limit": queue_limit,
            "max_inflight": max_inflight,
            "client_rate": client_rate,
            "client_burst": client_burst,
        }
        self._ctx = multiprocessing.get_context("fork")
        self._processes: List = []
        self._signalled: set = set()
        self._placeholder: Optional[socket.socket] = None
        self._snapshot_dir: Optional[str] = None
        self._report: Optional[FleetReport] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, timeout: float = 120.0) -> None:
        """Bind the port, fork the workers, wait until all are ready."""
        if self._processes:
            raise RuntimeError("the fleet is already running")
        self._snapshot_dir = tempfile.mkdtemp(prefix="repro-fleet-")
        # A bound, non-listening placeholder: resolves port 0 and pins
        # the port (SO_REUSEPORT binds only bind alongside other
        # SO_REUSEPORT binds by the same user) without ever receiving
        # connections — the kernel balances only across *listening*
        # sockets.
        placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        placeholder.bind((self.host, self.port))
        self.port = placeholder.getsockname()[1]
        self._placeholder = placeholder
        ready_events = []
        for index in range(self.workers):
            ready = self._ctx.Event()
            process = self._ctx.Process(
                target=_worker_main,
                args=(
                    self._predictor,
                    {
                        **self._options,
                        "host": self.host,
                        "port": self.port,
                        "model_info": {**self.model_info, "worker": index},
                    },
                    index,
                    ready,
                    os.path.join(self._snapshot_dir, f"worker-{index}.json"),
                ),
                name=f"repro-serve-worker-{index}",
                daemon=True,  # a dead parent must not leave orphans
            )
            process.start()
            self._processes.append(process)
            ready_events.append(ready)
        deadline = time.monotonic() + timeout
        for index, ready in enumerate(ready_events):
            if not ready.wait(max(0.0, deadline - time.monotonic())):
                self._abort()
                raise RuntimeError(
                    f"fleet worker {index} never became ready "
                    f"(exit code {self._processes[index].exitcode})"
                )
        # Workers hold the port now; the placeholder can go.
        self._placeholder.close()
        self._placeholder = None
        _log.info(
            "fleet up: %d worker(s) on http://%s:%d",
            self.workers, self.host, self.port,
        )

    def alive(self) -> int:
        """Workers still running."""
        return sum(1 for p in self._processes if p.is_alive())

    def begin_drain(self) -> None:
        """Relay SIGTERM to every live worker (they drain gracefully).

        Each worker is signalled once: a repeat SIGTERM could land after
        its event loop closed and kill it before it writes its
        telemetry snapshot.
        """
        for process in self._processes:
            if process.is_alive() and process.pid not in self._signalled:
                self._signalled.add(process.pid)
                try:
                    os.kill(process.pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass

    def stop(self, timeout: float = 60.0) -> FleetReport:
        """Drain the fleet, merge worker telemetry, report exit codes.

        Idempotent: a second call returns the first report.
        """
        if self._report is not None:
            return self._report
        self.begin_drain()
        deadline = time.monotonic() + timeout
        for process in self._processes:
            process.join(max(0.0, deadline - time.monotonic()))
        for process in self._processes:
            if process.is_alive():
                _log.error(
                    "worker %s did not drain in %.0fs; killing",
                    process.name, timeout,
                )
                process.kill()
                process.join(10.0)
        snapshots = self._collect_snapshots()
        registry = get_registry()
        merged = 0
        for snapshot in snapshots:
            if snapshot is not None:
                registry.merge(snapshot)
                merged += 1
        exit_codes = [
            process.exitcode if process.exitcode is not None else -1
            for process in self._processes
        ]
        registry.gauge("serve.fleet.workers").set(self.workers)
        registry.counter("serve.fleet.snapshots.merged").inc(merged)
        for index, code in enumerate(exit_codes):
            registry.gauge(
                "serve.fleet.exit_code", worker=str(index)
            ).set(code)
        self._cleanup()
        self._report = FleetReport(
            workers=self.workers,
            exit_codes=exit_codes,
            snapshots=snapshots,
        )
        _log.info(
            "fleet stopped: exit codes %s, %d/%d snapshots merged",
            exit_codes, merged, self.workers,
        )
        return self._report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _collect_snapshots(self) -> List[Optional[Dict]]:
        snapshots: List[Optional[Dict]] = []
        for index in range(self.workers):
            path = os.path.join(
                self._snapshot_dir or "", f"worker-{index}.json"
            )
            try:
                with open(path, encoding="utf-8") as handle:
                    snapshots.append(json.load(handle))
            except (OSError, json.JSONDecodeError):
                _log.warning("no telemetry snapshot from worker %d", index)
                snapshots.append(None)
        return snapshots

    def _abort(self) -> None:
        for process in self._processes:
            if process.is_alive():
                process.kill()
        for process in self._processes:
            process.join(10.0)
        self._cleanup()

    def _cleanup(self) -> None:
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None
        if self._snapshot_dir is not None:
            shutil.rmtree(self._snapshot_dir, ignore_errors=True)
            self._snapshot_dir = None


def _worker_main(
    predictor,
    options: Dict,
    index: int,
    ready,
    snapshot_path: str,
) -> None:
    """One forked worker: serve until SIGTERM, then drain and snapshot."""
    import asyncio

    from repro.obs import MetricsRegistry, set_registry

    from .server import _serve_until_signalled

    # A fresh registry: the parent may have trained, published or
    # benched in-process before forking, and merging those inherited
    # series back would double-count them fleet-wide.
    set_registry(MetricsRegistry())
    get_registry().gauge("serve.worker.index").set(index)
    try:
        asyncio.run(
            _serve_until_signalled(
                predictor,
                lambda _server: ready.set(),
                reuse_port=True,
                **options,
            )
        )
    finally:
        # The snapshot is the worker's last will: written atomically on
        # every exit path so the parent merge sees either a complete
        # registry or nothing.
        scratch = f"{snapshot_path}.tmp"
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(get_registry().snapshot(), handle)
        os.replace(scratch, snapshot_path)
