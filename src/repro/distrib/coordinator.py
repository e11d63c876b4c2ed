"""The campaign coordinator: one work queue, many hosts.

The coordinator owns everything stateful about a distributed campaign —
the work queue of (program, chunk) cells from
:meth:`~repro.runtime.campaign.CampaignRunner.plan`, the checkpoint
journal, the lease table — and workers own nothing: they connect, lease
a task, simulate it and ship the arrays back.  That asymmetry is the
whole fault story:

* a worker that **dies** drops its TCP connection and every lease it
  held is requeued immediately;
* a worker that **hangs** misses its lease deadline (heartbeats extend
  it while real progress is being made) and the lease is reclaimed by
  the monitor loop;
* a worker that **keeps failing** trips its per-worker
  :class:`~repro.runtime.retry.CircuitBreaker` and is drained rather
  than fed more of the campaign;
* a **stale result** for a cell another worker already finished is
  acknowledged and discarded, never double-journalled;
* a **straggler** gets its outstanding lease speculatively re-leased to
  an idle faster worker (*work stealing*) — whichever copy finishes
  first wins, the loser is cancelled, and the journal records exactly
  one result;
* an **elastic fleet** is first-class: workers advertise capabilities
  at HELLO and the :class:`~repro.distrib.membership.FleetMembership`
  roster sizes lease bundles capacity-weighted, admits late joiners
  mid-campaign, and flags workers whose observed completion rate drops
  below a fraction of the fleet median.

Completed cells go through the *same* group commit as a serial run
(:meth:`~repro.runtime.campaign.CampaignRunner.store_cell` commits each
arriving result as a group of one) — same per-cell digests, same
journal records — so ``--resume`` is transparent across serial,
process-parallel and distributed executions, and per-task retry seeds
are the same ``stable_seed("campaign-retry", cell, seed)`` stream the
serial loop draws from, which is what makes a distributed campaign
bit-identical to a serial one regardless of worker count or
interleaving.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import signal
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import __version__
from repro.designspace.configuration import Configuration
from repro.obs import (
    ObservabilityEndpoint,
    SLOTracker,
    TimeSeriesSampler,
    get_logger,
    get_registry,
    get_tracer,
    git_sha,
    span,
)
from repro.obs.http import PROMETHEUS_CONTENT_TYPE, dump_json
from repro.runtime.backend import SimulationError, validate_batch
from repro.runtime.campaign import (
    CampaignCell,
    CampaignPlan,
    CampaignResult,
    CampaignRunner,
)
from repro.runtime.retry import CircuitBreaker
from repro.sim.metrics import Metric
from repro.workloads.profile import stable_seed

from .membership import FleetMembership, WorkerCapabilities
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    encode_frame,
    read_message,
    write_message,
)
from .wire import (
    batch_checksum,
    batch_from_wire,
    configs_to_wire,
    policy_to_wire,
    profile_to_wire,
)

__all__ = [
    "CampaignCoordinator",
    "CoordinatorStats",
    "fetch_status",
]

_log = get_logger(__name__)


@dataclass
class _Lease:
    """One outstanding task: which cell, whose worker, until when."""

    lease_id: str
    cell: CampaignCell
    worker_id: str
    deadline: float
    issued_at: float
    speculative: bool = False  # a stolen duplicate of a live lease


@dataclass
class _WorkerState:
    """Per-worker accounting and the worker's circuit breaker."""

    worker_id: str
    breaker: CircuitBreaker
    connected_at: float
    last_seen: float
    tasks_completed: int = 0
    version: str = ""
    sha: Optional[str] = None


@dataclass
class CoordinatorStats:
    """Run accounting the benchmarks and smoke tests read.

    Attributes:
        workers_seen: Distinct workers that completed the handshake.
        tasks_issued: Leases handed out (requeues included).
        tasks_completed: Results accepted and journalled.
        stale_results: Results for cells already completed elsewhere.
        reclaims: Leases reclaimed from dead or expired workers.
        reclaim_latencies: Seconds from lease expiry (or disconnect)
            to reclaim, one entry per reclaim.
        first_task_at: Monotonic time the first lease was issued.
        finished_at: Monotonic time the campaign completed.
        steals: Speculative duplicate leases issued to idle workers.
        speculative_wins: Stolen leases whose copy finished first.
        rebalances: Slow/recovered flag flips from the rate scan.
        joins: HELLO handshakes (reconnects included).
        leaves: Workers that disconnected or said goodbye.
        releases: Leases handed back cleanly by a draining worker.
    """

    workers_seen: int = 0
    tasks_issued: int = 0
    tasks_completed: int = 0
    stale_results: int = 0
    reclaims: int = 0
    reclaim_latencies: List[float] = field(default_factory=list)
    first_task_at: Optional[float] = None
    finished_at: Optional[float] = None
    steals: int = 0
    speculative_wins: int = 0
    rebalances: int = 0
    joins: int = 0
    leaves: int = 0
    releases: int = 0

    @property
    def elapsed(self) -> Optional[float]:
        """Seconds from first lease to completion (``None`` if idle)."""
        if self.first_task_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.first_task_at


class CampaignCoordinator:
    """Shard one campaign across TCP-connected workers.

    Args:
        runner: The campaign runner whose checkpoint directory, chunk
            size, retry policy and seed define the campaign.  All
            journalling goes through it, so the checkpoint is
            indistinguishable from a serial run's.
        host: Bind address (use ``0.0.0.0`` to accept remote workers).
        port: Bind port; 0 picks a free one (read :attr:`port` after
            the server is up).
        lease_timeout: Seconds a worker may hold a lease without a
            heartbeat before it is reclaimed.
        monitor_interval: How often the reclaim monitor scans leases.
        max_requeues: Reclaims of one cell before it is marked failed
            (guards against a task that kills every worker it visits).
        worker_breaker_threshold: Consecutive reclaims/failures that
            circuit-break one worker out of the campaign.
        min_workers: Hold task hand-out until this many workers have
            connected (benchmarks use it to time pure execution).
        max_bundle: Ceiling on a worker's capacity weight; a lease
            bundle holds at most twice this many cells (see
            :meth:`FleetMembership.bundle_size`).
        steal_after_fraction: An idle worker may steal (speculatively
            re-lease) an un-duplicated lease once the lease is older
            than this fraction of ``lease_timeout``; leases held by a
            slow-flagged worker can be stolen immediately.  Values
            above 1 effectively disable stealing (expiry reclaims the
            lease first).
        slow_fraction: Observed-rate threshold (fraction of the fleet
            median) below which a worker is flagged slow.
        http_port: When not ``None``, serve read-only HTTP twins of
            the status endpoint on this port (0 picks a free one; read
            :attr:`http_port` once running): ``/metrics`` (Prometheus
            text), ``/healthz`` and ``/status`` — the same surface
            ``repro serve`` exposes, for the same scrapers.
        slo: Objectives evaluated each sampling tick against the
            campaign time series; state rides the status payload,
            ``slo.*`` gauges, and ``/metrics``.
        sample_interval: Seconds between
            :class:`~repro.obs.TimeSeriesSampler` ticks feeding the
            throughput series, windowed percentiles and SLO burn.
        series_capacity: Ring-buffer points retained per instrument.
    """

    def __init__(
        self,
        runner: CampaignRunner,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout: float = 60.0,
        monitor_interval: float = 0.1,
        max_requeues: int = 5,
        worker_breaker_threshold: int = 3,
        min_workers: int = 0,
        max_bundle: int = 4,
        steal_after_fraction: float = 0.25,
        slow_fraction: float = 0.25,
        http_port: Optional[int] = None,
        slo: Optional[SLOTracker] = None,
        sample_interval: float = 1.0,
        series_capacity: int = 720,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if max_requeues < 1:
            raise ValueError("max_requeues must be at least 1")
        if steal_after_fraction <= 0.0:
            raise ValueError("steal_after_fraction must be positive")
        self.runner = runner
        self.host = host
        self.port = port
        self.lease_timeout = lease_timeout
        self.monitor_interval = monitor_interval
        self.max_requeues = max_requeues
        self.worker_breaker_threshold = worker_breaker_threshold
        self.min_workers = min_workers
        self.steal_after_fraction = steal_after_fraction
        self.stats = CoordinatorStats()
        self.membership = FleetMembership(
            max_bundle=max_bundle, slow_fraction=slow_fraction
        )
        #: Chaos harness hook: injected fault events land here and ride
        #: out on the status endpoint (the coordinator never writes it).
        self.chaos_log: List[Dict] = []
        # Campaign state, created by run_async().
        self._plan: Optional[CampaignPlan] = None
        self._values: Dict[Tuple[str, Metric], np.ndarray] = {}
        self._queue: Deque[CampaignCell] = deque()
        self._not_before: Dict[str, float] = {}
        self._requeues: Dict[str, int] = {}
        self._leases: Dict[str, _Lease] = {}
        self._cell_leases: Dict[str, List[str]] = {}  # cell -> lease ids
        self._done: Dict[str, int] = {}  # cell id -> worker attempts
        self._failed: Dict[str, str] = {}  # cell id -> error
        self._workers: Dict[str, _WorkerState] = {}
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._connected = 0
        self._barrier_open = min_workers <= 0
        self._draining = False
        self._complete = asyncio.Event()
        self._abort: Optional[SimulationError] = None
        self._fail_fast = False
        self._server: Optional[asyncio.base_events.Server] = None
        # Observability plane, started alongside the TCP server.
        self.http_port = http_port
        self.slo = slo
        self.sample_interval = sample_interval
        self.sampler = TimeSeriesSampler(capacity=series_capacity)
        self.trace_id: Optional[str] = None
        self._root_span_id: Optional[str] = None
        self._http: Optional[ObservabilityEndpoint] = None
        self._slo_statuses: List[Dict] = []

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(
        self,
        profiles,
        configs: Sequence[Configuration],
        resume: bool = True,
        fail_fast: bool = False,
        ready_callback=None,
    ) -> CampaignResult:
        """Blocking wrapper: serve the campaign until it completes.

        Mirrors :meth:`CampaignRunner.run`'s manifest contract — a
        completed campaign writes its run manifest, an interrupted one
        (SIGTERM, Ctrl-C, crash) writes an ``interrupted`` manifest
        before re-raising.
        """
        started = time.time()
        trace_start = get_tracer().mark()
        try:
            result = asyncio.run(
                self.run_async(
                    profiles, configs, resume=resume, fail_fast=fail_fast,
                    ready_callback=ready_callback, install_signals=True,
                )
            )
        except BaseException as error:
            self.runner._write_interrupted_manifest(
                error, trace_start, started
            )
            raise
        self.runner._finalize(result, trace_start, started)
        return result

    async def run_async(
        self,
        profiles,
        configs: Sequence[Configuration],
        resume: bool = True,
        fail_fast: bool = False,
        ready_callback=None,
        install_signals: bool = False,
    ) -> CampaignResult:
        """Serve the campaign on the current event loop."""
        plan = self.runner.plan(profiles, configs, resume)
        self._plan = plan
        self._fail_fast = fail_fast
        self._values = {
            (program, metric): np.full(len(plan.configs), np.nan)
            for program in plan.programs
            for metric in Metric.all()
        }
        resumed = self._restore_completed(plan)
        self._queue = deque(plan.remaining)
        _log.info(
            "coordinator: %d cell(s) total, %d journalled, %d to "
            "distribute",
            len(plan.cells), resumed, len(self._queue),
            extra={"event": "distrib.start", "cells": len(plan.cells),
                   "resumed": resumed, "queued": len(self._queue)},
        )
        if not self._queue:
            self._complete.set()

        loop = asyncio.get_running_loop()
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.initiate_drain)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # non-Unix loop or not the main thread

        # One trace id for the whole campaign: the coordinator mints it,
        # every task ships it, every worker span stitches under it.
        self.trace_id = get_tracer().ensure_trace_id()
        with span("distrib.coordinate", cells=len(plan.cells)) as root:
            self._root_span_id = root["span_id"] if root else None
            self._server = await asyncio.start_server(
                self._handle_worker, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
            get_registry().gauge("distrib.coordinator.up").set(1)
            if self.http_port is not None:
                self._http = ObservabilityEndpoint(
                    self._http_routes(), host=self.host,
                    port=self.http_port,
                )
                await self._http.start()
                self.http_port = self._http.port
                _log.info(
                    "coordinator observability HTTP on %s:%d",
                    self.host, self.http_port,
                    extra={"event": "distrib.http_up",
                           "port": self.http_port},
                )
            if ready_callback is not None:
                ready_callback(self)
            monitor = asyncio.create_task(self._monitor())
            sampler = asyncio.create_task(self._sample_loop())
            try:
                await self._complete.wait()
            finally:
                self.stats.finished_at = time.monotonic()
                self._draining = True
                monitor.cancel()
                sampler.cancel()
                self._sample_once()  # final tick: campaign-end truth
                if self._http is not None:
                    await self._http.stop()
                self._server.close()
                await self._server.wait_closed()
                # Tell idle workers the campaign is over before hanging
                # up: a reconnect-enabled worker treats a bare EOF as a
                # lost coordinator and would burn its whole retry budget
                # against a closed port.  The frame is best-effort
                # (buffered, flushed by close()) and only sent when the
                # campaign really finished — a cancelled or aborted
                # coordinator leaves EOF to mean "re-dial me", which is
                # exactly what a restarted coordinator needs.  Then let
                # handlers run to completion so loop teardown never has
                # to cancel a mid-read handler.
                farewell = None
                if self._complete.is_set() and self._abort is None:
                    farewell = encode_frame(
                        {"type": "drain", "reason": "campaign finished"}
                    )
                for writer in list(self._connections.values()):
                    if farewell is not None:
                        try:
                            writer.write(farewell)
                        except (ConnectionError, OSError, RuntimeError):
                            pass
                    writer.close()
                if self._connections:
                    await asyncio.wait(
                        list(self._connections), timeout=5.0
                    )
                get_registry().gauge("distrib.coordinator.up").set(0)
        if self._abort is not None:
            raise self._abort
        return self._assemble(plan, resumed)

    def initiate_drain(self) -> None:
        """Stop handing out work; complete once leases settle.

        Safe to call from a signal handler.  Outstanding leases are
        still honoured — workers finish their current task and the
        results are journalled — so the checkpoint loses nothing a
        ``--resume`` cannot pick up.
        """
        if self._draining:
            return
        self._draining = True
        _log.warning(
            "coordinator draining: no new leases; %d outstanding",
            len(self._leases),
            extra={"event": "distrib.drain", "leases": len(self._leases)},
        )
        if not self._leases:
            self._complete.set()

    # ------------------------------------------------------------------
    # Campaign state
    # ------------------------------------------------------------------
    def _restore_completed(self, plan: CampaignPlan) -> int:
        by_id = {cell.cell: cell for cell in plan.cells}
        resumed = 0
        for cell_id, stored in plan.completed.items():
            cell = by_id[cell_id]
            batch = self.runner.resume_cell(
                cell_id, stored, cell.stop - cell.start
            )
            self.runner.fill_values(
                self._values, cell.profile.name, cell.start, cell.stop,
                batch,
            )
            resumed += 1
        return resumed

    def _assemble(self, plan: CampaignPlan, resumed: int) -> CampaignResult:
        pending = tuple(
            cell.cell
            for cell in plan.cells
            if cell.cell not in plan.completed
            and cell.cell not in self._done
            and cell.cell not in self._failed
        )
        return CampaignResult(
            programs=plan.programs,
            configs=plan.configs,
            total_cells=len(plan.cells),
            simulated_cells=len(self._done),
            resumed_cells=resumed,
            failed_cells=tuple(sorted(self._failed)),
            pending_cells=pending,
            attempts=sum(self._done.values()),
            _values=self._values,
        )

    def _maybe_complete(self) -> None:
        outstanding = bool(self._queue) or bool(self._leases)
        if self._draining and not self._leases:
            self._complete.set()
            return
        if not outstanding:
            self._complete.set()

    # ------------------------------------------------------------------
    # Lease lifecycle
    # ------------------------------------------------------------------
    def _new_lease(
        self, cell: CampaignCell, worker: _WorkerState,
        speculative: bool = False,
    ) -> _Lease:
        """Register a fresh lease on ``cell`` for ``worker``."""
        now = time.monotonic()
        lease = _Lease(
            lease_id=uuid.uuid4().hex,
            cell=cell,
            worker_id=worker.worker_id,
            deadline=now + self.lease_timeout,
            issued_at=now,
            speculative=speculative,
        )
        self._leases[lease.lease_id] = lease
        self._cell_leases.setdefault(cell.cell, []).append(lease.lease_id)
        self.stats.tasks_issued += 1
        if self.stats.first_task_at is None:
            self.stats.first_task_at = now
        get_registry().counter("distrib.tasks.issued").inc()
        return lease

    def _drop_cell_lease(self, lease: _Lease) -> None:
        """Forget one cell -> lease-id mapping (multimap-aware)."""
        ids = self._cell_leases.get(lease.cell.cell)
        if ids and lease.lease_id in ids:
            ids.remove(lease.lease_id)
            if not ids:
                del self._cell_leases[lease.cell.cell]

    def _task_message(self, lease: _Lease) -> Dict:
        """The wire payload handing ``lease``'s cell to its worker."""
        assert self._plan is not None
        cell = lease.cell
        start, stop = cell.start, cell.stop
        return {
            "lease": lease.lease_id,
            "cell": cell.cell,
            "chunk_index": cell.chunk_index,
            "profile": profile_to_wire(cell.profile),
            "configs": configs_to_wire(
                self._plan.configs[start:stop]
            ),
            "retry_seed": stable_seed(
                "campaign-retry", cell.cell, str(self.runner.seed)
            ),
            "policy": policy_to_wire(self.runner.retry_policy),
            "lease_timeout": self.lease_timeout,
            # The worker binds this so its spans stitch under the
            # campaign trace, the coordinate span as cross-host parent.
            "trace": {
                "trace_id": self.trace_id,
                "parent_id": self._root_span_id,
            },
        }

    def _issue_lease(self, worker: _WorkerState) -> Optional[Dict]:
        """Pop the next runnable cell and lease it to ``worker``."""
        now = time.monotonic()
        for _ in range(len(self._queue)):
            cell = self._queue.popleft()
            if cell.cell in self._done or cell.cell in self._failed:
                continue  # settled late (first result won); drop it
            if self._not_before.get(cell.cell, 0.0) > now:
                self._queue.append(cell)  # backoff not elapsed: rotate
                continue
            return self._task_message(self._new_lease(cell, worker))
        return None

    def _take_chunk_cell(
        self, chunk_index: int, now: float
    ) -> Optional[CampaignCell]:
        """Pop the first runnable queued cell of chunk ``chunk_index``.

        The bundle filler: same-chunk cells in one bundle share their
        configs, so a suite worker computes them in one program-major
        backend call.  Settled or
        backing-off cells are skipped in place; :meth:`_issue_lease`
        drops or rotates them on its next pass.
        """
        for index, cell in enumerate(self._queue):
            if cell.chunk_index != chunk_index:
                continue
            if cell.cell in self._done or cell.cell in self._failed:
                continue
            if self._not_before.get(cell.cell, 0.0) > now:
                continue
            del self._queue[index]
            return cell
        return None

    def _try_steal(self, worker: _WorkerState) -> Optional[Dict]:
        """Speculatively re-lease the most overdue outstanding cell.

        Called only when the queue has nothing runnable for an idle
        worker.  A lease qualifies once it is older than
        ``steal_after_fraction * lease_timeout`` — or immediately when
        its holder is flagged slow — and a cell is never duplicated
        more than once: one primary plus one speculative copy.  The
        first result back wins; the loser is cancelled and discarded,
        so the journal stays bit-identical to a serial run.
        """
        member = self.membership.get(worker.worker_id)
        if member is not None and member.slow:
            return None  # never speculate onto a straggler
        now = time.monotonic()
        min_age = self.steal_after_fraction * self.lease_timeout
        candidates = []
        for lease in self._leases.values():
            if lease.worker_id == worker.worker_id:
                continue
            if len(self._cell_leases.get(lease.cell.cell, ())) > 1:
                continue  # already speculated
            holder = self.membership.get(lease.worker_id)
            slow_holder = holder is not None and holder.slow
            if not slow_holder and now - lease.issued_at < min_age:
                continue
            candidates.append(
                (not slow_holder, lease.issued_at, lease.lease_id, lease)
            )
        if not candidates:
            return None
        candidates.sort(key=lambda entry: entry[:3])
        victim = candidates[0][3]
        lease = self._new_lease(victim.cell, worker, speculative=True)
        self.stats.steals += 1
        get_registry().counter("distrib.steals").inc()
        _log.info(
            "worker %s stole cell %s from %s (lease age %.2fs)",
            worker.worker_id, victim.cell.cell, victim.worker_id,
            now - victim.issued_at,
            extra={"event": "distrib.steal", "cell": victim.cell.cell,
                   "thief": worker.worker_id, "victim": victim.worker_id},
        )
        return self._task_message(lease)

    def _release_lease(self, lease: _Lease) -> None:
        """Take back a lease its worker handed over cleanly.

        A clean release (a draining worker returning the unstarted rest
        of its bundle) is not the cell's fault: it goes back to the
        *front* of the queue with no backoff, no requeue-budget charge
        and no breaker penalty.
        """
        self._leases.pop(lease.lease_id, None)
        self._drop_cell_lease(lease)
        self.stats.releases += 1
        get_registry().counter("distrib.lease.released").inc()
        if not self._cell_leases.get(lease.cell.cell):
            self._queue.appendleft(lease.cell)

    def _reclaim(self, lease: _Lease, reason: str, overdue: float) -> None:
        """Requeue a lease whose worker died, hung or disconnected."""
        self._leases.pop(lease.lease_id, None)
        self._drop_cell_lease(lease)
        self.stats.reclaims += 1
        self.stats.reclaim_latencies.append(max(0.0, overdue))
        registry = get_registry()
        registry.counter("distrib.lease.reclaimed", reason=reason).inc()
        registry.histogram("distrib.reclaim.latency.seconds").observe(
            max(0.0, overdue)
        )
        worker = self._workers.get(lease.worker_id)
        if worker is not None:
            worker.breaker.record_failure()
        if self._cell_leases.get(lease.cell.cell):
            # A sibling (speculative) lease is still live, so the cell
            # is in good hands: drop this copy without requeueing it or
            # charging the cell's requeue budget.
            _log.info(
                "lease %s on cell %s reclaimed (%s); sibling lease "
                "still live, not requeued",
                lease.lease_id[:8], lease.cell.cell, reason,
                extra={"event": "distrib.lease_reclaimed",
                       "cell": lease.cell.cell, "reason": reason},
            )
            return
        count = self._requeues.get(lease.cell.cell, 0) + 1
        self._requeues[lease.cell.cell] = count
        if count > self.max_requeues:
            self._failed[lease.cell.cell] = (
                f"lease reclaimed {count} time(s) ({reason}); "
                "giving up on this cell"
            )
            _log.error(
                "cell %s failed permanently after %d reclaim(s)",
                lease.cell.cell, count,
                extra={"event": "distrib.cell_failed",
                       "cell": lease.cell.cell},
            )
            self._maybe_complete()
            return
        # Deterministically jittered backoff before the cell is handed
        # out again — the same RetryPolicy math the per-call retry uses.
        rng = np.random.default_rng(
            stable_seed("distrib-requeue", lease.cell.cell, str(count))
        )
        delay = self.runner.retry_policy.delay(count, rng)
        self._not_before[lease.cell.cell] = time.monotonic() + delay
        self._queue.appendleft(lease.cell)
        _log.warning(
            "lease %s on cell %s reclaimed (%s); requeued with %.2fs "
            "backoff",
            lease.lease_id[:8], lease.cell.cell, reason, delay,
            extra={"event": "distrib.lease_reclaimed",
                   "cell": lease.cell.cell, "reason": reason},
        )

    async def _monitor(self) -> None:
        """Reclaim expired leases and re-flag slow/recovered workers."""
        while True:
            await asyncio.sleep(self.monitor_interval)
            now = time.monotonic()
            for lease in list(self._leases.values()):
                if lease.deadline < now:
                    self._reclaim(lease, "expired", now - lease.deadline)
            for worker_id, slow in self.membership.rebalance_scan():
                self.stats.rebalances += 1
                get_registry().counter(
                    "distrib.rebalances",
                    direction="slow" if slow else "recovered",
                ).inc()
            self._maybe_complete()

    # ------------------------------------------------------------------
    # Worker protocol
    # ------------------------------------------------------------------
    async def _handle_worker(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections[task] = writer
        worker: Optional[_WorkerState] = None
        clean_goodbye = False
        try:
            worker = await self._handshake(reader, writer)
            if worker is None:
                return
            while True:
                message = await read_message(reader)
                if message is None or message.get("type") == "goodbye":
                    clean_goodbye = message is not None
                    break
                reply = self._dispatch(worker, message)
                await write_message(writer, reply)
        except ProtocolError as error:
            _log.warning(
                "dropping worker %s: %s",
                worker.worker_id if worker else "<handshake>", error,
                extra={"event": "distrib.protocol_error"},
            )
            try:
                await write_message(
                    writer, {"type": "error", "reason": str(error)}
                )
            except (ProtocolError, ConnectionError, OSError):
                pass
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # handled below: the disconnect reclaim
        finally:
            if task is not None:
                self._connections.pop(task, None)
            if worker is not None:
                self._connected -= 1
                get_registry().gauge("distrib.workers.connected").inc(-1)
                now = time.monotonic()
                for lease in list(self._leases.values()):
                    if lease.worker_id == worker.worker_id:
                        self._reclaim(lease, "disconnect", 0.0)
                self.membership.leave(
                    worker.worker_id, now,
                    reason="goodbye" if clean_goodbye else "disconnect",
                )
                self.stats.leaves += 1
                get_registry().counter("distrib.fleet.leaves").inc()
                _log.info(
                    "worker %s disconnected after %d task(s)",
                    worker.worker_id, worker.tasks_completed,
                    extra={"event": "distrib.worker_gone",
                           "worker": worker.worker_id},
                )
                self._maybe_complete()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[_WorkerState]:
        hello = await read_message(reader)
        if hello is None:
            return None
        if hello.get("type") != "hello":
            raise ProtocolError(
                f"expected a hello, got {hello.get('type')!r}"
            )
        capabilities = WorkerCapabilities.from_wire(
            hello.get("capabilities")
        )
        worker_id = str(hello.get("worker") or uuid.uuid4().hex[:12])
        worker = self._workers.get(worker_id)
        if worker is None:
            worker = _WorkerState(
                worker_id=worker_id,
                breaker=CircuitBreaker(self.worker_breaker_threshold),
                connected_at=time.monotonic(),
                last_seen=time.monotonic(),
                version=str(hello.get("version", "")),
                sha=hello.get("git_sha"),
            )
            self._workers[worker_id] = worker
            self.stats.workers_seen += 1
        self._connected += 1
        self.stats.joins += 1
        self.membership.hello(worker_id, capabilities, time.monotonic())
        registry = get_registry()
        registry.counter("distrib.fleet.joins").inc()
        registry.gauge("distrib.workers.connected").inc()
        mine, theirs = __version__, worker.version
        if theirs and theirs != mine:
            _log.warning(
                "version skew: worker %s runs repro %s, coordinator "
                "runs %s (protocol %d matches; results stay "
                "bit-identical only if the simulator did not change)",
                worker_id, theirs, mine, PROTOCOL_VERSION,
                extra={"event": "distrib.version_skew",
                       "worker": worker_id},
            )
        assert self._plan is not None
        await write_message(writer, {
            "type": "welcome",
            "version": mine,
            "git_sha": git_sha(),
            "protocol": PROTOCOL_VERSION,
            "campaign": {
                "programs": list(self._plan.programs),
                "config_count": len(self._plan.configs),
                "chunk_size": self.runner.chunk_size,
                "total_cells": len(self._plan.cells),
                "seed": self.runner.seed,
            },
            "heartbeat_interval": self.lease_timeout / 4.0,
        })
        _log.info(
            "worker %s connected (repro %s)", worker_id, theirs or "?",
            extra={"event": "distrib.worker_joined", "worker": worker_id},
        )
        return worker

    def _dispatch(self, worker: _WorkerState, message: Dict) -> Dict:
        kind = message.get("type")
        worker.last_seen = time.monotonic()
        if kind == "task_request":
            return self._on_task_request(worker)
        if kind == "heartbeat":
            return self._on_heartbeat(message)
        if kind == "result":
            return self._on_result(worker, message)
        if kind == "release":
            return self._on_release(worker, message)
        raise ProtocolError(f"unexpected message type {kind!r}")

    def _on_task_request(self, worker: _WorkerState) -> Dict:
        if self._complete.is_set() or self._draining:
            return {"type": "drain", "reason": "campaign finished"}
        if worker.breaker.open:
            return {"type": "drain", "reason": "worker circuit-broken"}
        if not self._barrier_open and self._connected < self.min_workers:
            return {"type": "wait", "delay": self.monitor_interval}
        # The barrier is a start gate, not an ongoing quorum: once the
        # fleet has assembled, losing a worker must not stall the rest.
        self._barrier_open = True
        bundle: List[Dict] = []
        for _ in range(self.membership.bundle_size(worker.worker_id)):
            # Prefer cells from the bundle's first chunk: a suite
            # worker runs them as one group, one backend call.
            cell = (
                self._take_chunk_cell(
                    bundle[0]["chunk_index"], time.monotonic()
                )
                if bundle else None
            )
            task = (
                self._task_message(self._new_lease(cell, worker))
                if cell is not None else self._issue_lease(worker)
            )
            if task is None:
                break
            bundle.append(task)
        if not bundle:
            stolen = self._try_steal(worker)
            if stolen is not None:
                bundle.append(stolen)
        if bundle:
            return {"type": "task_bundle", "tasks": bundle}
        if self._leases or self._queue:
            # Work exists but is leased out or backing off: poll again.
            return {"type": "wait", "delay": self.monitor_interval * 2}
        return {"type": "drain", "reason": "no work left"}

    def _on_heartbeat(self, message: Dict) -> Dict:
        """Extend every lease the heartbeat names (bundles send many)."""
        # Heartbeats piggyback span batches so long tasks stream
        # their trace instead of holding it until the result frame.
        self._merge_telemetry(message.get("telemetry"))
        raw = message.get("leases")
        ids = [str(i) for i in raw] if isinstance(raw, list) else []
        now = time.monotonic()
        leases_ok: Dict[str, bool] = {}
        for lease_id in ids:
            lease = self._leases.get(lease_id)
            if lease is None:
                leases_ok[lease_id] = False
            else:
                lease.deadline = now + self.lease_timeout
                leases_ok[lease_id] = True
        return {"type": "hb_ack", "leases_ok": leases_ok}

    def _on_release(self, worker: _WorkerState, message: Dict) -> Dict:
        """A draining worker hands back the unstarted rest of a bundle."""
        released = 0
        for lease_id in message.get("leases") or ():
            lease = self._leases.get(str(lease_id))
            if lease is not None and lease.worker_id == worker.worker_id:
                self._release_lease(lease)
                released += 1
        if released:
            _log.info(
                "worker %s released %d unstarted lease(s)",
                worker.worker_id, released,
                extra={"event": "distrib.leases_released",
                       "worker": worker.worker_id, "count": released},
            )
        self._maybe_complete()
        return {"type": "release_ack", "released": released}

    def _on_result(self, worker: _WorkerState, message: Dict) -> Dict:
        lease_id = str(message.get("lease"))
        lease = self._leases.pop(lease_id, None)
        cell_id = str(message.get("cell"))
        if lease is not None:
            self._drop_cell_lease(lease)
            cell = lease.cell
        else:
            # The lease was reclaimed or cancelled — first result wins,
            # so the arrays are still welcome if nobody delivered yet.
            cell = next(
                (c for c in (self._plan.cells if self._plan else ())
                 if c.cell == cell_id),
                None,
            )
        if cell is None or cell_id != cell.cell:
            raise ProtocolError(f"result for unknown cell {cell_id!r}")
        if (
            cell_id in self._done
            or cell_id in self._failed
            or (self._plan is not None and cell_id in self._plan.completed)
        ):
            # Already settled — this run, or journalled before a
            # coordinator restart.  Never double-journal.
            self.stats.stale_results += 1
            get_registry().counter("distrib.results.stale").inc()
            self._maybe_complete()
            return {"type": "ack", "accepted": False}
        if lease is None and not message.get("ok"):
            # A failure from a reclaimed lease proves nothing about the
            # cell — its live or future lease still gets a fair try.
            self.stats.stale_results += 1
            get_registry().counter("distrib.results.stale").inc()
            return {"type": "ack", "accepted": False}

        attempts = int(message.get("attempts", 1))
        self._merge_telemetry(message.get("telemetry"))
        if not message.get("ok"):
            error = str(message.get("error") or "unknown worker error")
            worker.breaker.record_failure()
            self._failed[cell_id] = error
            _log.warning(
                "cell %s failed permanently on worker %s: %s",
                cell_id, worker.worker_id, error,
                extra={"event": "campaign.cell_failed", "cell": cell_id},
            )
            if self._fail_fast and self._abort is None:
                self._abort = SimulationError(error)
                self._draining = True
            self._maybe_complete()
            return {"type": "ack", "accepted": True}

        try:
            batch = batch_from_wire(message.get("arrays") or {})
            recorded = str(message.get("arrays_checksum") or "")
            if batch_checksum(batch) != recorded:
                raise ProtocolError(
                    f"result for cell {cell_id} failed its array "
                    "checksum"
                )
            validate_batch(batch, f"for cell {cell_id}")
            if len(batch) != cell.stop - cell.start:
                raise ProtocolError(
                    f"result for cell {cell_id} holds {len(batch)} "
                    f"configurations, expected {cell.stop - cell.start}"
                )
        except (ValueError, SimulationError) as error:
            raise ProtocolError(str(error)) from error
        self.runner.store_cell(cell_id, cell.chunk_index, batch, recorded)
        self.runner.fill_values(
            self._values, cell.profile.name, cell.start, cell.stop, batch
        )
        self._done[cell_id] = attempts
        registry = get_registry()
        # First result wins: cancel any losing sibling lease (the other
        # side of a steal, or a lease issued after ours was reclaimed).
        # The loser's next heartbeat reads its lease dead and it drops
        # its copy; a copy that races in anyway is discarded as stale.
        for sibling_id in list(self._cell_leases.get(cell_id, ())):
            sibling = self._leases.pop(sibling_id, None)
            if sibling is not None:
                registry.counter("distrib.lease.cancelled").inc()
                _log.info(
                    "cell %s settled by %s; cancelling sibling lease "
                    "%s on %s",
                    cell_id, worker.worker_id, sibling_id[:8],
                    sibling.worker_id,
                    extra={"event": "distrib.lease_cancelled",
                           "cell": cell_id,
                           "worker": sibling.worker_id},
                )
        self._cell_leases.pop(cell_id, None)
        if lease is not None and lease.speculative:
            self.stats.speculative_wins += 1
            registry.counter("distrib.steals.won").inc()
        # The cell may also sit in the queue (requeued after a reclaim
        # the slow worker then out-raced): purge so it is never reissued.
        if any(c.cell == cell_id for c in self._queue):
            self._queue = deque(
                c for c in self._queue if c.cell != cell_id
            )
        self._not_before.pop(cell_id, None)
        now = time.monotonic()
        self.membership.task_done(worker.worker_id, now)
        worker.breaker.record_success()
        worker.tasks_completed += 1
        self.stats.tasks_completed += 1
        registry.counter("distrib.tasks.completed").inc()
        if lease is not None:
            registry.histogram("distrib.task.seconds").observe(
                now - lease.issued_at
            )
        self._maybe_complete()
        return {"type": "ack", "accepted": True}

    def _merge_telemetry(self, telemetry) -> None:
        if not isinstance(telemetry, dict):
            return
        metrics = telemetry.get("metrics")
        if isinstance(metrics, dict):
            get_registry().merge(metrics)
        spans = telemetry.get("spans")
        if isinstance(spans, list):
            get_tracer().adopt(spans)

    # ------------------------------------------------------------------
    # Time series + SLO + HTTP twins
    # ------------------------------------------------------------------
    async def _sample_loop(self) -> None:
        """Tick the time-series sampler on ``sample_interval``."""
        while True:
            await asyncio.sleep(self.sample_interval)
            self._sample_once()

    def _sample_once(self) -> None:
        """Refresh progress gauges, take one sample, re-evaluate SLOs."""
        registry = get_registry()
        plan = self._plan
        if plan is not None:
            journalled = len(plan.completed) + len(self._done)
            registry.gauge("distrib.cells.journalled").set(journalled)
            registry.gauge("distrib.cells.queued").set(len(self._queue))
            registry.gauge("distrib.cells.leased").set(len(self._leases))
            registry.gauge("distrib.cells.failed").set(len(self._failed))
        self.sampler.sample()
        self._refresh_slo()

    def _refresh_slo(self) -> None:
        """Evaluate objectives against the series; mirror as gauges."""
        if self.slo is None:
            return
        statuses = self.slo.evaluate(self.sampler)
        self.slo.export_gauges(statuses, get_registry())
        self._slo_statuses = [status.to_payload() for status in statuses]

    def _http_routes(self) -> Dict:
        """The read-only GET surface, mirroring ``repro serve``'s."""

        def healthz():
            ok = self._abort is None
            return (
                200 if ok else 503,
                dump_json({
                    "status": "ok" if ok else "aborting",
                    "draining": self._draining,
                    "trace_id": self.trace_id,
                }),
                "application/json",
            )

        def metrics():
            self._refresh_slo()
            text = get_registry().to_prometheus()
            return 200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE

        def status():
            payload = self._status_payload()
            return 200, dump_json(payload), "application/json"

        return {"/healthz": healthz, "/metrics": metrics,
                "/status": status}

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def _status_payload(self) -> Dict:
        """The read-only JSON snapshot the status endpoint answers with."""
        now = time.monotonic()
        plan = self._plan
        campaign: Dict = {}
        progress: Dict = {}
        if plan is not None:
            campaign = {
                "programs": list(plan.programs),
                "config_count": len(plan.configs),
                "chunk_size": self.runner.chunk_size,
                "total_cells": len(plan.cells),
                "seed": self.runner.seed,
            }
            progress = {
                "journalled": len(plan.completed) + len(self._done),
                "failed": len(self._failed),
                "queued": len(self._queue),
                "leased": len(self._leases),
                "total": len(plan.cells),
            }
        return {
            "type": "status",
            "version": __version__,
            "draining": self._draining,
            "trace_id": self.trace_id,
            "campaign": campaign,
            "progress": progress,
            "fleet": self.membership.roster(now),
            "leases": [
                {
                    "lease": lease.lease_id,
                    "cell": lease.cell.cell,
                    "worker": lease.worker_id,
                    "age_seconds": round(now - lease.issued_at, 3),
                    "deadline_in": round(lease.deadline - now, 3),
                    "speculative": lease.speculative,
                }
                for lease in sorted(
                    self._leases.values(), key=lambda l: l.issued_at
                )
            ],
            "stats": {
                "workers_seen": self.stats.workers_seen,
                "tasks_issued": self.stats.tasks_issued,
                "tasks_completed": self.stats.tasks_completed,
                "stale_results": self.stats.stale_results,
                "reclaims": self.stats.reclaims,
                "steals": self.stats.steals,
                "speculative_wins": self.stats.speculative_wins,
                "rebalances": self.stats.rebalances,
                "joins": self.stats.joins,
                "leaves": self.stats.leaves,
                "releases": self.stats.releases,
            },
            "chaos_events": list(self.chaos_log),
            "series": self.sampler.to_payload(
                names=(
                    "distrib.tasks.completed",
                    "distrib.tasks.issued",
                    "distrib.workers.connected",
                    "distrib.cells.journalled",
                    "distrib.lease.reclaimed",
                    "distrib.steals",
                )
            ),
            "slo": list(self._slo_statuses),
        }


def fetch_status(host: str, port: int, timeout: float = 10.0) -> Dict:
    """A live coordinator's status snapshot, read from the ``/status``
    twin its ``--http-port`` serves.

    Raises:
        ProtocolError: when the endpoint answers with anything but a
            status snapshot.
        OSError: when nothing answers at ``host:port``.
    """
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", "/status")
        response = connection.getresponse()
        body = response.read()
    except http.client.HTTPException as error:
        raise ProtocolError(
            f"{host}:{port} did not answer HTTP ({type(error).__name__});"
            " pass the coordinator's --http-port address"
        ) from error
    finally:
        connection.close()
    try:
        payload = json.loads(body)
    except ValueError:
        payload = None
    if (
        response.status != 200
        or not isinstance(payload, dict)
        or payload.get("type") != "status"
    ):
        raise ProtocolError(
            f"{host}:{port}/status answered HTTP {response.status} "
            "without a status snapshot"
        )
    return payload
