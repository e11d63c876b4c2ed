"""The campaign worker: lease cells, simulate them, ship the arrays back.

A worker holds no campaign state.  It connects to a coordinator, says
hello, and loops: request a task bundle, split it into groups (a suite
backend's same-chunk cells share one group) and run each group through
:func:`~repro.runtime.campaign.run_group`, the same call the campaign
runner makes.  Each task carries its own deterministic retry seed and
the campaign's retry policy, so a flaky backend backs off *identically*
to a serial run; the worker returns each cell's metric arrays with
their artifact-layer checksum.  Heartbeats keep the leases alive while
a long simulation is in flight (the simulation runs in a thread; the
event loop stays free to heartbeat); if the coordinator reports a lease
reclaimed, the worker abandons that result rather than racing the
replacement.

Telemetry is recorded into a *private* registry and tracer — never the
process globals, so any number of in-process workers (tests) or
dedicated worker processes (production) stay isolated — and a snapshot
rides back with each result for the coordinator to merge.  On SIGTERM
the worker finishes the group it holds, delivers the results, releases
any unstarted leases from its bundle, says goodbye and exits: a
drained worker never loses leased work.

A worker is also elastic-fleet aware: it measures and advertises its
capabilities at HELLO (so the coordinator can size lease bundles
capacity-weighted), heartbeats every lease it holds, and — when
``reconnect_attempts`` is set — survives a coordinator restart by
reconnecting under seeded *full-jitter* backoff, so a whole fleet
reconnecting at once spreads out instead of thundering-herding.
"""

from __future__ import annotations

import asyncio
import signal
import socket
import time
import uuid
from collections import deque
from typing import Callable, Deque, List, Optional, Set

import numpy as np

from repro import __version__
from repro.obs import MetricsRegistry, Tracer, get_logger, git_sha
from repro.runtime.backend import SimulationBackend, supports_suite
from repro.runtime.campaign import CellGroup, run_group
from repro.runtime.retry import RetryPolicy
from repro.sim.interval import BatchResult
from repro.workloads.profile import stable_seed

from .membership import WorkerCapabilities, detect_capabilities
from .protocol import ProtocolError, read_message, write_message
from .wire import (
    batch_checksum,
    batch_to_wire,
    configs_from_wire,
    policy_from_wire,
    profile_from_wire,
)

__all__ = ["CampaignWorker", "CoordinatorLost", "DelayBackend"]

_log = get_logger(__name__)


class CoordinatorLost(ConnectionError):
    """The coordinator's connection died mid-session.

    Distinct from a clean drain (an explicit ``drain`` reply or EOF
    while idle with reconnects disabled): a worker configured with
    ``reconnect_attempts`` treats this as "try again", not "go home".
    """


class DelayBackend:
    """Make each backend call slower without changing a single bit of it.

    The wrapped backend's arrays pass through untouched, so wrapping it
    changes nothing about the campaign's numbers — only how long each
    call takes.  Smoke tests and the chaos harness use it to emulate an
    expensive simulator on another host (or with its own CPU): a worker
    slow enough to kill mid-lease or to be overtaken by a thief, even
    when every worker process shares one test machine's cores.

    Args:
        backend: The wrapped backend.
        delay: Seconds slept before each ``simulate_batch`` or
            ``simulate_suite`` call.
    """

    def __init__(self, backend: SimulationBackend, delay: float) -> None:
        if delay < 0:
            raise ValueError("delay must not be negative")
        self.backend = backend
        self.delay = delay
        # Mirror the wrapped backend's suite capability: the attribute
        # only exists when the inner backend has one, so
        # supports_suite() sees through the wrapper either way.
        if supports_suite(backend):
            self.simulate_suite = self._simulate_suite

    def simulate_batch(self, profile, configs) -> BatchResult:
        """Sleep ``delay`` seconds, then simulate."""
        time.sleep(self.delay)
        return self.backend.simulate_batch(profile, configs)

    def _simulate_suite(self, profiles, configs) -> List[BatchResult]:
        """Suite twin of :meth:`simulate_batch`."""
        time.sleep(self.delay)
        return self.backend.simulate_suite(profiles, configs)


class CampaignWorker:
    """Execute leased campaign cells for a remote coordinator.

    Args:
        host: Coordinator host.
        port: Coordinator port.
        backend_factory: Builds this worker's backend (defaults to a
            fresh :class:`~repro.runtime.backend.IntervalBackend`).
            A factory, not an instance, so every worker — however it is
            spawned — owns a private backend the way process-pool
            workers own their pickled copies.
        worker_id: Stable identity across reconnects (defaults to
            ``<hostname>-<pid-entropy>``).
        max_tasks: Stop after completing this many tasks (``None`` runs
            until drained); the test hook for worker churn.
        connect_timeout: Seconds to keep retrying the initial connect —
            covers the coordinator still binding its socket when worker
            processes launch first.
        reconnect_attempts: Times to re-dial after losing an
            established connection (0 keeps the old die-on-disconnect
            behaviour).  Reconnect delays use seeded full-jitter
            backoff so a restarted coordinator is not herd-stampeded.
        reconnect_delay: Base of the reconnect backoff in seconds.
        capabilities: Advertised at HELLO; defaults to
            :func:`~repro.distrib.membership.detect_capabilities`
            (cores, memory, and a short calibration burst).
    """

    def __init__(
        self,
        host: str,
        port: int,
        backend_factory: Optional[Callable[[], SimulationBackend]] = None,
        worker_id: Optional[str] = None,
        max_tasks: Optional[int] = None,
        connect_timeout: float = 10.0,
        reconnect_attempts: int = 0,
        reconnect_delay: float = 0.5,
        capabilities: Optional[WorkerCapabilities] = None,
    ) -> None:
        if reconnect_attempts < 0:
            raise ValueError("reconnect_attempts must not be negative")
        if reconnect_delay <= 0:
            raise ValueError("reconnect_delay must be positive")
        self.host = host
        self.port = port
        self.worker_id = worker_id or (
            f"{socket.gethostname()}-{uuid.uuid4().hex[:8]}"
        )
        self.max_tasks = max_tasks
        self.connect_timeout = connect_timeout
        self.reconnect_attempts = reconnect_attempts
        self._reconnect_policy = RetryPolicy(
            max_attempts=reconnect_attempts + 1,
            base_delay=reconnect_delay,
            multiplier=2.0,
            jitter_mode="full",
        )
        self.capabilities = (
            capabilities if capabilities is not None
            else detect_capabilities()
        )
        #: Chaos hook: an object with ``await before_send(payload)``
        #: installed by the failure-injection harness to drop, delay or
        #: partition this worker's outbound frames.  ``None`` in
        #: production.
        self.wire_filter = None
        if backend_factory is None:
            backend_factory = _default_backend
        self.backend = backend_factory()
        self.tasks_completed = 0
        self._draining = False
        # Private instruments: shipped with each result, merged
        # coordinator-side.  Never the process globals, so concurrent
        # workers in one process cannot clobber each other.  The lane
        # puts this worker's spans on their own named row in the
        # coordinator's stitched chrome trace.
        self._registry = MetricsRegistry()
        self._tracer = Tracer(lane=self.worker_id)
        self._telemetry_mark = 0

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Blocking wrapper around :meth:`run_async`.

        Returns:
            Tasks completed before the coordinator drained this worker.
        """
        return asyncio.run(self.run_async(install_signals=True))

    async def run_async(self, install_signals: bool = False) -> int:
        """Serve tasks on the current event loop until drained.

        With ``reconnect_attempts > 0`` a lost connection (coordinator
        restart, injected drop, partition) is re-dialled under seeded
        full-jitter backoff instead of ending the worker; a clean drain
        always ends it.
        """
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.initiate_drain)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # non-Unix loop or not the main thread

        attempt = 0
        rng = np.random.default_rng(
            stable_seed("worker-reconnect", self.worker_id)
        )
        while True:
            try:
                reader, writer = await self._connect()
            except ConnectionError:
                if attempt >= self.reconnect_attempts:
                    raise
                writer = None
            if writer is not None:
                try:
                    welcome = await self._handshake(reader, writer)
                    heartbeat_interval = float(
                        welcome.get("heartbeat_interval", 15.0)
                    )
                    await self._task_loop(
                        reader, writer, heartbeat_interval
                    )
                    return self.tasks_completed  # clean drain
                except CoordinatorLost:
                    if self._draining or (
                        attempt >= self.reconnect_attempts
                    ):
                        return self.tasks_completed
                except (ConnectionError, OSError):
                    if self._draining or (
                        attempt >= self.reconnect_attempts
                    ):
                        raise
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass
            attempt += 1
            delay = self._reconnect_policy.delay(attempt, rng)
            self._registry.counter("distrib.worker.reconnects").inc()
            _log.warning(
                "worker %s lost the coordinator; reconnecting "
                "(attempt %d/%d) in %.2fs",
                self.worker_id, attempt, self.reconnect_attempts, delay,
                extra={"event": "distrib.worker_reconnect",
                       "worker": self.worker_id, "attempt": attempt},
            )
            await asyncio.sleep(delay)

    def initiate_drain(self) -> None:
        """Finish the current task, deliver it, then exit cleanly."""
        if not self._draining:
            self._draining = True
            _log.warning(
                "worker %s draining: finishing current task",
                self.worker_id,
                extra={"event": "distrib.worker_drain",
                       "worker": self.worker_id},
            )

    # ------------------------------------------------------------------
    # Connection
    # ------------------------------------------------------------------
    async def _connect(self):
        deadline = time.monotonic() + self.connect_timeout
        while True:
            try:
                return await asyncio.open_connection(self.host, self.port)
            except (ConnectionError, OSError) as error:
                if time.monotonic() >= deadline:
                    raise ConnectionError(
                        f"could not reach coordinator at "
                        f"{self.host}:{self.port} within "
                        f"{self.connect_timeout:.0f}s: {error}"
                    ) from error
                await asyncio.sleep(0.2)

    async def _send(self, writer, payload: dict) -> None:
        """Send one frame through the chaos wire filter (when set)."""
        if self.wire_filter is not None:
            await self.wire_filter.before_send(payload)
        await write_message(writer, payload)

    async def _handshake(self, reader, writer) -> dict:
        await self._send(writer, {
            "type": "hello",
            "worker": self.worker_id,
            "version": __version__,
            "git_sha": git_sha(),
            "capabilities": self.capabilities.to_wire(),
        })
        welcome = await read_message(reader)
        if welcome is None:
            raise ProtocolError("coordinator closed during the handshake")
        if welcome.get("type") == "error":
            raise ProtocolError(
                f"coordinator rejected us: {welcome.get('reason')}"
            )
        if welcome.get("type") != "welcome":
            raise ProtocolError(
                f"expected a welcome, got {welcome.get('type')!r}"
            )
        campaign = welcome.get("campaign") or {}
        _log.info(
            "worker %s joined campaign: %d program(s), %d cell(s)",
            self.worker_id,
            len(campaign.get("programs") or ()),
            campaign.get("total_cells", 0),
            extra={"event": "distrib.worker_joined",
                   "worker": self.worker_id},
        )
        return welcome

    # ------------------------------------------------------------------
    # Task loop
    # ------------------------------------------------------------------
    async def _task_loop(
        self, reader, writer, heartbeat_interval: float
    ) -> None:
        while True:
            if self._draining or self._budget_spent():
                await self._goodbye(writer)
                return
            try:
                await self._send(writer, {"type": "task_request"})
                reply = await read_message(reader)
            except (ConnectionError, OSError):
                reply = None  # coordinator closed while we were idle
            if reply is None:
                if self.reconnect_attempts > 0 and not self._draining:
                    raise CoordinatorLost(
                        "coordinator closed while we were idle"
                    )
                return  # nothing leased, so a vanished peer is a drain
            kind = reply.get("type")
            if kind == "drain":
                _log.info(
                    "worker %s drained by coordinator (%s) after %d "
                    "task(s)",
                    self.worker_id, reply.get("reason"),
                    self.tasks_completed,
                    extra={"event": "distrib.worker_drained",
                           "worker": self.worker_id},
                )
                await self._goodbye(writer)
                return
            if kind == "wait":
                await asyncio.sleep(float(reply.get("delay", 0.1)))
                continue
            if kind != "task_bundle":
                raise ProtocolError(f"unexpected reply type {kind!r}")
            tasks: List[dict] = list(reply.get("tasks") or ())
            if not tasks:
                raise ProtocolError("received an empty task bundle")
            await self._run_bundle(
                reader, writer, tasks, heartbeat_interval
            )

    async def _run_bundle(
        self, reader, writer, tasks: List[dict],
        heartbeat_interval: float,
    ) -> None:
        """Run a lease bundle group by group, releasing what we can't.

        With a suite-capable backend the bundle's same-chunk cells form
        one group (one program-major backend call); otherwise every cell
        is its own group.  While a group simulates, the heartbeats cover
        *every* lease still pending in the bundle; a pending lease the
        coordinator reports dead (stolen, reclaimed) is silently
        dropped.  A drain request or the ``max_tasks`` budget releases
        the unstarted remainder back to the coordinator instead of
        sitting on it until the lease expires.
        """
        pending: Deque[dict] = deque(tasks)
        while pending:
            group = self._take_group(pending)
            extra = [str(t["lease"]) for t in pending]
            dead = await self._run_group(
                reader, writer, group, heartbeat_interval, extra
            )
            if dead:
                pending = deque(
                    t for t in pending if str(t["lease"]) not in dead
                )
            if pending and (self._draining or self._budget_spent()):
                await self._release(
                    reader, writer,
                    [str(t["lease"]) for t in pending],
                )
                return

    def _budget_spent(self) -> bool:
        return (
            self.max_tasks is not None
            and self.tasks_completed >= self.max_tasks
        )

    def _take_group(self, pending: Deque[dict]) -> List[dict]:
        """Pop the next group: the first task plus, for a suite backend,
        its same-chunk peers, never more than ``max_tasks`` allows."""
        first = pending.popleft()
        if not supports_suite(self.backend):
            return [first]
        peers = [
            task for task in pending
            if task["chunk_index"] == first["chunk_index"]
        ]
        if self.max_tasks is not None:
            room = self.max_tasks - self.tasks_completed - 1
            peers = peers[: max(0, room)]
        for task in peers:
            pending.remove(task)
        return [first] + peers

    async def _release(self, reader, writer, leases: List[str]) -> None:
        """Hand unstarted leases back to the coordinator cleanly."""
        self._registry.counter(
            "distrib.worker.leases.released"
        ).inc(len(leases))
        _log.info(
            "worker %s releasing %d unstarted lease(s)",
            self.worker_id, len(leases),
            extra={"event": "distrib.worker_release",
                   "worker": self.worker_id, "count": len(leases)},
        )
        await self._send(writer, {"type": "release", "leases": leases})
        ack = await read_message(reader)
        if ack is not None and ack.get("type") != "release_ack":
            raise ProtocolError(
                f"expected release_ack, got {ack.get('type')!r}"
            )

    async def _goodbye(self, writer) -> None:
        try:
            await self._send(writer, {"type": "goodbye"})
        except (ConnectionError, OSError):
            pass  # the peer beat us to hanging up

    async def _run_group(
        self, reader, writer, tasks: List[dict], heartbeat_interval: float,
        extra_leases: List[str],
    ) -> Set[str]:
        """Simulate one group, then deliver each cell's result.

        Returns:
            Every lease the coordinator reported dead meanwhile; the
            results of the group's dead leases are dropped.
        """
        first = tasks[0]
        leases = [str(t["lease"]) for t in tasks]
        group = CellGroup(
            cells=tuple(str(t["cell"]) for t in tasks),
            profiles=tuple(profile_from_wire(t["profile"]) for t in tasks),
            configs=tuple(configs_from_wire(first["configs"])),
            chunk_index=int(first["chunk_index"]),
            retry_seed=int(first["retry_seed"]),
        )
        context = first["trace"]
        self._tracer.bind(
            trace_id=context["trace_id"], parent_id=context["parent_id"]
        )
        # Runs in a thread so the event loop keeps heartbeating.  A
        # private breaker per group, like a process-pool task: the
        # coordinator tracks cross-task worker health itself.
        work = asyncio.create_task(asyncio.to_thread(
            run_group, group, self.backend, policy_from_wire(first["policy"]),
            tracer=self._tracer, registry=self._registry,
            worker=self.worker_id,
        ))
        try:
            dead = await self._heartbeat_until_done(
                reader, writer, work, leases, heartbeat_interval,
                extra_leases,
            )
            outcome = await work
            attempts = outcome.attempts
            for index, (cell, lease) in enumerate(zip(group.cells, leases)):
                if lease in dead:
                    # The coordinator reclaimed the lease (we looked
                    # hung); someone else owns the cell now.
                    self._registry.counter("distrib.worker.leases.lost").inc()
                    _log.warning(
                        "worker %s lost lease on cell %s; dropping result",
                        self.worker_id, cell,
                        extra={"event": "distrib.lease_lost", "cell": cell,
                               "worker": self.worker_id},
                    )
                    continue
                # Counted before the telemetry drain so this cell's own
                # bump rides back with its result, not the next one's.
                self._registry.counter("distrib.worker.tasks").inc()
                result: dict = {
                    "type": "result",
                    "lease": lease,
                    "cell": cell,
                    # The group's backend calls are reported once; the
                    # other cells were served by the same calls.
                    "attempts": attempts,
                    "telemetry": self._drain_telemetry(),
                }
                attempts = 0
                if outcome.error is not None:
                    result["ok"] = False
                    result["error"] = str(outcome.error)
                else:
                    batch = outcome.batches[index]
                    result["ok"] = True
                    result["arrays"] = batch_to_wire(batch)
                    result["arrays_checksum"] = batch_checksum(batch)
                await self._send(writer, result)
                ack = await read_message(reader)
                if ack is None:
                    raise CoordinatorLost(
                        "coordinator vanished before acknowledging cell "
                        f"{cell}"
                    )
                if ack.get("type") != "ack":
                    raise ProtocolError(
                        "coordinator did not acknowledge the result for "
                        f"cell {cell}"
                    )
                self.tasks_completed += 1
                if not ack.get("accepted"):
                    _log.info(
                        "result for cell %s was stale (another worker "
                        "finished it first)",
                        cell,
                        extra={"event": "distrib.result_stale",
                               "cell": cell},
                    )
        except (ConnectionError, OSError):
            # The connection died under us: let the simulation thread
            # finish before unwinding so no thread outlives its task.
            if not work.done():
                await asyncio.shield(work)
            raise
        return dead

    async def _heartbeat_until_done(
        self, reader, writer, work: asyncio.Task, leases: List[str],
        interval: float, extra_leases: List[str],
    ) -> Set[str]:
        """Heartbeat every held lease while the simulation runs.

        Stops heartbeating once every lease of the running group is
        dead, but still lets the simulation thread finish.

        Returns:
            The leases (running or pending) the coordinator reported
            dead: stolen, cancelled or reclaimed.
        """
        dead: Set[str] = set()
        while True:
            try:
                await asyncio.wait_for(
                    asyncio.shield(work), timeout=interval
                )
                return dead
            except asyncio.TimeoutError:
                pass
            beat: dict = {
                "type": "heartbeat",
                "leases": [
                    lid for lid in leases + extra_leases if lid not in dead
                ],
            }
            # Spans finished since the last drain (earlier bundle
            # groups) ride the heartbeat, so the coordinator's live
            # trace does not wait for the result.
            spans = self._take_spans()
            if spans:
                beat["telemetry"] = {"spans": spans}
            await self._send(writer, beat)
            ack = await read_message(reader)
            if ack is None:
                raise CoordinatorLost(
                    "coordinator vanished mid-task (no heartbeat ack)"
                )
            if ack.get("type") != "hb_ack":
                raise ProtocolError(
                    f"expected hb_ack, got {ack.get('type')!r}"
                )
            leases_ok = ack.get("leases_ok")
            if isinstance(leases_ok, dict):
                dead.update(
                    str(lid) for lid, ok in leases_ok.items() if not ok
                )
            if dead.issuperset(leases):
                await asyncio.shield(work)  # let the thread finish
                return dead

    def _take_spans(self) -> List[dict]:
        """Spans finished since the last take, advancing the mark.

        One mark serves both shippers (heartbeats and result drains),
        so a span is sent exactly once however the two interleave.
        """
        spans = list(self._tracer.spans[self._telemetry_mark:])
        self._telemetry_mark = self._tracer.mark()
        return spans

    def _drain_telemetry(self) -> dict:
        """Snapshot-and-reset so each result carries only its own spans.

        The registry snapshot is cumulative, so it is rebuilt fresh
        after each drain — merging the same counter twice would double
        count coordinator-side.
        """
        telemetry = {
            "metrics": self._registry.snapshot(),
            "spans": self._take_spans(),
        }
        self._registry = MetricsRegistry()
        return telemetry


def _default_backend() -> SimulationBackend:
    from repro.runtime.backend import IntervalBackend

    return IntervalBackend()
