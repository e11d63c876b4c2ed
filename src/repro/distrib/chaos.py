"""Seeded, scripted failure injection for distributed campaigns.

A resilience claim you cannot replay is a hope, not a property.  This
module drives a *whole fleet* — coordinator, workers, and the wire
between them — through a declarative :class:`ChaosPlan`: kill a worker
mid-lease, spawn a late joiner, partition a worker away until its
lease expires, drop or delay its frames, slow its simulator tenfold,
or restart the coordinator outright.  Every run of the same plan with
the same seed injects the same faults against the same targets in the
same order (:func:`repro.runtime.faults.derive_rng` resolves any
unpinned target), so a failure found under chaos is a failure you can
hand to a colleague as ``(plan, seed)``.

The harness runs everything in-process on one event loop — real
loopback TCP, real frames, real lease expiries — which keeps a full
chaos campaign fast enough for CI while exercising exactly the code
paths a multi-host fleet runs.  Faults are injected at two seams:

* :class:`ChaosWireFilter` sits on a worker's *outbound* frames
  (installed via :attr:`CampaignWorker.wire_filter`): ``drop`` raises
  on the next send, ``delay`` sleeps per frame, ``partition`` blocks
  sends until healed — starving heartbeats exactly the way a real
  partition does, so the coordinator's lease machinery (not a mock)
  decides what happens next.
* Process-level events act on the asyncio tasks themselves: ``kill``
  cancels a worker task (the SIGKILL analogue — its socket dies and
  the coordinator reclaims), ``spawn`` starts a fresh worker
  mid-campaign, ``restart_coordinator`` cancels the coordinator and
  brings a new one up on the same port against the same checkpoint
  (workers reconnect under full-jitter backoff and the journal
  resumes).

The invariant under all of it: **zero lost cells and a checkpoint
journal bit-identical to a serial run's** — the whole point of the
exercise.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import get_logger
from repro.runtime.campaign import CampaignResult, CampaignRunner
from repro.runtime.faults import derive_rng

from .coordinator import CampaignCoordinator, CoordinatorStats
from .worker import CampaignWorker, DelayBackend

__all__ = [
    "CHAOS_ACTIONS",
    "ChaosEvent",
    "ChaosPlan",
    "ChaosRunReport",
    "ChaosWireFilter",
    "journal_checksums",
    "run_chaos_campaign",
    "run_chaos_campaign_sync",
]

_log = get_logger(__name__)

#: The fault vocabulary a plan may use.
CHAOS_ACTIONS = (
    "kill",
    "spawn",
    "partition",
    "drop",
    "delay",
    "slow",
    "restart_coordinator",
)


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault.

    Attributes:
        at: Seconds after campaign start to fire.
        action: One of :data:`CHAOS_ACTIONS`.
        target: Worker id to hit; ``None`` picks one deterministically
            from the seeded stream (coordinator actions ignore it).
        duration: Seconds a ``partition``/``delay``/``slow`` window
            stays open (0 means until the run ends).
        factor: ``delay``: seconds added per frame; ``slow``: the
            slowdown multiplier on the worker's per-batch latency.
    """

    at: float
    action: str
    target: Optional[str] = None
    duration: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("an event's at must not be negative")
        if self.action not in CHAOS_ACTIONS:
            raise ValueError(
                f"unknown chaos action {self.action!r}; pick one of "
                f"{', '.join(CHAOS_ACTIONS)}"
            )
        if self.duration < 0:
            raise ValueError("duration must not be negative")
        if self.factor < 0:
            raise ValueError("factor must not be negative")

    def to_dict(self) -> Dict:
        """Plain-JSON form (the plan-file entry)."""
        out: Dict = {"at": self.at, "action": self.action}
        if self.target is not None:
            out["target"] = self.target
        if self.duration:
            out["duration"] = self.duration
        if self.factor != 1.0:
            out["factor"] = self.factor
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "ChaosEvent":
        """Parse one plan-file entry (validators re-run)."""
        if not isinstance(data, dict):
            raise ValueError("a chaos event must be a JSON object")
        unknown = set(data) - {"at", "action", "target", "duration",
                               "factor"}
        if unknown:
            raise ValueError(
                f"unknown chaos event field(s): {sorted(unknown)}"
            )
        try:
            return cls(
                at=float(data["at"]),
                action=str(data["action"]),
                target=(
                    str(data["target"])
                    if data.get("target") is not None else None
                ),
                duration=float(data.get("duration", 0.0)),
                factor=float(data.get("factor", 1.0)),
            )
        except KeyError as error:
            raise ValueError(
                f"a chaos event needs field {error.args[0]!r}"
            ) from error


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, ordered script of faults.

    Attributes:
        seed: Master seed — together with the events it pins every
            random choice the harness makes (unpinned targets).
        events: The faults, in any order; execution sorts by ``at``
            (ties break by position in the plan).
    """

    seed: int = 0
    events: Tuple[ChaosEvent, ...] = ()

    def ordered(self) -> Tuple[ChaosEvent, ...]:
        """Events in firing order: by ``at``, ties by plan position."""
        return tuple(
            event for _, _, event in sorted(
                (event.at, index, event)
                for index, event in enumerate(self.events)
            )
        )

    def to_dict(self) -> Dict:
        """Plain-JSON form (the plan file)."""
        return {
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ChaosPlan":
        """Parse a plan file's JSON object."""
        if not isinstance(data, dict):
            raise ValueError("a chaos plan must be a JSON object")
        events = data.get("events", ())
        if not isinstance(events, (list, tuple)):
            raise ValueError('"events" must be a list')
        return cls(
            seed=int(data.get("seed", 0)),
            events=tuple(ChaosEvent.from_dict(entry) for entry in events),
        )

    @classmethod
    def from_json(cls, text: str) -> "ChaosPlan":
        """Parse a plan from JSON text."""
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as error:
            raise ValueError(f"chaos plan is not JSON: {error}") from error

    @classmethod
    def load(cls, path) -> "ChaosPlan":
        """Load a plan file (``repro chaos --plan``)."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


class ChaosWireFilter:
    """Fault hooks on one worker's outbound frames.

    Installed as :attr:`CampaignWorker.wire_filter`; the worker awaits
    :meth:`before_send` in front of every frame it writes.  The filter
    never touches payloads — corruption belongs to the codec fuzz
    tests — it only drops, delays or blocks whole frames, which is
    what real networks do to healthy processes.
    """

    def __init__(self) -> None:
        self.delay_seconds = 0.0
        self._drop_next = False
        self._barrier: Optional[asyncio.Event] = None

    def drop_next(self) -> None:
        """Make the next send raise ``ConnectionError`` (one shot)."""
        self._drop_next = True

    def start_partition(self) -> None:
        """Block every send until :meth:`heal_partition`."""
        if self._barrier is None:
            self._barrier = asyncio.Event()

    def heal_partition(self) -> None:
        """Release blocked senders; subsequent sends pass freely."""
        barrier, self._barrier = self._barrier, None
        if barrier is not None:
            barrier.set()

    @property
    def partitioned(self) -> bool:
        """True while a partition window is open."""
        return self._barrier is not None

    async def before_send(self, payload: Dict) -> None:
        """The worker-side hook: applied before every outbound frame."""
        if self._drop_next:
            self._drop_next = False
            raise ConnectionError("chaos: injected connection drop")
        if self.delay_seconds > 0:
            await asyncio.sleep(self.delay_seconds)
        barrier = self._barrier
        if barrier is not None:
            await barrier.wait()


@dataclass
class _WorkerHandle:
    name: str
    worker: CampaignWorker
    task: asyncio.Task
    wire: ChaosWireFilter
    base_delay: float


@dataclass
class ChaosRunReport:
    """What a chaos campaign run hands back.

    Attributes:
        result: The campaign result (same type a serial run returns).
        stats: The final coordinator's stats (steals, reclaims, ...).
        event_log: The injected faults in firing order —
            ``{"seq", "at", "action", "target"}`` — a pure function of
            (plan, seed), so two runs of the same plan compare equal.
        fleet_events: The final coordinator's membership transitions.
        worker_tasks: Tasks completed per worker name.
    """

    result: CampaignResult
    stats: CoordinatorStats
    event_log: List[Dict] = field(default_factory=list)
    fleet_events: List[Dict] = field(default_factory=list)
    worker_tasks: Dict[str, int] = field(default_factory=dict)


def journal_checksums(checkpoint_dir) -> Dict[str, str]:
    """cell id -> artifact checksum from a checkpoint journal.

    The journal's *record order* reflects completion order (and so
    differs run to run), but the mapping it encodes must not: this is
    the form in which two checkpoints are compared for the
    bit-identical guarantee.
    """
    journal = Path(checkpoint_dir) / "journal.jsonl"
    checksums: Dict[str, str] = {}
    if not journal.exists():
        return checksums
    for line in journal.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        checksums[record["cell"]] = record["checksum"]
    return checksums


async def run_chaos_campaign(
    runner_factory: Callable[[], CampaignRunner],
    profiles,
    configs: Sequence,
    plan: ChaosPlan,
    n_workers: int = 3,
    backend_factory=None,
    host: str = "127.0.0.1",
    coordinator_kwargs: Optional[Dict] = None,
    worker_kwargs: Optional[Dict] = None,
) -> ChaosRunReport:
    """Run one campaign while executing ``plan`` against the fleet.

    Args:
        runner_factory: Builds a fresh :class:`CampaignRunner` over the
            *same* checkpoint directory each call — called once at
            start and once per ``restart_coordinator`` event, exactly
            like an operator restarting the real process with
            ``--resume``.
        profiles: Workload profiles of the campaign.
        configs: Configurations of the campaign.
        plan: The fault script.
        n_workers: Initial fleet size (names ``w0`` ... ``wN-1``).
        backend_factory: Per-worker backend factory (defaults to the
            interval model).
        host: Loopback bind address.
        coordinator_kwargs: Extra :class:`CampaignCoordinator` knobs.
        worker_kwargs: Extra :class:`CampaignWorker` knobs; reconnects
            default on (8 attempts, 50 ms full-jitter base) because an
            elastic fleet that cannot re-dial is chaos-proof only by
            dying.

    Returns:
        A :class:`ChaosRunReport`; ``result.complete`` plus a journal
        comparison against a serial baseline is the acceptance test.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")
    coordinator_kwargs = dict(coordinator_kwargs or {})
    worker_kwargs = dict(worker_kwargs or {})
    worker_kwargs.setdefault("reconnect_attempts", 8)
    worker_kwargs.setdefault("reconnect_delay", 0.05)
    worker_kwargs.setdefault("connect_timeout", 5.0)

    chaos_log: List[Dict] = []
    event_log: List[Dict] = []
    workers: Dict[str, _WorkerHandle] = {}
    #: Deterministic target roster: spawned minus killed, maintained
    #: purely by event execution so target choices never depend on
    #: wall-clock races (a drained worker stays a valid no-op target).
    roster: List[str] = []
    timers: List[asyncio.Task] = []
    port_holder = [int(coordinator_kwargs.pop("port", 0))]

    async def start_coordinator(resume: bool):
        runner = runner_factory()
        coordinator = CampaignCoordinator(
            runner, host=host, port=port_holder[0], **coordinator_kwargs
        )
        coordinator.chaos_log = chaos_log
        ready = asyncio.Event()

        def on_ready(c: CampaignCoordinator) -> None:
            port_holder[0] = c.port
            ready.set()

        task = asyncio.create_task(
            coordinator.run_async(
                profiles, configs, resume=resume, ready_callback=on_ready
            )
        )
        while not ready.is_set():
            if task.done():
                task.result()  # surface the startup error
                raise RuntimeError("coordinator exited before binding")
            await asyncio.sleep(0.01)
        return coordinator, task

    def spawn_worker(name: str) -> _WorkerHandle:
        worker = CampaignWorker(
            host,
            port_holder[0],
            backend_factory=backend_factory,
            worker_id=name,
            **worker_kwargs,
        )
        wire = ChaosWireFilter()
        worker.wire_filter = wire
        base_delay = getattr(worker.backend, "delay", 0.0)
        handle = _WorkerHandle(
            name=name,
            worker=worker,
            task=asyncio.create_task(worker.run_async()),
            wire=wire,
            base_delay=float(base_delay),
        )
        workers[name] = handle
        if name not in roster:
            roster.append(name)
        return handle

    def resolve_target(event: ChaosEvent, seq: int) -> Optional[str]:
        if event.action == "restart_coordinator":
            return None
        if event.target is not None:
            return event.target
        if not roster:
            return None
        rng = derive_rng("chaos", plan.seed, seq, event.action)
        return sorted(roster)[int(rng.integers(0, len(roster)))]

    def after(delay: float, fn: Callable[[], None]) -> None:
        async def fire():
            await asyncio.sleep(delay)
            fn()

        timers.append(asyncio.create_task(fire()))

    def ensure_delay_backend(handle: _WorkerHandle) -> DelayBackend:
        if not isinstance(handle.worker.backend, DelayBackend):
            handle.worker.backend = DelayBackend(handle.worker.backend, 0.0)
            handle.base_delay = 0.0
        return handle.worker.backend

    coordinator, coord_task = await start_coordinator(resume=True)
    try:
        for index in range(n_workers):
            spawn_worker(f"w{index}")
        loop = asyncio.get_running_loop()
        started = loop.time()
        spawned = 0

        for seq, event in enumerate(plan.ordered()):
            await asyncio.sleep(
                max(0.0, started + event.at - loop.time())
            )
            target = resolve_target(event, seq)
            entry = {
                "seq": seq,
                "at": event.at,
                "action": event.action,
                "target": target,
            }
            event_log.append(entry)
            chaos_log.append(entry)
            _log.warning(
                "chaos event %d: %s target=%s",
                seq, event.action, target,
                extra={"event": "chaos.inject", "action": event.action,
                       "target": target},
            )
            if event.action == "kill" and target in workers:
                handle = workers[target]
                handle.task.cancel()
                await asyncio.gather(
                    handle.task, return_exceptions=True
                )
                if target in roster:
                    roster.remove(target)
            elif event.action == "spawn":
                spawned += 1
                spawn_worker(target or f"chaos-spawn-{spawned}")
            elif event.action == "partition" and target in workers:
                wire = workers[target].wire
                wire.start_partition()
                if event.duration > 0:
                    after(event.duration, wire.heal_partition)
            elif event.action == "drop" and target in workers:
                workers[target].wire.drop_next()
            elif event.action == "delay" and target in workers:
                wire = workers[target].wire
                wire.delay_seconds = event.factor
                if event.duration > 0:
                    def _reset(w=wire):
                        w.delay_seconds = 0.0
                    after(event.duration, _reset)
            elif event.action == "slow" and target in workers:
                handle = workers[target]
                backend = ensure_delay_backend(handle)
                base = handle.base_delay if handle.base_delay > 0 else 0.01
                backend.delay = event.factor * base
                if event.duration > 0:
                    def _restore(b=backend, h=handle):
                        b.delay = h.base_delay
                    after(event.duration, _restore)
            elif event.action == "restart_coordinator":
                coord_task.cancel()
                await asyncio.gather(coord_task, return_exceptions=True)
                coordinator, coord_task = await start_coordinator(
                    resume=True
                )

        result = await coord_task
    finally:
        # Heal everything so no worker is left awaiting a barrier, then
        # give in-flight goodbyes a moment and reap the fleet.
        for handle in workers.values():
            handle.wire.heal_partition()
            handle.wire.delay_seconds = 0.0
        for timer in timers:
            timer.cancel()
        await asyncio.gather(*timers, return_exceptions=True)
        live = [h.task for h in workers.values() if not h.task.done()]
        if live:
            await asyncio.wait(live, timeout=1.0)
        for handle in workers.values():
            if not handle.task.done():
                handle.task.cancel()
        await asyncio.gather(
            *(h.task for h in workers.values()), return_exceptions=True
        )

    return ChaosRunReport(
        result=result,
        stats=coordinator.stats,
        event_log=event_log,
        fleet_events=list(coordinator.membership.events),
        worker_tasks={
            name: handle.worker.tasks_completed
            for name, handle in workers.items()
        },
    )


def run_chaos_campaign_sync(*args, **kwargs) -> ChaosRunReport:
    """Blocking wrapper around :func:`run_chaos_campaign`."""
    return asyncio.run(run_chaos_campaign(*args, **kwargs))
