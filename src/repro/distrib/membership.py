"""Fleet membership: who is in the fleet, how capable, how fast.

PR 5's fleet was implicitly homogeneous — every worker got one chunk at
a time and the coordinator never asked who it was talking to.  This
module makes the fleet explicit.  Workers measure their own capacity at
startup (:func:`detect_capabilities` — cores, memory, and a short
calibration burst that times the same numpy kernels the interval model
leans on) and advertise it in the HELLO; the coordinator folds every
join, leave, completion and rate observation into a
:class:`FleetMembership` roster that answers the three questions the
scheduler asks:

* **How much work should this worker get at once?**
  :meth:`FleetMembership.bundle_size` — twice the capacity weight
  against the fleet median throughput, clamped to
  ``[2, 2 * max_bundle]``, and forced to 1 for a worker currently
  flagged slow.
* **Is this worker a straggler?** :meth:`FleetMembership.rebalance_scan`
  compares each worker's observed completion rate (an EWMA over the
  gaps between accepted results) against the fleet median and flags
  workers below ``slow_fraction`` of it; the coordinator stops
  bundling to flagged workers and prefers stealing their leases.
* **Who came and went?** Every join/leave/slow/recovered transition is
  appended to :attr:`FleetMembership.events` with a deterministic
  ordinal, which is what the status endpoint and the chaos harness
  report.

The roster never *schedules* anything itself — the coordinator stays
the single owner of queue and lease state — it only aggregates
observations into answers, which keeps it trivially testable without a
socket in sight.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs import get_logger

from .protocol import ProtocolError

__all__ = [
    "WorkerCapabilities",
    "FleetMembership",
    "FleetMember",
    "detect_capabilities",
    "measure_calibration",
]

_log = get_logger(__name__)


@dataclass(frozen=True)
class WorkerCapabilities:
    """What one worker advertises at HELLO.

    Attributes:
        cores: CPU cores available to the worker process.
        memory_mb: Physical memory of the host in MiB (0 if unknown).
        throughput: Measured calibration throughput in kernel
            iterations per second (0.0 when not measured) — a relative
            number, only ever compared against other workers' values.
    """

    cores: int = 1
    memory_mb: int = 0
    throughput: float = 0.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be at least 1")
        if self.memory_mb < 0:
            raise ValueError("memory_mb must not be negative")
        if self.throughput < 0:
            raise ValueError("throughput must not be negative")

    def to_wire(self) -> Dict:
        """Encode for the HELLO message."""
        return {
            "cores": self.cores,
            "memory_mb": self.memory_mb,
            "throughput": self.throughput,
        }

    @classmethod
    def from_wire(cls, wire: object) -> "WorkerCapabilities":
        """Decode a HELLO's capabilities.

        Raises:
            ProtocolError: unless ``wire`` is a dict carrying every
                field with its wire type and a valid value.
        """
        if not isinstance(wire, dict):
            raise ProtocolError("HELLO carries no capabilities object")
        for key, types in _WIRE_TYPES.items():
            value = wire.get(key)
            if not isinstance(value, types) or (
                isinstance(value, bool) and bool not in types
            ):
                raise ProtocolError(
                    f"HELLO capability {key!r} is missing or not "
                    f"{types[-1].__name__}: {value!r}"
                )
        try:
            return cls(
                cores=wire["cores"],
                memory_mb=wire["memory_mb"],
                throughput=float(wire["throughput"]),
            )
        except ValueError as error:
            raise ProtocolError(
                f"invalid HELLO capabilities: {error}"
            ) from error


#: Wire type(s) of each capability field (bool never counts as a number).
_WIRE_TYPES = {
    "cores": (int,),
    "memory_mb": (int,),
    "throughput": (int, float),
}


def measure_calibration(budget_seconds: float = 0.02) -> float:
    """Throughput of a short numpy calibration burst (iterations/sec).

    Runs the same kind of vectorised float64 arithmetic the interval
    model spends its time in, for roughly ``budget_seconds``, and
    reports iterations per second.  The absolute number is meaningless;
    its *ratio* between two hosts is what capacity-weighting needs.
    """
    if budget_seconds <= 0:
        raise ValueError("budget_seconds must be positive")
    x = np.linspace(0.1, 1.0, 4096)
    iterations = 0
    start = time.perf_counter()
    deadline = start + budget_seconds
    while time.perf_counter() < deadline:
        y = np.sqrt(x) * np.log1p(x)
        y = y / (1.0 + y)
        iterations += 1
    elapsed = time.perf_counter() - start
    return iterations / max(elapsed, 1e-9)


def detect_capabilities(calibrate: bool = True) -> WorkerCapabilities:
    """Measure this host's capabilities for the HELLO message."""
    memory_mb = 0
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        page_size = os.sysconf("SC_PAGE_SIZE")
        if pages > 0 and page_size > 0:
            memory_mb = int(pages * page_size // (1024 * 1024))
    except (ValueError, OSError, AttributeError):
        pass
    return WorkerCapabilities(
        cores=os.cpu_count() or 1,
        memory_mb=memory_mb,
        throughput=measure_calibration() if calibrate else 0.0,
    )


@dataclass
class FleetMember:
    """One worker's standing in the fleet (live accounting, not wire)."""

    worker_id: str
    capabilities: WorkerCapabilities
    joined_at: float
    last_seen: float
    left_at: Optional[float] = None
    tasks_completed: int = 0
    rate: float = 0.0  # EWMA of completions per second
    slow: bool = False
    last_completed_at: Optional[float] = None

    @property
    def active(self) -> bool:
        """True while the worker is connected (has not left)."""
        return self.left_at is None


class FleetMembership:
    """The coordinator's roster of workers and their observed rates.

    Args:
        max_bundle: Ceiling on a worker's capacity weight; one lease
            bundle holds at most twice this many cells.
        ewma_alpha: Smoothing of the per-worker completion-rate EWMA
            (1.0 trusts only the latest gap, 0.0 never updates).
        slow_fraction: A worker whose rate drops below this fraction of
            the fleet median is flagged slow until it recovers to
            ``2 * slow_fraction`` (hysteresis, so a borderline worker
            does not flap in and out of the slow set every scan).
    """

    def __init__(
        self,
        max_bundle: int = 4,
        ewma_alpha: float = 0.4,
        slow_fraction: float = 0.25,
    ) -> None:
        if max_bundle < 1:
            raise ValueError("max_bundle must be at least 1")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if not 0.0 < slow_fraction < 1.0:
            raise ValueError("slow_fraction must be in (0, 1)")
        self.max_bundle = max_bundle
        self.ewma_alpha = ewma_alpha
        self.slow_fraction = slow_fraction
        self.members: Dict[str, FleetMember] = {}
        #: Ordered membership transitions: ``{"seq", "event", "worker"}``
        #: plus event-specific fields.  The seq ordinal is assigned in
        #: arrival order, which makes two runs comparable event-by-event.
        self.events: List[Dict] = []
        self._seq = 0
        self.joins = 0
        self.leaves = 0

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _record(self, event: str, worker_id: str, **extra) -> None:
        self._seq += 1
        self.events.append(
            {"seq": self._seq, "event": event, "worker": worker_id, **extra}
        )

    def hello(
        self, worker_id: str, capabilities: WorkerCapabilities, now: float
    ) -> FleetMember:
        """Admit a worker (first join or a rejoin after a disconnect)."""
        member = self.members.get(worker_id)
        if member is None:
            member = FleetMember(
                worker_id=worker_id,
                capabilities=capabilities,
                joined_at=now,
                last_seen=now,
            )
            self.members[worker_id] = member
            self.joins += 1
            self._record("join", worker_id,
                         cores=capabilities.cores,
                         throughput=round(capabilities.throughput, 3))
        else:
            member.capabilities = capabilities
            member.left_at = None
            member.last_seen = now
            self.joins += 1
            self._record("rejoin", worker_id)
        return member

    def leave(self, worker_id: str, now: float, reason: str) -> None:
        """Mark a worker gone (disconnect, drain, or chaos kill)."""
        member = self.members.get(worker_id)
        if member is None or not member.active:
            return
        member.left_at = now
        self.leaves += 1
        self._record("leave", worker_id, reason=reason)

    def task_done(self, worker_id: str, now: float) -> None:
        """Fold one accepted result into the worker's rate EWMA."""
        member = self.members.get(worker_id)
        if member is None:
            return
        member.tasks_completed += 1
        since = member.last_completed_at
        if since is None:
            since = member.joined_at
        gap = max(now - since, 1e-6)
        sample = 1.0 / gap
        if member.rate <= 0.0:
            member.rate = sample
        else:
            member.rate += self.ewma_alpha * (sample - member.rate)
        member.last_completed_at = now
        member.last_seen = now

    # ------------------------------------------------------------------
    # Questions the scheduler asks
    # ------------------------------------------------------------------
    def get(self, worker_id: str) -> Optional[FleetMember]:
        """The member record for ``worker_id`` (``None`` if unknown)."""
        return self.members.get(worker_id)

    def active_members(self) -> List[FleetMember]:
        """Members currently in the fleet, in stable worker-id order."""
        return sorted(
            (m for m in self.members.values() if m.active),
            key=lambda m: m.worker_id,
        )

    def median_rate(self) -> float:
        """Median completion rate over active workers that have rated."""
        rates = [
            m.rate for m in self.active_members()
            if m.rate > 0.0 and m.tasks_completed > 0
        ]
        if not rates:
            return 0.0
        return float(statistics.median(rates))

    def weight(self, worker_id: str) -> float:
        """Capacity weight: advertised throughput vs the fleet median.

        Falls back to 1.0 whenever the worker (or most of the fleet)
        did not measure a calibration throughput.
        """
        member = self.members.get(worker_id)
        if member is None:
            return 1.0
        mine = member.capabilities.throughput
        if mine <= 0.0:
            return 1.0
        peers = [
            m.capabilities.throughput
            for m in self.active_members()
            if m.capabilities.throughput > 0.0
        ]
        if not peers:
            return 1.0
        median = float(statistics.median(peers))
        if median <= 0.0:
            return 1.0
        return mine / median

    def bundle_size(self, worker_id: str) -> int:
        """Cells to lease this worker in one bundle.

        Twice the capacity weight (at least 1), clamped to twice
        ``max_bundle``: the coordinator fills bundles with same-chunk
        cells, which a suite worker runs as one program-major backend
        call, so the marginal cell is nearly free.  A slow-flagged
        worker always gets exactly one cell: bundling to a straggler
        just converts one late cell into several.
        """
        member = self.members.get(worker_id)
        if member is not None and member.slow:
            return 1
        size = max(1, int(round(self.weight(worker_id))))
        return 2 * min(self.max_bundle, size)

    def rebalance_scan(self) -> List[Tuple[str, bool]]:
        """Re-flag slow/recovered workers against the fleet median.

        Returns:
            ``(worker_id, slow)`` for every member whose flag flipped
            this scan, in stable worker-id order.
        """
        median = self.median_rate()
        changed: List[Tuple[str, bool]] = []
        if median <= 0.0:
            return changed
        raters = [
            m for m in self.active_members()
            if m.rate > 0.0 and m.tasks_completed > 0
        ]
        if len(raters) < 2:
            return changed  # one rated worker defines no fleet to lag
        for member in raters:
            if not member.slow and (
                member.rate < self.slow_fraction * median
            ):
                member.slow = True
                changed.append((member.worker_id, True))
                self._record("slow", member.worker_id,
                             rate=round(member.rate, 4),
                             median=round(median, 4))
                _log.warning(
                    "worker %s flagged slow: %.3f/s vs fleet median "
                    "%.3f/s",
                    member.worker_id, member.rate, median,
                    extra={"event": "distrib.worker_slow",
                           "worker": member.worker_id},
                )
            elif member.slow and (
                member.rate >= 2.0 * self.slow_fraction * median
            ):
                member.slow = False
                changed.append((member.worker_id, False))
                self._record("recovered", member.worker_id,
                             rate=round(member.rate, 4),
                             median=round(median, 4))
                _log.info(
                    "worker %s recovered: %.3f/s vs fleet median %.3f/s",
                    member.worker_id, member.rate, median,
                    extra={"event": "distrib.worker_recovered",
                           "worker": member.worker_id},
                )
        return changed

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def roster(self, now: Optional[float] = None) -> List[Dict]:
        """JSON-ready fleet roster for the status endpoint."""
        now = time.monotonic() if now is None else now
        return [
            {
                "worker": member.worker_id,
                "active": member.active,
                "slow": member.slow,
                "cores": member.capabilities.cores,
                "memory_mb": member.capabilities.memory_mb,
                "throughput": round(member.capabilities.throughput, 3),
                "weight": round(self.weight(member.worker_id), 3),
                "bundle_size": self.bundle_size(member.worker_id),
                "tasks_completed": member.tasks_completed,
                "rate": round(member.rate, 4),
                "age_seconds": round(max(0.0, now - member.joined_at), 3),
            }
            for member in sorted(
                self.members.values(), key=lambda m: m.worker_id
            )
        ]
