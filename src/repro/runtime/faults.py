"""Deterministic fault injection — the resilience test substrate.

Real campaigns fail in three characteristic ways: a backend call raises
(a crashed simulator process, a dropped connection), a call returns
corrupted values (NaN/Inf from an overflowed model or a truncated
read), or a call stalls far beyond its deadline.
:class:`FaultInjectingBackend` reproduces all three on demand, *deterministically*:
whether attempt ``k`` of a given (program, batch) cell fails is a pure
function of the seed, so a test run is exactly repeatable, and — because
faults only ever discard or corrupt a *copy* of the inner backend's
answer — a campaign that retries through the faults produces metric
matrices bit-identical to a fault-free run.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.designspace.configuration import Configuration
from repro.obs import get_logger, get_registry
from repro.sim.interval import BatchResult
from repro.workloads.profile import WorkloadProfile

from .backend import SimulationBackend, SimulationError

_log = get_logger(__name__)


def derive_rng(*parts) -> np.random.Generator:
    """A deterministic generator derived from a tuple of identifiers.

    Hashes the ``str()`` of every part (joined by ``/``) through
    sha256 and seeds numpy from the first eight digest bytes — the same
    derivation :class:`FaultInjectingBackend` uses per (cell, attempt),
    exposed so other seeded machinery (the load generator's arrivals,
    request mixes and payload pools) draws from streams that are pure
    functions of their identifiers: same plan, same seed, same stream.
    """
    digest = hashlib.sha256(
        b"/".join(str(part).encode("utf-8") for part in parts)
    ).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


class TransientSimulationError(SimulationError):
    """An injected failure that a retry is expected to clear."""


class PermanentSimulationError(SimulationError):
    """An injected failure that persists across every retry."""


class VirtualClock:
    """A deterministic clock/sleep pair for testing time-outs and backoff.

    ``clock()`` reads the current virtual time; ``sleep(s)`` advances it
    instantly.  Handing the same instance to a
    :class:`FaultInjectingBackend` (which sleeps through injected
    stalls) and to :func:`~repro.runtime.retry.call_with_retry` (which
    measures elapsed time against the timeout and sleeps between
    attempts) exercises the whole timeout path without any real waiting.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        """Advance virtual time by ``seconds`` without really waiting."""
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self.now += seconds


def _no_sleep(seconds: float) -> None:
    """Default stall hook: don't actually sleep (tests inject a clock)."""


def _batch_fingerprint(
    profile: WorkloadProfile, configs: Sequence[Configuration]
) -> str:
    """Stable identity of one (program, batch) cell."""
    digest = hashlib.sha256(profile.name.encode("utf-8"))
    for config in configs:
        digest.update(repr(tuple(config)).encode("utf-8"))
    return digest.hexdigest()


class FaultInjectingBackend:
    """Wrap a backend with seeded transient/corruption/stall faults.

    Deliberately suite-less: the wrapper exposes only
    ``simulate_batch``, so :func:`repro.runtime.backend.supports_suite`
    reports ``False`` and campaigns degrade to per-cell batches.  Fault
    decisions are pure functions of the per-*cell* fingerprint and
    attempt number; a program-major suite call would collapse many
    cells into one decision point and change which faults fire, so the
    resilience tests keep the per-cell schedule instead.

    Args:
        inner: The real backend supplying correct answers.
        seed: Master seed; every fault decision derives from it, the
            cell fingerprint and the attempt number, so runs are exactly
            repeatable.
        transient_rate: Probability that one call raises
            :class:`TransientSimulationError` (independently per
            attempt — retries eventually get through).
        corrupt_rate: Probability that one call's result comes back with
            NaN/Inf poisoning (on a copy; the inner result is untouched).
        stall_rate: Probability that one call stalls ``stall_seconds``
            on the injected ``sleep`` before returning.
        stall_seconds: Length of an injected stall.
        permanent_rate: Probability that a *cell* fails on every attempt
            (models a configuration the backend simply cannot simulate).
        sleep: Sleep hook for stalls; pass a
            :class:`VirtualClock` ``.sleep`` in tests.  Defaults to a
            no-op so accidental construction never blocks.
    """

    def __init__(
        self,
        inner: SimulationBackend,
        seed: int = 0,
        transient_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        stall_rate: float = 0.0,
        stall_seconds: float = 30.0,
        permanent_rate: float = 0.0,
        sleep=None,
    ) -> None:
        for name, rate in (
            ("transient_rate", transient_rate),
            ("corrupt_rate", corrupt_rate),
            ("stall_rate", stall_rate),
            ("permanent_rate", permanent_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        self.inner = inner
        self.seed = seed
        self.transient_rate = transient_rate
        self.corrupt_rate = corrupt_rate
        self.stall_rate = stall_rate
        self.stall_seconds = stall_seconds
        self.permanent_rate = permanent_rate
        # A module-level no-op rather than a lambda keeps the backend
        # picklable, which parallel campaigns require.
        self._sleep = sleep if sleep is not None else _no_sleep
        self._attempts: Dict[str, int] = {}
        self.calls = 0
        self.injected_transients = 0
        self.injected_corruptions = 0
        self.injected_stalls = 0
        self.injected_permanents = 0

    # ------------------------------------------------------------------
    # Backend interface
    # ------------------------------------------------------------------
    @property
    def space(self):
        """Design space of the wrapped backend (when it exposes one)."""
        return self.inner.space

    def simulate_batch(
        self, profile: WorkloadProfile, configs: Sequence[Configuration]
    ) -> BatchResult:
        """Simulate via the inner backend, injecting scheduled faults."""
        self.calls += 1
        cell = _batch_fingerprint(profile, configs)
        attempt = self._attempts.get(cell, 0)
        self._attempts[cell] = attempt + 1

        cell_rng = self._rng(cell)
        if cell_rng.random() < self.permanent_rate:
            self.injected_permanents += 1
            self._count("permanent", profile, attempt)
            raise PermanentSimulationError(
                f"injected permanent failure for {profile.name!r}"
            )

        rng = self._rng(cell, attempt)
        if rng.random() < self.transient_rate:
            self.injected_transients += 1
            self._count("transient", profile, attempt)
            raise TransientSimulationError(
                f"injected transient failure for {profile.name!r} "
                f"(attempt {attempt})"
            )

        result = self.inner.simulate_batch(profile, configs)

        if rng.random() < self.stall_rate:
            self.injected_stalls += 1
            self._count("stall", profile, attempt)
            self._sleep(self.stall_seconds)

        if rng.random() < self.corrupt_rate and len(result) > 0:
            self.injected_corruptions += 1
            self._count("corrupt", profile, attempt)
            result = self._corrupt(result, rng)
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _count(kind: str, profile: WorkloadProfile, attempt: int) -> None:
        """Record one injected fault in the metrics and the debug log."""
        get_registry().counter("faults.injected", kind=kind).inc()
        _log.debug(
            "injected %s fault for %r (attempt %d)",
            kind, profile.name, attempt,
            extra={"event": "fault.injected", "kind": kind,
                   "program": profile.name, "attempt": attempt},
        )

    def _rng(self, cell: str, attempt: Optional[int] = None):
        parts = ["fault", self.seed, cell]
        if attempt is not None:
            parts.append(attempt)
        return derive_rng(*parts)

    def _corrupt(self, result: BatchResult, rng) -> BatchResult:
        """Poison a few positions of copied metric arrays with NaN/Inf."""
        arrays: Tuple[np.ndarray, ...] = tuple(
            np.array(values, copy=True)
            for values in (result.cycles, result.energy, result.ed, result.edd)
        )
        count = int(rng.integers(1, max(2, len(result) // 4 + 1)))
        for _ in range(count):
            which = int(rng.integers(0, len(arrays)))
            index = int(rng.integers(0, len(result)))
            arrays[which][index] = np.nan if rng.random() < 0.5 else np.inf
        return BatchResult(*arrays)

    def reset(self) -> None:
        """Forget attempt counters and statistics (fresh injection run)."""
        self._attempts.clear()
        self.calls = 0
        self.injected_transients = 0
        self.injected_corruptions = 0
        self.injected_stalls = 0
        self.injected_permanents = 0
