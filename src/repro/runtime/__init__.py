"""Fault-tolerant campaign execution for long simulation runs.

The paper's pipeline rests on large offline campaigns — T = 512
simulations per training program across a 26-program suite, plus R = 32
responses per new program.  This package makes those campaigns
survivable: every batch of simulations runs behind a
:class:`SimulationBackend` interface with retry, backoff and a circuit
breaker, completed work is journalled to disk with content checksums,
and an interrupted campaign resumes from the last good chunk instead of
restarting from zero.

Public surface:

* :class:`SimulationBackend` / :class:`IntervalBackend` — the backend
  interface and its interval-simulator implementation; backends may
  additionally offer the program-major ``simulate_suite`` fast path,
  discovered via :func:`supports_suite`.
* :class:`FaultInjectingBackend` — deterministic, seeded fault injection
  (transient errors, NaN/Inf corruption, latency stalls); the test
  substrate for every resilience feature.
* :class:`RetryPolicy` / :class:`CircuitBreaker` /
  :func:`call_with_retry` — per-batch retry with exponential backoff,
  jitter, a per-call timeout guard and trip-after-K-failures breaking.
* :class:`CampaignRunner` / :class:`CampaignResult` — the chunked,
  journalled, resumable campaign executor.
* :class:`CampaignJournal` — the append-only on-disk journal.
* :class:`VirtualClock` — a deterministic clock/sleep pair for tests.
* :func:`write_archive` / :func:`read_archive` — the shared checksummed
  ``.npz`` artifact layer under datasets, model pools and the registry.
"""

from .artifact import payload_checksum, read_archive, write_archive
from .backend import (
    CorruptResultError,
    IntervalBackend,
    SimulationBackend,
    SimulationError,
    supports_suite,
    validate_batch,
)
from .campaign import CampaignCell, CampaignPlan, CampaignResult, CampaignRunner
from .faults import (
    FaultInjectingBackend,
    PermanentSimulationError,
    TransientSimulationError,
    VirtualClock,
)
from .integrity import array_checksum, batch_checksum, file_checksum
from .journal import CampaignJournal
from .retry import (
    CircuitBreaker,
    CircuitOpenError,
    RetryPolicy,
    SimulationTimeoutError,
    call_with_retry,
)

__all__ = [
    "CampaignCell",
    "CampaignJournal",
    "CampaignPlan",
    "CampaignResult",
    "CampaignRunner",
    "CircuitBreaker",
    "CircuitOpenError",
    "CorruptResultError",
    "FaultInjectingBackend",
    "IntervalBackend",
    "PermanentSimulationError",
    "RetryPolicy",
    "SimulationBackend",
    "SimulationError",
    "SimulationTimeoutError",
    "TransientSimulationError",
    "VirtualClock",
    "array_checksum",
    "batch_checksum",
    "call_with_retry",
    "file_checksum",
    "payload_checksum",
    "read_archive",
    "supports_suite",
    "validate_batch",
    "write_archive",
]
