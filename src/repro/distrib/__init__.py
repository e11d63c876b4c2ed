"""repro.distrib — multi-host campaign execution over plain TCP.

The paper's offline builds (T = 512 simulations x 26 programs) are
embarrassingly parallel across (program, chunk) cells, and this package
shards them across hosts with nothing beyond the standard library: a
**coordinator** owns the work queue, the lease table and the checkpoint
journal; **workers** connect over a length-prefixed, versioned,
checksummed JSON protocol, lease cells, simulate them and ship the
metric arrays back.

The design contracts:

* **Bit-identical to serial.**  Workers draw the same deterministic
  per-cell retry seeds as the serial loop and results are journalled
  through the same checksummed artifact layer, so a campaign's matrices
  are identical regardless of worker count, interleaving, or whether it
  ran serial, process-parallel or distributed.
* **Resume is transparent.**  The coordinator plans against the same
  journal a serial run writes; any mode can resume any other mode's
  checkpoint.
* **Failure is routine.**  Dead workers (dropped connections) and hung
  workers (missed lease deadlines) have their leases reclaimed and
  requeued with deterministic backoff; repeatedly failing workers are
  circuit-broken out of the campaign; stale results are discarded, not
  double-journalled.
* **The fleet is elastic.**  Workers advertise capabilities at HELLO
  and are leased capacity-weighted task bundles; late joiners are
  admitted mid-campaign, leavers drain cleanly, stragglers have their
  leases stolen speculatively (first result wins), and a seeded chaos
  harness replays exactly these failure modes on demand.

Public surface:

* :class:`CampaignCoordinator` / :class:`CoordinatorStats` — the
  serving side (``repro coordinator``), plus :func:`fetch_status`
  (``repro status`` over the coordinator's HTTP ``/status``).
* :class:`CampaignWorker` / :class:`DelayBackend` /
  :class:`CoordinatorLost` — the executing side (``repro worker``).
* :class:`FleetMembership` / :class:`WorkerCapabilities` /
  :func:`detect_capabilities` — the roster and capacity model.
* :class:`ChaosPlan` / :func:`run_chaos_campaign` — the deterministic
  failure-injection harness (``repro chaos``).
* :mod:`~repro.distrib.protocol` — framing, integrity, versioning.
* :mod:`~repro.distrib.wire` — exact-round-trip JSON codecs.
"""

from .chaos import (
    ChaosEvent,
    ChaosPlan,
    ChaosRunReport,
    ChaosWireFilter,
    run_chaos_campaign,
    run_chaos_campaign_sync,
)
from .coordinator import (
    CampaignCoordinator,
    CoordinatorStats,
    fetch_status,
)
from .membership import (
    FleetMembership,
    WorkerCapabilities,
    detect_capabilities,
    measure_calibration,
)
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    read_message,
    write_message,
)
from .wire import (
    batch_checksum,
    batch_from_wire,
    batch_to_wire,
    configs_from_wire,
    configs_to_wire,
    policy_from_wire,
    policy_to_wire,
    profile_from_wire,
    profile_to_wire,
)
from .worker import CampaignWorker, CoordinatorLost, DelayBackend

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "CampaignCoordinator",
    "CampaignWorker",
    "ChaosEvent",
    "ChaosPlan",
    "ChaosRunReport",
    "ChaosWireFilter",
    "CoordinatorLost",
    "CoordinatorStats",
    "DelayBackend",
    "FleetMembership",
    "ProtocolError",
    "WorkerCapabilities",
    "batch_checksum",
    "batch_from_wire",
    "batch_to_wire",
    "configs_from_wire",
    "configs_to_wire",
    "decode_frame",
    "detect_capabilities",
    "encode_frame",
    "fetch_status",
    "measure_calibration",
    "policy_from_wire",
    "policy_to_wire",
    "profile_from_wire",
    "profile_to_wire",
    "read_message",
    "run_chaos_campaign",
    "run_chaos_campaign_sync",
    "write_message",
]
