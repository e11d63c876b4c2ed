"""repro.serve — the prediction serving subsystem.

The paper's predictor answers "what would this machine score?" in
microseconds once trained; this package turns that into operational
infrastructure, dependency-free:

* :class:`ModelRegistry` / :class:`ModelRecord` — versioned, immutable,
  doubly-checksummed on-disk artifacts for fitted predictors, with
  provenance records linking each version back to the run (seed, git
  sha, input checksum) that produced it.
* :class:`PredictionServer` / :func:`serve_forever` — a stdlib-only
  asyncio HTTP service (``repro serve``) that coalesces concurrent
  requests into vectorised batches and caches repeated configurations,
  with ``/healthz`` and ``/metrics`` endpoints, bounded-queue
  backpressure (503 + ``Retry-After``) and graceful SIGTERM drain, in
  one process or as a fleet.
* :class:`PredictionBatcher` / :class:`LRUCache` — the coalescing
  machinery, usable without the HTTP layer.
* :class:`PredictionClient` — a small blocking client for benchmarks,
  smoke tests and scripts, with transparent stale keep-alive
  recovery.
* :class:`AdmissionController` / :class:`TokenBucket` — per-client
  token-bucket quotas plus a global in-flight cap, shedding load with
  503 + ``Retry-After`` *before* queueing delay collapses latency.
* :class:`ServingFleet` — a prefork multi-process fleet
  (``repro serve --workers N``) sharing one port via ``SO_REUSEPORT``,
  with coordinated SIGTERM drain and parent-side metrics merging.

Exactness is the design anchor: the server predicts through the
batch-composition-invariant forward path
(:meth:`~repro.core.predictor.ArchitectureCentricPredictor.predict_invariant`),
so a served prediction is bit-identical to calling the predictor
directly, regardless of how requests were batched or cached.
"""

from .admission import AdmissionController, AdmissionDecision, TokenBucket
from .batching import LRUCache, PredictionBatcher, ServerSaturated
from .client import PredictionClient, ServerError
from .fleet import FleetReport, ServingFleet
from .registry import ModelRecord, ModelRegistry, RECORD_SCHEMA
from .server import PredictionServer, serve_forever

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "FleetReport",
    "LRUCache",
    "ModelRecord",
    "ModelRegistry",
    "PredictionBatcher",
    "PredictionClient",
    "PredictionServer",
    "RECORD_SCHEMA",
    "ServerError",
    "ServerSaturated",
    "ServingFleet",
    "TokenBucket",
    "serve_forever",
]
