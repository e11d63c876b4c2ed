"""repro.obs — the dependency-free observability layer.

Everything the rest of the package uses to explain itself at runtime:

* **Structured logging** — :func:`get_logger` /
  :func:`configure_logging`, human or JSON lines, level picked by
  ``--log-level`` or ``REPRO_LOG``.
* **Metrics** — :class:`MetricsRegistry` of counters, gauges and
  histograms with JSON and Prometheus-textfile exporters, plus a
  snapshot/merge protocol so worker processes aggregate into the
  parent correctly.
* **Tracing** — :func:`span` context managers collected by a
  :class:`Tracer`, exported as ``chrome://tracing`` JSON or JSONL,
  with span ids, parent links and one trace id per campaign.
* **Run manifests** — :func:`build_manifest` /
  :func:`write_manifest`: run id, seed, git sha, input checksum,
  timing summary and final metrics in one provenance file.
* **SLOs** — :class:`SLOTracker` evaluates declarative objectives
  (latency budgets, burn rates) against a registry or a parsed
  Prometheus export (:class:`MetricsView`).
* **HTTP plumbing** — ``repro.obs.http``, the stdlib-only request
  parser and response writer behind ``repro serve`` (imported on
  demand, so only serving pays for ``asyncio``).

Instrumentation is always-on but cheap (dict bumps and two clock
reads per span); it records *around* the computation and never touches
random state, so results stay bit-identical with telemetry enabled,
exported, or ignored.
"""

from .logging import (
    HumanFormatter,
    JsonFormatter,
    configure_logging,
    get_logger,
    resolve_level,
)
from .manifest import build_manifest, git_sha, write_manifest
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    scoped_registry,
    set_registry,
)
from .slo import MetricsView, SLObjective, SLOTracker, histogram_quantile
from .tracing import (
    Tracer,
    get_tracer,
    new_trace_id,
    scoped_tracer,
    set_tracer,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HumanFormatter",
    "JsonFormatter",
    "MetricsRegistry",
    "MetricsView",
    "SLObjective",
    "SLOTracker",
    "Tracer",
    "build_manifest",
    "configure_logging",
    "get_logger",
    "get_registry",
    "get_tracer",
    "git_sha",
    "histogram_quantile",
    "new_trace_id",
    "resolve_level",
    "scoped_registry",
    "scoped_tracer",
    "set_registry",
    "set_tracer",
    "span",
    "write_manifest",
]
