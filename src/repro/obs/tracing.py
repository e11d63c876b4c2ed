"""Lightweight span tracing with a ``chrome://tracing`` exporter.

A *span* is one timed region of work with a name and free-form
attributes::

    from repro.obs import span

    with span("simulate.chunk", program="gzip", chunk=3):
        backend.simulate_batch(profile, configs)

Spans nest (a thread-local stack tracks depth and parent ids), cost two
``perf_counter`` reads plus a dict append, and never touch random
state, so instrumented code keeps producing bit-identical numeric
results.  The collecting :class:`Tracer` exports:

* **JSONL** — one span object per line, for grep/jq pipelines;
* **Chrome trace JSON** — complete ``"ph": "X"`` events that load
  directly into ``chrome://tracing`` / Perfetto for a flame view.

Worker processes trace into their own :class:`Tracer` (installed with
:func:`scoped_tracer`) and ship ``tracer.spans`` back to the parent,
which folds them in with :meth:`Tracer.adopt` — the exported trace then
shows every worker's cells under that worker's pid row.

Spans also carry **trace context**: every span gets a ``span_id``, a
``parent_id`` (the enclosing span, when there is one) and — once the
tracer owns a ``trace_id`` — the campaign-wide trace id.  A campaign
sets one with :meth:`Tracer.ensure_trace_id`, and :meth:`Tracer.adopt`
stamps it onto adopted spans that lack one, so spans from
process-pool children (which never see the trace id) land in the
campaign's one trace.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Union

from .metrics import get_registry

__all__ = [
    "Tracer",
    "get_tracer",
    "new_trace_id",
    "set_tracer",
    "scoped_tracer",
    "span",
]

def new_trace_id() -> str:
    """A fresh 32-hex-char trace id.

    Backed by :func:`uuid.uuid4` (``os.urandom``), so generating one
    never perturbs ``random``/NumPy state — results stay bit-identical
    with tracing on.
    """
    return uuid.uuid4().hex


def _new_span_id() -> str:
    return uuid.uuid4().hex[:16]


class Tracer:
    """Collects finished spans in memory, bounded by ``max_spans``.

    Args:
        enabled: A disabled tracer's :meth:`span` is a no-op context
            manager, for callers that want zero bookkeeping.
        max_spans: In-memory bound; spans past it are counted in
            :attr:`dropped` (and a ``trace.dropped`` counter in the
            active metrics registry) instead of stored, so a
            pathological loop cannot exhaust memory.
        trace_id: Trace this tracer's spans belong to (``None`` until
            :meth:`ensure_trace_id` sets one).
    """

    def __init__(
        self,
        enabled: bool = True,
        max_spans: int = 200_000,
        trace_id: Optional[str] = None,
    ) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be at least 1")
        self.enabled = enabled
        self.max_spans = max_spans
        self.trace_id = trace_id
        self.spans: List[Dict] = []
        self.dropped = 0
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Trace context
    # ------------------------------------------------------------------
    def ensure_trace_id(self) -> str:
        """This tracer's trace id, generating one on first use."""
        if self.trace_id is None:
            self.trace_id = new_trace_id()
        return self.trace_id

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _stamp(self, record: Dict, stack: List[str]) -> None:
        """Attach ids; context keys are omitted when unset so
        context-free spans keep their exact pre-trace-context shape."""
        record["span_id"] = _new_span_id()
        if stack:
            record["parent_id"] = stack[-1]
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Optional[Dict]]:
        """Time the ``with`` block as one span named ``name``.

        Yields the span record (or ``None`` when disabled) so callers
        can attach late attributes — e.g. an attempt count known only
        after the work ran::

            with tracer.span("simulate.chunk", cell=cell) as s:
                batch, attempts = simulate()
                if s is not None:
                    s["attrs"]["attempts"] = attempts
        """
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        record: Dict = {
            "name": name,
            "ts": time.time(),
            "dur": 0.0,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "depth": len(stack),
            "attrs": dict(attrs),
        }
        self._stamp(record, stack)
        stack.append(record["span_id"])
        start = time.perf_counter()
        try:
            yield record
        finally:
            record["dur"] = time.perf_counter() - start
            stack.pop()
            self._store(record)

    def record(self, name: str, seconds: float, **attrs) -> None:
        """Adopt an externally timed region as a completed span.

        For durations measured elsewhere — e.g. a worker process
        reports how long a fit took and the parent records it.
        """
        if not self.enabled:
            return
        stack = self._stack()
        record = {
            "name": name,
            "ts": time.time() - seconds,
            "dur": float(seconds),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "depth": len(stack),
            "attrs": dict(attrs),
        }
        self._stamp(record, stack)
        self._store(record)

    def adopt(self, spans: Sequence[Dict]) -> None:
        """Fold spans shipped from another tracer (usually a worker).

        Adopted spans missing a ``trace_id`` are stamped with this
        tracer's — how spans from process-pool children of ``--jobs``
        runs, which never see the trace context, still stitch into the
        campaign's single trace.
        """
        for record in spans:
            record = dict(record)
            if self.trace_id is not None and "trace_id" not in record:
                record["trace_id"] = self.trace_id
            self._store(record)

    def _store(self, record: Dict) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            get_registry().counter("trace.dropped").inc()
            return
        self.spans.append(record)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def mark(self) -> int:
        """Current span count — pass to :meth:`summary` to scope it."""
        return len(self.spans)

    def count(self, name: str, start: int = 0) -> int:
        """How many spans named ``name`` finished since ``start``."""
        return sum(1 for s in self.spans[start:] if s["name"] == name)

    def summary(self, start: int = 0) -> Dict[str, Dict[str, float]]:
        """Per-name timing rollup of the spans since ``start``.

        Returns:
            ``{name: {count, total_seconds, min_seconds, max_seconds}}``
            sorted by name — the shape embedded in run manifests and
            benchmark payloads.
        """
        rollup: Dict[str, Dict[str, float]] = {}
        for record in self.spans[start:]:
            entry = rollup.setdefault(
                record["name"],
                {
                    "count": 0,
                    "total_seconds": 0.0,
                    "min_seconds": float("inf"),
                    "max_seconds": 0.0,
                },
            )
            entry["count"] += 1
            entry["total_seconds"] += record["dur"]
            entry["min_seconds"] = min(entry["min_seconds"], record["dur"])
            entry["max_seconds"] = max(entry["max_seconds"], record["dur"])
        if self.dropped:
            # Mark the truncation so a manifest reader knows the rollup
            # under-counts; zero durations keep aggregators harmless.
            rollup["trace.dropped"] = {
                "count": self.dropped,
                "total_seconds": 0.0,
                "min_seconds": 0.0,
                "max_seconds": 0.0,
            }
        return dict(sorted(rollup.items()))

    def clear(self) -> None:
        """Drop every stored span (the drop counter too)."""
        self.spans.clear()
        self.dropped = 0

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_chrome_events(self) -> List[Dict]:
        """Spans as Chrome trace 'complete' (``ph: X``) events.

        Each span sits in its recording process's pid row, so a
        ``--jobs`` child's spans get their own row.  Trace-context ids
        ride in ``args``.  When spans were dropped past ``max_spans``, a
        ``trace.truncated`` instant event flags the export as
        incomplete.
        """
        events: List[Dict] = []
        last_end = 0.0
        for record in self.spans:
            args = dict(record["attrs"])
            if "trace_id" in record:
                for key in ("trace_id", "span_id", "parent_id"):
                    if key in record:
                        args[key] = record[key]
            events.append(
                {
                    "name": record["name"],
                    "cat": "repro",
                    "ph": "X",
                    "ts": round(record["ts"] * 1e6, 3),
                    "dur": round(record["dur"] * 1e6, 3),
                    "pid": record["pid"],
                    "tid": record["tid"],
                    "args": args,
                }
            )
            last_end = max(last_end, record["ts"] + record["dur"])
        if self.dropped:
            events.append(
                {
                    "name": "trace.truncated",
                    "cat": "repro",
                    "ph": "I",
                    "s": "g",
                    "ts": round(last_end * 1e6, 3),
                    "pid": os.getpid(),
                    "tid": 0,
                    "args": {"dropped": self.dropped},
                }
            )
        return events

    def write_chrome(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write a ``chrome://tracing``-loadable JSON trace.

        One event per line inside the array, so the file greps like
        JSONL while still parsing as standard JSON.
        """
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        events = self.to_chrome_events()
        body = ",\n".join(json.dumps(event, sort_keys=True) for event in events)
        scratch = path.with_name(path.name + ".tmp")
        scratch.write_text("[\n" + body + "\n]\n", encoding="utf-8")
        os.replace(scratch, path)
        return path

    def write_jsonl(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the raw spans, one JSON object per line."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        scratch = path.with_name(path.name + ".tmp")
        with open(scratch, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        os.replace(scratch, path)
        return path


_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-global default tracer."""
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the global tracer; returns the previous one."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


@contextmanager
def scoped_tracer(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Swap in a tracer for the ``with`` block (tests, workers).

    Args:
        tracer: The tracer to install; a fresh one by default.

    Yields:
        The installed tracer.
    """
    active = tracer if tracer is not None else Tracer()
    previous = set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(previous)


def span(name: str, **attrs):
    """Open a span on the *current* global tracer.

    The module-level convenience the instrumented code uses, so a
    :func:`scoped_tracer` swap (worker isolation, tests) redirects
    every span without threading a tracer through call signatures.
    """
    return get_tracer().span(name, **attrs)
