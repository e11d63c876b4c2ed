"""Request coalescing: the cache and the asyncio micro-batcher.

The inference server's whole reason to exist is that one vectorised
forward pass over m configurations costs barely more than one over a
single configuration — the per-call overhead (encoding setup, the
stacked member pass, the combine) dominates tiny batches.  The
:class:`PredictionBatcher` therefore works per request, never per
configuration: :meth:`PredictionBatcher.predict` answers a request's
cache hits inline and parks its misses on a bounded queue as *one*
entry with *one* future; a collector drains parked requests until the
batch holds ``max_batch`` configurations (waiting at most
``batch_window`` seconds for stragglers while the queue is empty), and
the batch's unique misses run through
:meth:`~repro.core.predictor.ArchitectureCentricPredictor.predict_invariant`
in forward calls of at most ``max_batch`` configurations.

That method's batch-composition invariance is what makes the two
optimisations here *exact* rather than approximately right:

* **Coalescing** — a request's answer is the same whether its batch
  held 1 or 64 configurations, so batching is invisible to clients.
* **Caching** — each prediction is a pure function of its
  configuration, so an LRU cache keyed by the configuration can serve
  repeats without a forward pass and still return the same bits.

A request is a list of configurations: each is its own cache key and
the row the forward pass encodes.  A
:class:`~repro.designspace.configuration.Configuration` hashes and
compares as the tuple of its 13 values, so the server passes canonical
rows as plain tuples without building one.

Backpressure is explicit: the queue is bounded by parked requests, and
when it is full :meth:`PredictionBatcher.predict` raises
:class:`ServerSaturated` immediately instead of buffering unboundedly —
the HTTP layer turns that into a 503 with ``Retry-After``, which is the
honest answer under overload.  A request is parked whole or not at
all, so a refused request leaves no work behind.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.designspace.configuration import Configuration
from repro.obs import get_logger, get_registry, span

__all__ = ["LRUCache", "PredictionBatcher", "ServerSaturated"]

_log = get_logger("serve.batching")

#: Sentinel distinguishing "cached None" from "not cached".
_MISSING = object()


class ServerSaturated(RuntimeError):
    """The request queue is full; the caller should retry later."""


class LRUCache:
    """A small least-recently-used mapping (no locking; asyncio-only).

    Args:
        capacity: Maximum entries; 0 disables caching entirely.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be non-negative")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, float]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable):
        """The cached value, or the miss sentinel; refreshes recency."""
        value = self._entries.get(key, _MISSING)
        if value is not _MISSING:
            self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: float) -> None:
        """Insert (or refresh) a value, evicting the oldest past capacity."""
        if self.capacity == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    @staticmethod
    def miss_sentinel():
        """The object :meth:`get` returns on a miss."""
        return _MISSING


class PredictionBatcher:
    """Coalesce concurrent requests into vectorised invariant batches.

    Args:
        predictor: A fitted architecture-centric predictor whose pool
            stacks (``predict_invariant`` must work).
        max_batch: Most configurations per forward pass.
        batch_window: Seconds the collector waits for more requests
            after the first before dispatching a partial batch.
        cache_size: LRU prediction-cache entries (0 disables).
        queue_limit: Bound on parked requests; beyond it
            :meth:`predict` raises :class:`ServerSaturated`.
    """

    def __init__(
        self,
        predictor,
        max_batch: int = 64,
        batch_window: float = 0.002,
        cache_size: int = 4096,
        queue_limit: int = 1024,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if batch_window < 0:
            raise ValueError("batch_window must be non-negative")
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        self._predictor = predictor
        self.max_batch = max_batch
        self.batch_window = batch_window
        self.queue_limit = queue_limit
        self.cache = LRUCache(cache_size)
        self._queue: Optional[asyncio.Queue] = None
        self._collector: Optional[asyncio.Task] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the collector task on the running loop."""
        if self._collector is not None:
            raise RuntimeError("the batcher is already running")
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._closed = False
        self._collector = asyncio.create_task(
            self._run(), name="prediction-batcher"
        )

    async def stop(self) -> None:
        """Drain parked requests, then stop the collector.

        Requests already queued are answered; new requests with a cache
        miss fail with :class:`ServerSaturated` the moment draining
        begins.
        """
        if self._collector is None:
            return
        self._closed = True
        await self._queue.join()
        self._collector.cancel()
        try:
            await self._collector
        except asyncio.CancelledError:
            pass
        self._collector = None

    # ------------------------------------------------------------------
    # The request side
    # ------------------------------------------------------------------
    async def predict(self, rows: Sequence[Configuration]) -> List[float]:
        """Every row's prediction, as floats in request order.

        ``rows`` are configurations, each its own cache key.  Cache
        hits are answered inline; the misses park on the queue as one
        entry and are answered together once their batch has run.

        Raises:
            ServerSaturated: when a miss meets a full or draining queue
                (nothing of the request is queued).
        """
        registry = get_registry()
        values = [self.cache.get(key) for key in rows]
        missing = [i for i, value in enumerate(values) if value is _MISSING]
        hits = len(values) - len(missing)
        if hits:
            registry.counter("serve.cache.hits").inc(hits)
        if not missing:
            return values
        if self._queue is None or self._closed:
            registry.counter("serve.rejected", reason="closed").inc()
            raise ServerSaturated("the prediction batcher is not accepting")
        future = asyncio.get_running_loop().create_future()
        entry = ([rows[i] for i in missing], future)
        try:
            self._queue.put_nowait(entry)
        except asyncio.QueueFull:
            registry.counter("serve.rejected", reason="queue-full").inc()
            raise ServerSaturated(
                f"prediction queue is full ({self.queue_limit} waiting)"
            ) from None
        registry.gauge("serve.queue.depth").set(self._queue.qsize())
        for index, value in zip(missing, await future):
            values[index] = value
        return values

    async def predict_one(self, config: Configuration) -> float:
        """One configuration's prediction: a one-row request."""
        return (await self.predict([config.values()]))[0]

    # ------------------------------------------------------------------
    # The collector side
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        queue = self._queue
        while True:
            batch = [await queue.get()]
            size = len(batch[0][0])
            deadline = loop.time() + self.batch_window
            while size < self.max_batch:
                # Parked requests are taken without waiting; only an
                # empty queue is worth waiting on, and only until the
                # window closes.
                if queue.empty():
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        entry = await asyncio.wait_for(queue.get(), remaining)
                    except asyncio.TimeoutError:
                        break
                else:
                    entry = queue.get_nowait()
                batch.append(entry)
                size += len(entry[0])
            try:
                await self._execute(batch, size)
            finally:
                for _ in batch:
                    queue.task_done()
                get_registry().gauge("serve.queue.depth").set(queue.qsize())

    async def _execute(
        self,
        batch: List[Tuple[List[Configuration], "asyncio.Future"]],
        size: int,
    ) -> None:
        """Resolve one collected batch (dedup, cache, forward passes)."""
        registry = get_registry()
        registry.histogram(
            "serve.batch.size", buckets=_BATCH_BUCKETS
        ).observe(size)
        # Dedup across the batch and against the cache: a configuration
        # requested five times costs one forward-pass row (invariance
        # guarantees all five see identical bits).  Every configuration
        # counts once: a miss when it costs a row, else a hit.
        unique: Dict[Configuration, None] = {}
        resolved: Dict[Configuration, float] = {}
        for keys, _ in batch:
            for key in keys:
                if key in unique or key in resolved:
                    continue
                cached = self.cache.get(key)
                if cached is _MISSING:
                    unique[key] = None
                else:
                    resolved[key] = cached
        if size > len(unique):
            registry.counter("serve.cache.hits").inc(size - len(unique))
        if unique:
            registry.counter("serve.cache.misses").inc(len(unique))
            start = time.perf_counter()
            try:
                values = await asyncio.get_running_loop().run_in_executor(
                    None, self._forward, list(unique)
                )
            except BaseException as error:  # noqa: BLE001 - forwarded
                registry.counter("serve.errors").inc()
                for _, future in batch:
                    if not future.done():
                        future.set_exception(
                            error if isinstance(error, Exception)
                            else RuntimeError(str(error))
                        )
                return
            registry.histogram("serve.batch.seconds").observe(
                time.perf_counter() - start
            )
            for key, value in zip(unique, values):
                value = float(value)
                resolved[key] = value
                self.cache.put(key, value)
        for keys, future in batch:
            if not future.done():
                future.set_result([resolved[key] for key in keys])

    def _forward(self, rows: List[Configuration]) -> List[float]:
        """The worker-thread forward pass: calls of at most
        ``max_batch`` rows, each wrapped in a span."""
        values: List[float] = []
        for start in range(0, len(rows), self.max_batch):
            chunk = rows[start:start + self.max_batch]
            with span("serve.batch.predict", size=len(chunk)):
                values.extend(self._predictor.predict_invariant(chunk))
        return values


#: Batch sizes are small integers; the seconds-flavoured default
#: buckets would lump everything into two of them.
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
