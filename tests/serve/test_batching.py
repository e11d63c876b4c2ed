"""Tests for the LRU cache, the batcher, and batch-invariant parity.

The load-bearing assertions are exact (``==`` on floats,
``np.array_equal`` on arrays): the batch-composition-invariant forward
path promises that a configuration's prediction does not depend on
what else shares the batch, and the batcher's coalescing and caching
are only correct because of it.
"""

import asyncio

import numpy as np
import pytest

from repro.obs import scoped_registry
from repro.serve import LRUCache, PredictionBatcher, ServerSaturated


def run(coro):
    return asyncio.run(coro)


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache(4)
        missing = LRUCache.miss_sentinel()
        assert cache.get("a") is missing
        cache.put("a", 1.0)
        assert cache.get("a") == 1.0

    def test_eviction_order(self):
        cache = LRUCache(2)
        missing = LRUCache.miss_sentinel()
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        cache.get("a")  # refresh: b is now oldest
        cache.put("c", 3.0)
        assert cache.get("b") is missing
        assert cache.get("a") == 1.0
        assert cache.get("c") == 3.0

    def test_capacity_zero_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1.0)
        assert cache.get("a") is LRUCache.miss_sentinel()
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)


class TestInvariantParity:
    """predict_invariant is a pure function of each configuration."""

    def test_single_vs_batch_bit_identical(
        self, fitted_predictor, holdout_configs
    ):
        batch = holdout_configs[:40]
        together = fitted_predictor.predict_invariant(batch)
        for index, config in enumerate(batch):
            alone = fitted_predictor.predict_invariant([config])[0]
            assert alone == together[index]

    def test_subset_vs_superset_bit_identical(
        self, fitted_predictor, holdout_configs
    ):
        superset = holdout_configs[:60]
        subset = superset[10:25]
        full = fitted_predictor.predict_invariant(superset)
        part = fitted_predictor.predict_invariant(subset)
        assert np.array_equal(part, full[10:25])

    def test_value_tuples_predict_like_their_configurations(
        self, fitted_predictor, holdout_configs
    ):
        batch = holdout_configs[:40]
        assert np.array_equal(
            fitted_predictor.predict_invariant([c.values() for c in batch]),
            fitted_predictor.predict_invariant(batch),
        )

    def test_close_to_blas_path(self, fitted_predictor, holdout_configs):
        batch = holdout_configs[:40]
        invariant = fitted_predictor.predict_invariant(batch)
        blas = fitted_predictor.predict(batch)
        assert np.allclose(invariant, blas, rtol=1e-12)

    def test_unfitted_rejected(self, cycles_pool):
        from repro.core import ArchitectureCentricPredictor

        unfitted = ArchitectureCentricPredictor(cycles_pool.models())
        with pytest.raises(RuntimeError, match="fitted"):
            unfitted.predict_invariant([])

    def test_heterogeneous_pool_rejected(
        self, fitted_predictor, holdout_configs
    ):
        from repro.core import ArchitectureCentricPredictor

        broken = ArchitectureCentricPredictor(
            fitted_predictor.program_models
        )
        broken._fitted = True
        broken._ensemble_built = True  # lazy build concluded: no stack
        with pytest.raises(RuntimeError, match="stack"):
            broken.predict_invariant(holdout_configs[:2])


class TestBatcher:
    def test_concurrent_results_match_direct_calls(
        self, fitted_predictor, holdout_configs
    ):
        """Coalesced answers == direct single-config predictions, bitwise."""
        batch = holdout_configs[:50]
        direct = fitted_predictor.predict_invariant(batch)

        async def scenario():
            batcher = PredictionBatcher(fitted_predictor, max_batch=16)
            await batcher.start()
            try:
                return await asyncio.gather(
                    *(batcher.predict_one(config) for config in batch)
                )
            finally:
                await batcher.stop()

        served = run(scenario())
        assert np.array_equal(np.array(served), direct)

    def test_requests_actually_coalesce(
        self, fitted_predictor, holdout_configs
    ):
        batch = holdout_configs[:32]

        async def scenario(registry):
            batcher = PredictionBatcher(
                fitted_predictor, max_batch=64, batch_window=0.05
            )
            await batcher.start()
            try:
                await asyncio.gather(
                    *(batcher.predict_one(config) for config in batch)
                )
            finally:
                await batcher.stop()
            histogram = registry.histogram("serve.batch.size")
            assert histogram.count < len(batch)
            assert histogram.max > 1

        with scoped_registry() as registry:
            run(scenario(registry))

    def test_duplicate_configs_coalesce_to_one_forward_row(
        self, fitted_predictor, holdout_configs
    ):
        config = holdout_configs[0]
        expected = float(fitted_predictor.predict_invariant([config])[0])

        async def scenario(registry):
            batcher = PredictionBatcher(
                fitted_predictor, max_batch=64, batch_window=0.05,
            )
            await batcher.start()
            try:
                values = await asyncio.gather(
                    *(batcher.predict_one(config) for _ in range(10))
                )
            finally:
                await batcher.stop()
            assert all(value == expected for value in values)
            # One miss filled the cache; everything else coalesced or hit.
            assert registry.value("serve.cache.misses") == 1

        with scoped_registry() as registry:
            run(scenario(registry))

    def test_cache_hits_skip_the_queue(
        self, fitted_predictor, holdout_configs
    ):
        config = holdout_configs[0]

        async def scenario(registry):
            batcher = PredictionBatcher(fitted_predictor)
            await batcher.start()
            try:
                first = await batcher.predict_one(config)
                second = await batcher.predict_one(config)
            finally:
                await batcher.stop()
            assert first == second
            assert registry.value("serve.cache.hits") == 1
            assert registry.value("serve.cache.misses") == 1

        with scoped_registry() as registry:
            run(scenario(registry))

    def test_saturation_raises(self, holdout_configs):
        """A full queue rejects instead of buffering unboundedly."""
        import threading

        from repro.sim import Metric

        release = threading.Event()

        class SlowPredictor:
            metric = Metric.CYCLES

            @staticmethod
            def predict_invariant(configs):
                release.wait(timeout=30)
                return np.zeros(len(configs))

        async def scenario(registry):
            batcher = PredictionBatcher(
                SlowPredictor(), max_batch=1, batch_window=0.0,
                queue_limit=2, cache_size=0,
            )
            await batcher.start()
            try:
                # First request: the collector takes it off the queue
                # and blocks inside the (stalled) forward pass.
                first = asyncio.ensure_future(
                    batcher.predict_one(holdout_configs[0])
                )
                await asyncio.sleep(0.05)
                # Two more park on the queue (its limit)...
                parked = [
                    asyncio.ensure_future(batcher.predict_one(config))
                    for config in holdout_configs[1:3]
                ]
                await asyncio.sleep(0.05)
                # ... and the next two are refused outright.
                for config in holdout_configs[3:5]:
                    with pytest.raises(ServerSaturated):
                        await batcher.predict_one(config)
                assert (
                    registry.value("serve.rejected", reason="queue-full")
                    == 2
                )
                release.set()
                await asyncio.gather(first, *parked)
            finally:
                release.set()
                await batcher.stop()

        with scoped_registry() as registry:
            run(scenario(registry))

    def test_stop_answers_queued_requests(
        self, fitted_predictor, holdout_configs
    ):
        batch = holdout_configs[:8]

        async def scenario():
            batcher = PredictionBatcher(
                fitted_predictor, batch_window=0.2, max_batch=4
            )
            await batcher.start()
            tasks = [
                asyncio.ensure_future(batcher.predict_one(config))
                for config in batch
            ]
            await asyncio.sleep(0)  # let the puts land
            await batcher.stop()
            values = await asyncio.gather(*tasks)
            assert len(values) == len(batch)
            # After stop, new (uncached) requests are refused.
            with pytest.raises(ServerSaturated):
                await batcher.predict_one(holdout_configs[10])

        run(scenario())

    def test_constructor_validation(self, fitted_predictor):
        with pytest.raises(ValueError):
            PredictionBatcher(fitted_predictor, max_batch=0)
        with pytest.raises(ValueError):
            PredictionBatcher(fitted_predictor, batch_window=-1)
        with pytest.raises(ValueError):
            PredictionBatcher(fitted_predictor, queue_limit=0)


class RowCountingPredictor:
    """Delegates to a fitted predictor, recording each call's size."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.metric = inner.metric
        self.calls = []

    def predict_invariant(self, configs):
        self.calls.append(len(configs))
        return self._inner.predict_invariant(configs)


class TestRequestAccounting:
    """A request is one queue entry; every configuration counts once."""

    def test_mixed_request_order_counters_and_rows(
        self, fitted_predictor, holdout_configs
    ):
        cached, new_a, new_b = (c.values() for c in holdout_configs[:3])
        request = [new_a, cached, new_a, new_b, cached, new_b, new_a]
        direct = fitted_predictor.predict_invariant(request)
        counting = RowCountingPredictor(fitted_predictor)

        async def scenario(registry):
            batcher = PredictionBatcher(counting)
            await batcher.start()
            try:
                await batcher.predict([cached])
                counting.calls.clear()
                hits = registry.value("serve.cache.hits")
                misses = registry.value("serve.cache.misses")
                values = await batcher.predict(request)
            finally:
                await batcher.stop()
            assert values == list(direct)
            assert all(type(value) is float for value in values)
            # Two unique misses cost two forward rows; the two cached
            # copies and the three repeats are hits.
            assert counting.calls == [2]
            assert registry.value("serve.cache.misses") - misses == 2
            assert registry.value("serve.cache.hits") - hits == 5

        with scoped_registry() as registry:
            run(scenario(registry))

    def test_large_request_splits_into_max_batch_forward_calls(
        self, fitted_predictor, holdout_configs
    ):
        request = [c.values() for c in holdout_configs[:50]]
        direct = fitted_predictor.predict_invariant(request)
        counting = RowCountingPredictor(fitted_predictor)

        async def scenario():
            batcher = PredictionBatcher(counting, max_batch=8)
            await batcher.start()
            try:
                return await batcher.predict(request)
            finally:
                await batcher.stop()

        assert np.array_equal(np.array(run(scenario())), direct)
        assert max(counting.calls) <= 8
        assert sum(counting.calls) == len(request)

    def test_one_parked_request_of_any_size_fills_the_queue(
        self, holdout_configs
    ):
        import threading

        from repro.sim import Metric

        release = threading.Event()
        rows = []
        request = [c.values() for c in holdout_configs[:104]]

        class StalledPredictor:
            metric = Metric.CYCLES

            @staticmethod
            def predict_invariant(configs):
                release.wait(timeout=30)
                rows.append(len(configs))
                return np.zeros(len(configs))

        async def scenario(registry):
            batcher = PredictionBatcher(
                StalledPredictor(), max_batch=64, batch_window=0.0,
                queue_limit=1, cache_size=0,
            )
            await batcher.start()
            try:
                # The collector takes the first request and stalls in
                # its forward pass; a 100-config request then parks.
                first = asyncio.ensure_future(batcher.predict(request[:3]))
                await asyncio.sleep(0.05)
                parked = asyncio.ensure_future(batcher.predict(request[3:103]))
                await asyncio.sleep(0.05)
                with pytest.raises(ServerSaturated):
                    await batcher.predict(request[103:104])
                assert (
                    registry.value("serve.rejected", reason="queue-full")
                    == 1
                )
                release.set()
                answers = await asyncio.gather(first, parked)
            finally:
                release.set()
                await batcher.stop()
            assert [len(answer) for answer in answers] == [3, 100]
            # The refused request left no work behind.
            assert sum(rows) == 103

        with scoped_registry() as registry:
            run(scenario(registry))
