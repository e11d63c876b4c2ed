"""Graceful drain under load: in-flight work completes, new work sheds.

The SIGTERM contract a supervisor (and the fleet parent) relies on:
requests already inside the server — parked predictions *and*
executor-side searches — are answered during :meth:`drain`, while new
arrivals on established keep-alive connections get a clean 503 instead
of a reset.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import scoped_registry
from repro.serve import PredictionClient, ServerError, ServingFleet


class _SlowPredictor:
    """A fitted predictor whose every forward pass first sleeps
    ``delay`` seconds; everything else is delegated unchanged."""

    def __init__(self, inner, delay: float) -> None:
        self._inner = inner
        self._delay = delay

    def predict_invariant(self, rows):
        time.sleep(self._delay)
        return self._inner.predict_invariant(rows)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestSingleServerDrain:
    def test_inflight_predict_and_search_complete(
        self, harness, fitted_predictor, holdout_configs
    ):
        # A slow forward pass keeps the prediction in flight long
        # enough for drain to start while it runs; cache off so the
        # request cannot sidestep the queue.
        server = harness(
            predictor=_SlowPredictor(fitted_predictor, 0.4), cache_size=0
        )
        outcomes = {}

        def slow_predict():
            with server.client(timeout=30) as client:
                outcomes["predict"] = client.predict_one(
                    holdout_configs[0]
                )

        def slow_search():
            with server.client(timeout=30) as client:
                outcomes["search"] = client.search(
                    agent="hill", budget=24, seed=3
                )

        # A keep-alive connection established *before* drain begins —
        # its next request must be refused, not reset.
        bystander = server.client(timeout=10)
        assert bystander.healthz()["status"] == "ok"

        workers = [
            threading.Thread(target=slow_predict, daemon=True),
            threading.Thread(target=slow_search, daemon=True),
        ]
        for worker in workers:
            worker.start()
        time.sleep(0.15)  # both requests are now inside the server

        drainer = threading.Thread(target=server.drain, daemon=True)
        drainer.start()
        time.sleep(0.05)  # drain has begun, in-flight work still runs

        with pytest.raises(ServerError) as excinfo:
            bystander.predict_one(holdout_configs[1])
        assert excinfo.value.status == 503
        bystander.close()

        drainer.join(timeout=60)
        assert not drainer.is_alive()
        for worker in workers:
            worker.join(timeout=60)
        # Both in-flight requests finished with real answers.
        assert outcomes["predict"] > 0
        assert outcomes["search"]["best"]


class TestFleetDrain:
    def test_fleet_drains_inflight_and_sheds_new(
        self, fitted_predictor, holdout_configs
    ):
        with scoped_registry():
            fleet = ServingFleet(
                _SlowPredictor(fitted_predictor, 0.5), 2, port=0,
                cache_size=0,
            )
            fleet.start(timeout=90.0)
            try:
                # Idle keep-alive connections into the fleet, opened
                # before the drain (enough that both workers hold some).
                bystanders = []
                for _ in range(6):
                    client = PredictionClient(
                        "127.0.0.1", fleet.port, timeout=10.0
                    )
                    client.healthz()
                    bystanders.append(client)

                def slow_predict(index):
                    with PredictionClient(
                        "127.0.0.1", fleet.port, timeout=30.0
                    ) as client:
                        return client.predict_one(
                            holdout_configs[index % len(holdout_configs)]
                        )

                with ThreadPoolExecutor(max_workers=4) as pool:
                    inflight = [
                        pool.submit(slow_predict, i) for i in range(4)
                    ]
                    time.sleep(0.2)  # requests are inside the workers
                    fleet.begin_drain()
                    time.sleep(0.1)

                    refusals = 0
                    for client in bystanders:
                        try:
                            client.predict_one(holdout_configs[0])
                        except ServerError as error:
                            assert error.status == 503
                            refusals += 1
                        except (ConnectionError, OSError):
                            # The worker finished draining before this
                            # bystander's request landed.
                            pass
                        finally:
                            client.close()
                    values = [future.result() for future in inflight]

                # Every in-flight request completed with a real
                # prediction, fleet-wide.
                assert len(values) == 4
                assert all(value > 0 for value in values)
                assert refusals >= 1
            finally:
                report = fleet.stop(timeout=60.0)
        assert report.exit_codes == [0, 0]
