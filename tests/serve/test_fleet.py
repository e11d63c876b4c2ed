"""Multi-process fleet tests: shared port, merged telemetry, drain."""

from __future__ import annotations

import socket

import pytest

from repro.obs import scoped_registry
from repro.serve import PredictionClient, ServingFleet

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="the serving fleet needs the fork start method",
)


def _counter_total(registry, name, **labels):
    wanted = set(labels.items())
    total = 0.0
    for metric in registry.snapshot()["metrics"]:
        if metric["name"] != name:
            continue
        if wanted <= {tuple(pair) for pair in metric["labels"]}:
            total += metric["state"]
    return total


@pytest.fixture()
def fleet(fitted_predictor):
    active = []

    def _start(workers=2, **kwargs) -> ServingFleet:
        built = ServingFleet(fitted_predictor, workers, port=0, **kwargs)
        built.start(timeout=90.0)
        active.append(built)
        return built

    yield _start
    for built in active:
        built.stop(timeout=30.0)


class TestFleet:
    def test_both_workers_answer_one_port(self, fleet):
        with scoped_registry():
            started = fleet(workers=2)
            pids = set()
            for _ in range(64):
                # A fresh connection each time so the kernel gets a
                # fresh balancing decision.
                with PredictionClient(
                    "127.0.0.1", started.port, timeout=10.0
                ) as client:
                    health = client.healthz()
                    assert health["status"] == "ok"
                    pids.add(health["pid"])
                if len(pids) == 2:
                    break
            assert len(pids) == 2

    def test_merged_metrics_match_client_counts(self, fleet,
                                                holdout_configs):
        issued = 12
        with scoped_registry() as registry:
            started = fleet(workers=2)
            for index in range(issued):
                with PredictionClient(
                    "127.0.0.1", started.port, timeout=10.0
                ) as client:
                    client.predict_one(holdout_configs[index % 4])
            report = started.stop(timeout=30.0)
            assert report.exit_codes == [0, 0]
            assert report.clean
            # The parent-side merge sees exactly the requests issued:
            # `issued` predicts, each on its own connection.
            predicts = _counter_total(
                registry, "serve.requests", status="200"
            )
            assert predicts == issued

    def test_served_predictions_match_direct(self, fleet,
                                             fitted_predictor,
                                             holdout_configs):
        direct = float(
            fitted_predictor.predict_invariant(holdout_configs[:1])[0]
        )
        with scoped_registry():
            started = fleet(workers=2)
            served = set()
            for _ in range(8):
                with PredictionClient(
                    "127.0.0.1", started.port, timeout=10.0
                ) as client:
                    served.add(client.predict_one(holdout_configs[0]))
        # Whichever worker answered, the bits match the in-process
        # predictor — the exactness contract survives forking.
        assert served == {direct}

    def test_idle_fleet_drains_clean(self, fleet):
        with scoped_registry() as registry:
            started = fleet(workers=2)
            report = started.stop(timeout=30.0)
            assert report.exit_codes == [0, 0]
            assert len(report.snapshots) == 2
            assert all(snap is not None for snap in report.snapshots)
            # The roster gauges land in the parent registry.
            names = {
                metric["name"]
                for metric in registry.snapshot()["metrics"]
            }
        assert "serve.fleet.workers" in names

    def test_stop_is_idempotent(self, fleet):
        with scoped_registry():
            started = fleet(workers=1)
            first = started.stop(timeout=30.0)
            second = started.stop(timeout=30.0)
        assert first is second

    def test_worker_validation(self, fitted_predictor):
        with pytest.raises(ValueError, match="at least one worker"):
            ServingFleet(fitted_predictor, 0)

    def test_missing_reuse_port_is_refused(self, fitted_predictor,
                                           monkeypatch):
        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        with pytest.raises(RuntimeError, match="SO_REUSEPORT"):
            ServingFleet(fitted_predictor, 2)
