"""Admission control: token buckets, the in-flight cap, and the
503 + Retry-After surface clients actually see."""

from __future__ import annotations

import pytest

from repro.serve import (
    AdmissionController,
    PredictionClient,
    ServerError,
    TokenBucket,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refusal(self):
        bucket = TokenBucket(rate=1.0, burst=3)
        assert [bucket.try_take(0.0) for _ in range(3)] == [0.0, 0.0, 0.0]
        wait = bucket.try_take(0.0)
        assert wait == pytest.approx(1.0)

    def test_lazy_refill(self):
        bucket = TokenBucket(rate=2.0, burst=1)
        assert bucket.try_take(0.0) == 0.0
        assert bucket.try_take(0.0) > 0.0
        # Half a second refills one token at 2/s.
        assert bucket.try_take(1.0) == 0.0

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2)
        bucket.try_take(0.0)
        bucket.try_take(0.0)
        # A long idle stretch must not bank more than `burst` tokens.
        assert bucket.try_take(100.0) == 0.0
        assert bucket.try_take(100.0) == 0.0
        assert bucket.try_take(100.0) > 0.0

    def test_retry_hint_shrinks_with_refill(self):
        bucket = TokenBucket(rate=1.0, burst=1)
        bucket.try_take(0.0)
        first = bucket.try_take(0.0)
        later = bucket.try_take(0.5)
        assert 0 < later < first

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


class TestAdmissionController:
    def test_quota_is_per_client(self):
        clock = FakeClock()
        admission = AdmissionController(
            client_rate=1.0, client_burst=1, clock=clock
        )
        assert admission.try_admit("alice").admitted
        refused = admission.try_admit("alice")
        assert not refused.admitted
        assert refused.reason == "quota"
        assert refused.retry_after > 0
        # Bob's bucket is untouched by Alice's spending.
        assert admission.try_admit("bob").admitted

    def test_quota_refills(self):
        clock = FakeClock()
        admission = AdmissionController(
            client_rate=2.0, client_burst=1, clock=clock
        )
        assert admission.try_admit("alice").admitted
        assert not admission.try_admit("alice").admitted
        clock.advance(0.6)
        assert admission.try_admit("alice").admitted

    def test_inflight_cap_and_release(self):
        admission = AdmissionController(max_inflight=2)
        assert admission.try_admit("a").admitted
        assert admission.try_admit("b").admitted
        refused = admission.try_admit("c")
        assert not refused.admitted
        assert refused.reason == "inflight-cap"
        assert refused.retry_after > 0
        admission.release()
        assert admission.inflight == 1
        assert admission.try_admit("c").admitted

    def test_refused_quota_does_not_consume_inflight(self):
        clock = FakeClock()
        admission = AdmissionController(
            max_inflight=8, client_rate=1.0, client_burst=1, clock=clock
        )
        admission.try_admit("alice")
        before = admission.inflight
        assert not admission.try_admit("alice").admitted
        assert admission.inflight == before

    def test_client_bucket_lru_eviction(self):
        clock = FakeClock()
        admission = AdmissionController(
            client_rate=1.0, client_burst=1, max_clients=2, clock=clock
        )
        assert admission.try_admit("alice").admitted
        assert admission.try_admit("bob").admitted
        # Carol's arrival evicts Alice (least recently seen), so Alice
        # comes back to a fresh, full bucket.
        assert admission.try_admit("carol").admitted
        assert admission.try_admit("alice").admitted

    def test_burst_defaults_to_rate_ceiling(self):
        admission = AdmissionController(client_rate=2.5)
        assert admission.client_burst == 3


class TestHTTPSurface:
    def test_quota_503_carries_retry_after_and_request_id(self, harness):
        started = harness(
            admission=AdmissionController(
                client_rate=0.001, client_burst=1
            ),
        )
        with started.client() as client:
            client.client_id = "greedy"
            assert client.predict_one({}) > 0
            with pytest.raises(ServerError) as excinfo:
                client.predict_one({})
        error = excinfo.value
        assert error.status == 503
        assert error.retry_after is not None and error.retry_after > 0
        assert error.request_id
        assert "quota" in error.message

    def test_clients_are_isolated_by_header(self, harness):
        started = harness(
            admission=AdmissionController(
                client_rate=0.001, client_burst=1
            ),
        )
        first = PredictionClient(
            "127.0.0.1", started.port, client_id="first"
        )
        second = PredictionClient(
            "127.0.0.1", started.port, client_id="second"
        )
        with first, second:
            assert first.predict_one({}) > 0
            # First exhausted its bucket; second still has its burst.
            with pytest.raises(ServerError):
                first.predict_one({})
            assert second.predict_one({}) > 0

    def test_client_ids_keep_their_case(self, harness):
        started = harness(
            admission=AdmissionController(
                client_rate=0.001, client_burst=1
            ),
        )
        upper = PredictionClient(
            "127.0.0.1", started.port, client_id="Alice"
        )
        lower = PredictionClient(
            "127.0.0.1", started.port, client_id="alice"
        )
        with upper, lower:
            assert upper.predict_one({}) > 0
            with pytest.raises(ServerError):
                upper.predict_one({})
            # "alice" is a different client with its own full bucket.
            assert lower.predict_one({}) > 0

    def test_health_and_metrics_are_never_shed(self, harness):
        started = harness(
            admission=AdmissionController(
                client_rate=0.001, client_burst=1
            ),
        )
        with started.client() as client:
            client.client_id = "greedy"
            client.predict_one({})
            with pytest.raises(ServerError):
                client.predict_one({})
            # The operational endpoints bypass admission entirely.
            assert client.healthz()["status"] == "ok"
            assert "serve_requests" in client.metrics_text()

    def test_shed_counter_labels_reason(self, harness):
        from repro.obs import scoped_registry

        # A scoped registry so rejections from other tests in this
        # process do not leak into the asserted count.
        with scoped_registry():
            started = harness(
                admission=AdmissionController(
                    client_rate=0.001, client_burst=1
                ),
            )
            with started.client() as client:
                client.client_id = "greedy"
                client.predict_one({})
                for _ in range(3):
                    with pytest.raises(ServerError):
                        client.predict_one({})
                text = client.metrics_text()
        assert 'serve_rejected{reason="quota"} 3' in text
