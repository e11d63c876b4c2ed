"""Admission control: token buckets, the in-flight cap, and the
503 + Retry-After surface clients actually see."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    AdmissionController,
    AdmissionDecision,
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

    def test_cap_refusal_spends_no_token(self):
        clock = FakeClock()
        admission = AdmissionController(
            max_inflight=1, client_rate=1.0, client_burst=2, clock=clock
        )
        assert admission.try_admit("alice").admitted
        assert admission.try_admit("alice").reason == "inflight-cap"
        admission.release()
        # The bucket still holds the second burst token.
        assert admission.try_admit("alice").admitted

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


rates = st.floats(min_value=1e-3, max_value=1e3)
bursts = st.integers(min_value=1, max_value=8)
#: Non-decreasing clock readings, as gaps from a start time.
gaps = st.lists(
    st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=60
)
starts = st.floats(min_value=0.0, max_value=1e6)


def _times(start, steps):
    now, times = start, []
    for step in steps:
        now += step
        times.append(now)
    return times


def _drained(rate, burst, start):
    """A bucket emptied at ``start``, and the wait its refusal hinted."""
    bucket = TokenBucket(rate, burst)
    while (wait := bucket.try_take(start)) == 0.0:
        pass
    return bucket, wait


class TestAdmissionProperties:
    @given(rate=rates, burst=bursts, start=starts, steps=gaps)
    @settings(max_examples=200, deadline=None)
    def test_tokens_stay_within_zero_and_burst(self, rate, burst, start,
                                               steps):
        bucket = TokenBucket(rate, burst)
        for now in _times(start, steps):
            bucket.try_take(now)
            assert 0.0 <= bucket._tokens <= burst

    @given(rate=rates, burst=bursts, start=starts, steps=gaps)
    @settings(max_examples=200, deadline=None)
    def test_admits_in_any_window_respect_the_rate(self, rate, burst,
                                                   start, steps):
        bucket = TokenBucket(rate, burst)
        admitted = [
            now for now in _times(start, steps) if bucket.try_take(now) == 0
        ]
        for first in range(len(admitted)):
            for last in range(first, len(admitted)):
                span = admitted[last] - admitted[first]
                # 1e-9 covers float rounding in the lazy refill.
                assert last - first + 1 <= burst + rate * span + 1e-9

    @given(
        cap=st.integers(min_value=1, max_value=4),
        ops=st.lists(st.sampled_from(["admit", "release"]), max_size=80),
    )
    @settings(max_examples=200, deadline=None)
    def test_inflight_stays_within_zero_and_the_cap(self, cap, ops):
        admission = AdmissionController(max_inflight=cap)
        for op in ops:
            if op == "admit":
                admission.try_admit("client")
            else:
                admission.release()
            assert 0 <= admission.inflight <= cap

    @given(rate=rates, burst=bursts, start=starts, steps=gaps,
           client=st.sampled_from(["a", "b", "c"]))
    @settings(max_examples=200, deadline=None)
    def test_cap_refusal_leaves_every_bucket_unchanged(
        self, rate, burst, start, steps, client
    ):
        clock = FakeClock()
        admission = AdmissionController(
            max_inflight=2, client_rate=rate, client_burst=burst,
            clock=clock,
        )
        for index, now in enumerate(_times(start, steps)):
            clock.now = now
            admission.try_admit("abc"[index % 3])

        def state():
            return [
                (name, bucket._tokens, bucket._stamp)
                for name, bucket in admission._buckets.items()
            ]

        before = state()
        decision = admission.try_admit(client)
        if decision.reason == "inflight-cap":
            assert state() == before

    @given(rate=rates, burst=bursts, start=starts)
    @settings(max_examples=500, deadline=None)
    def test_retry_at_the_hint_is_admitted(self, rate, burst, start):
        bucket, wait = _drained(rate, burst, start)
        assert wait > 0
        assert bucket.try_take(start + wait) == 0.0

    @given(rate=rates, burst=bursts, start=starts)
    @settings(max_examples=500, deadline=None)
    def test_retry_at_the_header_value_is_admitted(self, rate, burst,
                                                   start):
        bucket, wait = _drained(rate, burst, start)
        header = AdmissionDecision(
            admitted=False, reason="quota", retry_after=wait
        ).retry_after_header
        assert float(header) >= wait
        assert bucket.try_take(start + float(header)) == 0.0


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
