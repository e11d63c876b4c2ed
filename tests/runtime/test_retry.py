"""Tests for retry, backoff, timeout guard and the circuit breaker."""

import pytest

from repro.runtime import (
    CircuitBreaker,
    CircuitOpenError,
    RetryPolicy,
    SimulationError,
    SimulationTimeoutError,
    VirtualClock,
    call_with_retry,
)


class _Flaky:
    """Fails the first ``failures`` calls, then succeeds."""

    def __init__(self, failures, error=SimulationError):
        self.failures = failures
        self.error = error
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error(f"boom {self.calls}")
        return "ok"


class TestRetryPolicy:
    def test_delay_grows_exponentially(self):
        import numpy as np

        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, jitter=0.0)
        rng = np.random.default_rng(0)
        assert policy.delay(1, rng) == pytest.approx(1.0)
        assert policy.delay(2, rng) == pytest.approx(2.0)
        assert policy.delay(3, rng) == pytest.approx(4.0)

    def test_jitter_bounded(self):
        import numpy as np

        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.25)
        rng = np.random.default_rng(0)
        delays = [policy.delay(1, rng) for _ in range(200)]
        assert all(0.75 <= d <= 1.25 for d in delays)
        assert max(delays) > min(delays)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)


class TestCallWithRetry:
    def test_transient_failure_retried(self):
        fn = _Flaky(2)
        result = call_with_retry(
            fn, RetryPolicy(max_attempts=4, base_delay=0.0)
        )
        assert result == "ok"
        assert fn.calls == 3

    def test_attempts_exhausted_raises_last_error(self):
        fn = _Flaky(10)
        with pytest.raises(SimulationError, match="boom 3"):
            call_with_retry(fn, RetryPolicy(max_attempts=3, base_delay=0.0))

    def test_non_simulation_errors_wrapped(self):
        def fn():
            raise RuntimeError("backend went away")

        with pytest.raises(SimulationError, match="backend went away"):
            call_with_retry(fn, RetryPolicy(max_attempts=2, base_delay=0.0))

    def test_backoff_is_deterministic_per_seed(self):
        sleeps_a, sleeps_b, sleeps_c = [], [], []
        for sleeps, seed in ((sleeps_a, 1), (sleeps_b, 1), (sleeps_c, 2)):
            with pytest.raises(SimulationError):
                call_with_retry(
                    _Flaky(10),
                    RetryPolicy(max_attempts=4, base_delay=0.5),
                    seed=seed,
                    sleep=sleeps.append,
                )
        assert sleeps_a == sleeps_b
        assert sleeps_a != sleeps_c
        assert len(sleeps_a) == 3  # no sleep after the final attempt

    def test_timeout_guard_discards_slow_call(self):
        clock = VirtualClock()

        def slow():
            clock.sleep(90.0)
            return "late"

        with pytest.raises(SimulationTimeoutError):
            call_with_retry(
                slow,
                RetryPolicy(max_attempts=2, base_delay=0.0, timeout=30.0),
                sleep=clock.sleep,
                clock=clock,
            )

    def test_validate_failure_counts_as_attempt(self):
        calls = []

        def fn():
            calls.append(1)
            return "tainted" if len(calls) < 3 else "clean"

        def validate(value):
            if value == "tainted":
                raise SimulationError("corrupt")
            return value

        result = call_with_retry(
            fn, RetryPolicy(max_attempts=4, base_delay=0.0),
            validate=validate,
        )
        assert result == "clean"
        assert len(calls) == 3


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.open
        with pytest.raises(CircuitOpenError):
            breaker.check()

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert not breaker.open
        assert breaker.total_failures == 3

    def test_open_breaker_fails_fast(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure()
        fn = _Flaky(0)
        with pytest.raises(CircuitOpenError):
            call_with_retry(
                fn, RetryPolicy(max_attempts=3, base_delay=0.0),
                breaker=breaker,
            )
        assert fn.calls == 0  # never even attempted

    def test_breaker_updated_by_retry_loop(self):
        breaker = CircuitBreaker(failure_threshold=2)
        with pytest.raises(SimulationError):
            call_with_retry(
                _Flaky(10),
                RetryPolicy(max_attempts=5, base_delay=0.0),
                breaker=breaker,
            )
        assert breaker.open
        assert breaker.total_failures == 2  # loop stops once it trips

    def test_manual_reset_closes(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure()
        breaker.reset()
        assert not breaker.open
