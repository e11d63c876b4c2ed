"""Retry with exponential backoff, timeouts and a circuit breaker.

One flaky backend call must cost one retry, not one campaign.  This
module wraps a single backend invocation in the classic resilience
trio:

* **retry with exponential backoff + jitter** — transient failures are
  retried up to ``max_attempts`` times with deterministically seeded
  jitter, so two runs with the same seed back off identically;
* **a per-call timeout guard** — a call that stalls past
  ``timeout`` seconds is discarded and counted as a failure even though
  it eventually returned;
* **a circuit breaker** — after K *consecutive* failures the breaker
  trips and further calls fail fast with :class:`CircuitOpenError`
  instead of hammering a downed backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

import numpy as np

from repro.obs import get_logger, get_registry

from .backend import SimulationError

T = TypeVar("T")

_log = get_logger(__name__)


class SimulationTimeoutError(SimulationError):
    """A backend call exceeded the per-call timeout."""


class CircuitOpenError(SimulationError):
    """The circuit breaker is open; the call was not attempted."""


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the per-call retry loop.

    Attributes:
        max_attempts: Total tries per call (first attempt included).
        base_delay: Backoff before the second attempt (seconds).
        multiplier: Backoff growth factor per further attempt.
        jitter: Uniform jitter as a fraction of the delay (0.25 means
            the actual delay is drawn from [0.75d, 1.25d]).
        timeout: Per-call wall-clock budget in seconds; ``None``
            disables the guard.
    """

    max_attempts: int = 4
    base_delay: float = 0.25
    multiplier: float = 2.0
    jitter: float = 0.25
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0:
            raise ValueError("base_delay must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")

    def delay(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before retry number ``attempt`` (1-based), jittered."""
        base = self.base_delay * self.multiplier ** (attempt - 1)
        if self.jitter == 0.0:
            return base
        spread = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return base * spread


class CircuitBreaker:
    """Trips open after K consecutive failures; a success resets it.

    State is inspectable after a run — :attr:`state` reads ``"open"``
    or ``"closed"``, :attr:`trips` counts how many times the breaker
    opened — and every open/close transition is logged and counted in
    the metrics registry, so a campaign that went dark explains itself.

    Args:
        failure_threshold: Consecutive failures that open the circuit.
    """

    def __init__(self, failure_threshold: int = 8) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        self.failure_threshold = failure_threshold
        self.consecutive_failures = 0
        self.total_failures = 0
        self.trips = 0

    @property
    def open(self) -> bool:
        """True once tripped (further calls must fail fast)."""
        return self.consecutive_failures >= self.failure_threshold

    @property
    def state(self) -> str:
        """``"open"`` or ``"closed"`` — the breaker's current state."""
        return "open" if self.open else "closed"

    def check(self) -> None:
        """Raise :class:`CircuitOpenError` if the circuit is open."""
        if self.open:
            raise CircuitOpenError(
                f"circuit breaker open after "
                f"{self.consecutive_failures} consecutive failures"
            )

    def record_success(self) -> None:
        """Reset the consecutive-failure count after a clean call."""
        self.consecutive_failures = 0

    def record_failure(self) -> None:
        """Count one more failure; the breaker opens at the threshold."""
        self.consecutive_failures += 1
        self.total_failures += 1
        if self.consecutive_failures == self.failure_threshold:
            self.trips += 1
            get_registry().counter("breaker.trips").inc()
            get_registry().gauge("breaker.open").set(1)
            _log.warning(
                "circuit breaker opened after %d consecutive failures",
                self.consecutive_failures,
                extra={"event": "breaker.open",
                       "failures": self.consecutive_failures},
            )

    def reset(self) -> None:
        """Close the circuit manually (e.g. after replacing the backend)."""
        was_open = self.open
        self.consecutive_failures = 0
        if was_open:
            get_registry().counter("breaker.resets").inc()
            get_registry().gauge("breaker.open").set(0)
            _log.info(
                "circuit breaker reset to closed",
                extra={"event": "breaker.reset"},
            )


def call_with_retry(
    fn: Callable[[], T],
    policy: Optional[RetryPolicy] = None,
    *,
    seed: int = 0,
    breaker: Optional[CircuitBreaker] = None,
    validate: Optional[Callable[[T], T]] = None,
    sleep: Optional[Callable[[float], None]] = None,
    clock: Optional[Callable[[], float]] = None,
) -> T:
    """Invoke ``fn`` under the retry/timeout/breaker policy.

    Args:
        fn: The zero-argument call (usually a bound backend batch).
        policy: Retry policy (defaults to :class:`RetryPolicy()`).
        seed: Seed of the jitter stream — same seed, same backoff.
        breaker: Optional shared circuit breaker; checked before every
            attempt and updated after each outcome.
        validate: Optional check applied to a successful return value;
            raising from it counts as a failed attempt (used to treat
            corrupted results exactly like exceptions).
        sleep: Sleep hook (defaults to :func:`time.sleep`).
        clock: Monotonic clock hook for the timeout guard (defaults to
            :func:`time.monotonic`).

    Returns:
        ``fn()``'s value from the first attempt that succeeds, passes
        ``validate`` and beats the timeout.

    Raises:
        CircuitOpenError: immediately once the breaker is open.
        SimulationError: the last failure once attempts are exhausted.
    """
    policy = policy if policy is not None else RetryPolicy()
    sleep = sleep if sleep is not None else time.sleep
    clock = clock if clock is not None else time.monotonic
    rng = np.random.default_rng(seed)
    registry = get_registry()

    last_error: Optional[Exception] = None
    for attempt in range(policy.max_attempts):
        if breaker is not None:
            breaker.check()
        registry.counter("retry.attempts").inc()
        start = clock()
        try:
            result = fn()
            elapsed = clock() - start
            if policy.timeout is not None and elapsed > policy.timeout:
                raise SimulationTimeoutError(
                    f"call took {elapsed:.1f}s, budget was "
                    f"{policy.timeout:.1f}s"
                )
            if validate is not None:
                result = validate(result)
        except Exception as error:  # noqa: BLE001 — every failure retries
            last_error = error
            registry.counter("retry.failures").inc()
            if breaker is not None:
                breaker.record_failure()
                if breaker.open:
                    break
            if attempt + 1 < policy.max_attempts:
                delay = policy.delay(attempt + 1, rng)
                registry.counter("retry.retries").inc()
                _log.debug(
                    "attempt %d/%d failed (%s); retrying in %.3fs",
                    attempt + 1, policy.max_attempts, error, delay,
                    extra={"event": "retry.backoff",
                           "attempt": attempt + 1, "delay": delay},
                )
                sleep(delay)
            continue
        if breaker is not None:
            breaker.record_success()
        return result

    assert last_error is not None
    registry.counter("retry.exhausted").inc()
    _log.warning(
        "call failed permanently after %d attempt(s): %s",
        min(policy.max_attempts, int(attempt) + 1), last_error,
        extra={"event": "retry.exhausted", "error": str(last_error)},
    )
    if isinstance(last_error, SimulationError):
        raise last_error
    raise SimulationError(
        f"call failed after {policy.max_attempts} attempts: {last_error}"
    ) from last_error
