"""Admission control: shed load *before* latency collapses.

A saturated queue already answers 503 (:class:`ServerSaturated`), but
by the time the queue is full every queued request is paying the full
backlog's latency.  Admission control refuses work earlier and more
fairly:

* **Per-client token buckets** — each client (the ``X-Client-Id``
  header, else the peer address) gets a refill rate and a burst
  allowance, so one greedy client exhausts *its* bucket instead of
  everyone's queue.
* **A global in-flight cap** — a hard bound on requests concurrently
  inside the server, independent of which clients sent them.

Rejections carry a ``Retry-After`` hint computed from the bucket state:
the time until the next token, rounded up, so a retry at the hint (or
at the header value) finds the token there.  A request refused by the
in-flight cap spends no token.  The client never retries on its own;
it surfaces the hint to the caller.

Everything here is synchronous, allocation-light and driven by an
injectable clock (tests use a fake one); it runs on the event loop, so
no locking — the same single-threaded contract as
:class:`~repro.serve.batching.LRUCache`.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["AdmissionController", "AdmissionDecision", "TokenBucket"]

#: Retry hint when the in-flight cap rejects: there is no bucket to
#: consult, and in-flight work drains quickly.
_INFLIGHT_RETRY_AFTER = 0.5


class TokenBucket:
    """A standard token bucket (``rate`` tokens/second, ``burst`` cap).

    The bucket starts full, so a well-behaved client gets its burst
    immediately; refill is computed lazily from elapsed time, so an
    idle bucket costs nothing.
    """

    __slots__ = ("rate", "burst", "_tokens", "_stamp")

    def __init__(self, rate: float, burst: int) -> None:
        if rate <= 0:
            raise ValueError("the bucket rate must be positive")
        if burst < 1:
            raise ValueError("the bucket burst must be at least 1")
        self.rate = float(rate)
        self.burst = int(burst)
        self._tokens = float(burst)
        self._stamp: Optional[float] = None

    def try_take(self, now: float) -> float:
        """Take one token; returns 0.0 on success, else the seconds
        until one becomes available: a take at ``now`` plus that wait
        succeeds (when nothing else took the token first)."""
        if self._stamp is not None:
            self._tokens = min(
                float(self.burst), self._refilled(now, self._stamp)
            )
        self._stamp = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        wait = (1.0 - self._tokens) / self.rate
        # Rounding can leave the refill at now + wait an ulp short of a
        # whole token; lengthen the wait until the take's own
        # arithmetic reaches one.
        while (short := 1.0 - self._refilled(now + wait, now)) > 0:
            wait += max(2.0 * short / self.rate, math.ulp(now + wait))
        return wait

    def _refilled(self, now: float, stamp: float) -> float:
        return self._tokens + (now - stamp) * self.rate


@dataclass(frozen=True)
class AdmissionDecision:
    """The verdict for one request."""

    admitted: bool
    reason: str = ""           # "quota" | "inflight-cap" when refused
    retry_after: float = 0.0   # seconds; the 503 Retry-After hint

    @property
    def retry_after_header(self) -> str:
        """:attr:`retry_after` as a ``Retry-After`` value in hundredths
        of a second, rounded up so a retry at the value is admitted."""
        cents = math.ceil(self.retry_after * 100)
        if cents / 100 < self.retry_after:
            cents += 1
        return f"{cents / 100:.2f}"


_ADMITTED = AdmissionDecision(admitted=True)


class AdmissionController:
    """Per-client quotas plus a global in-flight cap.

    Args:
        max_inflight: Most requests concurrently admitted; 0 disables
            the cap.
        client_rate: Per-client token refill rate in requests/second;
            0 disables quotas.
        client_burst: Per-client burst allowance (default: the refill
            rate rounded up, so a client can always spend one second
            of quota at once).
        max_clients: Most client buckets kept; the least recently seen
            bucket is evicted past this, bounding memory against
            client-id cardinality abuse (an evicted client simply
            starts a fresh, full bucket).
        clock: Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        max_inflight: int = 0,
        client_rate: float = 0.0,
        client_burst: int = 0,
        max_clients: int = 1024,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_inflight < 0:
            raise ValueError("max_inflight must be non-negative")
        if client_rate < 0:
            raise ValueError("client_rate must be non-negative")
        if max_clients < 1:
            raise ValueError("max_clients must be at least 1")
        self.max_inflight = int(max_inflight)
        self.client_rate = float(client_rate)
        self.client_burst = (
            int(client_burst) if client_burst > 0
            else max(1, math.ceil(client_rate))
        )
        self.max_clients = int(max_clients)
        self._clock = clock
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self._inflight = 0

    @property
    def inflight(self) -> int:
        """Requests admitted and not yet released."""
        return self._inflight

    def try_admit(self, client_id: str) -> AdmissionDecision:
        """Admit one request for ``client_id`` (pair with
        :meth:`release` in a ``finally``) or refuse with a hint.

        The in-flight cap is checked first, so a request it refuses
        leaves the client's bucket untouched."""
        if self.max_inflight and self._inflight >= self.max_inflight:
            return AdmissionDecision(
                admitted=False,
                reason="inflight-cap",
                retry_after=_INFLIGHT_RETRY_AFTER,
            )
        if self.client_rate > 0:
            wait = self._bucket(client_id).try_take(self._clock())
            if wait > 0:
                return AdmissionDecision(
                    admitted=False, reason="quota", retry_after=wait
                )
        self._inflight += 1
        return _ADMITTED

    def release(self) -> None:
        """Return an admitted request's in-flight slot."""
        self._inflight = max(0, self._inflight - 1)

    def _bucket(self, client_id: str) -> TokenBucket:
        bucket = self._buckets.get(client_id)
        if bucket is None:
            bucket = TokenBucket(self.client_rate, self.client_burst)
            self._buckets[client_id] = bucket
        self._buckets.move_to_end(client_id)
        while len(self._buckets) > self.max_clients:
            self._buckets.popitem(last=False)
        return bucket
