"""The benchmark's own open-loop HTTP load generator.

One process drives ``CONNECTIONS`` keep-alive connections from two
threads: one sends, one receives (on a two-core machine, two of each
is the budget for the whole generator).  Arrival times are drawn
before a stage starts (Poisson, seeded) and the request bytes are built
before it too.

The loop is open: a request falls due at its scheduled time whether or
not earlier ones were answered.  Each connection carries one request at
a time, like an independent client; a request that falls due while
every connection is busy waits in the generator's queue and goes out on
the first connection to free up.  Latency runs from the scheduled time,
so that wait — and any stall of the server that caused it — is counted.
Response bodies are kept raw and checked only after the stage, so
checking never slows the generator.

The generator reports on its own health: how late it noticed requests
falling due (``late_ms``, not counting the queue wait) and how much of a
core it burned (``cpu_frac``).  A stage where either is high measured
the generator, not the server.
"""

from __future__ import annotations

import collections
import gc
import math
import selectors
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

#: Keep-alive connections per stage (at most ``nproc`` on a 2-core host).
CONNECTIONS = 2

#: A stage whose generator noticed its 99th-percentile request due later
#: than this, or burned more than ``CPU_LIMIT`` of a core,
#: measured the generator rather than the server.
LATE_LIMIT_MS = 1.0
CPU_LIMIT = 0.8


def build_request(path: str, body: bytes) -> bytes:
    """Serialise one keep-alive POST request."""
    head = (
        f"POST {path} HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def poisson_arrivals(rate: float, duration: float, seed: int) -> np.ndarray:
    """Arrival offsets (seconds) of a Poisson process over ``duration``."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng(seed)
    expected = rate * duration
    count = int(expected + 8.0 * math.sqrt(expected) + 16)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    return offsets[offsets < duration]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; NaN for an empty sample."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return math.nan
    return float(np.percentile(values, q))


@dataclass
class Stage:
    """Everything one open-loop stage observed, timed from its start.

    ``due`` is when the sender noticed a request falling due, ``sent``
    when it was written (later if it queued for a free connection), and
    ``status`` the HTTP status, 0 when the transport failed or no answer
    came before the stage's drain deadline.
    """

    rate: float
    duration: float
    scheduled: np.ndarray
    picks: np.ndarray
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    status: np.ndarray
    bodies: List[Optional[bytes]]
    cpu_s: float
    wall_s: float

    @property
    def attempted(self) -> int:
        return int(self.scheduled.size)

    @property
    def ok(self) -> np.ndarray:
        return self.status == 200

    @property
    def failed(self) -> int:
        return int(np.count_nonzero(~self.ok))

    @property
    def latency_ms(self) -> np.ndarray:
        """Latency of each answered request, from its scheduled time."""
        return (self.done[self.ok] - self.scheduled[self.ok]) * 1e3

    @property
    def service_ms(self) -> np.ndarray:
        """Time each answered request spent on the wire and server."""
        return (self.done[self.ok] - self.sent[self.ok]) * 1e3

    @property
    def late_ms(self) -> np.ndarray:
        """How late the sender noticed each request fall due."""
        late = (self.due - self.scheduled) * 1e3
        return late[np.isfinite(late)]

    @property
    def cpu_frac(self) -> float:
        return self.cpu_s / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def generator_bound(self) -> bool:
        """True when the generator, not the server, limited the stage."""
        return (
            percentile(self.late_ms, 99) > LATE_LIMIT_MS
            or self.cpu_frac > CPU_LIMIT
        )

    def tail_ok(self, q: float, limit_ms: float) -> bool:
        """No failures and the ``q``-th percentile within ``limit_ms``.

        A request that failed or never came back misses every limit.
        """
        if self.failed:
            return False
        return percentile(self.latency_ms, q) <= limit_ms

    def summary(self) -> dict:
        latency = self.latency_ms
        return {
            "rate": self.rate,
            "duration_s": self.duration,
            "attempted": self.attempted,
            "failed": self.failed,
            **{f"p{q}_ms": percentile(latency, q) for q in (50, 90, 95, 99)},
            "late_p99_ms": percentile(self.late_ms, 99),
            "cpu_frac": self.cpu_frac,
            "generator_bound": self.generator_bound,
        }


def _parse_responses(buffer: bytearray):
    """Pop every complete response off ``buffer``: ``[(status, body)]``."""
    out = []
    while True:
        head_end = buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return out
        length = 0
        for line in bytes(buffer[:head_end]).split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        stop = head_end + 4 + length
        if len(buffer) < stop:
            return out
        out.append((int(buffer[9:12]), bytes(buffer[head_end + 4:stop])))
        del buffer[:stop]


def run_stage(
    host: str,
    port: int,
    requests: Sequence[bytes],
    picks: np.ndarray,
    arrivals: np.ndarray,
    rate: float,
    duration: float,
    drain_s: float,
) -> Stage:
    """Replay one open-loop stage: request ``picks[i]`` at ``arrivals[i]``.

    The sender thread sleeps until each arrival (``time.sleep`` is
    precise to tens of microseconds; an asyncio loop wakes on whole
    milliseconds).  Waits at most ``drain_s`` after the last arrival for
    answers; a request unanswered then counts as failed (status 0).
    """
    count = int(arrivals.size)
    stage = Stage(
        rate=rate,
        duration=duration,
        scheduled=np.asarray(arrivals, dtype=float),
        picks=np.asarray(picks[:count]),
        due=np.full(count, np.nan),
        sent=np.full(count, np.nan),
        done=np.full(count, np.nan),
        status=np.zeros(count, dtype=int),
        bodies=[None] * count,
        cpu_s=0.0,
        wall_s=0.0,
    )
    sockets = []
    for _ in range(CONNECTIONS):
        sock = socket.create_connection((host, port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sockets.append(sock)
    lock = threading.Lock()
    queue: collections.deque = collections.deque()
    in_flight: List[Optional[int]] = [None] * len(sockets)
    origin = time.perf_counter() + 0.005

    def write(slot: int, index: int) -> None:
        """Send request ``index`` on idle connection ``slot`` (lock held)."""
        in_flight[slot] = index
        stage.sent[index] = time.perf_counter() - origin
        sockets[slot].sendall(requests[int(stage.picks[index])])

    def send() -> None:
        try:
            for index in range(count):
                delay = origin + stage.scheduled[index] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                stage.due[index] = time.perf_counter() - origin
                with lock:
                    if queue or None not in in_flight:
                        queue.append(index)
                    else:
                        write(in_flight.index(None), index)
        except OSError:
            pass  # a connection died; what was not answered failed

    sender = threading.Thread(target=send, name="loadgen-send", daemon=True)
    selector = selectors.DefaultSelector()
    buffers = [bytearray() for _ in sockets]
    for slot, sock in enumerate(sockets):
        selector.register(sock, selectors.EVENT_READ, slot)
    deadline = (stage.scheduled[-1] if count else 0.0) + drain_s
    # A collection pass over the caller's heap holds the GIL for
    # milliseconds and would make the sender late; collect afterwards.
    collecting = gc.isenabled()
    gc.disable()
    cpu0 = time.process_time()
    sender.start()
    try:
        while time.perf_counter() - origin < deadline:
            with lock:
                idle = not queue and all(i is None for i in in_flight)
            if idle and not sender.is_alive():
                break
            for key, _ in selector.select(timeout=0.02):
                slot = key.data
                try:
                    chunk = sockets[slot].recv(1 << 16)
                except OSError:
                    chunk = b""
                if not chunk:
                    selector.unregister(sockets[slot])
                    continue
                buffers[slot] += chunk
                for status, body in _parse_responses(buffers[slot]):
                    now = time.perf_counter() - origin
                    with lock:
                        index = in_flight[slot]
                        stage.done[index] = now
                        stage.status[index] = status
                        stage.bodies[index] = body
                        in_flight[slot] = None
                        if queue:
                            try:
                                write(slot, queue.popleft())
                            except OSError:
                                pass  # unanswered, so it counts as failed
    finally:
        stage.wall_s = time.perf_counter() - origin
        stage.cpu_s = time.process_time() - cpu0
        selector.close()
        for sock in sockets:
            sock.close()
        sender.join(timeout=5.0)
        if collecting:
            gc.enable()
    return stage


def bisect_rate(
    probe: Callable[[float], bool],
    low: float,
    high: float,
    steps: int,
) -> tuple:
    """Highest rate in ``[low, high]`` that ``probe`` accepts.

    Geometric bisection: each step probes the geometric midpoint of the
    open interval and keeps the half that brackets the limit.  Returns
    ``(rate, tested)`` where ``rate`` is the highest accepted rate (or
    ``low`` when none was accepted, with ``tested`` False).
    """
    if not 0 < low < high:
        raise ValueError("need 0 < low < high")
    best, tested = low, False
    for _ in range(steps):
        middle = math.sqrt(low * high)
        if probe(middle):
            low, best, tested = middle, middle, True
        else:
            high = middle
    return best, tested
