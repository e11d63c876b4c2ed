"""The load generator: open-loop timing and the rate bisection."""

import selectors
import socket
import threading
import time

import numpy as np
import pytest

import loadgen

_RESPONSE = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 2\r\nConnection: keep-alive\r\n\r\n{}"
)


class StallingServer:
    """One-thread HTTP stub that answers every request, but freezes
    entirely (every connection) for ``stall_s`` on the first one."""

    def __init__(self, stall_s: float) -> None:
        self.stall_s = stall_s
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        selector = selectors.DefaultSelector()
        self.listener.setblocking(False)
        selector.register(self.listener, selectors.EVENT_READ, None)
        buffers = {}
        answered = 0
        while not self._stop.is_set():
            for key, _ in selector.select(timeout=0.01):
                if key.data is None:
                    conn, _ = self.listener.accept()
                    conn.setblocking(True)
                    selector.register(conn, selectors.EVENT_READ, "conn")
                    buffers[conn] = b""
                    continue
                conn = key.fileobj
                chunk = conn.recv(65536)
                if not chunk:
                    selector.unregister(conn)
                    conn.close()
                    continue
                buffers[conn] += chunk
                while b"\r\n\r\n" in buffers[conn]:
                    _, buffers[conn] = buffers[conn].split(b"\r\n\r\n", 1)
                    if answered == 0:
                        time.sleep(self.stall_s)
                    answered += 1
                    conn.sendall(_RESPONSE)
        selector.close()

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self.listener.close()


def test_latency_is_measured_from_the_scheduled_time():
    stage = loadgen.Stage(
        rate=1.0, duration=1.0,
        scheduled=np.array([0.0, 1.0]), picks=np.array([0, 0]),
        due=np.array([0.5, 1.0]), sent=np.array([0.5, 1.05]),
        done=np.array([0.6, 1.1]), status=np.array([200, 200]),
        bodies=[b"", b""], cpu_s=0.0, wall_s=1.1,
    )
    assert stage.latency_ms == pytest.approx([600.0, 100.0])
    assert stage.service_ms == pytest.approx([100.0, 50.0])
    assert stage.late_ms == pytest.approx([500.0, 0.0])


def test_a_stalled_server_delays_later_requests_and_it_is_counted():
    stall = 0.3
    server = StallingServer(stall)
    try:
        arrivals = np.arange(0.0, 0.5, 0.02)
        request = loadgen.build_request("/predict", b"{}")
        stage = loadgen.run_stage(
            "127.0.0.1", server.port, [request],
            np.zeros(arrivals.size, dtype=int), arrivals,
            rate=50.0, duration=0.5, drain_s=1.0,
        )
    finally:
        server.close()
    assert stage.failed == 0
    # Open loop: the generator kept to its schedule during the stall.
    assert np.percentile(stage.late_ms, 99) < 20.0
    # Every request due during the stall waited for it, and the wait is
    # part of its latency (a closed loop would have hidden it).
    during = arrivals < stall
    expected_ms = (stall - arrivals[during]) * 1e3
    assert np.all(stage.latency_ms[during] >= expected_ms - 5.0)
    assert stage.latency_ms[0] >= stall * 1e3
    assert np.median(stage.latency_ms[~during]) < 50.0


def _synthetic_probe(knee: float, limit_ms: float, log: list):
    """p99 of an M/M/1-like queue: 1 ms / (1 - rate/knee)."""

    def probe(rate: float) -> bool:
        log.append(rate)
        if rate >= knee:
            return False
        return 1.0 / (1.0 - rate / knee) <= limit_ms

    return probe


def test_bisection_finds_the_highest_rate_within_the_limit():
    log = []
    best, tested = loadgen.bisect_rate(
        _synthetic_probe(3000.0, 25.0, log), 250.0, 8000.0, steps=7
    )
    true_limit = 3000.0 * (1.0 - 1.0 / 25.0)
    assert tested
    assert len(log) == 7
    assert best <= true_limit
    assert best >= true_limit / (8000.0 / 250.0) ** (1.0 / 2 ** 7)


def test_bisection_reports_when_no_rate_passed():
    best, tested = loadgen.bisect_rate(
        _synthetic_probe(100.0, 25.0, []), 250.0, 8000.0, steps=5
    )
    assert (best, tested) == (250.0, False)


def test_arrivals_repeat_for_a_seed():
    first = loadgen.poisson_arrivals(800.0, 2.0, seed=7)
    assert np.array_equal(first, loadgen.poisson_arrivals(800.0, 2.0, seed=7))
    assert not np.array_equal(
        first, loadgen.poisson_arrivals(800.0, 2.0, seed=8)
    )
    assert first.size == pytest.approx(1600, rel=0.1)
    assert np.all(np.diff(first) > 0) and first[-1] < 2.0
