"""Client-side resilience: stale keep-alive recovery, and non-200
answers surfaced at once (the client never retries a 503 itself)."""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.serve import PredictionClient, ServerError


def _fake_exchange(responses):
    """An ``_exchange`` stand-in replaying canned (status, headers,
    payload) triples."""
    queue = list(responses)

    def exchange(method, path, body):
        status, headers, payload = queue.pop(0)
        return status, headers, json.dumps(payload).encode("utf-8")

    return exchange


class TestServerErrors:
    def test_503_surfaces_retry_hint_at_once(self, monkeypatch):
        client = PredictionClient("127.0.0.1", 1)
        monkeypatch.setattr(
            client, "_exchange",
            _fake_exchange([(
                503,
                {"Retry-After": "1.5", "X-Request-Id": "abc-000001"},
                {"error": "busy", "request_id": "abc-000001"},
            )]),
        )
        with pytest.raises(ServerError) as excinfo:
            client.predict([{}])
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after == pytest.approx(1.5)
        assert excinfo.value.request_id == "abc-000001"

    def test_non_503_raises_with_its_status(self, monkeypatch):
        client = PredictionClient("127.0.0.1", 1)
        monkeypatch.setattr(
            client, "_exchange",
            _fake_exchange([(400, {}, {"error": "bad config"})]),
        )
        with pytest.raises(ServerError) as excinfo:
            client.predict([{}])
        assert excinfo.value.status == 400
        assert excinfo.value.message == "bad config"


class _OneShotServer:
    """A TCP server that answers each connection's *first* request with
    a keep-alive response, then closes the socket — the rudest legal
    keep-alive peer, exactly what a drained server or an idle-timeout
    proxy looks like to a pooled client."""

    def __init__(self) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self.served = 0
        self._alive = True
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while self._alive:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            with connection:
                try:
                    connection.recv(65536)
                except OSError:
                    continue
                body = json.dumps({"status": "ok"}).encode("utf-8")
                # Count before replying: once the client holds the
                # response, the count must already include it.
                self.served += 1
                connection.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n".encode()
                    + b"Connection: keep-alive\r\n\r\n" + body
                )
                # Closing here leaves the client holding a stale
                # keep-alive connection.

    def close(self) -> None:
        self._alive = False
        self._listener.close()
        self._thread.join(timeout=5)


class TestStaleKeepAlive:
    def test_reconnects_transparently(self):
        server = _OneShotServer()
        try:
            with PredictionClient("127.0.0.1", server.port) as client:
                # Each request rides a connection the server closed
                # right after the previous response; the client must
                # reconnect instead of surfacing ConnectionError.
                for _ in range(3):
                    assert client.healthz() == {"status": "ok"}
            assert server.served == 3
        finally:
            server.close()
