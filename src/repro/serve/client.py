"""A small blocking HTTP client for the prediction server.

Thin ``http.client`` wrapper used by the benchmarks, the CI smoke job
and the tests — and a reasonable starting point for real callers.  One
client owns one keep-alive connection and is **not** thread-safe; give
each thread its own instance (connections are cheap, and that is
exactly what the load generator does to model independent clients).

**Stale keep-alive recovery**: a server may close an idle keep-alive
connection at any time (drain does, and so do proxies); the client
reconnects and retries transparently instead of surfacing a
``ConnectionError`` for a request that never reached a live server.
Any non-200 answer — a shed 503 included — raises :class:`ServerError`
at once, carrying the server's ``Retry-After`` hint for the caller's
own retry policy (:class:`repro.runtime.RetryPolicy` is the one this
package uses).
"""

from __future__ import annotations

import http.client
import json
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = ["PredictionClient", "ServerError"]

#: A request configuration: a full 13-value list/tuple in Table 1
#: order, or a (possibly partial) parameter mapping.
ConfigLike = Union[Sequence[int], Dict[str, int]]


class ServerError(RuntimeError):
    """A non-2xx response, carrying the HTTP status and server message."""

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None,
                 request_id: Optional[str] = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after = retry_after
        self.request_id = request_id


class PredictionClient:
    """Blocking client for one server, reusing one connection.

    Args:
        host: Server host.
        port: Server port.
        timeout: Socket timeout in seconds for each request.
        client_id: Sent as ``X-Client-Id`` on every request, keying
            the server's per-client admission quota (default: the
            server falls back to the peer address).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        client_id: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.client_id = client_id
        self._connection: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def predict(self, configs: Sequence[ConfigLike]) -> List[float]:
        """Predictions for ``configs``, in order.

        Raises:
            ServerError: on any non-200 response (status 503 carries
                ``retry_after`` when the server is saturated, and
                ``request_id`` for correlation with the server log).
            ValueError: before anything is sent, for a value that
                ``int()`` would change, such as ``4.9``.
        """
        payload = self._request(
            "POST", "/predict",
            body=json.dumps({"configs": [_jsonable(c) for c in configs]}),
        )
        return [float(v) for v in payload["predictions"]]

    def predict_one(self, config: ConfigLike) -> float:
        """A single configuration's prediction."""
        return self.predict([config])[0]

    def search(
        self,
        agent: str = "hill",
        budget: int = 128,
        batch: int = 16,
        seed: int = 0,
    ) -> Dict:
        """Run a bounded closed-loop search on the server.

        Args:
            agent: Search agent name (see ``repro.search.AGENT_NAMES``).
            budget: Predictor-evaluation budget for the run.
            batch: Proposals evaluated per round.
            seed: Agent seed; the same seed replays the same search.

        Returns:
            The search outcome payload — best configuration, frontier,
            hypervolume, budget accounting and the served model info.

        Raises:
            ServerError: on any non-200 response (503 when the server
                already runs its maximum of concurrent searches).
        """
        return self._request(
            "POST", "/search",
            body=json.dumps({
                "agent": agent, "budget": budget,
                "batch": batch, "seed": seed,
            }),
        )

    def healthz(self) -> Dict:
        """The server's health document (raises 503 while draining)."""
        return self._request("GET", "/healthz")

    def metrics_text(self) -> str:
        """The raw Prometheus exposition text from ``/metrics``."""
        status, headers, body = self._raw_request("GET", "/metrics")
        if status != 200:
            raise ServerError(status, body.decode("utf-8", "replace"))
        return body.decode("utf-8")

    def close(self) -> None:
        """Close the underlying connection (reopened on next use)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "PredictionClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _request(self, method: str, path: str,
                 body: Optional[str] = None) -> Dict:
        status, headers, raw = self._raw_request(method, path, body)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            payload = {"error": raw.decode("utf-8", "replace")}
        if status == 200:
            return payload
        raise ServerError(
            status,
            str(payload.get("error", "unexpected response")),
            retry_after=_float_or_none(headers.get("Retry-After")),
            request_id=(
                payload.get("request_id") or headers.get("X-Request-Id")
            ),
        )

    def _raw_request(
        self, method: str, path: str, body: Optional[str] = None
    ) -> Tuple[int, Dict[str, str], bytes]:
        try:
            return self._exchange(method, path, body)
        except (http.client.HTTPException, ConnectionError, OSError):
            # Reconnect transparently: the server may have closed an
            # idle keep-alive connection between requests (drain does,
            # and so do proxies).  One fresh-connection retry; if that
            # fails too, the server is genuinely gone.
            self.close()
            return self._exchange(method, path, body)

    def _exchange(
        self, method: str, path: str, body: Optional[str]
    ) -> Tuple[int, Dict[str, str], bytes]:
        connection = self._connect()
        headers: Dict[str, str] = {}
        if body:
            headers["Content-Type"] = "application/json"
        if self.client_id is not None:
            headers["X-Client-Id"] = self.client_id
        connection.request(
            method, path,
            body=body.encode("utf-8") if body else None,
            headers=headers,
        )
        response = connection.getresponse()
        raw = response.read()
        if response.getheader("Connection", "").lower() == "close":
            self.close()
        return response.status, dict(response.getheaders()), raw

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._connection


def _float_or_none(text: Optional[str]) -> Optional[float]:
    if not text:
        return None
    try:
        return float(text)
    except ValueError:
        return None


def _jsonable(config: ConfigLike):
    if isinstance(config, dict):
        return {name: _integer(value) for name, value in config.items()}
    return [_integer(v) for v in config]


def _integer(value) -> int:
    """``int(value)``, refusing a value it would change, such as ``4.9``."""
    number = int(value)
    if number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number
