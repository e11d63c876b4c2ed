"""Tests for the HTTP inference server.

Covers the acceptance criteria head-on: 64+ concurrent in-flight
requests with zero dropped responses, served predictions bit-identical
to direct ``predict_invariant`` calls, 503 backpressure under
saturation, and graceful drain.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.serve import PredictionClient, ServerError


class TestEndpoints:
    def test_healthz(self, harness):
        server = harness(model_info={"name": "m", "version": 3})
        with server.client() as client:
            health = client.healthz()
        assert health["status"] == "ok"
        assert health["model"]["name"] == "m"
        assert health["model"]["version"] == 3
        assert health["model"]["metric"] == "cycles"

    def test_metrics_prometheus_text(self, harness, holdout_configs):
        server = harness()
        with server.client() as client:
            client.predict(holdout_configs[:3])
            text = client.metrics_text()
        assert '# TYPE serve_requests counter' in text
        assert 'serve_requests{status="200"}' in text
        assert "serve_cache_misses" in text
        assert "serve_batch_seconds" in text

    def test_unknown_path_404(self, harness):
        server = harness()
        with server.client() as client:
            with pytest.raises(ServerError) as excinfo:
                client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_405(self, harness):
        server = harness()
        with server.client() as client:
            with pytest.raises(ServerError) as excinfo:
                client._request("POST", "/healthz", body="{}")
        assert excinfo.value.status == 405


class TestPredict:
    def test_bit_identical_to_direct_calls(
        self, harness, fitted_predictor, holdout_configs
    ):
        """The acceptance bar: served == direct, bit for bit."""
        server = harness()
        batch = holdout_configs[:32]
        with server.client() as client:
            served = client.predict(batch)
        direct = fitted_predictor.predict_invariant(batch)
        assert np.array_equal(np.array(served), direct)

    def test_partial_dict_uses_baseline(
        self, harness, fitted_predictor, space
    ):
        server = harness()
        config = space.baseline.replace(width=4)
        with server.client() as client:
            value = client.predict_one({"width": 4})
        assert value == fitted_predictor.predict_invariant([config])[0]

    def test_single_config_shorthand(self, harness, holdout_configs):
        server = harness()
        body = json.dumps({"config": list(holdout_configs[0].values())})
        with server.client() as client:
            payload = client._request("POST", "/predict", body=body)
        assert len(payload["predictions"]) == 1

    def test_repeat_requests_are_cached_and_identical(
        self, harness, holdout_configs
    ):
        server = harness()
        batch = holdout_configs[:8]
        with server.client() as client:
            first = client.predict(batch)
            second = client.predict(batch)
            text = client.metrics_text()
        assert first == second
        hits = [
            line for line in text.splitlines()
            if line.startswith("serve_cache_hits")
        ]
        assert hits and float(hits[0].split()[-1]) >= len(batch)

    def test_bad_json_400(self, harness):
        server = harness()
        with server.client() as client:
            with pytest.raises(ServerError) as excinfo:
                client._request("POST", "/predict", body="{nope")
        assert excinfo.value.status == 400

    def test_unknown_parameter_400(self, harness):
        server = harness()
        with server.client() as client:
            with pytest.raises(ServerError) as excinfo:
                client.predict([{"warp_drive": 9}])
        assert excinfo.value.status == 400
        assert "warp_drive" in excinfo.value.message

    def test_wrong_length_list_400(self, harness):
        server = harness()
        with server.client() as client:
            with pytest.raises(ServerError) as excinfo:
                client.predict([[1, 2, 3]])
        assert excinfo.value.status == 400

    def test_illegal_configuration_400(self, harness):
        server = harness()
        with server.client() as client:
            with pytest.raises(ServerError) as excinfo:
                client.predict([{"width": 7}])  # not a legal width
        assert excinfo.value.status == 400

    def test_empty_configs_400(self, harness):
        server = harness()
        with server.client() as client:
            with pytest.raises(ServerError) as excinfo:
                client._request(
                    "POST", "/predict", body='{"configs": []}'
                )
        assert excinfo.value.status == 400


class TestConfigurationValues:
    """A value ``int()`` would change or cannot take gets 400 on the
    same keep-alive connection, which then still answers.  Each value
    truncates or coerces to a legal machine, so none of them is refused
    by the grid or the legality constraints instead."""

    INEXACT = [
        ("width", float("inf")),
        ("width", float("-inf")),
        ("rf_write_ports", 4.9),
        ("rf_write_ports", True),
        ("width", "8"),
    ]

    @pytest.mark.parametrize("form", ["mapping", "list"])
    def test_inexact_values_get_400_and_the_connection_lives(
        self, harness, space, form
    ):
        from repro.obs import scoped_registry

        baseline = space.baseline
        with scoped_registry():
            server = harness()
            with server.client() as client:
                good = client.predict([baseline])
                connection = client._connection.sock
                for name, value in self.INEXACT:
                    if form == "mapping":
                        config = {name: value}
                    else:
                        config = baseline.as_dict()
                        config[name] = value
                        config = list(config.values())
                    body = json.dumps({"config": config})
                    with pytest.raises(ServerError) as excinfo:
                        client._request("POST", "/predict", body=body)
                    assert excinfo.value.status == 400, (name, value)
                    assert excinfo.value.message.startswith(
                        "bad configuration values: "
                    )
                assert client.predict([baseline]) == good
                assert client._connection.sock is connection
                assert (
                    f'serve_requests{{status="400"}} {len(self.INEXACT)}'
                    in client.metrics_text()
                )

    @pytest.mark.parametrize("form", ["mapping", "list"])
    def test_integral_float_still_accepted(self, harness, space, form):
        server = harness()
        baseline = space.baseline
        config = (
            {"width": 4.0} if form == "mapping"
            else [float(v) for v in baseline.values()]
        )
        body = json.dumps({"config": config})
        with server.client() as client:
            payload = client._request("POST", "/predict", body=body)
            assert payload["predictions"] == client.predict([baseline])

    def test_client_refuses_a_value_it_would_truncate(self, harness, space):
        server = harness()
        with server.client() as client:
            with pytest.raises(ValueError, match="4.9 is not an integer"):
                client.predict([{"rf_write_ports": 4.9}])
            with pytest.raises(ValueError, match="not an integer"):
                client.predict([[4.5] + list(space.baseline.values())[1:]])
            row = np.array(space.baseline.values(), dtype=np.int64)
            assert client.predict([row]) == client.predict([space.baseline])


class TestConcurrency:
    def test_64_concurrent_clients_zero_drops(
        self, harness, fitted_predictor, holdout_configs
    ):
        """64 in-flight requests, every one answered, every one exact."""
        server = harness(max_batch=32, queue_limit=4096)
        clients = 64
        configs = [
            holdout_configs[i % len(holdout_configs)]
            for i in range(clients)
        ]
        direct = fitted_predictor.predict_invariant(configs)
        barrier = threading.Barrier(clients)

        def one_request(index):
            with PredictionClient(
                "127.0.0.1", server.port, timeout=60
            ) as client:
                barrier.wait(timeout=60)  # maximise true concurrency
                return client.predict_one(configs[index])

        with ThreadPoolExecutor(max_workers=clients) as pool:
            values = list(pool.map(one_request, range(clients)))

        assert len(values) == clients
        assert np.array_equal(np.array(values), direct)

    def test_mixed_batch_sizes_concurrently(
        self, harness, fitted_predictor, holdout_configs
    ):
        server = harness()
        slices = [
            holdout_configs[:5], holdout_configs[5:7],
            holdout_configs[7:20], holdout_configs[20:21],
        ]

        def one_batch(batch):
            with PredictionClient("127.0.0.1", server.port) as client:
                return client.predict(batch)

        with ThreadPoolExecutor(max_workers=len(slices)) as pool:
            answers = list(pool.map(one_batch, slices))
        for batch, answer in zip(slices, answers):
            assert np.array_equal(
                np.array(answer), fitted_predictor.predict_invariant(batch)
            )


class TestLargeRequests:
    def test_request_above_queue_limit_on_an_idle_server(
        self, harness, fitted_predictor, space
    ):
        """2,000 configurations > queue_limit (1,024): one request, one
        queue entry, answered in full rather than refused."""
        from repro.designspace import sample_configurations

        configs = sample_configurations(space, 2000, seed=2000)
        server = harness()
        assert server.server.batcher.queue_limit < len(configs)
        with server.client(timeout=120) as client:
            served = client.predict(configs)
        direct = fitted_predictor.predict_invariant(configs)
        assert np.array_equal(np.array(served), direct)


class TestBackpressure:
    def test_saturated_server_returns_503(self, harness, holdout_configs):
        server = harness(max_batch=1, queue_limit=1, batch_window=0.0)
        # Stall the forward pass so the queue cannot drain.
        release = threading.Event()
        original = server.server.batcher._forward

        def stalled(configs):
            release.wait(timeout=30)
            return original(configs)

        server.server.batcher._forward = stalled
        results = []

        def one_request(index):
            with PredictionClient(
                "127.0.0.1", server.port, timeout=60
            ) as client:
                try:
                    return ("ok", client.predict_one(holdout_configs[index]))
                except ServerError as error:
                    return ("error", error)

        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(one_request, i) for i in range(8)
                ]
                import time
                time.sleep(1.0)  # let requests pile into the queue
                release.set()
                results = [f.result() for f in futures]
        finally:
            release.set()

        statuses = [kind for kind, _ in results]
        rejected = [
            payload for kind, payload in results if kind == "error"
        ]
        assert "ok" in statuses  # the stalled ones complete after release
        assert rejected, "expected at least one 503 under saturation"
        for error in rejected:
            assert error.status == 503
            assert error.retry_after is not None


class TestDrain:
    def test_drain_answers_inflight_then_refuses(
        self, harness, holdout_configs
    ):
        server = harness()
        with server.client() as client:
            assert client.predict(holdout_configs[:4])
        server.drain()
        # New connections are refused once the socket is down.
        with pytest.raises((ServerError, ConnectionError, OSError)):
            with PredictionClient(
                "127.0.0.1", server.port, timeout=5
            ) as client:
                client.predict_one(holdout_configs[0])

    def test_drain_is_idempotent(self, harness):
        server = harness()
        server.drain()
        server.drain()


def _raw_exchange(port: int, raw: bytes) -> bytes:
    """Send raw bytes; return everything the server answers before it
    closes the connection (a keep-alive answer hits the timeout)."""
    import socket

    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestMalformedRequests:
    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_gets_400_and_close(self, harness, length):
        server = harness()
        answer = _raw_exchange(
            server.port,
            f"POST /predict HTTP/1.1\r\nContent-Length: {length}\r\n\r\n{{}}"
            .encode("latin-1"),
        )
        head, _, body = answer.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(body)["error"]
        # The server itself is unharmed.
        with server.client() as client:
            assert client.healthz()["status"] == "ok"

    @pytest.mark.parametrize("where", ["request line", "header line"])
    def test_overlong_line_gets_400_and_close(self, harness, where):
        server = harness()
        filler = b"a" * 70_000  # past the 64 KiB StreamReader limit
        answer = _raw_exchange(
            server.port,
            b"GET /" + filler + b" HTTP/1.1\r\n\r\n"
            if where == "request line"
            else b"GET /healthz HTTP/1.1\r\nX-Big: " + filler + b"\r\n\r\n",
        )
        head, _, body = answer.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert "too long" in json.loads(body)["error"]
        with server.client() as client:
            assert client.healthz()["status"] == "ok"

    @pytest.mark.parametrize(
        "raw", [b"GARBAGE\r\n\r\n", b"GET /healthz\r\n\r\n"]
    )
    def test_malformed_request_line_gets_400_and_close(self, harness, raw):
        from repro.obs import scoped_registry

        with scoped_registry():
            server = harness()
            answer = _raw_exchange(server.port, raw)
            head, _, body = answer.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 ")
            assert b"Connection: close" in head
            assert "request line" in json.loads(body)["error"]
            with server.client() as client:
                assert 'serve_requests{status="400"} 1' in (
                    client.metrics_text()
                )

    def test_connection_close_honoured_in_any_case(self, harness):
        server = harness()
        answer = _raw_exchange(
            server.port,
            b"GET /healthz HTTP/1.1\r\nConnection: Close\r\n\r\n",
        )
        assert answer.startswith(b"HTTP/1.1 200 ")
        assert b"Connection: close" in answer
