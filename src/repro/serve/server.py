"""The stdlib-only asyncio HTTP inference server.

``repro serve`` turns a published predictor into a long-running
service: a minimal HTTP/1.1 server (``asyncio.start_server``; no
framework, no dependencies) that answers prediction requests through
the :class:`~repro.serve.batching.PredictionBatcher`, so concurrent
clients are coalesced into vectorised batch-invariant forward passes
and repeated configurations are served from the LRU cache — with
responses bit-identical to calling the predictor directly.

Endpoints:

* ``POST /predict`` — body ``{"configs": [...]}`` where each entry is
  either a 13-integer list in Table 1 order or a ``{parameter: value}``
  mapping (missing parameters take the baseline value).  Values are
  integers on the grid; ``4.0`` passes as ``4``, while a boolean, a
  string or a non-integral or non-finite number gets ``400``.  A single
  ``{"config": ...}`` object is accepted as shorthand.  Each entry
  becomes the tuple of its 13 values, the cache key and forward-pass
  row; only an entry outside the canonical form (exact ints, on the
  grid, legal) builds a :class:`Configuration`, to normalise it or name
  its ``400``.
  Response: ``{"metric": ..., "predictions": [...], "model": {...}}``.
* ``POST /search`` — body ``{"agent": ..., "budget": ..., "seed": ...}``
  runs a bounded closed-loop search (:mod:`repro.search`) over the
  served model's metric and returns the best configuration found plus
  the search trace summary.  CPU-bound, so it runs on the executor and
  is capped to a small in-flight count (excess requests get ``503``).
* ``GET /healthz`` — liveness plus the served model's identity.
* ``GET /metrics`` — the process metrics registry in Prometheus text
  exposition format (the same exporter behind ``--metrics-out``).

Overload and shutdown are first-class: a full request queue returns
``503`` with ``Retry-After`` instead of buffering without bound, and
:meth:`PredictionServer.drain` stops accepting, answers everything
already queued, and only then tears the sockets down — the SIGTERM
story a supervisor expects.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import signal
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.designspace.configuration import PARAMETER_ORDER, Configuration
from repro.designspace.space import DesignSpace
from repro.obs import get_logger, get_registry, span
from repro.obs.http import (
    PROMETHEUS_CONTENT_TYPE,
    BadRequest,
    dump_json as _dump,
    json_error as _json_error,
    read_request as _read_request,
    reject_bad_request,
    wants_keep_alive,
    write_response as _write_response,
)

from .admission import AdmissionController
from .batching import PredictionBatcher, ServerSaturated
from .fleet import FleetReport, ServingFleet

__all__ = ["PredictionServer", "serve_forever"]

_log = get_logger("serve.server")

#: Most configurations accepted in one /predict call.
_MAX_CONFIGS = 10_000

#: A parameter's position in a value row.
_POSITION = {name: index for index, name in enumerate(PARAMETER_ORDER)}

#: The element types of a canonical row.
_EXACT_INT = frozenset({int})

#: /search request bounds: budget and batch caps plus the most
#: concurrently running searches (each occupies an executor thread).
_MAX_SEARCH_BUDGET = 4096
_MAX_SEARCH_BATCH = 256
_MAX_SEARCHES_INFLIGHT = 2


class PredictionServer:
    """The asyncio HTTP service wrapping a fitted predictor.

    Args:
        predictor: A fitted architecture-centric predictor (its pool
            must stack; serving uses the batch-invariant path).
        host: Bind address.
        port: Bind port; 0 picks a free one (read :attr:`port` after
            :meth:`start`).
        model_info: Identity dict echoed in ``/healthz`` and
            ``/predict`` responses (name, version, checksum...).
        space: Design space for validating request configurations.
        max_batch / batch_window / cache_size / queue_limit: Forwarded
            to the :class:`PredictionBatcher`.
        admission: Optional :class:`AdmissionController` gating
            ``/predict`` and ``/search`` (never ``/healthz`` or
            ``/metrics``); refused requests get ``503`` with a
            ``Retry-After`` hint.
        reuse_port: Bind with ``SO_REUSEPORT`` so multiple server
            processes can share ``host:port`` and let the kernel
            balance connections across them.
    """

    def __init__(
        self,
        predictor,
        host: str = "127.0.0.1",
        port: int = 0,
        model_info: Optional[Dict] = None,
        space: Optional[DesignSpace] = None,
        max_batch: int = 64,
        batch_window: float = 0.002,
        cache_size: int = 4096,
        queue_limit: int = 1024,
        admission: Optional[AdmissionController] = None,
        reuse_port: bool = False,
    ) -> None:
        self._predictor = predictor
        self.host = host
        self.port = port
        self.model_info = dict(model_info or {})
        self.model_info.setdefault("metric", predictor.metric.value)
        self._space = space if space is not None else DesignSpace()
        self.batcher = PredictionBatcher(
            predictor,
            max_batch=max_batch,
            batch_window=batch_window,
            cache_size=cache_size,
            queue_limit=queue_limit,
        )
        self.admission = admission
        self._reuse_port = bool(reuse_port)
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()
        self._draining = False
        self._started = 0.0
        self._searches_inflight = 0
        self._active_requests = 0
        # Request ids are unique per process and cheap to mint: the
        # pid anchors which fleet worker answered, the counter orders
        # requests within it.
        self._request_seq = itertools.count()
        self._rid_prefix = f"{os.getpid():x}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Warm the model up, start the batcher, bind the socket."""
        with span("serve.start"):
            # Warmup: the first forward pass pays lazy ensemble
            # stacking and ufunc loop setup; pay it before the first
            # client does.
            await asyncio.get_running_loop().run_in_executor(
                None,
                self._predictor.predict_invariant,
                [self._space.baseline],
            )
            await self.batcher.start()
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port,
                reuse_port=self._reuse_port,
            )
            self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.time()
        get_registry().gauge("serve.up").set(1)
        _log.info("serving %s on http://%s:%d",
                  self.model_info.get("metric"), self.host, self.port)

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish queued work, stop.

        Idempotent; callable from a signal handler via
        ``asyncio.create_task``.
        """
        if self._draining:
            return
        self._draining = True
        with span("serve.drain"):
            if self._server is not None:
                # Stop accepting new connections; established ones get
                # 503s for predictions from here on.
                self._server.close()
            await self.batcher.stop()
            # Searches run on the executor outside the batcher, and a
            # just-resolved prediction still has its response write
            # pending — wait for every in-flight request to finish its
            # whole handler pass before tearing connections down.
            while self._active_requests > 0:
                await asyncio.sleep(0.01)
            # Idle keep-alive connections would otherwise pin
            # wait_closed() forever (Python >= 3.12 waits for handler
            # completion); in-flight responses finished above.
            for writer in list(self._connections):
                writer.close()
            if self._server is not None:
                await self._server.wait_closed()
        get_registry().gauge("serve.up").set(0)
        _log.info("drained and stopped")

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has begun."""
        return self._draining

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        registry = get_registry()
        self._connections.add(writer)
        peer = writer.get_extra_info("peername")
        peer_ip = peer[0] if isinstance(peer, tuple) and peer else "unknown"
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except BadRequest as error:
                    registry.counter("serve.requests", status="400").inc()
                    await reject_bad_request(writer, error)
                    break
                if request is None:
                    break
                method, target, headers, body = request
                request_id = self._next_request_id()
                client_id = headers.get("x-client-id") or peer_ip
                registry.gauge("serve.inflight").inc()
                self._active_requests += 1
                start = time.perf_counter()
                try:
                    try:
                        status, payload, content_type, extra = (
                            await self._dispatch(
                                method, target, body,
                                client_id=client_id,
                                request_id=request_id,
                            )
                        )
                    finally:
                        registry.gauge("serve.inflight").inc(-1)
                    extra = dict(extra)
                    extra.setdefault("X-Request-Id", request_id)
                    registry.histogram("serve.request.seconds").observe(
                        time.perf_counter() - start
                    )
                    registry.counter(
                        "serve.requests", status=str(status)
                    ).inc()
                    keep_alive = (
                        wants_keep_alive(headers) and not self._draining
                    )
                    _write_response(
                        writer, status, payload, content_type,
                        keep_alive=keep_alive, extra=extra,
                    )
                    await writer.drain()
                finally:
                    self._active_requests -= 1
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _next_request_id(self) -> str:
        return f"{self._rid_prefix}-{next(self._request_seq):06x}"

    async def _dispatch(
        self,
        method: str,
        target: str,
        body: bytes,
        client_id: str = "unknown",
        request_id: str = "-",
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        """Route one request; returns (status, body, content-type, headers)."""
        path = target.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                return _json_error(405, "use GET", request_id=request_id)
            return self._handle_healthz()
        if path == "/metrics":
            if method != "GET":
                return _json_error(405, "use GET", request_id=request_id)
            text = get_registry().to_prometheus()
            return 200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE, {}
        if path == "/predict":
            if method != "POST":
                return _json_error(405, "use POST", request_id=request_id)
            return await self._admitted(
                self._handle_predict, body, client_id, request_id
            )
        if path == "/search":
            if method != "POST":
                return _json_error(405, "use POST", request_id=request_id)
            return await self._admitted(
                self._handle_search, body, client_id, request_id
            )
        return _json_error(
            404, f"unknown path {path!r}", request_id=request_id
        )

    async def _admitted(
        self, handler, body: bytes, client_id: str, request_id: str
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        """Run a work-bearing handler through admission control."""
        if self.admission is None:
            return await handler(body, request_id)
        decision = self.admission.try_admit(client_id)
        if not decision.admitted:
            get_registry().counter(
                "serve.rejected", reason=decision.reason
            ).inc()
            _log.warning(
                "request %s from %s shed: %s (retry in %.2fs)",
                request_id, client_id, decision.reason,
                decision.retry_after,
            )
            return _json_error(
                503,
                f"admission refused: {decision.reason}",
                {"Retry-After": decision.retry_after_header},
                request_id=request_id,
            )
        try:
            return await handler(body, request_id)
        finally:
            self.admission.release()

    def _handle_healthz(self) -> Tuple[int, bytes, str, Dict[str, str]]:
        status = "draining" if self._draining else "ok"
        payload = {
            "status": status,
            "model": self.model_info,
            "pid": os.getpid(),
            "uptime_seconds": (
                time.time() - self._started if self._started else 0.0
            ),
            "cache_entries": len(self.batcher.cache),
        }
        code = 503 if self._draining else 200
        return code, _dump(payload), "application/json", {}

    async def _handle_predict(
        self, body: bytes, request_id: str = "-"
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        if self._draining:
            get_registry().counter("serve.rejected", reason="draining").inc()
            _log.warning("request %s shed: draining", request_id)
            return _json_error(
                503, "the server is draining", {"Retry-After": "1"},
                request_id=request_id,
            )
        try:
            rows = self._parse_configs(body)
        except BadRequest as error:
            return _json_error(400, str(error), request_id=request_id)
        try:
            values = await self.batcher.predict(rows)
        except ServerSaturated as error:
            _log.warning("request %s shed: %s", request_id, error)
            return _json_error(
                503, str(error), {"Retry-After": "1"},
                request_id=request_id,
            )
        except RuntimeError as error:
            _log.error("request %s: prediction failed: %s",
                       request_id, error)
            return _json_error(
                500, f"prediction failed: {error}", request_id=request_id
            )
        payload = {
            "metric": self._predictor.metric.value,
            "predictions": values,
            "model": self.model_info,
        }
        return 200, _dump(payload), "application/json", {}

    async def _handle_search(
        self, body: bytes, request_id: str = "-"
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        from repro.search import (
            DesignSpaceEnv,
            PredictorOracle,
            make_agent,
            run_search,
        )

        registry = get_registry()
        if self._draining:
            registry.counter("serve.rejected", reason="draining").inc()
            _log.warning("request %s shed: draining", request_id)
            return _json_error(
                503, "the server is draining", {"Retry-After": "1"},
                request_id=request_id,
            )
        try:
            agent_name, budget, batch, seed = self._parse_search(body)
        except BadRequest as error:
            return _json_error(400, str(error), request_id=request_id)
        if self._searches_inflight >= _MAX_SEARCHES_INFLIGHT:
            registry.counter("serve.rejected", reason="search_busy").inc()
            _log.warning("request %s shed: search_busy", request_id)
            return _json_error(
                503,
                f"at most {_MAX_SEARCHES_INFLIGHT} concurrent searches",
                {"Retry-After": "1"},
                request_id=request_id,
            )

        metric = self._predictor.metric

        def _run_bounded_search():
            env = DesignSpaceEnv(
                self._space,
                PredictorOracle({metric: self._predictor}),
                objectives=(metric,),
                budget=budget,
            )
            agent = make_agent(agent_name, self._space, objectives=1,
                               seed=seed)
            return run_search(env, agent, batch_size=batch, seed=seed)

        self._searches_inflight += 1
        registry.gauge("serve.search.inflight").inc()
        start = time.perf_counter()
        try:
            with span("serve.search", agent=agent_name, budget=budget):
                outcome = await asyncio.get_running_loop().run_in_executor(
                    None, _run_bounded_search
                )
        except (RuntimeError, ValueError) as error:
            _log.error("request %s: search failed: %s", request_id, error)
            return _json_error(
                500, f"search failed: {error}", request_id=request_id
            )
        finally:
            self._searches_inflight -= 1
            registry.gauge("serve.search.inflight").inc(-1)
            registry.histogram("serve.search.seconds").observe(
                time.perf_counter() - start
            )
        registry.counter("serve.search.requests", agent=agent_name).inc()
        payload = outcome.to_payload()
        payload["metric"] = metric.value
        payload["model"] = self.model_info
        return 200, _dump(payload), "application/json", {}

    def _parse_search(self, body: bytes) -> Tuple[str, int, int, int]:
        from repro.search import AGENT_NAMES

        try:
            request = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadRequest(f"request body is not JSON: {error}") from error
        if not isinstance(request, dict):
            raise BadRequest("request body must be a JSON object")
        unknown = set(request) - {"agent", "budget", "batch", "seed",
                                  "objective"}
        if unknown:
            raise BadRequest(f"unknown search options: {sorted(unknown)}")
        agent = request.get("agent", "hill")
        if agent not in AGENT_NAMES:
            raise BadRequest(
                f"unknown agent {agent!r}; known: {', '.join(AGENT_NAMES)}"
            )
        objective = request.get("objective", self._predictor.metric.value)
        if objective != self._predictor.metric.value:
            raise BadRequest(
                f"this server predicts {self._predictor.metric.value!r}, "
                f"not {objective!r}"
            )

        def _bounded_int(key: str, default: int, lo: int, hi: int) -> int:
            value = request.get(key, default)
            if not isinstance(value, int) or isinstance(value, bool):
                raise BadRequest(f'"{key}" must be an integer')
            if not lo <= value <= hi:
                raise BadRequest(f'"{key}" must be in [{lo}, {hi}]')
            return value

        budget = _bounded_int("budget", 128, 2, _MAX_SEARCH_BUDGET)
        batch = _bounded_int("batch", 16, 1, _MAX_SEARCH_BATCH)
        seed = _bounded_int("seed", 0, 0, 2**31 - 1)
        return agent, budget, batch, seed

    def _parse_configs(self, body: bytes) -> List[Tuple[int, ...]]:
        """The request's configurations, in order, each as the tuple of
        its 13 values; the first bad entry raises :class:`BadRequest`."""
        try:
            request = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadRequest(f"request body is not JSON: {error}") from error
        if not isinstance(request, dict):
            raise BadRequest("request body must be a JSON object")
        if "configs" in request:
            raw_list = request["configs"]
            if not isinstance(raw_list, list):
                raise BadRequest('"configs" must be a list')
        elif "config" in request:
            raw_list = [request["config"]]
        else:
            raise BadRequest('request needs a "configs" or "config" key')
        if not raw_list:
            raise BadRequest("at least one configuration is required")
        if len(raw_list) > _MAX_CONFIGS:
            raise BadRequest(
                f"at most {_MAX_CONFIGS} configurations per request"
            )
        rows = []
        for raw in raw_list:
            row = self._canonical_row(raw)
            if row is None:
                row = self._parse_config(raw).values()
            rows.append(row)
        return rows

    def _canonical_row(self, raw) -> Optional[Tuple[int, ...]]:
        """``raw``'s 13 values as a tuple if it is canonical, else ``None``.

        Canonical is a 13-element list (or a mapping of known names,
        filled from the baseline) of exact ints, each on its grid, that
        meets the constraints: exactly what :meth:`_parse_config`
        accepts without normalising, checked by
        :meth:`DesignSpace.is_legal` on the row itself.  ``True`` hashes
        like ``1`` and ``4.0`` like ``4``, so the type test comes before
        any lookup.
        """
        if type(raw) is dict:
            row = list(self._space.baseline)
            try:
                for name, value in raw.items():
                    row[_POSITION[name]] = value
            except KeyError:
                return None
        elif type(raw) is list and len(raw) == len(PARAMETER_ORDER):
            row = raw
        else:
            return None
        if set(map(type, row)) == _EXACT_INT and self._space.is_legal(row):
            return tuple(row)
        return None

    def _parse_config(self, raw) -> Configuration:
        """Normalise one non-canonical entry, or raise the
        :class:`BadRequest` that names what is wrong with it."""
        if isinstance(raw, dict):
            unknown = set(raw) - set(PARAMETER_ORDER)
            if unknown:
                raise BadRequest(
                    f"unknown parameters: {sorted(unknown)}"
                )
            try:
                overrides = {name: int(value) for name, value in raw.items()}
                if overrides != raw or bool in map(type, raw.values()):
                    raise _inexact(raw.items())
                config = self._space.baseline.replace(**overrides)
            except (TypeError, ValueError, OverflowError) as error:
                raise BadRequest(
                    f"bad configuration values: {error}"
                ) from error
        elif isinstance(raw, list):
            if len(raw) != len(PARAMETER_ORDER):
                raise BadRequest(
                    f"a configuration list needs "
                    f"{len(PARAMETER_ORDER)} values, got {len(raw)}"
                )
            try:
                values = list(map(int, raw))
                if values != raw or bool in map(type, raw):
                    raise _inexact(zip(PARAMETER_ORDER, raw))
                config = Configuration.from_values(tuple(values))
            except (TypeError, ValueError, OverflowError) as error:
                raise BadRequest(
                    f"bad configuration values: {error}"
                ) from error
        else:
            raise BadRequest(
                "each configuration must be a parameter mapping or a "
                f"{len(PARAMETER_ORDER)}-integer list"
            )
        try:
            self._space.validate(config)
        except ValueError as error:
            raise BadRequest(f"illegal configuration: {error}") from error
        return config


def _inexact(pairs) -> ValueError:
    """The error naming the first value that ``int()`` would change."""
    name, value = next(
        (name, value) for name, value in pairs
        if type(value) is bool or int(value) != value
    )
    return ValueError(f"{name}={value!r} is not an integer")


# ----------------------------------------------------------------------
# The blocking entry point the CLI uses
# ----------------------------------------------------------------------
async def _serve_until_signalled(
    predictor,
    ready_callback: Callable[[PredictionServer], None],
    max_inflight: int = 0,
    client_rate: float = 0.0,
    client_burst: int = 0,
    **server_options,
) -> None:
    """One serving process: start, serve until SIGTERM/SIGINT, drain.

    Runs in the caller's process for a single server and in every
    forked fleet worker.  An :class:`AdmissionController` is installed
    when any admission limit is set; ``server_options`` go to
    :class:`PredictionServer`.
    """
    admission = None
    if max_inflight > 0 or client_rate > 0:
        admission = AdmissionController(
            max_inflight=max_inflight,
            client_rate=client_rate,
            client_burst=client_burst,
        )
    server = PredictionServer(
        predictor, admission=admission, **server_options
    )
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-Unix loops; Ctrl-C still raises
    await server.start()
    ready_callback(server)
    try:
        await stop.wait()
    finally:
        await server.drain()


def serve_forever(
    predictor,
    host: str = "127.0.0.1",
    port: int = 8100,
    model_info: Optional[Dict] = None,
    workers: int = 1,
    max_batch: int = 64,
    batch_window: float = 0.002,
    cache_size: int = 4096,
    queue_limit: int = 1024,
    max_inflight: int = 0,
    client_rate: float = 0.0,
    client_burst: int = 0,
    ready_callback=None,
) -> Optional[FleetReport]:
    """Serve until SIGTERM/SIGINT, then drain.

    Args:
        predictor: A fitted architecture-centric predictor.
        workers: Serving processes.  One runs the server in this
            process and thread; more fork a :class:`ServingFleet`
            behind one port, which this process supervises.
        max_inflight / client_rate / client_burst: Admission-control
            limits (an :class:`AdmissionController` is installed per
            process when any is set; see :mod:`repro.serve.admission`).
        ready_callback: Called once the port is bound, with the started
            :class:`PredictionServer` (one worker) or
            :class:`ServingFleet` (tests and the CLI use it to report
            the actual port).

    Returns:
        The fleet's :class:`FleetReport` after a fleet run (its worker
        snapshots are merged into this process's registry); ``None``
        after a single-process run.

    The signal handlers trigger a graceful drain — queued requests are
    answered before the function returns — so the caller's ``finally``
    blocks (telemetry export, manifest writing) always run.
    """
    options = {
        "host": host,
        "port": port,
        "model_info": model_info,
        "max_batch": max_batch,
        "batch_window": batch_window,
        "cache_size": cache_size,
        "queue_limit": queue_limit,
        "max_inflight": max_inflight,
        "client_rate": client_rate,
        "client_burst": client_burst,
    }
    ready_callback = ready_callback or (lambda _started: None)
    if workers == 1:
        asyncio.run(
            _serve_until_signalled(predictor, ready_callback, **options)
        )
        return None
    fleet = ServingFleet(predictor, workers, **options)
    fleet.start()
    ready_callback(fleet)
    stop = threading.Event()
    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(
                signum, lambda _signum, _frame: stop.set()
            )
        except (ValueError, OSError):
            pass  # not the main thread; rely on fleet.stop() below
    try:
        while not stop.is_set():
            stop.wait(0.5)
            if fleet.alive() == 0:
                _log.warning("every fleet worker exited; shutting down")
                break
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        report = fleet.stop()
    return report
