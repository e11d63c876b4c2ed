"""Serving fixtures: a fitted predictor and a live server harness.

The predictor is session-scoped (it reuses the expensive session
``cycles_pool``); each server test gets its own
:class:`ServerHarness`, which runs a :class:`PredictionServer` on a
private event loop in a daemon thread and tears it down through the
real drain path.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.core import ArchitectureCentricPredictor
from repro.serve import PredictionClient, PredictionServer
from repro.sim import Metric

#: Responses split seed shared by the fixtures so holdout configs and
#: the fitted predictor agree.
_SPLIT_SEED = 11


@pytest.fixture(scope="session")
def fitted_predictor(cycles_pool, small_dataset):
    models = cycles_pool.models(exclude=["gzip"])
    predictor = ArchitectureCentricPredictor(models)
    response_idx, _ = small_dataset.split_indices(24, seed=_SPLIT_SEED)
    predictor.fit_responses(
        small_dataset.subset_configs(response_idx),
        small_dataset.subset_values("gzip", Metric.CYCLES, response_idx),
    )
    return predictor


@pytest.fixture(scope="session")
def holdout_configs(small_dataset):
    _, holdout_idx = small_dataset.split_indices(24, seed=_SPLIT_SEED)
    return small_dataset.subset_configs(holdout_idx)


class ServerHarness:
    """A PredictionServer on its own loop thread, drained on close."""

    def __init__(self, predictor, **kwargs) -> None:
        self._predictor = predictor
        self._kwargs = kwargs
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self.server: PredictionServer | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("server failed to start in time")
        if self._failure is not None:
            raise self._failure

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # surfaced to the test thread
            self._failure = error
            self._ready.set()

    async def _main(self) -> None:
        self.loop = asyncio.get_running_loop()
        self.server = PredictionServer(self._predictor, **self._kwargs)
        self._stop = asyncio.Event()
        await self.server.start()
        self._ready.set()
        await self._stop.wait()
        await self.server.drain()

    @property
    def port(self) -> int:
        return self.server.port

    def client(self, timeout: float = 30.0) -> PredictionClient:
        return PredictionClient("127.0.0.1", self.port, timeout=timeout)

    def drain(self) -> None:
        """Run the server's graceful drain and wait for it."""
        asyncio.run_coroutine_threadsafe(
            self.server.drain(), self.loop
        ).result(timeout=60)

    def close(self) -> None:
        if self._thread.is_alive():
            self.loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(timeout=60)


@pytest.fixture()
def harness(fitted_predictor):
    active = []

    def _start(predictor=None, **kwargs) -> ServerHarness:
        kwargs.setdefault("port", 0)
        started = ServerHarness(predictor or fitted_predictor, **kwargs)
        active.append(started)
        return started

    yield _start
    for started in active:
        started.close()
