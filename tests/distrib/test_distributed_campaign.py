"""End-to-end distributed campaigns over real loopback TCP.

The contract under test: a distributed campaign is **bit-identical** to
a serial one — same metric matrices, same journalled cell checksums —
whatever the worker count, and its checkpoint is interchangeable with a
serial checkpoint in both directions.  Failure handling (dead workers,
hung workers, flaky backends) must change *when* cells finish, never
*what* they contain.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.distrib import (
    CampaignCoordinator,
    CampaignWorker,
    DelayBackend,
    WorkerCapabilities,
)
from repro.distrib.protocol import (
    PROTOCOL_VERSION,
    encode_frame,
    read_message,
    write_message,
)
from repro.runtime import (
    CampaignRunner,
    FaultInjectingBackend,
    IntervalBackend,
    RetryPolicy,
)
from repro.sim import Metric

#: Fast, deterministic retries for tests (no real backoff sleeps).
FAST_POLICY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


def serial_result(backend, suite, configs, tmp_path, chunk_size=16):
    runner = CampaignRunner(
        backend,
        tmp_path / "serial",
        chunk_size=chunk_size,
        retry_policy=FAST_POLICY,
        seed=5,
    )
    return runner, runner.run(suite, configs)


def distributed(
    runner,
    suite,
    configs,
    n_workers=2,
    backend_factory=None,
    coordinator_kwargs=None,
    worker_kwargs=None,
    extra_clients=(),
):
    """Run one campaign with in-process workers on one event loop."""

    async def scenario():
        coordinator = CampaignCoordinator(
            runner,
            port=0,
            monitor_interval=0.02,
            **(coordinator_kwargs or {}),
        )
        ready = asyncio.Event()
        campaign = asyncio.create_task(
            coordinator.run_async(
                suite, configs, ready_callback=lambda _: ready.set()
            )
        )
        await ready.wait()
        clients = [
            asyncio.create_task(client(coordinator.port))
            for client in extra_clients
        ]
        workers = [
            CampaignWorker(
                "127.0.0.1",
                coordinator.port,
                backend_factory=backend_factory,
                worker_id=f"w{index}",
                **(worker_kwargs or {}),
            )
            for index in range(n_workers)
        ]
        runs = [asyncio.create_task(w.run_async()) for w in workers]
        result = await campaign
        await asyncio.gather(*runs, *clients, return_exceptions=True)
        return coordinator, result

    return asyncio.run(scenario())


def journal_checksums(runner):
    """``{cell: checksum}`` from a runner's journal."""
    return {
        record["cell"]: record["checksum"]
        for record in runner.journal.records()
        if "cell" in record
    }


def assert_matrices_identical(expected, actual):
    for metric in Metric.all():
        a, b = expected.matrix(metric), actual.matrix(metric)
        assert a.tobytes() == b.tobytes(), f"{metric} diverged"


class TestBitIdentical:
    def test_two_workers_match_serial(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        serial_runner, serial = serial_result(
            backend, tiny_suite, tiny_configs, tmp_path
        )
        dist_runner = CampaignRunner(
            backend,
            tmp_path / "dist",
            chunk_size=16,
            retry_policy=FAST_POLICY,
            seed=5,
        )
        coordinator, result = distributed(
            dist_runner,
            tiny_suite,
            tiny_configs,
            n_workers=2,
            backend_factory=lambda: backend,
        )
        assert result.complete
        assert result.simulated_cells == serial.total_cells
        assert_matrices_identical(serial, result)
        # The journals record identical artifact checksums cell by
        # cell: the on-disk checkpoints are interchangeable.
        assert journal_checksums(dist_runner) == journal_checksums(
            serial_runner
        )
        assert coordinator.stats.tasks_completed == serial.total_cells
        assert coordinator.stats.workers_seen == 2
        assert coordinator.stats.reclaims == 0

    def test_four_workers_match_one(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        results = {}
        for count in (1, 4):
            runner = CampaignRunner(
                backend,
                tmp_path / f"n{count}",
                chunk_size=16,
                retry_policy=FAST_POLICY,
                seed=5,
            )
            _, results[count] = distributed(
                runner,
                tiny_suite,
                tiny_configs,
                n_workers=count,
                backend_factory=lambda: backend,
            )
        assert results[1].complete and results[4].complete
        assert_matrices_identical(results[1], results[4])

    def test_flaky_backend_matches_clean_serial(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        serial_runner, serial = serial_result(
            backend, tiny_suite, tiny_configs, tmp_path
        )
        dist_runner = CampaignRunner(
            backend,
            tmp_path / "flaky",
            chunk_size=16,
            retry_policy=FAST_POLICY,
            seed=5,
        )
        coordinator, result = distributed(
            dist_runner,
            tiny_suite,
            tiny_configs,
            n_workers=2,
            # Each worker's private fault injector drops ~25% of calls;
            # the retry machinery must absorb every one of them.
            backend_factory=lambda: FaultInjectingBackend(
                backend, seed=13, transient_rate=0.25
            ),
            coordinator_kwargs={"worker_breaker_threshold": 100},
        )
        assert result.complete
        assert result.attempts > result.simulated_cells  # faults fired
        assert_matrices_identical(serial, result)
        assert journal_checksums(dist_runner) == journal_checksums(
            serial_runner
        )


class _BatchOnlyBackend:
    """A worker backend with ``simulate_batch`` and nothing else."""

    def __init__(self, inner):
        self._inner = inner

    def simulate_batch(self, profile, configs):
        return self._inner.simulate_batch(profile, configs)


class TestSuiteCapability:
    def test_mixed_fleet_matches_serial(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        """One suite-capable worker next to one batch-only worker: the
        same bundles run as one group or as groups of one cell, and the
        journal stays bit-identical to a serial run."""
        serial_runner, serial = serial_result(
            backend, tiny_suite, tiny_configs, tmp_path
        )
        dist_runner = CampaignRunner(
            backend,
            tmp_path / "mixed",
            chunk_size=16,
            retry_policy=FAST_POLICY,
            seed=5,
        )

        async def scenario():
            coordinator = CampaignCoordinator(
                dist_runner, port=0, monitor_interval=0.02
            )
            ready = asyncio.Event()
            campaign = asyncio.create_task(
                coordinator.run_async(
                    tiny_suite, tiny_configs,
                    ready_callback=lambda _: ready.set(),
                )
            )
            await ready.wait()
            fast = CampaignWorker(
                "127.0.0.1", coordinator.port,
                backend_factory=lambda: backend, worker_id="fast",
            )
            plain = CampaignWorker(
                "127.0.0.1", coordinator.port,
                backend_factory=lambda: _BatchOnlyBackend(backend),
                worker_id="plain",
            )
            runs = [
                asyncio.create_task(w.run_async())
                for w in (fast, plain)
            ]
            result = await campaign
            await asyncio.gather(*runs, return_exceptions=True)
            return result

        result = asyncio.run(scenario())
        assert result.complete
        assert_matrices_identical(serial, result)
        assert journal_checksums(dist_runner) == journal_checksums(
            serial_runner
        )

    def test_suite_worker_amortises_attempts(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        """A lone suite-capable worker computes same-chunk bundles in
        one backend call each: the group's other cells report
        attempts=0, so the attempt total drops below the cell count."""
        serial_runner, serial = serial_result(
            backend, tiny_suite, tiny_configs, tmp_path
        )
        dist_runner = CampaignRunner(
            backend,
            tmp_path / "suite",
            chunk_size=16,
            retry_policy=FAST_POLICY,
            seed=5,
        )
        _, result = distributed(
            dist_runner,
            tiny_suite,
            tiny_configs,
            n_workers=1,
            backend_factory=lambda: backend,
        )
        assert result.complete
        assert result.attempts < result.total_cells
        assert_matrices_identical(serial, result)
        assert journal_checksums(dist_runner) == journal_checksums(
            serial_runner
        )


class TestResumeInterop:
    def test_distributed_resumes_serial_checkpoint(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        _, full = serial_result(backend, tiny_suite, tiny_configs, tmp_path)
        shared = tmp_path / "shared"
        partial_runner = CampaignRunner(
            backend, shared, chunk_size=16,
            retry_policy=FAST_POLICY, seed=5,
        )
        partial = partial_runner.run(
            tiny_suite, tiny_configs, max_cells=3
        )
        assert partial.pending_cells
        resume_runner = CampaignRunner(
            backend, shared, chunk_size=16,
            retry_policy=FAST_POLICY, seed=5,
        )
        _, result = distributed(
            resume_runner,
            tiny_suite,
            tiny_configs,
            n_workers=2,
            backend_factory=lambda: backend,
        )
        assert result.complete
        assert result.resumed_cells == 3
        assert result.simulated_cells == full.total_cells - 3
        assert_matrices_identical(full, result)

    def test_serial_resumes_distributed_checkpoint(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        shared = tmp_path / "shared"
        dist_runner = CampaignRunner(
            backend, shared, chunk_size=16,
            retry_policy=FAST_POLICY, seed=5,
        )
        _, dist = distributed(
            dist_runner,
            tiny_suite,
            tiny_configs,
            n_workers=2,
            backend_factory=lambda: backend,
        )
        assert dist.complete
        serial_runner = CampaignRunner(
            backend, shared, chunk_size=16,
            retry_policy=FAST_POLICY, seed=5,
        )
        result = serial_runner.run(tiny_suite, tiny_configs)
        # Every cell restores from the distributed checkpoint; nothing
        # re-simulates.
        assert result.simulated_cells == 0
        assert result.resumed_cells == dist.total_cells
        assert_matrices_identical(dist, result)


def _hello(worker):
    return {
        "type": "hello", "worker": worker, "version": "",
        "capabilities": WorkerCapabilities().to_wire(),
    }


async def _refusal(port, first_message):
    """Open a connection, send one frame, return the coordinator's
    reply and whether it then hung up."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    await write_message(writer, first_message)
    reply = await read_message(reader)
    eof = await read_message(reader) is None
    writer.close()
    return reply, eof


async def _vanishing_client(port):
    """Handshake, lease one task, then drop the connection (a crash)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    await write_message(writer, _hello("doomed"))
    await read_message(reader)  # welcome
    reply = None
    while reply is None or reply.get("type") == "wait":
        if reply is not None:
            await asyncio.sleep(float(reply.get("delay", 0.02)))
        await write_message(writer, {"type": "task_request"})
        reply = await read_message(reader)
    assert reply.get("type") == "task_bundle"
    writer.close()  # SIGKILL-equivalent: lease dies with the socket


async def _silent_client(port):
    """Lease a task, then neither heartbeat nor answer (a hang)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    await write_message(writer, _hello("hung"))
    await read_message(reader)
    reply = None
    while reply is None or reply.get("type") == "wait":
        if reply is not None:
            await asyncio.sleep(float(reply.get("delay", 0.02)))
        await write_message(writer, {"type": "task_request"})
        reply = await read_message(reader)
    assert reply.get("type") == "task_bundle"
    await asyncio.sleep(2.0)  # outlive the lease without heartbeating
    writer.close()


class TestFaultTolerance:
    def test_crashed_worker_lease_is_reclaimed(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        serial_runner, serial = serial_result(
            backend, tiny_suite, tiny_configs, tmp_path
        )
        dist_runner = CampaignRunner(
            backend,
            tmp_path / "crash",
            chunk_size=16,
            retry_policy=FAST_POLICY,
            seed=5,
        )
        coordinator, result = distributed(
            dist_runner,
            tiny_suite,
            tiny_configs,
            n_workers=1,
            backend_factory=lambda: backend,
            extra_clients=(_vanishing_client,),
        )
        assert result.complete
        assert coordinator.stats.reclaims >= 1
        assert not result.failed_cells
        assert_matrices_identical(serial, result)
        assert journal_checksums(dist_runner) == journal_checksums(
            serial_runner
        )

    def test_hung_worker_lease_expires_and_is_reclaimed(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        serial_runner, serial = serial_result(
            backend, tiny_suite, tiny_configs, tmp_path
        )
        dist_runner = CampaignRunner(
            backend,
            tmp_path / "hang",
            chunk_size=16,
            retry_policy=FAST_POLICY,
            seed=5,
        )
        coordinator, result = distributed(
            dist_runner,
            tiny_suite,
            tiny_configs,
            n_workers=1,
            backend_factory=lambda: backend,
            # steal_after_fraction > 1 disables work stealing so the
            # hung lease is recovered by the expiry path under test.
            coordinator_kwargs={
                "lease_timeout": 0.2,
                "steal_after_fraction": 10.0,
            },
            extra_clients=(_silent_client,),
        )
        assert result.complete
        assert coordinator.stats.reclaims >= 1
        # Reclaim latency is measured from deadline expiry, so it must
        # be on the order of the monitor tick, not the lease timeout.
        assert all(
            latency < 1.0 for latency in coordinator.stats.reclaim_latencies
        )
        assert_matrices_identical(serial, result)
        assert journal_checksums(dist_runner) == journal_checksums(
            serial_runner
        )

    def test_worker_churn_completes_the_campaign(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        """Short-lived workers (max_tasks=1) hand the campaign along."""
        serial_runner, serial = serial_result(
            backend, tiny_suite, tiny_configs, tmp_path
        )
        dist_runner = CampaignRunner(
            backend,
            tmp_path / "churn",
            chunk_size=16,
            retry_policy=FAST_POLICY,
            seed=5,
        )

        async def scenario():
            coordinator = CampaignCoordinator(
                dist_runner, port=0, monitor_interval=0.02
            )
            ready = asyncio.Event()
            campaign = asyncio.create_task(
                coordinator.run_async(
                    tiny_suite, tiny_configs,
                    ready_callback=lambda _: ready.set(),
                )
            )
            await ready.wait()
            generation = 0
            while not campaign.done():
                worker = CampaignWorker(
                    "127.0.0.1",
                    coordinator.port,
                    backend_factory=lambda: backend,
                    worker_id=f"gen{generation}",
                    max_tasks=1,
                )
                generation += 1
                run = asyncio.create_task(worker.run_async())
                done, _ = await asyncio.wait(
                    {campaign, run}, return_when=asyncio.FIRST_COMPLETED
                )
                if campaign in done:
                    break
            result = await campaign
            return coordinator, result

        coordinator, result = asyncio.run(scenario())
        assert result.complete
        assert coordinator.stats.workers_seen >= result.total_cells
        assert_matrices_identical(serial, result)

    def test_protocol_version_skew_is_rejected(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        """A frame from a different protocol version is turned away."""
        dist_runner = CampaignRunner(
            backend,
            tmp_path / "skew",
            chunk_size=16,
            retry_policy=FAST_POLICY,
            seed=5,
        )
        outcome = {}

        async def skewed_client(port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            frame = bytearray(
                encode_frame({"type": "hello", "worker": "old"})
            )
            body = json.loads(frame[4:].decode("utf-8"))
            body["v"] = PROTOCOL_VERSION + 1
            tampered = json.dumps(body).encode("utf-8")
            writer.write(len(tampered).to_bytes(4, "big") + tampered)
            await writer.drain()
            outcome["reply"] = await read_message(reader)
            outcome["eof"] = await read_message(reader)
            writer.close()

        coordinator, result = distributed(
            dist_runner,
            tiny_suite,
            tiny_configs,
            n_workers=1,
            backend_factory=lambda: backend,
            extra_clients=(skewed_client,),
        )
        assert result.complete  # the healthy worker was unaffected
        assert outcome["reply"]["type"] == "error"
        assert "version mismatch" in outcome["reply"]["reason"]
        assert outcome["eof"] is None  # coordinator hung up on the peer

    def test_hello_without_wellformed_capabilities_is_refused(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        """Every HELLO whose capabilities are missing or ill-typed is
        answered with an error and never counted as a worker."""
        valid = WorkerCapabilities().to_wire()
        bad_capabilities = [
            None,
            "junk",
            {},
            {k: v for k, v in valid.items() if k != "throughput"},
            {**valid, "cores": "8"},
            {**valid, "cores": True},
            {**valid, "throughput": "fast"},
            {**valid, "memory_mb": 1.5},
            {**valid, "cores": 0},
        ]
        replies = []

        async def hostile_client(port):
            for index, capabilities in enumerate(bad_capabilities):
                hello = {"type": "hello", "worker": f"bad{index}"}
                if capabilities is not None:
                    hello["capabilities"] = capabilities
                replies.append(await _refusal(port, hello))

        coordinator, result = distributed(
            CampaignRunner(
                backend, tmp_path / "caps", chunk_size=16,
                retry_policy=FAST_POLICY, seed=5,
            ),
            tiny_suite,
            tiny_configs,
            n_workers=2,
            # Slow cells keep the campaign open for every refusal.
            backend_factory=lambda: DelayBackend(backend, 0.05),
            extra_clients=(hostile_client,),
        )
        assert result.complete
        assert len(replies) == len(bad_capabilities)
        for reply, eof in replies:
            assert reply["type"] == "error"
            assert "capabilit" in reply["reason"]
            assert eof
        assert coordinator.stats.workers_seen == 2
        assert {e["worker"] for e in coordinator.membership.roster()} == {
            "w0", "w1",
        }

    def test_status_probe_frame_is_refused(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        """Status is served over HTTP only; the worker port answers the
        retired status-probe frame like any other non-HELLO opener."""
        outcome = {}

        async def status_client(port):
            outcome["reply"], outcome["eof"] = await _refusal(
                port, {"type": "status" "_request"}
            )

        coordinator, result = distributed(
            CampaignRunner(
                backend, tmp_path / "status", chunk_size=16,
                retry_policy=FAST_POLICY, seed=5,
            ),
            tiny_suite,
            tiny_configs,
            n_workers=1,
            backend_factory=lambda: DelayBackend(backend, 0.02),
            extra_clients=(status_client,),
        )
        assert result.complete
        assert outcome["reply"]["type"] == "error"
        assert "expected a hello" in outcome["reply"]["reason"]
        assert outcome["eof"]
        assert coordinator.stats.workers_seen == 1

    def test_all_failing_cells_are_recorded_not_retried_forever(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        class BrokenBackend:
            def simulate_batch(self, profile, configs):
                raise RuntimeError("this simulator only segfaults")

        dist_runner = CampaignRunner(
            backend,
            tmp_path / "broken",
            chunk_size=16,
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay=0.0, jitter=0.0
            ),
            seed=5,
        )
        coordinator, result = distributed(
            dist_runner,
            tiny_suite,
            tiny_configs,
            n_workers=1,
            backend_factory=BrokenBackend,
            coordinator_kwargs={"worker_breaker_threshold": 1000},
        )
        assert not result.complete
        assert len(result.failed_cells) == result.total_cells
        assert result.simulated_cells == 0

    def test_barrier_does_not_stall_after_a_worker_leaves(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        """``min_workers`` is a start gate, not a quorum: once the fleet
        has assembled, a departing worker must not stall the campaign."""
        serial_runner, _ = serial_result(
            backend, tiny_suite, tiny_configs, tmp_path
        )

        async def scenario():
            runner = CampaignRunner(
                backend,
                tmp_path / "barrier",
                chunk_size=16,
                retry_policy=FAST_POLICY,
                seed=5,
            )
            coordinator = CampaignCoordinator(
                runner, port=0, monitor_interval=0.02, min_workers=2
            )
            ready = asyncio.Event()
            campaign = asyncio.create_task(
                coordinator.run_async(
                    tiny_suite, tiny_configs,
                    ready_callback=lambda _: ready.set(),
                )
            )
            await ready.wait()
            # One worker leaves after a single task; the survivor must
            # be allowed to finish everything else alone.
            quitter = CampaignWorker(
                "127.0.0.1", coordinator.port, worker_id="quitter",
                max_tasks=1,
            )
            stayer = CampaignWorker(
                "127.0.0.1", coordinator.port, worker_id="stayer",
            )
            runs = [
                asyncio.create_task(quitter.run_async()),
                asyncio.create_task(stayer.run_async()),
            ]
            result = await asyncio.wait_for(campaign, timeout=60)
            await asyncio.gather(*runs, return_exceptions=True)
            return coordinator, result, runner

        coordinator, result, runner = asyncio.run(scenario())
        assert result.complete
        assert coordinator.stats.workers_seen == 2
        assert journal_checksums(runner) == journal_checksums(serial_runner)
