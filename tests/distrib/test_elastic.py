"""Elastic fleets end to end: membership, stealing, status, chaos.

Everything here runs the real coordinator/worker stack over loopback
TCP on one event loop, and every campaign is held to the same bar as
the plain distributed tests: **bit-identical journal checksums against
a serial run**, however violently the fleet churns underneath it.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.distrib import (
    CampaignCoordinator,
    CampaignWorker,
    ChaosEvent,
    ChaosPlan,
    WorkerCapabilities,
    fetch_status,
    run_chaos_campaign,
)
from repro.distrib.chaos import journal_checksums as chaos_journal_checksums
from repro.distrib.worker import DelayBackend
from repro.runtime import CampaignRunner, RetryPolicy

FAST_POLICY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


def make_runner(backend, path, seed=5):
    return CampaignRunner(
        backend, path, chunk_size=16, retry_policy=FAST_POLICY, seed=seed
    )


def serial_result(backend, suite, configs, tmp_path):
    runner = make_runner(backend, tmp_path / "serial")
    return runner, runner.run(suite, configs)


def journal_checksums(runner):
    return {
        record["cell"]: record["checksum"]
        for record in runner.journal.records()
        if "cell" in record
    }


def run_fleet(
    runner,
    suite,
    configs,
    worker_specs,
    coordinator_kwargs=None,
    late_specs=(),
    late_after=0.0,
    status_probe=False,
):
    """One campaign; each worker spec is a kwargs dict for the worker.

    ``late_specs`` workers are started ``late_after`` seconds after the
    initial fleet, exercising mid-campaign admission.  With
    ``status_probe`` the coordinator serves its HTTP twins and the
    read-only ``/status`` endpoint is polled mid-run; its last payload
    is returned.
    """

    async def scenario():
        coordinator = CampaignCoordinator(
            runner,
            port=0,
            monitor_interval=0.02,
            http_port=0 if status_probe else None,
            **(coordinator_kwargs or {}),
        )
        ready = asyncio.Event()
        campaign = asyncio.create_task(
            coordinator.run_async(
                suite, configs, ready_callback=lambda _: ready.set()
            )
        )
        await ready.wait()

        def start(spec):
            kwargs = dict(spec)
            return asyncio.create_task(
                CampaignWorker(
                    "127.0.0.1", coordinator.port, **kwargs
                ).run_async()
            )

        runs = [start(spec) for spec in worker_specs]
        status = None

        async def late_and_probe():
            nonlocal status
            if late_after:
                await asyncio.sleep(late_after)
            runs.extend(start(spec) for spec in late_specs)
            if status_probe:
                while not campaign.done():
                    try:
                        # Blocking HTTP client: off the loop the
                        # coordinator serves on.
                        status = await asyncio.to_thread(
                            fetch_status, "127.0.0.1",
                            coordinator.http_port, timeout=2.0,
                        )
                    except (ConnectionError, OSError):
                        break
                    await asyncio.sleep(0.05)

        side = asyncio.create_task(late_and_probe())
        result = await campaign
        await asyncio.gather(*runs, return_exceptions=True)
        side.cancel()
        await asyncio.gather(side, return_exceptions=True)
        return coordinator, result, status

    return asyncio.run(scenario())


class TestElasticMembership:
    def test_capabilities_reach_the_roster(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        serial_runner, _ = serial_result(
            backend, tiny_suite, tiny_configs, tmp_path
        )
        runner = make_runner(backend, tmp_path / "caps")
        coordinator, result, _ = run_fleet(
            runner,
            tiny_suite,
            tiny_configs,
            worker_specs=[
                {
                    "worker_id": "big",
                    "backend_factory": lambda: backend,
                    "capabilities": WorkerCapabilities(
                        cores=8, memory_mb=4096, throughput=400.0
                    ),
                },
                {
                    "worker_id": "small",
                    "backend_factory": lambda: backend,
                    "capabilities": WorkerCapabilities(
                        cores=2, memory_mb=1024, throughput=100.0
                    ),
                },
            ],
        )
        assert result.complete
        big = coordinator.membership.get("big")
        assert big.capabilities.cores == 8
        assert big.capabilities.throughput == 400.0
        roster = {
            entry["worker"]: entry
            for entry in coordinator.membership.roster()
        }
        assert roster["big"]["throughput"] == 400.0
        assert roster["big"]["cores"] == 8
        assert roster["small"]["throughput"] == 100.0
        assert coordinator.stats.joins == 2
        assert coordinator.stats.leaves == 2
        assert journal_checksums(runner) == journal_checksums(serial_runner)

    def test_late_joiner_is_admitted_and_contributes(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        serial_runner, _ = serial_result(
            backend, tiny_suite, tiny_configs, tmp_path
        )
        runner = make_runner(backend, tmp_path / "late")
        slowish = lambda: DelayBackend(backend, 0.05)
        coordinator, result, _ = run_fleet(
            runner,
            tiny_suite,
            tiny_configs,
            worker_specs=[
                {"worker_id": "w0", "backend_factory": slowish},
            ],
            late_specs=[
                {"worker_id": "late", "backend_factory": lambda: backend},
            ],
            late_after=0.15,
        )
        assert result.complete
        late = coordinator.membership.get("late")
        assert late is not None
        assert late.tasks_completed > 0, "late joiner never got work"
        join_events = [
            e for e in coordinator.membership.events if e["event"] == "join"
        ]
        assert {e["worker"] for e in join_events} == {"w0", "late"}
        assert journal_checksums(runner) == journal_checksums(serial_runner)

    def test_draining_worker_releases_unstarted_bundle_cells(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        serial_runner, _ = serial_result(
            backend, tiny_suite, tiny_configs, tmp_path
        )
        runner = make_runner(backend, tmp_path / "release")
        # Three advertised throughputs make "burst" weight 2x the
        # median, so it is leased 2-cell bundles; max_tasks=1 forces it
        # to drain mid-bundle and hand the unstarted cell back.
        coordinator, result, _ = run_fleet(
            runner,
            tiny_suite,
            tiny_configs,
            worker_specs=[
                {
                    "worker_id": "burst",
                    "backend_factory": lambda: backend,
                    "max_tasks": 1,
                    "capabilities": WorkerCapabilities(throughput=400.0),
                },
                {
                    "worker_id": "peer0",
                    "backend_factory": lambda: backend,
                    "capabilities": WorkerCapabilities(throughput=100.0),
                },
                {
                    "worker_id": "peer1",
                    "backend_factory": lambda: backend,
                    "capabilities": WorkerCapabilities(throughput=100.0),
                },
            ],
        )
        assert result.complete
        assert not result.failed_cells
        assert coordinator.stats.releases >= 1
        assert journal_checksums(runner) == journal_checksums(serial_runner)

    def test_reconnecting_worker_exits_cleanly_after_completion(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        """End-of-campaign hang-up must not look like a lost coordinator.

        A worker with reconnects enabled treats a bare EOF as "re-dial";
        the coordinator therefore sends an explicit drain frame before
        closing, or the worker would burn its whole reconnect budget
        against a dead port and exit nonzero after a *successful* run.
        """
        serial_runner, serial = serial_result(
            backend, tiny_suite, tiny_configs, tmp_path
        )
        runner = make_runner(backend, tmp_path / "drain")

        async def scenario():
            coordinator = CampaignCoordinator(
                runner, port=0, monitor_interval=0.02
            )
            ready = asyncio.Event()
            campaign = asyncio.create_task(
                coordinator.run_async(
                    tiny_suite,
                    tiny_configs,
                    ready_callback=lambda _: ready.set(),
                )
            )
            await ready.wait()
            worker = CampaignWorker(
                "127.0.0.1",
                coordinator.port,
                worker_id="sticky",
                backend_factory=lambda: backend,
                reconnect_attempts=4,
                reconnect_delay=5.0,  # a single re-dial would blow the
            )                         # wait_for budget below
            run = asyncio.create_task(worker.run_async())
            result = await campaign
            tasks_done = await asyncio.wait_for(run, timeout=2.0)
            return result, tasks_done

        result, tasks_done = asyncio.run(scenario())
        assert result.complete
        assert tasks_done == serial.total_cells
        assert journal_checksums(runner) == journal_checksums(serial_runner)


class TestWorkStealing:
    def test_idle_worker_steals_from_straggler(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        serial_runner, _ = serial_result(
            backend, tiny_suite, tiny_configs, tmp_path
        )
        stats = {}
        # A steal window past the lease timeout disables stealing.
        for label, fraction in (("on", 0.01), ("off", 100.0)):
            runner = make_runner(backend, tmp_path / f"steal-{label}")
            coordinator, result, _ = run_fleet(
                runner,
                tiny_suite,
                tiny_configs,
                worker_specs=[
                    {
                        "worker_id": "tar",
                        "backend_factory": lambda: DelayBackend(
                            backend, delay=0.8
                        ),
                    },
                    {"worker_id": "quick",
                     "backend_factory": lambda: backend},
                ],
                # Long leases so expiry cannot recover the cells first;
                # stealing has to.
                coordinator_kwargs={
                    "lease_timeout": 30.0,
                    "steal_after_fraction": fraction,
                },
            )
            assert result.complete
            assert not result.failed_cells
            assert (
                journal_checksums(runner) == journal_checksums(serial_runner)
            )
            stats[label] = coordinator.stats
        assert stats["on"].steals >= 1
        assert stats["on"].speculative_wins >= 1
        assert stats["off"].steals == 0

    def test_losing_duplicate_is_discarded_not_double_journalled(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        serial_runner, _ = serial_result(
            backend, tiny_suite, tiny_configs, tmp_path
        )
        runner = make_runner(backend, tmp_path / "dup")
        coordinator, result, _ = run_fleet(
            runner,
            tiny_suite,
            tiny_configs,
            worker_specs=[
                {
                    "worker_id": "tar",
                    "backend_factory": lambda: DelayBackend(
                        backend, delay=0.4
                    ),
                },
                {"worker_id": "quick", "backend_factory": lambda: backend},
            ],
            coordinator_kwargs={
                "lease_timeout": 30.0,
                "steal_after_fraction": 0.01,
            },
        )
        assert result.complete
        checksums = journal_checksums(runner)
        assert checksums == journal_checksums(serial_runner)
        # Exactly one journal record per cell even though some cells
        # ran twice (speculative duplicate + original).
        records = [
            r for r in runner.journal.records() if "cell" in r
        ]
        assert len(records) == len(checksums)


class TestStatusEndpoint:
    def test_status_snapshot_mid_campaign(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        runner = make_runner(backend, tmp_path / "status")
        coordinator, result, status = run_fleet(
            runner,
            tiny_suite,
            tiny_configs,
            worker_specs=[
                {
                    "worker_id": "w0",
                    "backend_factory": lambda: DelayBackend(
                        backend, delay=0.02
                    ),
                },
            ],
            status_probe=True,
        )
        assert result.complete
        assert status is not None, "status probe never landed"
        assert status["type"] == "status"
        assert status["campaign"]["total_cells"] == status["progress"]["total"]
        assert {"journalled", "failed", "queued", "leased", "total"} <= set(
            status["progress"]
        )
        workers = {entry["worker"] for entry in status["fleet"]}
        assert "w0" in workers
        assert "tasks_completed" in status["stats"]
        # The HTTP probe never touches the worker port.
        assert coordinator.stats.joins == 1


class TestChaosHarness:
    def _plan(self):
        return ChaosPlan(
            seed=11,
            events=(
                ChaosEvent(at=0.10, action="slow", target="w2",
                           factor=10.0),
                ChaosEvent(at=0.15, action="kill", target="w0"),
                ChaosEvent(at=0.20, action="spawn", target="late"),
                ChaosEvent(at=0.25, action="partition", target="w1",
                           duration=0.4),
                ChaosEvent(at=0.30, action="drop"),
            ),
        )

    def _chaos_kwargs(self, backend, tmp_path, name):
        checkpoint = tmp_path / name
        return {
            "runner_factory": lambda: make_runner(backend, checkpoint),
            "n_workers": 3,
            "backend_factory": lambda: DelayBackend(backend, 0.03),
            "coordinator_kwargs": {
                "lease_timeout": 0.6,
                "monitor_interval": 0.02,
            },
        }, checkpoint

    def test_chaos_campaign_loses_nothing_and_matches_serial(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        serial_runner, serial = serial_result(
            backend, tiny_suite, tiny_configs, tmp_path
        )
        kwargs, checkpoint = self._chaos_kwargs(backend, tmp_path, "chaos")
        report = asyncio.run(
            run_chaos_campaign(
                profiles=tiny_suite,
                configs=tiny_configs,
                plan=self._plan(),
                **kwargs,
            )
        )
        assert report.result.complete
        assert not report.result.failed_cells
        serial_sums = journal_checksums(serial_runner)
        chaos_sums = chaos_journal_checksums(checkpoint)
        assert chaos_sums == serial_sums, "journal diverged under chaos"
        assert len(chaos_sums) == serial.total_cells
        # The fleet really churned: w0 died, "late" joined.
        actions = [entry["action"] for entry in report.event_log]
        assert actions == ["slow", "kill", "spawn", "partition", "drop"]
        assert "late" in report.worker_tasks

    def test_same_plan_and_seed_reproduce_the_event_sequence(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        # Unpinned targets force the seeded chooser to do the picking.
        plan = ChaosPlan(
            seed=23,
            events=(
                ChaosEvent(at=0.05, action="drop"),
                ChaosEvent(at=0.10, action="slow", factor=5.0,
                           duration=0.2),
                ChaosEvent(at=0.15, action="kill"),
                ChaosEvent(at=0.20, action="spawn"),
            ),
        )
        logs = []
        for name in ("rep-a", "rep-b"):
            kwargs, _ = self._chaos_kwargs(backend, tmp_path, name)
            report = asyncio.run(
                run_chaos_campaign(
                    profiles=tiny_suite,
                    configs=tiny_configs,
                    plan=plan,
                    **kwargs,
                )
            )
            assert report.result.complete
            logs.append(report.event_log)
        assert logs[0] == logs[1], "chaos replay diverged"

    def test_coordinator_restart_resumes_the_campaign(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        serial_runner, _ = serial_result(
            backend, tiny_suite, tiny_configs, tmp_path
        )
        plan = ChaosPlan(
            seed=3,
            events=(
                ChaosEvent(at=0.25, action="restart_coordinator"),
            ),
        )
        kwargs, checkpoint = self._chaos_kwargs(
            backend, tmp_path, "restart"
        )
        report = asyncio.run(
            run_chaos_campaign(
                profiles=tiny_suite,
                configs=tiny_configs,
                plan=plan,
                **kwargs,
            )
        )
        assert report.result.complete
        assert not report.result.failed_cells
        assert chaos_journal_checksums(checkpoint) == journal_checksums(
            serial_runner
        )

    def test_plan_round_trips_through_json(self):
        plan = self._plan()
        assert ChaosPlan.from_json(
            __import__("json").dumps(plan.to_dict())
        ) == plan

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            ChaosEvent(at=0.0, action="meteor")
        with pytest.raises(ValueError, match="negative"):
            ChaosEvent(at=-1.0, action="kill")
        with pytest.raises(ValueError, match="not JSON"):
            ChaosPlan.from_json("{nope")
        with pytest.raises(ValueError, match="unknown chaos event field"):
            ChaosEvent.from_dict({"at": 0, "action": "kill", "speed": 1})
