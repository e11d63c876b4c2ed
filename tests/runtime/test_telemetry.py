"""Telemetry of the fault-tolerant runtime.

The observability acceptance bar: metrics must count what actually
happened (retries, breaker trips, injected faults), a parallel campaign
must merge worker telemetry into the same deterministic totals as a
serial one, and the manifest/trace a faulted resumed campaign leaves
behind must agree with its journal — all without perturbing a single
output bit.
"""

import json
import os

import numpy as np
import pytest

from repro.obs import scoped_registry, scoped_tracer
from repro.runtime import (
    CampaignRunner,
    CircuitBreaker,
    FaultInjectingBackend,
    RetryPolicy,
    VirtualClock,
)
from repro.sim import Metric

#: Counters whose totals are deterministic for a seeded fault profile —
#: the ``n_jobs`` parity set (latency histograms are excluded: their
#: sums are wall-clock, only their counts are deterministic).
DETERMINISTIC_COUNTERS = (
    "retry.attempts",
    "retry.failures",
    "retry.retries",
    "campaign.attempts",
    "campaign.cells.simulated",
    "campaign.cells.resumed",
    "campaign.cells.failed",
    "campaign.cells.pending",
)


class TestRetryMetrics:
    def test_retry_counters_match_injected_faults(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        clock = VirtualClock()
        faulty = FaultInjectingBackend(
            backend, seed=11, transient_rate=0.2, sleep=clock.sleep
        )
        runner = CampaignRunner(
            faulty, tmp_path / "faulted", chunk_size=16,
            retry_policy=RetryPolicy(max_attempts=6, base_delay=0.1),
            sleep=clock.sleep, clock=clock,
        )
        with scoped_registry() as registry:
            result = runner.run(tiny_suite, tiny_configs)
        assert result.complete
        assert registry.value("retry.attempts") == result.attempts
        assert registry.value("retry.failures") == faulty.injected_transients
        assert registry.value("retry.retries") == faulty.injected_transients
        assert (
            registry.value("faults.injected", kind="transient")
            == faulty.injected_transients
        )
        assert faulty.injected_transients > 0  # the faults did fire
        assert registry.value("retry.exhausted") == 0
        assert (
            registry.histogram("campaign.chunk.seconds").count
            == result.simulated_cells
        )

    def test_exhausted_retries_counted(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        faulty = FaultInjectingBackend(backend, seed=29, permanent_rate=0.3)
        runner = CampaignRunner(
            faulty, tmp_path / "perm", chunk_size=16,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
            breaker_threshold=100,
        )
        with scoped_registry() as registry:
            result = runner.run(tiny_suite, tiny_configs)
        assert result.failed_cells
        assert registry.value("retry.exhausted") == len(result.failed_cells)
        assert registry.value("campaign.cells.failed") == len(
            result.failed_cells
        )


class TestBreakerMetrics:
    def test_campaign_breaker_trip_is_counted(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        faulty = FaultInjectingBackend(backend, seed=0, transient_rate=1.0)
        runner = CampaignRunner(
            faulty, tmp_path / "down", chunk_size=16,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
            breaker_threshold=4,
        )
        with scoped_registry() as registry:
            result = runner.run(tiny_suite, tiny_configs)
        assert not result.complete
        assert registry.value("breaker.trips") == 1
        assert registry.value("breaker.open") == 1
        assert registry.value("campaign.cells.pending") == len(
            result.pending_cells
        )

    def test_breaker_state_and_reset(self):
        with scoped_registry() as registry:
            breaker = CircuitBreaker(failure_threshold=2)
            assert breaker.state == "closed"
            assert breaker.trips == 0
            breaker.record_failure()
            assert breaker.state == "closed"
            breaker.record_failure()
            assert breaker.state == "open"
            assert breaker.trips == 1
            assert registry.value("breaker.trips") == 1
            breaker.reset()
            assert breaker.state == "closed"
            assert breaker.trips == 1  # trip history survives the reset
            assert registry.value("breaker.resets") == 1
            assert registry.value("breaker.open") == 0

    def test_reset_of_closed_breaker_is_silent(self):
        with scoped_registry() as registry:
            breaker = CircuitBreaker()
            breaker.record_failure()
            breaker.reset()
            assert registry.value("breaker.resets") == 0

    def test_success_closes_the_window_without_reset_metric(self):
        with scoped_registry() as registry:
            breaker = CircuitBreaker(failure_threshold=3)
            breaker.record_failure()
            breaker.record_success()
            assert breaker.consecutive_failures == 0
            assert registry.value("breaker.trips") == 0


class TestParallelParity:
    def test_serial_and_parallel_counters_identical(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        """n_jobs must not change any deterministic counter: worker
        snapshots merged into the parent reproduce the serial totals."""
        totals = {}
        matrices = {}
        for label, n_jobs in (("serial", 1), ("parallel", 2)):
            faulty = FaultInjectingBackend(
                backend, seed=13, transient_rate=0.2
            )
            runner = CampaignRunner(
                faulty, tmp_path / label, chunk_size=16, n_jobs=n_jobs,
                retry_policy=RetryPolicy(max_attempts=6, base_delay=0.0),
            )
            with scoped_registry() as registry, scoped_tracer() as tracer:
                result = runner.run(tiny_suite, tiny_configs)
                assert result.complete
                totals[label] = {
                    name: registry.value(name)
                    for name in DETERMINISTIC_COUNTERS
                }
                totals[label]["faults.injected{transient}"] = registry.value(
                    "faults.injected", kind="transient"
                )
                totals[label]["chunk.count"] = registry.histogram(
                    "campaign.chunk.seconds"
                ).count
                totals[label]["simulate.spans"] = tracer.count(
                    "simulate.chunk"
                )
            matrices[label] = result.matrix(Metric.CYCLES)
        assert totals["serial"] == totals["parallel"]
        assert totals["serial"]["retry.failures"] > 0  # faults did fire
        assert np.array_equal(matrices["serial"], matrices["parallel"])

    def test_parallel_spans_carry_worker_attrs(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        """A suite-capable backend gets one group per chunk: its first
        cell's span carries the backend call, the others report
        ``attempts=0``, and every span comes from a pool child stamped
        with the campaign's trace id."""
        runner = CampaignRunner(
            backend, tmp_path / "par", chunk_size=16, n_jobs=2
        )
        with scoped_tracer() as tracer:
            result = runner.run(tiny_suite, tiny_configs)
        chunk_spans = [
            s for s in tracer.spans if s["name"] == "simulate.chunk"
        ]
        assert len(chunk_spans) == result.simulated_cells
        for record in chunk_spans:
            assert record["attrs"]["outcome"] == "ok"
            assert record["pid"] != os.getpid()
            assert record["trace_id"] == tracer.trace_id
        attempts = [record["attrs"]["attempts"] for record in chunk_spans]
        chunks = result.total_cells // len(result.programs)
        assert attempts.count(1) == chunks
        assert sum(attempts) == result.attempts == chunks

    def test_executors_emit_equal_chunk_telemetry(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        """Serial, ``--jobs 2`` and a one-worker distributed campaign
        over the suite backend emit one ``simulate.chunk`` span per
        simulated cell and one ``campaign.chunk.seconds`` observation
        per backend call.  Two programs, so a worker's bundle of two
        cells holds one whole chunk, as the serial loop's group does."""
        from tests.distrib.test_distributed_campaign import distributed

        programs = tiny_suite.subset(("gzip", "applu"))
        counts = {}
        for label in ("serial", "jobs2", "distributed"):
            runner = CampaignRunner(
                backend, tmp_path / label, chunk_size=16,
                n_jobs=2 if label == "jobs2" else 1,
            )
            with scoped_registry() as registry, scoped_tracer() as tracer:
                if label == "distributed":
                    _, result = distributed(
                        runner, programs, tiny_configs, n_workers=1,
                        backend_factory=lambda: backend,
                    )
                else:
                    result = runner.run(programs, tiny_configs)
                assert result.complete
                counts[label] = {
                    "simulated": result.simulated_cells,
                    "spans": tracer.count("simulate.chunk"),
                    "chunk.count": registry.histogram(
                        "campaign.chunk.seconds"
                    ).count,
                    "attempts": result.attempts,
                }
        assert counts["serial"] == counts["jobs2"] == counts["distributed"]
        assert counts["serial"]["spans"] == counts["serial"]["simulated"]
        assert counts["serial"]["chunk.count"] == counts["serial"]["attempts"]

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_commit_observed_once_per_group(
        self, n_jobs, backend, tiny_suite, tiny_configs, tmp_path
    ):
        """``campaign.commit.seconds`` times each group's file write,
        fsync, rename and journal write, apart from the backend call."""
        runner = CampaignRunner(
            backend, tmp_path / "ck", chunk_size=16, n_jobs=n_jobs
        )
        with scoped_registry() as registry:
            runner.run(tiny_suite, tiny_configs, max_cells=5)
        # chunk 0's three cells, then chunk 1's first two
        assert registry.histogram("campaign.commit.seconds").count == 2
        with scoped_registry() as registry:
            rest = runner.run(tiny_suite, tiny_configs)
        assert rest.simulated_cells == 7
        # chunk 1's last cell, then chunks 2 and 3
        assert registry.histogram("campaign.commit.seconds").count == 3
        assert registry.histogram("campaign.chunk.seconds").count == 3

    def test_parallel_cell_spans_for_batch_only_backends(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        """Suite-less backends keep the per-cell task shape and spans."""
        faulty = FaultInjectingBackend(backend, seed=3)
        runner = CampaignRunner(
            faulty, tmp_path / "cells", chunk_size=16, n_jobs=2
        )
        with scoped_tracer() as tracer:
            result = runner.run(tiny_suite, tiny_configs)
        chunk_spans = [
            s for s in tracer.spans if s["name"] == "simulate.chunk"
        ]
        assert len(chunk_spans) == result.total_cells
        for record in chunk_spans:
            assert record["attrs"]["outcome"] == "ok"
            assert record["attrs"]["attempts"] == 1


class TestManifestAndTrace:
    def test_faulted_resume_manifest_matches_journal(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        """The acceptance scenario: a faulted, interrupted, resumed
        parallel campaign leaves a manifest and trace whose span counts
        agree with the journal."""
        clock = VirtualClock()

        def make_runner():
            faulty = FaultInjectingBackend(
                backend, seed=17, transient_rate=0.1, sleep=clock.sleep
            )
            return CampaignRunner(
                faulty, tmp_path / "resume", chunk_size=16, n_jobs=2,
                retry_policy=RetryPolicy(max_attempts=6, base_delay=0.1),
                sleep=clock.sleep, clock=clock,
            )

        first_runner = make_runner()
        first = first_runner.run(tiny_suite, tiny_configs, max_cells=5)
        assert not first.complete

        runner = make_runner()
        with scoped_registry() as registry, scoped_tracer() as tracer:
            second = runner.run(tiny_suite, tiny_configs, resume=True)
        assert second.complete
        assert second.resumed_cells == 5

        # spans agree with the result accounting...
        assert tracer.count("simulate.chunk") == second.simulated_cells
        assert tracer.count("resume.chunk") == second.resumed_cells
        assert tracer.count("campaign.run") == 1

        # ...and with the journal: every completed cell is journalled
        journal_cells = {
            record["cell"] for record in runner.journal.records()
        }
        assert len(journal_cells) == second.total_cells
        assert (
            tracer.count("simulate.chunk") + tracer.count("resume.chunk")
            == second.total_cells
        )

        # the manifest documents the same run
        manifest = json.loads(runner.run_manifest_path.read_text())
        assert manifest["schema"] == 1
        assert manifest["seed"] == runner.seed
        assert manifest["config_checksum"] == runner._config_checksum(
            second.configs
        )
        assert manifest["run"]["kind"] == "campaign"
        assert manifest["run"]["simulated_cells"] == second.simulated_cells
        assert manifest["run"]["resumed_cells"] == second.resumed_cells
        assert manifest["run"]["journal_records"] == len(
            runner.journal.records()
        )
        assert (
            manifest["timing"]["simulate.chunk"]["count"]
            == second.simulated_cells
        )
        assert (
            manifest["timing"]["resume.chunk"]["count"]
            == second.resumed_cells
        )
        # metrics exported into the manifest agree with the registry
        assert (
            manifest["metrics"]["campaign.cells.simulated"]["value"]
            == registry.value("campaign.cells.simulated")
        )

    def test_manifest_written_even_for_incomplete_runs(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        runner = CampaignRunner(backend, tmp_path / "part", chunk_size=16)
        runner.run(tiny_suite, tiny_configs, max_cells=2)
        manifest = json.loads(runner.run_manifest_path.read_text())
        assert manifest["run"]["simulated_cells"] == 2
        assert manifest["run"]["pending_cells"]

    def test_no_scratch_files_survive(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        runner = CampaignRunner(backend, tmp_path / "clean", chunk_size=16)
        runner.run(tiny_suite, tiny_configs)
        leftovers = [
            path
            for path in (tmp_path / "clean").rglob("*.tmp*")
            if path.is_file()
        ]
        assert leftovers == []

    def test_telemetry_does_not_perturb_results(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        """Matrices from an instrumented run equal a plain run's —
        telemetry records around the computation, never inside it."""
        plain = CampaignRunner(
            backend, tmp_path / "plain", chunk_size=16
        ).run(tiny_suite, tiny_configs)
        with scoped_registry(), scoped_tracer():
            traced = CampaignRunner(
                backend, tmp_path / "traced", chunk_size=16
            ).run(tiny_suite, tiny_configs)
        for metric in Metric.all():
            assert np.array_equal(
                traced.matrix(metric), plain.matrix(metric)
            )
