"""Tests for the checkpointed, fault-tolerant campaign runner.

The acceptance bar: a campaign through a 10% transient-failure backend
produces *bit-identical* matrices to a fault-free run, and a
killed-then-resumed campaign matches an uninterrupted one while
re-simulating only the unfinished chunks.
"""

import numpy as np
import pytest

from repro.runtime import (
    CampaignJournal,
    CampaignRunner,
    FaultInjectingBackend,
    RetryPolicy,
    SimulationError,
    VirtualClock,
    supports_suite,
)
from repro.sim import Metric


class BatchOnlyBackend:
    """Strip the suite fast path off a backend (per-cell oracle)."""

    def __init__(self, inner):
        self._inner = inner

    @property
    def space(self):
        return self._inner.space

    def simulate_batch(self, profile, configs):
        return self._inner.simulate_batch(profile, configs)


def _journal_cells(checkpoint_dir):
    """The journal as a {cell: checksum} dict (order-insensitive)."""
    journal = CampaignJournal(checkpoint_dir / "journal.jsonl")
    return {
        record["cell"]: record["checksum"] for record in journal.records()
    }


@pytest.fixture()
def clean_result(backend, tiny_suite, tiny_configs, tmp_path):
    runner = CampaignRunner(backend, tmp_path / "clean", chunk_size=16)
    return runner.run(tiny_suite, tiny_configs)


class TestCleanRun:
    def test_completes(self, clean_result):
        assert clean_result.complete
        assert clean_result.failed_cells == ()
        assert clean_result.pending_cells == ()
        # 3 programs x ceil(60 / 16) = 12 cells, served by 4 program-major
        # suite calls (one per chunk: the backend supports simulate_suite)
        assert clean_result.total_cells == 12
        assert clean_result.simulated_cells == 12
        assert clean_result.attempts == 4

    def test_matches_direct_simulation(self, clean_result, simulator,
                                       tiny_suite, tiny_configs):
        for program in tiny_suite.programs:
            direct = simulator.simulate_batch(
                tiny_suite[program], tiny_configs
            )
            assert np.array_equal(
                clean_result.values(program, Metric.CYCLES), direct.cycles
            )
            assert np.array_equal(
                clean_result.values(program, Metric.EDD), direct.edd
            )

    def test_matrix_shape(self, clean_result, tiny_configs):
        matrix = clean_result.matrix(Metric.ENERGY)
        assert matrix.shape == (3, len(tiny_configs))
        assert np.all(np.isfinite(matrix))

    def test_unknown_program_rejected(self, clean_result):
        with pytest.raises(KeyError):
            clean_result.values("doom", Metric.CYCLES)

    def test_to_dataset_round_trip(self, clean_result, tiny_suite):
        dataset = clean_result.to_dataset(tiny_suite)
        for metric in Metric.all():
            assert np.array_equal(
                dataset.matrix(metric), clean_result.matrix(metric)
            )
        assert dataset.hydrated("gzip", Metric.CYCLES)


class TestFaultTolerance:
    def test_bit_identical_under_transient_faults(self, backend, tiny_suite,
                                                  tiny_configs, tmp_path,
                                                  clean_result):
        clock = VirtualClock()
        faulty = FaultInjectingBackend(
            backend, seed=11, transient_rate=0.10, corrupt_rate=0.05,
            sleep=clock.sleep,
        )
        runner = CampaignRunner(
            faulty, tmp_path / "faulty", chunk_size=16,
            retry_policy=RetryPolicy(max_attempts=8, base_delay=0.1),
            sleep=clock.sleep, clock=clock,
        )
        result = runner.run(tiny_suite, tiny_configs)
        assert result.complete
        assert result.attempts > result.total_cells  # faults did fire
        for metric in Metric.all():
            assert np.array_equal(
                result.matrix(metric), clean_result.matrix(metric)
            )

    def test_stalls_discarded_by_timeout_guard(self, backend, tiny_suite,
                                               tiny_configs, tmp_path,
                                               clean_result):
        clock = VirtualClock()
        faulty = FaultInjectingBackend(
            backend, seed=5, stall_rate=0.5, stall_seconds=120.0,
            sleep=clock.sleep,
        )
        runner = CampaignRunner(
            faulty, tmp_path / "stalls", chunk_size=16,
            retry_policy=RetryPolicy(
                max_attempts=8, base_delay=0.1, timeout=60.0
            ),
            sleep=clock.sleep, clock=clock,
        )
        result = runner.run(tiny_suite, tiny_configs)
        assert result.complete
        assert faulty.injected_stalls > 0
        assert np.array_equal(
            result.matrix(Metric.CYCLES), clean_result.matrix(Metric.CYCLES)
        )

    def test_permanent_failures_recorded_not_raised(self, backend,
                                                    tiny_suite, tiny_configs,
                                                    tmp_path):
        faulty = FaultInjectingBackend(backend, seed=29, permanent_rate=0.3)
        runner = CampaignRunner(
            faulty, tmp_path / "perm", chunk_size=16,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
            breaker_threshold=100,
        )
        result = runner.run(tiny_suite, tiny_configs)
        assert result.failed_cells  # rate 0.3 over 12 cells must hit
        assert not result.complete
        for cell in result.failed_cells:
            program, chunk = cell.split(":")
            start = int(chunk) * 16
            values = result.values(program, Metric.CYCLES)
            assert np.all(np.isnan(values[start : start + 16]))

    def test_fail_fast_raises(self, backend, tiny_suite, tiny_configs,
                              tmp_path):
        faulty = FaultInjectingBackend(backend, seed=29, permanent_rate=0.3)
        runner = CampaignRunner(
            faulty, tmp_path / "ff", chunk_size=16,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
        )
        with pytest.raises(SimulationError):
            runner.run(tiny_suite, tiny_configs, fail_fast=True)

    def test_open_circuit_stops_the_campaign(self, backend, tiny_suite,
                                             tiny_configs, tmp_path):
        faulty = FaultInjectingBackend(backend, seed=0, transient_rate=1.0)
        runner = CampaignRunner(
            faulty, tmp_path / "down", chunk_size=16,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
            breaker_threshold=4,
        )
        result = runner.run(tiny_suite, tiny_configs)
        assert not result.complete
        assert result.pending_cells  # campaign aborted, not burned down
        assert result.attempts <= 4  # breaker capped the damage

    def test_incomplete_campaign_refuses_dataset(self, backend, tiny_suite,
                                                 tiny_configs, tmp_path):
        runner = CampaignRunner(backend, tmp_path / "part", chunk_size=16)
        partial = runner.run(tiny_suite, tiny_configs, max_cells=3)
        with pytest.raises(ValueError, match="incomplete"):
            partial.to_dataset(tiny_suite)


class TestResume:
    def test_kill_then_resume_matches_uninterrupted(self, backend,
                                                    tiny_suite, tiny_configs,
                                                    tmp_path, clean_result):
        runner = CampaignRunner(backend, tmp_path / "resume", chunk_size=16)
        partial = runner.run(tiny_suite, tiny_configs, max_cells=5)
        assert not partial.complete
        assert partial.simulated_cells == 5

        finished = runner.run(tiny_suite, tiny_configs, resume=True)
        assert finished.complete
        assert finished.resumed_cells == 5  # only unfinished cells rerun
        assert finished.simulated_cells == finished.total_cells - 5
        for metric in Metric.all():
            assert np.array_equal(
                finished.matrix(metric), clean_result.matrix(metric)
            )

    def test_resumed_archive_identical_to_uninterrupted(self, backend,
                                                        tiny_suite,
                                                        tiny_configs,
                                                        tmp_path):
        """Saving the resumed dataset gives the same archive content as
        saving an uninterrupted one."""
        from repro.exploration import save_dataset
        from repro.runtime import file_checksum

        runner = CampaignRunner(backend, tmp_path / "a", chunk_size=16)
        runner.run(tiny_suite, tiny_configs, max_cells=4)
        resumed = runner.run(tiny_suite, tiny_configs, resume=True)

        straight = CampaignRunner(
            backend, tmp_path / "b", chunk_size=16
        ).run(tiny_suite, tiny_configs)

        first = save_dataset(
            resumed.to_dataset(tiny_suite), tmp_path / "resumed.npz"
        )
        second = save_dataset(
            straight.to_dataset(tiny_suite), tmp_path / "straight.npz"
        )
        assert file_checksum(first) == file_checksum(second)

    def test_second_run_is_pure_resume(self, backend, tiny_suite,
                                       tiny_configs, tmp_path):
        runner = CampaignRunner(backend, tmp_path / "twice", chunk_size=16)
        runner.run(tiny_suite, tiny_configs)
        again = runner.run(tiny_suite, tiny_configs, resume=True)
        assert again.simulated_cells == 0
        assert again.resumed_cells == again.total_cells
        assert again.attempts == 0

    def test_corrupt_chunk_file_resimulated(self, backend, tiny_suite,
                                            tiny_configs, tmp_path,
                                            clean_result):
        runner = CampaignRunner(backend, tmp_path / "bitrot", chunk_size=16)
        runner.run(tiny_suite, tiny_configs)
        victim = sorted((tmp_path / "bitrot" / "chunks").glob("*.npz"))[0]
        victim.write_bytes(victim.read_bytes()[:-20])  # truncate

        again = runner.run(tiny_suite, tiny_configs, resume=True)
        assert again.complete
        # A file that no longer loads costs its group: one chunk's 3 cells
        assert again.simulated_cells == 3
        assert np.array_equal(
            again.matrix(Metric.CYCLES), clean_result.matrix(Metric.CYCLES)
        )

    def test_deleted_chunk_file_resimulated(self, backend, tiny_suite,
                                            tiny_configs, tmp_path):
        runner = CampaignRunner(backend, tmp_path / "gone", chunk_size=16)
        runner.run(tiny_suite, tiny_configs)
        victim = sorted((tmp_path / "gone" / "chunks").glob("*.npz"))[0]
        victim.unlink()
        again = runner.run(tiny_suite, tiny_configs, resume=True)
        assert again.complete
        assert again.simulated_cells == 3  # the file's whole group

    def test_refuses_existing_checkpoint_without_resume(self, backend,
                                                        tiny_suite,
                                                        tiny_configs,
                                                        tmp_path):
        runner = CampaignRunner(backend, tmp_path / "no", chunk_size=16)
        runner.run(tiny_suite, tiny_configs, max_cells=1)
        with pytest.raises(ValueError, match="already holds a campaign"):
            runner.run(tiny_suite, tiny_configs, resume=False)

    def test_mismatched_campaign_rejected(self, backend, tiny_suite,
                                          tiny_configs, tmp_path):
        runner = CampaignRunner(backend, tmp_path / "mix", chunk_size=16)
        runner.run(tiny_suite, tiny_configs, max_cells=1)
        with pytest.raises(ValueError, match="different campaign"):
            runner.run(tiny_suite, tiny_configs[:32], resume=True)

    def test_faulty_resume_still_bit_identical(self, backend, tiny_suite,
                                               tiny_configs, tmp_path,
                                               clean_result):
        """Interrupt + faults + resume together: still exact."""
        clock = VirtualClock()
        faulty = FaultInjectingBackend(
            backend, seed=17, transient_rate=0.10, sleep=clock.sleep,
        )
        runner = CampaignRunner(
            faulty, tmp_path / "both", chunk_size=16,
            retry_policy=RetryPolicy(max_attempts=8, base_delay=0.1),
            sleep=clock.sleep, clock=clock,
        )
        runner.run(tiny_suite, tiny_configs, max_cells=7)
        result = runner.run(tiny_suite, tiny_configs, resume=True)
        assert result.complete
        for metric in Metric.all():
            assert np.array_equal(
                result.matrix(metric), clean_result.matrix(metric)
            )


class TestParallelCampaign:
    """n_jobs must be a pure performance knob: matrices, journal
    contents and resume behaviour all match the serial loop."""

    def test_parallel_matches_serial_bit_identical(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        serial = CampaignRunner(
            backend, tmp_path / "serial", chunk_size=16
        ).run(tiny_suite, tiny_configs)
        parallel = CampaignRunner(
            backend, tmp_path / "par", chunk_size=16, n_jobs=3
        ).run(tiny_suite, tiny_configs)
        assert parallel.complete
        assert parallel.simulated_cells == serial.simulated_cells
        assert parallel.attempts == serial.attempts
        for metric in Metric.all():
            assert np.array_equal(
                parallel.matrix(metric), serial.matrix(metric)
            )

    def test_parallel_interrupt_then_resume(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        serial = CampaignRunner(
            backend, tmp_path / "serial", chunk_size=16
        ).run(tiny_suite, tiny_configs)
        first = CampaignRunner(
            backend, tmp_path / "resume", chunk_size=16, n_jobs=2
        ).run(tiny_suite, tiny_configs, max_cells=5)
        assert not first.complete
        assert first.simulated_cells == 5
        assert len(first.pending_cells) == 7
        second = CampaignRunner(
            backend, tmp_path / "resume", chunk_size=16, n_jobs=2
        ).run(tiny_suite, tiny_configs)
        assert second.complete
        assert second.resumed_cells == 5
        assert second.simulated_cells == 7
        for metric in Metric.all():
            assert np.array_equal(
                second.matrix(metric), serial.matrix(metric)
            )

    def test_serial_resumes_a_parallel_checkpoint(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        CampaignRunner(
            backend, tmp_path / "mix", chunk_size=16, n_jobs=2
        ).run(tiny_suite, tiny_configs, max_cells=4)
        result = CampaignRunner(
            backend, tmp_path / "mix", chunk_size=16
        ).run(tiny_suite, tiny_configs)
        assert result.complete
        assert result.resumed_cells == 4

    def test_parallel_transient_faults_bit_identical(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        clean = CampaignRunner(
            backend, tmp_path / "clean", chunk_size=16
        ).run(tiny_suite, tiny_configs)
        faulty = FaultInjectingBackend(backend, seed=13, transient_rate=0.2)
        result = CampaignRunner(
            faulty, tmp_path / "faulty", chunk_size=16, n_jobs=3,
            retry_policy=RetryPolicy(max_attempts=5, base_delay=0.0),
        ).run(tiny_suite, tiny_configs)
        assert result.complete
        for metric in Metric.all():
            assert np.array_equal(
                result.matrix(metric), clean.matrix(metric)
            )

    def test_parallel_permanent_failures_recorded(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        faulty = FaultInjectingBackend(backend, seed=29, permanent_rate=0.3)
        result = CampaignRunner(
            faulty, tmp_path / "perm", chunk_size=16, n_jobs=2,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
        ).run(tiny_suite, tiny_configs)
        assert result.failed_cells
        assert not result.complete

    def test_parallel_fail_fast_raises(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        faulty = FaultInjectingBackend(backend, seed=29, permanent_rate=0.3)
        runner = CampaignRunner(
            faulty, tmp_path / "ff", chunk_size=16, n_jobs=2,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
        )
        with pytest.raises(SimulationError):
            runner.run(tiny_suite, tiny_configs, fail_fast=True)


class TestSuiteFastPath:
    """simulate_suite must be a pure performance knob: same matrices,
    same journal content, fewer backend calls."""

    def test_backend_advertises_suite(self, backend):
        assert supports_suite(backend)
        assert not supports_suite(BatchOnlyBackend(backend))
        assert not supports_suite(FaultInjectingBackend(backend))

    def test_suite_matches_per_cell_path(self, backend, tiny_suite,
                                         tiny_configs, tmp_path):
        fast = CampaignRunner(
            backend, tmp_path / "fast", chunk_size=16
        ).run(tiny_suite, tiny_configs)
        slow = CampaignRunner(
            BatchOnlyBackend(backend), tmp_path / "slow", chunk_size=16
        ).run(tiny_suite, tiny_configs)
        assert fast.complete and slow.complete
        assert fast.attempts == 4  # one suite call per chunk
        assert slow.attempts == 12  # one batch call per cell
        for metric in Metric.all():
            assert np.array_equal(fast.matrix(metric), slow.matrix(metric))
        assert _journal_cells(tmp_path / "fast") == _journal_cells(
            tmp_path / "slow"
        )

    def test_parallel_suite_journal_matches_serial(self, backend,
                                                   tiny_suite, tiny_configs,
                                                   tmp_path):
        serial = CampaignRunner(
            backend, tmp_path / "serial", chunk_size=16
        ).run(tiny_suite, tiny_configs)
        parallel = CampaignRunner(
            backend, tmp_path / "par", chunk_size=16, n_jobs=2
        ).run(tiny_suite, tiny_configs)
        assert parallel.attempts == serial.attempts == 4
        for metric in Metric.all():
            assert np.array_equal(
                parallel.matrix(metric), serial.matrix(metric)
            )
        assert _journal_cells(tmp_path / "par") == _journal_cells(
            tmp_path / "serial"
        )

    def test_suite_interrupt_resumes_per_cell(self, backend, tiny_suite,
                                              tiny_configs, tmp_path,
                                              clean_result):
        """max_cells interrupts mid-chunk-row; the resume recomputes only
        the unjournalled cells, via smaller suite calls."""
        runner = CampaignRunner(backend, tmp_path / "cut", chunk_size=16)
        partial = runner.run(tiny_suite, tiny_configs, max_cells=5)
        assert partial.simulated_cells == 5
        finished = runner.run(tiny_suite, tiny_configs, resume=True)
        assert finished.complete
        assert finished.resumed_cells == 5
        assert finished.simulated_cells == 7
        for metric in Metric.all():
            assert np.array_equal(
                finished.matrix(metric), clean_result.matrix(metric)
            )


class TestInterruptedManifest:
    """A campaign killed mid-run still leaves a provenance manifest."""

    def test_backend_blowup_writes_interrupted_manifest(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        import json

        class ExplodingBackend:
            def __init__(self, inner, after):
                self._inner = inner
                self._after = after
                self._calls = 0

            def simulate_batch(self, *args, **kwargs):
                self._calls += 1
                if self._calls > self._after:
                    raise KeyboardInterrupt  # operator hit ctrl-C
                return self._inner.simulate_batch(*args, **kwargs)

        runner = CampaignRunner(
            ExplodingBackend(backend, after=3),
            tmp_path / "boom", chunk_size=16,
        )
        with pytest.raises(KeyboardInterrupt):
            runner.run(tiny_suite, tiny_configs)

        manifest = json.loads(
            runner.run_manifest_path.read_text(encoding="utf-8")
        )
        assert manifest["run"]["status"] == "interrupted"
        assert "KeyboardInterrupt" in manifest["run"]["error"]
        assert manifest["run"]["kind"] == "campaign"

    def test_completed_manifest_reports_status(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        import json

        runner = CampaignRunner(backend, tmp_path / "done", chunk_size=16)
        runner.run(tiny_suite, tiny_configs)
        manifest = json.loads(
            runner.run_manifest_path.read_text(encoding="utf-8")
        )
        assert manifest["run"]["status"] == "complete"

    def test_interrupted_checkpoint_resumes_cleanly(
        self, backend, tiny_suite, tiny_configs, tmp_path, clean_result
    ):
        class OneShotInterrupt:
            def __init__(self, inner, after):
                self._inner = inner
                self._after = after
                self._calls = 0

            def simulate_batch(self, *args, **kwargs):
                self._calls += 1
                if self._calls == self._after:
                    raise KeyboardInterrupt
                return self._inner.simulate_batch(*args, **kwargs)

        target = tmp_path / "recover"
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(
                OneShotInterrupt(backend, after=5), target, chunk_size=16
            ).run(tiny_suite, tiny_configs)

        result = CampaignRunner(backend, target, chunk_size=16).run(
            tiny_suite, tiny_configs, resume=True
        )
        assert result.complete
        assert result.resumed_cells == 4  # chunks finished before ctrl-C
        for metric in Metric.all():
            assert np.array_equal(
                result.matrix(metric), clean_result.matrix(metric)
            )


class TestJournalCrashRecovery:
    """Crash anatomy: every way the journal or a chunk file can be left
    half-written must be detected on resume, cost exactly the damaged
    cells, and still converge to bit-identical matrices."""

    @staticmethod
    def _journal(root):
        return root / "journal.jsonl"

    def test_torn_journal_tail_resimulates_that_cell(
        self, backend, tiny_suite, tiny_configs, tmp_path, clean_result
    ):
        """kill -9 mid-append leaves a half-written final line; resume
        must treat that cell as never finished, and nothing else."""
        target = tmp_path / "torn"
        runner = CampaignRunner(backend, target, chunk_size=16)
        runner.run(tiny_suite, tiny_configs)

        journal = self._journal(target)
        text = journal.read_text(encoding="utf-8")
        # Chop the last record off mid-JSON, exactly as an interrupted
        # fsynced append would leave it.
        journal.write_text(text[: len(text) - 25], encoding="utf-8")

        again = runner.run(tiny_suite, tiny_configs, resume=True)
        assert again.complete
        assert again.simulated_cells == 1
        assert again.resumed_cells == again.total_cells - 1
        for metric in Metric.all():
            assert np.array_equal(
                again.matrix(metric), clean_result.matrix(metric)
            )

    def test_tampered_checksum_drops_only_that_chunk(
        self, backend, tiny_suite, tiny_configs, tmp_path, clean_result
    ):
        """A journal record whose checksum no longer matches its chunk
        file invalidates that one cell, not the whole campaign."""
        import json as _json

        target = tmp_path / "tamper"
        runner = CampaignRunner(backend, target, chunk_size=16)
        runner.run(tiny_suite, tiny_configs)

        journal = self._journal(target)
        lines = journal.read_text(encoding="utf-8").splitlines()
        victim = _json.loads(lines[1])
        victim["checksum"] = "0" * len(victim["checksum"])
        lines[1] = _json.dumps(victim, sort_keys=True)
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")

        again = runner.run(tiny_suite, tiny_configs, resume=True)
        assert again.complete
        assert again.simulated_cells == 1  # only the distrusted cell
        for metric in Metric.all():
            assert np.array_equal(
                again.matrix(metric), clean_result.matrix(metric)
            )

    def test_mid_journal_corruption_refuses_resume(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        """Garbage anywhere but the tail is tampering, not a crash, and
        resuming past it would silently trust unverifiable history."""
        target = tmp_path / "midrot"
        runner = CampaignRunner(backend, target, chunk_size=16)
        runner.run(tiny_suite, tiny_configs)

        journal = self._journal(target)
        lines = journal.read_text(encoding="utf-8").splitlines()
        lines[0] = lines[0][:-10]  # corrupt the FIRST record
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")

        with pytest.raises(ValueError, match="corrupt journal"):
            runner.run(tiny_suite, tiny_configs, resume=True)

    def test_truncated_chunk_file_recovery_is_bit_identical(
        self, backend, tiny_suite, tiny_configs, tmp_path, clean_result
    ):
        """A group .npz cut off mid-write no longer loads; its cells are
        re-simulated and every metric still matches."""
        target = tmp_path / "cutoff"
        runner = CampaignRunner(backend, target, chunk_size=16)
        runner.run(tiny_suite, tiny_configs)

        victims = sorted((target / "chunks").glob("*.npz"))[:2]
        for victim in victims:
            data = victim.read_bytes()
            victim.write_bytes(data[: len(data) // 2])

        again = runner.run(tiny_suite, tiny_configs, resume=True)
        assert again.complete
        assert again.simulated_cells == 6  # two groups of 3 cells
        for metric in Metric.all():
            assert np.array_equal(
                again.matrix(metric), clean_result.matrix(metric)
            )

    def test_crash_between_chunk_write_and_journal_append(
        self, backend, tiny_suite, tiny_configs, tmp_path, clean_result
    ):
        """The chunk file landed but the process died before the journal
        line: the orphaned file is ignored and the cell redone."""
        target = tmp_path / "orphan"
        runner = CampaignRunner(backend, target, chunk_size=16)
        runner.run(tiny_suite, tiny_configs)

        journal = self._journal(target)
        lines = journal.read_text(encoding="utf-8").splitlines()
        journal.write_text(
            "\n".join(lines[:-1]) + "\n", encoding="utf-8"
        )  # drop the last record entirely; its .npz stays on disk

        again = runner.run(tiny_suite, tiny_configs, resume=True)
        assert again.complete
        assert again.simulated_cells == 1
        for metric in Metric.all():
            assert np.array_equal(
                again.matrix(metric), clean_result.matrix(metric)
            )


class TestGroupCommit:
    """A suite backend commits one chunk's cells as one group: one file,
    one journal write.  Every crash point of that layout costs at most
    the damaged cells and resumes into bit-identical matrices."""

    @staticmethod
    def _cut_journal(root, kept):
        journal = root / "journal.jsonl"
        lines = journal.read_text(encoding="utf-8").splitlines(keepends=True)
        journal.write_text("".join(lines[:kept]), encoding="utf-8")

    @staticmethod
    def _assert_matches(result, clean_result):
        for metric in Metric.all():
            assert np.array_equal(
                result.matrix(metric), clean_result.matrix(metric)
            )

    def test_one_file_per_group_and_one_journal_line_per_cell(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        runner = CampaignRunner(backend, tmp_path / "ck", chunk_size=16)
        result = runner.run(tiny_suite, tiny_configs)
        files = sorted((tmp_path / "ck" / "chunks").glob("*"))
        assert [path.name[:6] for path in files] == [
            "00000-", "00001-", "00002-", "00003-",
        ]
        records = runner.journal.records()
        assert len(records) == result.total_cells
        assert {record["file"] for record in records} == {
            f"chunks/{path.name}" for path in files
        }
        with np.load(files[0]) as archive:
            assert archive["cycles"].shape == (3, 16)
            assert archive["cycles"].dtype == np.float64

    def test_torn_append_after_partial_run_still_completes(
        self, backend, tiny_suite, tiny_configs, tmp_path, clean_result
    ):
        """The next append must not fuse with a torn tail: the resume
        finishes and its manifest counts every record."""
        target = tmp_path / "torn5"
        runner = CampaignRunner(backend, target, chunk_size=16)
        runner.run(tiny_suite, tiny_configs, max_cells=5)
        journal = target / "journal.jsonl"
        text = journal.read_text(encoding="utf-8")
        journal.write_text(text[: len(text) - 25], encoding="utf-8")

        again = runner.run(tiny_suite, tiny_configs, resume=True)
        assert again.complete
        assert again.resumed_cells == 4
        assert again.simulated_cells == 8
        assert len(runner.journal.records()) == again.total_cells
        self._assert_matches(again, clean_result)

    def test_torn_tail_costs_one_resume_only(
        self, backend, tiny_suite, tiny_configs, tmp_path, clean_result
    ):
        target = tmp_path / "torn"
        runner = CampaignRunner(backend, target, chunk_size=16)
        runner.run(tiny_suite, tiny_configs)
        journal = target / "journal.jsonl"
        text = journal.read_text(encoding="utf-8")
        journal.write_text(text[: len(text) - 25], encoding="utf-8")

        first = runner.run(tiny_suite, tiny_configs, resume=True)
        assert first.simulated_cells == 1
        second = runner.run(tiny_suite, tiny_configs, resume=True)
        assert second.simulated_cells == 0
        assert second.resumed_cells == second.total_cells
        self._assert_matches(second, clean_result)

    def test_journal_cut_mid_group_resumes_twice(
        self, backend, tiny_suite, tiny_configs, tmp_path, clean_result
    ):
        """Re-committing the rest of a cut group writes a new file: the
        one holding the group's journalled cell is never replaced."""
        target = tmp_path / "midgroup"
        runner = CampaignRunner(backend, target, chunk_size=16)
        runner.run(tiny_suite, tiny_configs)
        self._cut_journal(target, 10)  # keeps gzip:3, drops applu:3, art:3

        first = runner.run(tiny_suite, tiny_configs, resume=True)
        assert first.simulated_cells == 2
        assert len(list((target / "chunks").glob("00003-*.npz"))) == 2
        second = runner.run(tiny_suite, tiny_configs, resume=True)
        assert second.simulated_cells == 0
        self._assert_matches(second, clean_result)

    def test_flipped_byte_costs_only_its_cell(
        self, backend, tiny_suite, tiny_configs, tmp_path, clean_result
    ):
        target = tmp_path / "flip"
        runner = CampaignRunner(backend, target, chunk_size=16)
        runner.run(tiny_suite, tiny_configs)
        victim = sorted((target / "chunks").glob("00000-*.npz"))[0]
        with np.load(victim) as archive:
            value = archive["energy"][1, 5].tobytes()  # applu:0's row
        data = bytearray(victim.read_bytes())
        assert data.count(value) == 1
        data[data.index(value)] ^= 0x01
        victim.write_bytes(bytes(data))

        again = runner.run(tiny_suite, tiny_configs, resume=True)
        assert again.complete
        assert again.simulated_cells == 1
        assert again.resumed_cells == again.total_cells - 1
        self._assert_matches(again, clean_result)

    def test_unjournalled_group_file_is_ignored(
        self, backend, tiny_suite, tiny_configs, tmp_path, clean_result
    ):
        """The file landed, the journal write did not: the cells are
        redone, and the re-commit's file replaces it with equal arrays."""
        target = tmp_path / "orphan"
        runner = CampaignRunner(backend, target, chunk_size=16)
        runner.run(tiny_suite, tiny_configs)
        self._cut_journal(target, 9)  # chunk 3's file is now orphaned
        assert len(list((target / "chunks").glob("00003-*.npz"))) == 1

        again = runner.run(tiny_suite, tiny_configs, resume=True)
        assert again.simulated_cells == 3
        assert len(list((target / "chunks").glob("00003-*.npz"))) == 1
        self._assert_matches(again, clean_result)
        assert runner.run(
            tiny_suite, tiny_configs, resume=True
        ).simulated_cells == 0

    def test_version_one_checkpoint_refused(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        import json

        target = tmp_path / "v1"
        runner = CampaignRunner(backend, target, chunk_size=16)
        runner.run(tiny_suite, tiny_configs, max_cells=3)
        manifest = json.loads(runner.manifest_path.read_text())
        manifest["version"] = 1
        runner.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="layout version 1") as error:
            runner.run(tiny_suite, tiny_configs, resume=True)
        assert "different campaign" not in str(error.value)
