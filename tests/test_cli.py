"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestTables:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Reorder buffer" in out
        assert "18,952,704,000" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Integer ALUs" in out


class TestSimulate:
    def test_baseline(self, capsys):
        assert main(["simulate", "--program", "gzip"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "IPC" in out

    def test_override_parameters(self, capsys):
        assert main(
            ["simulate", "--program", "art", "--l2cache-kb", "4096"]
        ) == 0
        assert "l2cache_kb=4096" in capsys.readouterr().out

    def test_mibench_program(self, capsys):
        assert main(["simulate", "--program", "sha"]) == 0

    def test_unknown_program(self, capsys):
        assert main(["simulate", "--program", "doom"]) == 2
        assert "unknown program" in capsys.readouterr().err

    def test_illegal_configuration(self, capsys):
        code = main(
            ["simulate", "--program", "gzip", "--rob-size", "32",
             "--iq-size", "80"]
        )
        assert code == 2
        assert "illegal" in capsys.readouterr().err


class TestPredict:
    def test_small_scale_run(self, capsys):
        code = main(
            ["predict", "--program", "applu", "--samples", "300",
             "--training-size", "200", "--responses", "24"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "held-out rmae" in out
        assert "correlation" in out

    def test_unknown_program(self, capsys):
        assert main(["predict", "--program", "doom", "--samples", "100"]) == 2


class TestAnalyze:
    def test_spec_analysis(self, capsys):
        assert main(
            ["analyze", "--metric", "cycles", "--samples", "300"]
        ) == 0
        out = capsys.readouterr().out
        assert "outliers" in out
        assert "most influential parameters" in out

    def test_bad_metric(self):
        with pytest.raises(ValueError):
            main(["analyze", "--metric", "ipc", "--samples", "100"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestPlan:
    def test_plan_prints_splits(self, capsys):
        assert main(["plan", "--budget", "2000", "--new-programs", "3"]) == 0
        out = capsys.readouterr().out
        assert "best splits" in out
        assert "expected rmae" in out

    def test_impossible_budget(self, capsys):
        assert main(["plan", "--budget", "5"]) == 1
        assert "no admissible split" in capsys.readouterr().err


class TestFullReport:
    def test_full_report(self, capsys):
        assert main(
            ["analyze", "--metric", "energy", "--samples", "250", "--full"]
        ) == 0
        out = capsys.readouterr().out
        assert "design-space report" in out
        assert "hierarchical clustering" in out
        assert "main effects" in out


class TestCheckpointResume:
    def _partial_checkpoint(self, checkpoint_dir, cells):
        """Simulate an interrupted campaign: run only ``cells`` chunks."""
        from repro.designspace import sample_configurations
        from repro.runtime import CampaignRunner, IntervalBackend
        from repro.sim import IntervalSimulator
        from repro.workloads import spec2000_suite

        simulator = IntervalSimulator()
        configs = sample_configurations(simulator.space, 200, seed=0)
        runner = CampaignRunner(
            IntervalBackend(simulator), checkpoint_dir, chunk_size=64
        )
        partial = runner.run(
            [spec2000_suite()["gzip"]], configs, max_cells=cells
        )
        assert not partial.complete
        return partial

    def test_simulate_interrupt_then_resume(self, tmp_path, capsys):
        """A killed campaign resumes from the journal: only the
        unfinished chunks are re-simulated."""
        checkpoint = tmp_path / "ck"
        self._partial_checkpoint(checkpoint, cells=2)

        code = main(
            ["simulate", "--program", "gzip", "--samples", "200",
             "--chunk-size", "64", "--checkpoint-dir", str(checkpoint),
             "--resume"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 resumed" in out
        assert "2 chunk(s) simulated" in out  # 4 cells total, 2 were done
        assert "cycles" in out

    def test_resume_matches_uninterrupted_run(self, tmp_path, capsys):
        checkpoint = tmp_path / "ck"
        self._partial_checkpoint(checkpoint, cells=1)
        assert main(
            ["simulate", "--program", "gzip", "--samples", "200",
             "--chunk-size", "64", "--checkpoint-dir", str(checkpoint),
             "--resume"]
        ) == 0
        resumed_out = capsys.readouterr().out

        assert main(
            ["simulate", "--program", "gzip", "--samples", "200",
             "--chunk-size", "64",
             "--checkpoint-dir", str(tmp_path / "fresh")]
        ) == 0
        fresh_out = capsys.readouterr().out
        # identical metric lines (only the campaign accounting differs)
        assert resumed_out.splitlines()[1:] == fresh_out.splitlines()[1:]

    def test_existing_checkpoint_requires_resume_flag(self, tmp_path,
                                                      capsys):
        checkpoint = tmp_path / "ck"
        self._partial_checkpoint(checkpoint, cells=1)
        code = main(
            ["simulate", "--program", "gzip", "--samples", "200",
             "--chunk-size", "64", "--checkpoint-dir", str(checkpoint)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--resume" in err

    def test_torn_journal_resumes_twice(self, tmp_path, capsys):
        """A kill mid-append leaves a torn journal tail: the first
        resume redoes that cell, the second finds nothing left to do."""
        checkpoint = tmp_path / "ck"
        argv = ["simulate", "--program", "gzip", "--samples", "128",
                "--chunk-size", "32", "--jobs", "2",
                "--checkpoint-dir", str(checkpoint)]
        assert main(argv) == 0
        journal = checkpoint / "journal.jsonl"
        text = journal.read_text()
        journal.write_text(text[: len(text) - 25])
        assert main(argv + ["--resume"]) == 0
        assert "1 chunk(s) simulated" in capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        assert "0 chunk(s) simulated, 4 resumed" in capsys.readouterr().out

    def test_explore_reuses_checkpointed_offline_build(self, tmp_path,
                                                       capsys):
        checkpoint = tmp_path / "offline"
        argv = ["explore", "--program", "applu", "--metric", "cycles",
                "--samples", "300", "--training-size", "200",
                "--candidates", "200",
                "--checkpoint-dir", str(checkpoint)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 resumed" in first

        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "0 chunk(s) simulated" in second  # everything came from disk
        assert "verdict" in second


class TestTelemetry:
    """--metrics-out / --trace-out / --log-level on the heavy commands."""

    @pytest.fixture(autouse=True)
    def _fresh_telemetry(self):
        """Isolate each test from spans/counters other tests left in the
        process-global tracer and registry (exports are cumulative by
        design)."""
        from repro.obs import scoped_registry, scoped_tracer

        with scoped_registry(), scoped_tracer():
            yield

    def _simulate_argv(self, tmp_path, *extra):
        return [
            "simulate", "--program", "gzip", "--samples", "64",
            "--chunk-size", "32", "--checkpoint-dir", str(tmp_path / "ck"),
            *extra,
        ]

    def test_metrics_out_json(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main(
            self._simulate_argv(tmp_path, "--metrics-out", str(metrics_path))
        ) == 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["campaign.cells.simulated"]["value"] >= 2
        assert metrics["retry.attempts"]["value"] >= 2
        assert metrics["campaign.chunk.seconds"]["kind"] == "histogram"
        assert str(metrics_path) in capsys.readouterr().err

    def test_metrics_out_prometheus(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.prom"
        assert main(
            self._simulate_argv(tmp_path, "--metrics-out", str(metrics_path))
        ) == 0
        text = metrics_path.read_text()
        assert "# TYPE campaign_cells_simulated counter" in text
        assert "campaign_chunk_seconds_bucket" in text

    def test_trace_out_chrome_format(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(
            self._simulate_argv(tmp_path, "--trace-out", str(trace_path))
        ) == 0
        events = json.loads(trace_path.read_text())
        names = {event["name"] for event in events}
        assert "campaign.run" in names
        assert "simulate.chunk" in names
        assert all(event["ph"] == "X" for event in events)

    def test_log_level_debug_emits_structured_lines(self, tmp_path, capsys):
        assert main(
            self._simulate_argv(tmp_path, "--log-level", "debug")
        ) == 0
        err = capsys.readouterr().err
        assert "campaign start" in err
        assert "journalled cell" in err

    def test_default_log_level_is_quiet(self, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.delenv("REPRO_LOG", raising=False)
        assert main(self._simulate_argv(tmp_path)) == 0
        assert "campaign start" not in capsys.readouterr().err

    def test_run_manifest_written_next_to_checkpoint(self, tmp_path, capsys):
        assert main(self._simulate_argv(tmp_path)) == 0
        manifest = json.loads(
            (tmp_path / "ck" / "run_manifest.json").read_text()
        )
        assert manifest["run"]["kind"] == "campaign"
        assert manifest["run"]["simulated_cells"] == 2
        assert manifest["timing"]["simulate.chunk"]["count"] == 2

    def test_parallel_resume_trace_matches_journal(self, tmp_path, capsys):
        """The acceptance scenario at the CLI: a resumed --jobs 2 run's
        trace and manifest agree with the journal."""
        from repro.runtime import CampaignJournal

        checkpoint = tmp_path / "ck"
        assert main(
            ["simulate", "--program", "gzip", "--samples", "64",
             "--chunk-size", "16", "--checkpoint-dir", str(checkpoint)]
        ) == 0
        capsys.readouterr()

        trace_path = tmp_path / "trace.json"
        assert main(
            ["simulate", "--program", "gzip", "--samples", "64",
             "--chunk-size", "16", "--checkpoint-dir", str(checkpoint),
             "--resume", "--jobs", "2", "--trace-out", str(trace_path)]
        ) == 0
        journal = CampaignJournal(checkpoint / "journal.jsonl")
        events = json.loads(trace_path.read_text())
        resumes = [e for e in events if e["name"] == "resume.chunk"]
        # the second run resumed every journalled cell and simulated none
        assert len(resumes) == len(journal.records()) == 4
        manifest = json.loads(
            (checkpoint / "run_manifest.json").read_text()
        )
        assert manifest["run"]["resumed_cells"] == 4
        assert manifest["run"]["simulated_cells"] == 0
        assert manifest["run"]["journal_records"] == 4

    def test_predict_takes_telemetry_options(self, tmp_path, capsys):
        metrics_path = tmp_path / "predict.json"
        code = main(
            ["predict", "--program", "applu", "--samples", "300",
             "--training-size", "200", "--responses", "24",
             "--metrics-out", str(metrics_path)]
        )
        assert code == 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["train.models"]["value"] >= 25
        assert metrics["predict.configs"]["value"] > 0


class TestExplore:
    def test_explore_spec_program(self, capsys):
        code = main(
            ["explore", "--program", "applu", "--metric", "cycles",
             "--samples", "300", "--training-size", "200",
             "--candidates", "400"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "sweet spots" in out

    def test_explore_unknown_program(self, capsys):
        assert main(
            ["explore", "--program", "doom", "--samples", "100"]
        ) == 2


class TestPublish:
    def test_publish_creates_registry_entry(self, tmp_path, capsys):
        registry_dir = tmp_path / "registry"
        code = main(
            ["publish", "--registry", str(registry_dir),
             "--program", "applu", "--samples", "300",
             "--training-size", "200", "--responses", "24"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "published" in out
        assert "applu-cycles v1" in out
        assert "artifact sha256" in out
        version_dir = registry_dir / "applu-cycles" / "v0001"
        assert (version_dir / "artifact.npz").is_file()
        assert (version_dir / "record.json").is_file()

    def test_publish_unknown_program(self, tmp_path, capsys):
        code = main(
            ["publish", "--registry", str(tmp_path / "r"),
             "--program", "doom", "--samples", "100"]
        )
        assert code == 2


class TestServeArguments:
    def test_serve_needs_a_model_source(self, capsys):
        assert main(["serve"]) == 2
        assert "--artifact" in capsys.readouterr().err

    def test_serve_missing_artifact(self, tmp_path, capsys):
        code = main(["serve", "--artifact", str(tmp_path / "no.npz")])
        assert code == 2
        assert "cannot load artifact" in capsys.readouterr().err

    def test_serve_unknown_registry_model(self, tmp_path, capsys):
        code = main(
            ["serve", "--registry", str(tmp_path / "empty"),
             "--model", "ghost"]
        )
        assert code == 2
        assert "cannot load model" in capsys.readouterr().err

    def test_serve_rejects_zero_workers(self, tmp_path, capsys):
        code = main(
            ["serve", "--artifact", str(tmp_path / "no.npz"),
             "--workers", "0"]
        )
        assert code == 2
        assert "at least one worker" in capsys.readouterr().err


class TestLoadArguments:
    def test_load_missing_plan_file(self, tmp_path, capsys):
        code = main(
            ["load", "--plan", str(tmp_path / "no-plan.json"),
             "--target", "127.0.0.1:8000"]
        )
        assert code == 2
        assert "load plan error" in capsys.readouterr().err

    def test_load_invalid_plan_rejected(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(
            {"seed": 1, "stages": [{"name": "s", "duration": 1.0}]}
        ))
        code = main(
            ["load", "--plan", str(path),
             "--target", "127.0.0.1:8000"]
        )
        assert code == 2
        assert "load plan error" in capsys.readouterr().err

    def test_load_unreachable_target_fails_fast(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "seed": 1,
            "stages": [{"name": "s", "duration": 1.0, "rate": 5.0}],
        }))
        # A port from the dynamic range with nothing listening.
        code = main(
            ["load", "--plan", str(path),
             "--target", "127.0.0.1:1", "--timeout", "2"]
        )
        assert code == 2
        assert "not healthy" in capsys.readouterr().err


class TestServeSigterm:
    """End to end: serve a saved artifact in a subprocess, answer a
    request, SIGTERM it, and check the graceful path ran — clean exit
    (the loop's handler drains instead of dying) with metrics and
    manifest flushed on the way out."""

    def test_sigterm_drains_and_flushes(self, tmp_path, cycles_pool,
                                        small_dataset):
        import os
        import pathlib
        import signal
        import subprocess
        import sys as _sys
        import time

        import repro
        from repro.core import ArchitectureCentricPredictor, save_predictor
        from repro.serve import PredictionClient
        from repro.sim import Metric

        models = cycles_pool.models(exclude=["gzip"])
        predictor = ArchitectureCentricPredictor(models)
        idx, _ = small_dataset.split_indices(24, seed=5)
        predictor.fit_responses(
            small_dataset.subset_configs(idx),
            small_dataset.subset_values("gzip", Metric.CYCLES, idx),
        )
        artifact = save_predictor(predictor, tmp_path / "fitted.npz")

        metrics_out = tmp_path / "serve_metrics.json"
        manifest_out = tmp_path / "serve_manifest.json"
        stderr_log = tmp_path / "serve_stderr.log"
        src_dir = pathlib.Path(repro.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src_dir)}

        with open(stderr_log, "wb") as log:
            process = subprocess.Popen(
                [_sys.executable, "-m", "repro", "serve",
                 "--artifact", str(artifact), "--port", "0",
                 "--metrics-out", str(metrics_out),
                 "--manifest-out", str(manifest_out)],
                stderr=log, env=env,
            )
        try:
            port = None
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                text = stderr_log.read_text(encoding="utf-8",
                                            errors="replace")
                if "serving on http://" in text:
                    address = text.split("serving on http://")[1]
                    port = int(address.split()[0].rsplit(":", 1)[1])
                    break
                assert process.poll() is None, text
                time.sleep(0.2)
            assert port is not None, "server never reported ready"

            with PredictionClient("127.0.0.1", port, timeout=30) as client:
                value = client.predict_one({"width": 4})
                assert value > 0

            process.send_signal(signal.SIGTERM)
            # The serve loop turns SIGTERM into a graceful drain and a
            # normal return, so the process exits 0 (not 143).
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)

        metrics = json.loads(metrics_out.read_text(encoding="utf-8"))
        assert metrics["serve.requests{status=200}"]["value"] >= 1
        manifest = json.loads(manifest_out.read_text(encoding="utf-8"))
        assert manifest["run"]["kind"] == "serve"
        assert manifest["run"]["model"]["artifact"] == str(artifact)


class TestVersion:
    def test_version_flag_prints_version_and_sha(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert f"repro {__version__}" in out
        assert "git" in out

    def test_startup_provenance_log_line(self, capsys):
        # Every subcommand logs its version + git sha at startup when
        # structured logging is enabled.
        assert main(["plan", "--budget", "600"]) == 0
        # plan has no --log-level option, so nothing was configured;
        # run a telemetry-capable command with logging on instead.
        from repro import __version__
        from repro.obs import scoped_registry, scoped_tracer

        with scoped_registry(), scoped_tracer():
            assert main(
                ["simulate", "--program", "gzip", "--log-level", "info"]
            ) == 0
        err = capsys.readouterr().err
        assert __version__ in err
        assert "cli.start" in err or "repro" in err


class TestDistributedCli:
    """Coordinator + worker over loopback, driven through main()."""

    @pytest.fixture(autouse=True)
    def _isolate_telemetry(self):
        from repro.obs import scoped_registry, scoped_tracer

        with scoped_registry(), scoped_tracer():
            yield

    @staticmethod
    def _free_port() -> int:
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]

    def test_distributed_flag_requires_checkpoint_dir(self, capsys):
        code = main(
            ["simulate", "--program", "gzip",
             "--distributed", "127.0.0.1:7650"]
        )
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_coordinator_requires_checkpoint_dir(self, capsys):
        assert main(["coordinator", "--program", "gzip"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_worker_bad_address_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["worker", "--connect", "nonsense"])

    def test_worker_gives_up_when_no_coordinator(self, capsys):
        port = self._free_port()
        code = main(
            ["worker", "--connect", f"127.0.0.1:{port}",
             "--connect-timeout", "0.3"]
        )
        assert code == 1
        assert "could not reach coordinator" in capsys.readouterr().err

    def test_coordinator_and_worker_complete_a_campaign(
        self, tmp_path, capsys
    ):
        import threading

        port = self._free_port()
        checkpoint = tmp_path / "ckpt"
        outcome = {}

        def run_coordinator():
            outcome["code"] = main(
                ["coordinator", "--checkpoint-dir", str(checkpoint),
                 "--program", "gzip", "--samples", "48",
                 "--chunk-size", "16", "--port", str(port)]
            )

        thread = threading.Thread(target=run_coordinator, daemon=True)
        thread.start()
        worker_code = main(["worker", "--connect", f"127.0.0.1:{port}"])
        thread.join(timeout=120)
        assert not thread.is_alive(), "coordinator never finished"
        assert outcome["code"] == 0
        assert worker_code == 0
        out = capsys.readouterr().out
        assert "3 chunk(s) simulated" in out
        assert "worker    : 3 chunk(s) completed" in out
        assert (checkpoint / "journal.jsonl").exists()
        assert (checkpoint / "run_manifest.json").exists()

    def test_simulate_distributed_matches_serial_journal(
        self, tmp_path, capsys
    ):
        import json as json_module
        import threading

        def journal_sums(path):
            return {
                record["cell"]: record["checksum"]
                for record in (
                    json_module.loads(line)
                    for line in path.read_text().splitlines()
                )
                if "cell" in record
            }

        serial_ckpt = tmp_path / "serial"
        assert main(
            ["simulate", "--program", "gzip", "--samples", "48",
             "--chunk-size", "16", "--checkpoint-dir", str(serial_ckpt)]
        ) == 0

        port = self._free_port()
        dist_ckpt = tmp_path / "dist"
        outcome = {}

        def run_distributed():
            outcome["code"] = main(
                ["simulate", "--program", "gzip", "--samples", "48",
                 "--chunk-size", "16", "--checkpoint-dir", str(dist_ckpt),
                 "--distributed", f"127.0.0.1:{port}"]
            )

        thread = threading.Thread(target=run_distributed, daemon=True)
        thread.start()
        assert main(["worker", "--connect", f"127.0.0.1:{port}"]) == 0
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert outcome["code"] == 0
        assert journal_sums(dist_ckpt / "journal.jsonl") == journal_sums(
            serial_ckpt / "journal.jsonl"
        )
