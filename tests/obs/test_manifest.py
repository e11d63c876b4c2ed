"""Run manifests: content, provenance fields, atomic writes."""

import json

from repro.obs import (
    MetricsRegistry,
    Tracer,
    build_manifest,
    git_sha,
    write_manifest,
)
from repro.obs.manifest import MANIFEST_SCHEMA


class TestGitSha:
    def test_resolves_in_this_checkout(self):
        sha = git_sha()
        # the test runs from a git checkout of the repository
        assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))

    def test_resolved_once_per_process(self, monkeypatch):
        import subprocess

        calls = []
        run = subprocess.run

        def counted(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counted)
        git_sha.cache_clear()
        try:
            first = git_sha()
            assert git_sha() == first
            assert len(calls) == 1
        finally:
            git_sha.cache_clear()


class TestBuildManifest:
    def test_core_fields(self):
        manifest = build_manifest(
            run_id="abc123", seed=7, config_checksum="deadbeef"
        )
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["run_id"] == "abc123"
        assert manifest["seed"] == 7
        assert manifest["config_checksum"] == "deadbeef"
        assert manifest["finished"] >= manifest["started"]
        assert manifest["host"]["pid"] > 0

    def test_run_id_defaults_to_fresh_uuid(self):
        first = build_manifest()["run_id"]
        second = build_manifest()["run_id"]
        assert first != second
        assert len(first) == 32

    def test_timing_scoped_by_trace_start(self):
        tracer = Tracer()
        tracer.record("before", 1.0)
        mark = tracer.mark()
        tracer.record("simulate.chunk", 0.5)
        manifest = build_manifest(tracer=tracer, trace_start=mark)
        assert "before" not in manifest["timing"]
        assert manifest["timing"]["simulate.chunk"]["count"] == 1
        assert manifest["spans_dropped"] == 0

    def test_metrics_embedded(self):
        registry = MetricsRegistry()
        registry.counter("retry.attempts").inc(9)
        manifest = build_manifest(registry=registry)
        assert manifest["metrics"]["retry.attempts"]["value"] == 9

    def test_extra_payload_lands_under_run(self):
        manifest = build_manifest(extra={"kind": "campaign", "cells": 12})
        assert manifest["run"] == {"kind": "campaign", "cells": 12}

    def test_wall_clock_bound(self):
        manifest = build_manifest(started=100.0)
        assert manifest["started"] == 100.0
        assert manifest["finished"] > 100.0


class TestWriteManifest:
    def test_round_trips_as_json(self, tmp_path):
        manifest = build_manifest(
            run_id="r1", seed=0, registry=MetricsRegistry(), tracer=Tracer()
        )
        path = write_manifest(tmp_path / "run_manifest.json", manifest)
        loaded = json.loads(path.read_text())
        assert loaded["run_id"] == "r1"
        assert loaded["schema"] == MANIFEST_SCHEMA

    def test_atomic_no_scratch_left(self, tmp_path):
        write_manifest(tmp_path / "deep" / "m.json", build_manifest())
        assert (tmp_path / "deep" / "m.json").exists()
        assert not (tmp_path / "deep" / "m.json.tmp").exists()

    def test_overwrite_replaces(self, tmp_path):
        target = tmp_path / "m.json"
        write_manifest(target, build_manifest(run_id="one"))
        write_manifest(target, build_manifest(run_id="two"))
        assert json.loads(target.read_text())["run_id"] == "two"
