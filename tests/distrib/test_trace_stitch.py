"""Cross-host trace stitching over real loopback campaigns.

The contract: one distributed campaign produces **one** trace — the
coordinator's root span and every worker's chunk spans share a single
trace id, each worker renders as its own named process lane in the
chrome export, and spans shipped without a trace id still land inside
the campaign trace because the coordinator stamps adopted spans.  None
of this may perturb the journal: stitched campaigns stay bit-identical
to serial ones.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

from repro.distrib import CampaignCoordinator, CampaignWorker
from repro.distrib.protocol import (
    PROTOCOL_VERSION,
    encode_frame,
    read_message,
)
from repro.obs import SLOTracker, scoped_registry, scoped_tracer
from repro.runtime import CampaignRunner

from .test_distributed_campaign import (
    FAST_POLICY,
    assert_matrices_identical,
    distributed,
    journal_checksums,
    serial_result,
)


def _runner(backend, tmp_path, name):
    return CampaignRunner(
        backend,
        tmp_path / name,
        chunk_size=16,
        retry_policy=FAST_POLICY,
        seed=5,
    )


class TestStitchedTrace:
    def test_two_workers_share_one_trace_id(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        with scoped_registry(), scoped_tracer() as tracer:
            coordinator, result = distributed(
                _runner(backend, tmp_path, "stitch"),
                tiny_suite,
                tiny_configs,
                n_workers=2,
                backend_factory=lambda: backend,
            )
        assert result.complete
        trace_id = coordinator.trace_id
        assert trace_id is not None and len(trace_id) == 32
        by_name = {}
        for record in tracer.spans:
            by_name.setdefault(record["name"], []).append(record)
        # The coordinator's root span and every adopted worker span
        # carry the campaign's single trace id.
        (root,) = by_name["distrib.coordinate"]
        assert root["trace_id"] == trace_id
        chunks = by_name["simulate.chunk"]
        assert chunks  # workers shipped their spans home
        assert {record["trace_id"] for record in chunks} == {trace_id}
        assert {record["lane"] for record in chunks} == {"w0", "w1"}
        # Worker chunk spans hang off the coordinator's root span.
        roots = [r for r in chunks if r.get("depth") == 0]
        assert all(
            record["parent_id"] == root["span_id"] for record in roots
        )

    def test_chrome_export_has_per_worker_lanes(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        with scoped_registry(), scoped_tracer() as tracer:
            coordinator, result = distributed(
                _runner(backend, tmp_path, "lanes"),
                tiny_suite,
                tiny_configs,
                n_workers=2,
                backend_factory=lambda: backend,
            )
        assert result.complete
        events = tracer.to_chrome_events()
        json.dumps(events)  # the file must be valid chrome json
        lanes = sorted(
            event["args"]["name"]
            for event in events
            if event["ph"] == "M"
        )
        assert lanes == ["w0", "w1"]
        traced = {
            event["args"]["trace_id"]
            for event in events
            if event["ph"] == "X" and "trace_id" in event["args"]
        }
        assert traced == {coordinator.trace_id}

    def test_stitching_does_not_perturb_the_journal(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        serial_runner, serial = serial_result(
            backend, tiny_suite, tiny_configs, tmp_path
        )
        dist_runner = _runner(backend, tmp_path, "bitident")
        with scoped_registry(), scoped_tracer():
            _, result = distributed(
                dist_runner,
                tiny_suite,
                tiny_configs,
                n_workers=2,
                backend_factory=lambda: backend,
            )
        assert result.complete
        assert_matrices_identical(serial, result)
        assert journal_checksums(dist_runner) == journal_checksums(
            serial_runner
        )


class _TraceBlindWorker(CampaignWorker):
    """A worker that blanks the task's trace context, so its spans
    arrive trace-id-less — as a ``--jobs`` pool child's do."""

    async def _run_group(self, reader, writer, tasks, *args, **kwargs):
        blank = {"trace_id": None, "parent_id": None}
        tasks = [dict(task, trace=blank) for task in tasks]
        return await super()._run_group(
            reader, writer, tasks, *args, **kwargs
        )


class TestMixedFleet:
    def test_trace_blind_worker_is_adopt_stamped(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        """Trace-less spans still join the campaign trace (the
        coordinator stamps them on adopt) and the journal stays
        bit-identical to serial."""
        serial_runner, serial = serial_result(
            backend, tiny_suite, tiny_configs, tmp_path
        )
        dist_runner = _runner(backend, tmp_path, "mixed")

        async def scenario():
            coordinator = CampaignCoordinator(
                dist_runner, port=0, monitor_interval=0.02
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
            workers = [
                cls(
                    "127.0.0.1",
                    coordinator.port,
                    backend_factory=lambda: backend,
                    worker_id=worker_id,
                )
                for cls, worker_id in (
                    (CampaignWorker, "new"),
                    (_TraceBlindWorker, "old"),
                )
            ]
            runs = [asyncio.create_task(w.run_async()) for w in workers]
            result = await campaign
            await asyncio.gather(*runs, return_exceptions=True)
            return coordinator, result

        with scoped_registry(), scoped_tracer() as tracer:
            coordinator, result = asyncio.run(scenario())
        assert result.complete
        chunks = [
            record
            for record in tracer.spans
            if record["name"] == "simulate.chunk"
        ]
        lanes = {record["lane"] for record in chunks}
        assert "old" in lanes  # the blind worker did real work
        assert {record["trace_id"] for record in chunks} == {
            coordinator.trace_id
        }
        assert_matrices_identical(serial, result)
        assert journal_checksums(dist_runner) == journal_checksums(
            serial_runner
        )

    def test_older_protocol_version_refused(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        """A HELLO stamped with the previous protocol version is turned
        away and never joins the fleet."""
        outcome = {}

        async def old_peer(port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            frame = bytearray(
                encode_frame({"type": "hello", "worker": "old-peer"})
            )
            body = json.loads(frame[4:].decode("utf-8"))
            body["v"] = PROTOCOL_VERSION - 1
            tampered = json.dumps(body).encode("utf-8")
            writer.write(len(tampered).to_bytes(4, "big") + tampered)
            await writer.drain()
            outcome["reply"] = await read_message(reader)
            writer.close()

        with scoped_registry(), scoped_tracer():
            coordinator, result = distributed(
                _runner(backend, tmp_path, "oldpeer"),
                tiny_suite,
                tiny_configs,
                n_workers=2,
                backend_factory=lambda: backend,
                extra_clients=(old_peer,),
            )
        assert result.complete
        assert outcome["reply"]["type"] == "error"
        assert "version mismatch" in outcome["reply"]["reason"]
        assert coordinator.membership.get("old-peer") is None


class TestStatusPayload:
    def test_status_carries_trace_series_and_slo(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        slo = SLOTracker.from_config(
            Path(__file__).resolve().parents[2]
            / "examples"
            / "slo_smoke.json"
        )
        with scoped_registry(), scoped_tracer():
            coordinator, result = distributed(
                _runner(backend, tmp_path, "status"),
                tiny_suite,
                tiny_configs,
                n_workers=2,
                backend_factory=lambda: backend,
                coordinator_kwargs={
                    "slo": slo,
                    "sample_interval": 0.05,
                },
            )
            payload = coordinator._status_payload()
        assert result.complete
        assert payload["trace_id"] == coordinator.trace_id
        # The final sample tick ran in the campaign's finally block, so
        # the series hold campaign-end truth.
        series = payload["series"]
        completed = series["distrib.tasks.completed"]
        assert completed["v"][-1] == result.simulated_cells
        statuses = {entry["name"]: entry for entry in payload["slo"]}
        assert set(statuses) == {
            "task-p99", "reclaim-burn", "stale-drop-rate",
        }
        # A healthy loopback campaign violates nothing.
        assert all(entry["ok"] for entry in statuses.values())
        burn = statuses["reclaim-burn"]
        assert not burn["no_data"]
        assert burn["value"] == 0.0
