"""Span tracing: nesting, bounds, rollups, chrome export, trace ids."""

import json

import pytest

from repro.obs import (
    Tracer,
    get_tracer,
    new_trace_id,
    scoped_registry,
    scoped_tracer,
    span,
)


class TestSpans:
    def test_span_records_name_and_attrs(self):
        tracer = Tracer()
        with tracer.span("simulate.chunk", program="gzip", chunk=3):
            pass
        (record,) = tracer.spans
        assert record["name"] == "simulate.chunk"
        assert record["attrs"] == {"program": "gzip", "chunk": 3}
        assert record["dur"] >= 0.0

    def test_yielded_record_takes_late_attrs(self):
        tracer = Tracer()
        with tracer.span("simulate.chunk") as record:
            record["attrs"]["attempts"] = 4
        assert tracer.spans[0]["attrs"]["attempts"] == 4

    def test_duration_finalised_only_on_exit(self):
        tracer = Tracer()
        with tracer.span("work") as record:
            assert record["dur"] == 0.0
        assert tracer.spans[0]["dur"] > 0.0

    def test_nesting_tracks_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {record["name"]: record for record in tracer.spans}
        assert by_name["outer"]["depth"] == 0
        assert by_name["inner"]["depth"] == 1
        # inner exits first, so it is stored first
        assert tracer.spans[0]["name"] == "inner"

    def test_span_survives_exceptions(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert tracer.spans[0]["name"] == "doomed"
        with tracer.span("after"):
            pass
        assert tracer.spans[1]["depth"] == 0  # stack was unwound

    def test_disabled_tracer_is_a_noop(self):
        tracer = Tracer(enabled=False)
        with tracer.span("ignored") as record:
            assert record is None
        tracer.record("ignored", 1.0)
        assert tracer.spans == []

    def test_max_spans_bounds_memory(self):
        tracer = Tracer(max_spans=2)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3

    def test_record_adopts_external_timing(self):
        tracer = Tracer()
        tracer.record("train.fit", 1.5, program="gzip", worker=True)
        (record,) = tracer.spans
        assert record["dur"] == 1.5
        assert record["attrs"]["worker"] is True

    def test_adopt_folds_worker_spans(self):
        parent, worker = Tracer(), Tracer()
        with worker.span("simulate.chunk", program="art"):
            pass
        parent.adopt(worker.spans)
        assert parent.count("simulate.chunk") == 1


class TestTraceContext:
    def test_every_span_gets_a_span_id(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        (record,) = tracer.spans
        assert len(record["span_id"]) == 16
        assert "trace_id" not in record  # no trace id: shape unchanged
        assert "parent_id" not in record

    def test_nested_spans_link_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {record["name"]: record for record in tracer.spans}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]

    def test_ensure_trace_id_is_sticky(self):
        tracer = Tracer()
        first = tracer.ensure_trace_id()
        assert tracer.ensure_trace_id() == first
        assert len(first) == 32

    def test_new_trace_ids_are_unique(self):
        assert new_trace_id() != new_trace_id()

    def test_adopt_stamps_missing_trace_id(self):
        parent = Tracer(trace_id="t" * 32)
        old_worker = Tracer()  # a pool child never sees the trace id
        with old_worker.span("simulate.chunk"):
            pass
        new_worker = Tracer(trace_id="u" * 32)
        with new_worker.span("simulate.chunk"):
            pass
        parent.adopt(old_worker.spans)
        parent.adopt(new_worker.spans)
        stamped = [record["trace_id"] for record in parent.spans]
        assert stamped == ["t" * 32, "u" * 32]


class TestTruncationMarkers:
    def test_dropped_spans_counted_in_registry(self):
        with scoped_registry() as registry:
            tracer = Tracer(max_spans=1)
            tracer.record("kept", 0.1)
            tracer.record("dropped", 0.1)
            tracer.record("dropped", 0.1)
            assert tracer.dropped == 2
            assert registry.counter("trace.dropped").value == 2

    def test_summary_marks_truncation(self):
        tracer = Tracer(max_spans=1)
        tracer.record("a", 1.0)
        tracer.record("b", 1.0)
        summary = tracer.summary()
        assert summary["trace.dropped"]["count"] == 2 - 1
        assert summary["trace.dropped"]["total_seconds"] == 0.0

    def test_summary_unmarked_when_nothing_dropped(self):
        tracer = Tracer()
        tracer.record("a", 1.0)
        assert "trace.dropped" not in tracer.summary()

    def test_chrome_export_flags_truncation(self):
        tracer = Tracer(max_spans=1)
        tracer.record("kept", 0.5)
        tracer.record("lost", 0.5)
        events = tracer.to_chrome_events()
        marker = events[-1]
        assert marker["name"] == "trace.truncated"
        assert marker["ph"] == "I"
        assert marker["args"] == {"dropped": 1}
        kept = events[0]
        assert marker["ts"] >= kept["ts"] + kept["dur"] - 1e-6


class TestRollups:
    def test_count_scoped_by_mark(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        mark = tracer.mark()
        with tracer.span("x"):
            pass
        assert tracer.count("x") == 2
        assert tracer.count("x", mark) == 1

    def test_summary_shape(self):
        tracer = Tracer()
        tracer.record("a", 1.0)
        tracer.record("a", 3.0)
        tracer.record("b", 0.5)
        summary = tracer.summary()
        assert summary["a"]["count"] == 2
        assert summary["a"]["total_seconds"] == 4.0
        assert summary["a"]["min_seconds"] == 1.0
        assert summary["a"]["max_seconds"] == 3.0
        assert list(summary) == ["a", "b"]  # sorted by name

    def test_clear(self):
        tracer = Tracer(max_spans=1)
        tracer.record("a", 1.0)
        tracer.record("b", 1.0)  # dropped
        tracer.clear()
        assert tracer.spans == []
        assert tracer.dropped == 0


class TestChromeExport:
    def test_complete_events_in_microseconds(self):
        tracer = Tracer()
        tracer.record("simulate.chunk", 0.25, program="gzip")
        (event,) = tracer.to_chrome_events()
        assert event["ph"] == "X"
        assert event["dur"] == 250000.0
        assert event["args"] == {"program": "gzip"}
        assert event["cat"] == "repro"

    def test_write_chrome_is_valid_json(self, tmp_path):
        tracer = Tracer()
        tracer.record("a", 0.1)
        tracer.record("b", 0.2)
        path = tracer.write_chrome(tmp_path / "trace.json")
        events = json.loads(path.read_text())
        assert [event["name"] for event in events] == ["a", "b"]
        assert not (tmp_path / "trace.json.tmp").exists()

    def test_write_chrome_empty_trace(self, tmp_path):
        path = Tracer().write_chrome(tmp_path / "trace.json")
        assert json.loads(path.read_text()) == []

    def test_write_jsonl(self, tmp_path):
        tracer = Tracer()
        tracer.record("a", 0.1)
        path = tracer.write_jsonl(tmp_path / "spans.jsonl")
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["name"] == "a"

    def test_trace_ids_ride_in_args_only_when_present(self):
        tracer = Tracer()
        tracer.record("plain", 0.1, program="gzip")
        trace_id = tracer.ensure_trace_id()
        tracer.record("traced", 0.1)
        plain, traced = (
            event
            for event in tracer.to_chrome_events()
            if event["ph"] == "X"
        )
        assert plain["args"] == {"program": "gzip"}
        assert traced["args"]["trace_id"] == trace_id
        assert "span_id" in traced["args"]


class TestGlobalTracer:
    def test_module_level_span_uses_scoped_tracer(self):
        with scoped_tracer() as tracer:
            with span("probe", k=1):
                pass
            assert tracer.count("probe") == 1
        assert get_tracer() is not tracer

    def test_invalid_max_spans(self):
        with pytest.raises(ValueError, match="at least 1"):
            Tracer(max_spans=0)
