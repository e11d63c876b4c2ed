"""Declarative SLOs: config, evaluation across sources, burn rates,
and the Prometheus-style bucket quantile they rest on."""

import json
import math

import pytest

from repro.obs import (
    MetricsRegistry,
    MetricsView,
    SLObjective,
    SLOTracker,
    histogram_quantile,
)


def _latency(threshold=1.0, **overrides):
    fields = dict(
        name="p99", kind="latency", metric="lat", quantile=0.99,
        threshold=threshold,
    )
    fields.update(overrides)
    return SLObjective(**fields)


def _burn(threshold=0.5, **overrides):
    fields = dict(
        name="burn", kind="error_rate", numerator="errors",
        denominator="requests", threshold=threshold,
    )
    fields.update(overrides)
    return SLObjective(**fields)


class TestHistogramQuantile:
    def test_empty_histogram_is_nan(self):
        assert math.isnan(histogram_quantile((1.0, 10.0), (0, 0, 0), 0.99))

    def test_no_finite_buckets_is_nan(self):
        # Every observation landed in +Inf and there is nothing finite
        # to interpolate against.
        assert math.isnan(histogram_quantile((), (5,), 0.5))

    def test_single_bucket_interpolates_from_zero(self):
        # 10 observations <= 2.0: the median interpolates to the middle
        # of the [0, 2.0] bucket.
        assert histogram_quantile((2.0,), (10, 0), 0.5) == pytest.approx(1.0)

    def test_interpolation_across_buckets(self):
        # 4 observations: 2 in (0,1], 2 in (1,10].  p75 ranks 3rd, i.e.
        # halfway through the second bucket.
        value = histogram_quantile((1.0, 10.0), (2, 2, 0), 0.75)
        assert value == pytest.approx(5.5)

    def test_rank_in_inf_bucket_clamps_to_highest_finite_bound(self):
        # p99 ranks inside +Inf; the estimate must not exceed the
        # highest finite bound (Prometheus semantics).
        assert histogram_quantile((1.0, 10.0), (1, 1, 8), 0.99) == 10.0

    def test_quantile_zero_and_one(self):
        bounds, counts = (1.0, 10.0), (2, 2, 0)
        assert histogram_quantile(bounds, counts, 0.0) == 0.0
        assert histogram_quantile(bounds, counts, 1.0) == 10.0

    def test_quantile_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="within"):
            histogram_quantile((1.0,), (1, 0), 1.5)

    def test_count_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="bucket counts"):
            histogram_quantile((1.0, 2.0), (1, 2), 0.5)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            histogram_quantile((1.0,), (1, -1), 0.5)


class TestObjectiveValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown objective kind"):
            SLObjective(name="x", kind="vibes", threshold=1.0)

    def test_latency_needs_a_metric(self):
        with pytest.raises(ValueError, match="needs a metric"):
            SLObjective(name="x", kind="latency", threshold=1.0)

    def test_rate_needs_both_counters(self):
        with pytest.raises(ValueError, match="numerator"):
            SLObjective(
                name="x", kind="error_rate", threshold=1.0,
                numerator="errors",
            )

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            _latency(threshold=0.0)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown key"):
            SLObjective.from_dict(
                {"name": "x", "kind": "latency", "metric": "m",
                 "threshold": 1.0, "burn_rate": 2}
            )

    def test_from_config_file_and_duplicate_names(self, tmp_path):
        config = {"objectives": [
            {"name": "a", "kind": "latency", "metric": "m",
             "threshold": 1.0},
        ]}
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(config))
        tracker = SLOTracker.from_config(path)
        assert [o.name for o in tracker.objectives] == ["a"]
        with pytest.raises(ValueError, match="unique"):
            SLOTracker([_latency(), _latency()])


class TestEvaluation:
    def test_latency_burn_against_registry(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(1.0, 10.0))
        for _ in range(10):
            histogram.observe(5.0)
        (status,) = SLOTracker([_latency(threshold=2.0)]).evaluate(registry)
        assert not status.ok
        assert status.burn > 1.0
        assert not status.no_data

    def test_rate_objective_within_budget(self):
        registry = MetricsRegistry()
        registry.counter("errors").inc(1)
        registry.counter("requests").inc(10)
        ok, (status,) = SLOTracker([_burn(threshold=0.5)]).check(registry)
        assert ok
        assert status.value == pytest.approx(0.1)
        assert status.burn == pytest.approx(0.2)

    def test_no_data_is_ok_but_flagged(self):
        ok, (status,) = SLOTracker([_latency()]).check(MetricsRegistry())
        assert ok
        assert status.no_data
        assert math.isnan(status.value)
        payload = status.to_payload()
        assert payload["value"] is None and payload["burn"] is None

    def test_zero_denominator_is_no_data(self):
        registry = MetricsRegistry()
        registry.counter("errors").inc(3)
        registry.counter("requests")  # registered, never incremented
        (status,) = SLOTracker([_burn()]).evaluate(registry)
        assert status.no_data  # a campaign that has not started

    def test_missing_numerator_counts_as_zero(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(10)
        (status,) = SLOTracker([_burn()]).evaluate(registry)
        assert not status.no_data
        assert status.value == 0.0

    def test_label_filters_select_series(self):
        registry = MetricsRegistry()
        registry.counter("errors", kind="timeout").inc(4)
        registry.counter("errors", kind="cancelled").inc(40)
        registry.counter("requests").inc(100)
        objective = _burn(
            threshold=0.5,
            numerator_labels=(("kind", "timeout"),),
        )
        (status,) = SLOTracker([objective]).evaluate(registry)
        assert status.value == pytest.approx(0.04)


class TestSourceAgreement:
    """The live registry and a parsed Prometheus export must yield the
    same SLO verdicts and burn rates."""

    def _populated_registry(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 2.0, 2.0, 2.0):
            histogram.observe(value)
        registry.counter("errors").inc(2)
        registry.counter("requests").inc(40)
        return registry

    def test_registry_agrees_with_prometheus_export(self):
        registry = self._populated_registry()
        tracker = SLOTracker([
            _latency(threshold=5.0, quantile=0.99),
            _burn(threshold=0.5),
        ])
        from_registry = tracker.evaluate(registry)
        from_text = tracker.evaluate(
            MetricsView.from_prometheus(registry.to_prometheus())
        )
        for live, parsed in zip(from_registry, from_text):
            assert live.value == pytest.approx(parsed.value)
            assert live.burn == pytest.approx(parsed.burn)
            assert live.ok == parsed.ok

    def test_prometheus_round_trip_with_escaped_labels(self):
        registry = MetricsRegistry()
        registry.counter("errors", path='a\\b"c\nd').inc(2)
        registry.counter("requests").inc(4)
        view = MetricsView.from_prometheus(registry.to_prometheus())
        assert view.total("errors", (("path", 'a\\b"c\nd'),)) == 2.0
        (status,) = SLOTracker([_burn()]).evaluate(view)
        assert status.value == pytest.approx(0.5)

    def test_from_prometheus_tolerates_foreign_lines(self):
        text = "\n".join((
            "# HELP weird who knows",
            "weird_metric{quantile=\"0.99\"} 1.5",
            "not a metric line at all",
            "requests_total 10",
        ))
        view = MetricsView.from_prometheus(text)
        assert view.total("requests_total") == 10.0

    def test_from_prometheus_refuses_text_without_samples(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(10)
        with pytest.raises(ValueError, match="no Prometheus"):
            MetricsView.from_prometheus(json.dumps(registry.to_json()))

