"""Unit tests for the repro.obs metric primitives and registry."""

import pytest

from repro.obs import (
    NULL_METRIC,
    Counter,
    Histogram,
    MetricsRegistry,
    NullMetric,
    Series,
    Tracer,
    export_json,
    export_text,
    missing_series,
    render_series_name,
)


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", path="model")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        gauge = registry.gauge("loaded_models")
        gauge.set(7)
        gauge.inc()
        assert gauge.value == 8

    def test_histogram_snapshot_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_seconds", path="model")
        for value in range(1, 101):
            hist.observe(float(value))
        snap = hist.snapshot()
        assert snap.count == 100
        assert snap.total == pytest.approx(5050.0)
        assert snap.min == 1.0 and snap.max == 100.0
        assert snap.p50 == pytest.approx(50.5)
        assert snap.p99 == pytest.approx(99.01)
        assert snap.mean == pytest.approx(50.5)

    def test_histogram_window_bounds_memory_not_totals(self):
        hist = Histogram("h", window=8)
        for value in range(100):
            hist.observe(float(value))
        snap = hist.snapshot()
        assert snap.count == 100  # lifetime count survives the ring bound
        assert snap.p50 >= 92.0  # quantiles cover only the recent window

    def test_series_is_bounded_and_ordered(self):
        series = Series("drift", maxlen=3)
        for value in (1.0, 2.0, 3.0, 4.0):
            series.append(value)
        assert series.values() == [2.0, 3.0, 4.0]
        assert series.last == 4.0

    def test_empty_histogram_snapshot(self):
        snap = Histogram("h").snapshot()
        assert snap.count == 0 and snap.p99 == 0.0 and snap.mean == 0.0


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("c", table="t1")
        b = registry.counter("c", table="t1")
        other = registry.counter("c", table="t2")
        assert a is b and a is not other
        assert len(registry) == 2

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("dual")
        with pytest.raises(TypeError):
            registry.histogram("dual")

    def test_disabled_registry_hands_out_null_singleton(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c")
        assert counter is NULL_METRIC
        assert isinstance(counter, NullMetric)
        counter.inc()
        counter.observe(1.0)
        counter.append(1.0)
        counter.set(2.0)
        assert counter.value == 0.0
        assert counter.snapshot().count == 0
        assert counter.values() == []
        assert len(registry) == 0
        assert export_text(registry) == ""
        assert export_json(registry) == {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "series": {},
        }

    def test_adopt_registers_external_metric(self):
        registry = MetricsRegistry()
        hist = Histogram("external_seconds", (("path", "cache"),))
        hist.observe(0.5)
        registry.adopt(hist)
        assert registry.get("external_seconds", path="cache") is hist
        # Disabled registries refuse adoption silently.
        disabled = MetricsRegistry(enabled=False)
        disabled.adopt(hist)
        assert len(disabled) == 0

    def test_get_does_not_create(self):
        registry = MetricsRegistry()
        assert registry.get("nope") is None
        assert len(registry) == 0

    def test_preregister_creates_explicit_zeros(self):
        registry = MetricsRegistry()
        registry.preregister(
            "dropped_total", "reason", ("garbled", "stale", "orphan")
        )
        assert len(registry) == 3
        for reason in ("garbled", "stale", "orphan"):
            metric = registry.get("dropped_total", reason=reason)
            assert metric is not None and metric.value == 0.0
        # The zeros show up in exports before any increment happens.
        assert 'reason="orphan"' in export_text(registry)

    def test_preregister_noop_when_disabled(self):
        registry = MetricsRegistry(enabled=False)
        registry.preregister("dropped_total", "reason", ("a", "b"))
        assert len(registry) == 0


class TestExport:
    def make_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("requests_total", path="model").inc(5)
        registry.gauge("generation").set(2)
        hist = registry.histogram("latency_seconds", path="model")
        for value in (0.1, 0.2, 0.3):
            hist.observe(value)
        registry.series("qerror_p90", model="users").append(1.5)
        return registry

    def test_text_export_format(self):
        text = export_text(self.make_registry())
        assert '# TYPE requests_total counter' in text
        assert 'requests_total{path="model"} 5' in text
        assert 'generation 2' in text
        assert 'latency_seconds_count{path="model"} 3' in text
        assert 'latency_seconds{path="model",quantile="0.5"}' in text
        assert 'qerror_p90{model="users"} 1.5' in text

    def test_json_export_structure(self):
        doc = export_json(self.make_registry())
        assert doc["counters"]['requests_total{path="model"}'] == 5
        assert doc["gauges"]["generation"] == 2
        hist = doc["histograms"]['latency_seconds{path="model"}']
        assert hist["count"] == 3
        assert hist["p50"] == pytest.approx(0.2)
        assert doc["series"]['qerror_p90{model="users"}'] == [1.5]

    def test_missing_series_matches_bare_names(self):
        registry = self.make_registry()
        missing = missing_series(
            registry, ["latency_seconds", "qerror_p90", "absent_total"]
        )
        assert missing == ["absent_total"]

    def test_render_series_name(self):
        assert render_series_name("m", ()) == "m"
        assert (
            render_series_name("m", (("a", "1"), ("b", "2")))
            == 'm{a="1",b="2"}'
        )


class TestTracer:
    def test_span_records_into_registry_and_sink(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry)
        sink = []
        with tracer.span("stage.compute", sink=sink, path="model"):
            pass
        assert len(sink) == 1
        assert sink[0].name == "stage.compute"
        assert sink[0].duration_s >= 0.0
        hist = registry.get("span_seconds", span="stage.compute", path="model")
        assert hist is not None and hist.count == 1

    def test_disabled_tracer_without_sink_is_noop_singleton(self):
        tracer = Tracer(MetricsRegistry(enabled=False))
        first = tracer.span("a")
        second = tracer.span("b")
        assert first is second  # the shared nullcontext: no allocation
        with first:
            pass

    def test_disabled_tracer_still_feeds_sink(self):
        tracer = Tracer(MetricsRegistry(enabled=False))
        sink = []
        with tracer.span("stage", sink=sink):
            pass
        assert len(sink) == 1 and sink[0].name == "stage"
