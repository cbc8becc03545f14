"""Exporters: Prometheus golden text, JSONL round-trip, top view."""

import json

from repro.obs.exporters import (
    events_jsonl,
    prometheus_text,
    render_classic_summary,
    render_top,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    resolutions = registry.counter(
        "repro_locator_resolutions_total",
        "Node resolutions by path.",
        labelnames=("path",),
    )
    resolutions.labels(path="partial").inc(7)
    resolutions.labels(path="scan").inc(2)
    registry.gauge("repro_buffer_hit_rate", "Hit rate.").set(0.75)
    registry.histogram(
        "repro_span_seconds", "Span durations.", buckets=(0.001, 1.0)
    ).observe(0.5)
    return registry


class TestPrometheusGolden:
    def test_exact_text(self):
        text = prometheus_text(_sample_registry().collect())
        assert text == (
            "# HELP repro_locator_resolutions_total Node resolutions by path.\n"
            "# TYPE repro_locator_resolutions_total counter\n"
            'repro_locator_resolutions_total{path="partial"} 7\n'
            'repro_locator_resolutions_total{path="scan"} 2\n'
            "# HELP repro_buffer_hit_rate Hit rate.\n"
            "# TYPE repro_buffer_hit_rate gauge\n"
            "repro_buffer_hit_rate 0.75\n"
            "# HELP repro_span_seconds Span durations.\n"
            "# TYPE repro_span_seconds histogram\n"
            'repro_span_seconds_bucket{le="0.001"} 0\n'
            'repro_span_seconds_bucket{le="1"} 1\n'
            'repro_span_seconds_bucket{le="+Inf"} 1\n'
            "repro_span_seconds_sum 0.5\n"
            "repro_span_seconds_count 1\n"
        )

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labelnames=("q",)).labels(q='say "hi"\n').inc()
        text = prometheus_text(registry.collect())
        assert 'q="say \\"hi\\"\\n"' in text

    def test_empty_collection(self):
        assert prometheus_text([]) == ""


class TestEventsJsonl:
    def test_round_trip(self):
        tracer = Tracer()
        with tracer.span("outer", node_id=5):
            with tracer.span("inner"):
                pass
        text = events_jsonl(tracer.events())
        lines = text.strip().split("\n")
        parsed = [json.loads(line) for line in lines]
        assert [p["name"] for p in parsed] == ["inner", "outer"]
        outer = parsed[1]
        assert outer["fields"] == {"node_id": 5}
        assert parsed[0]["parent"] == outer["seq"]

    def test_empty(self):
        assert events_jsonl([]) == ""


class TestRenderTop:
    def test_ranks_spans_by_wall_time(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        with tracer.span("slow"):
            sum(range(200_000))
        with tracer.span("fast"):
            pass
        text = render_top(registry.collect())
        slow_line = next(l for l in text.splitlines() if l.startswith("slow"))
        fast_line = next(l for l in text.splitlines() if l.startswith("fast"))
        assert text.index(slow_line) < text.index(fast_line)

    def test_includes_scalars(self):
        text = render_top(_sample_registry().collect())
        assert "repro_buffer_hit_rate" in text

    def test_empty(self):
        assert render_top([]) == "no telemetry recorded\n"


class TestClassicSummary:
    def test_matches_dataclass_summary(self):
        # built from a real store so every projection path is exercised
        from repro.core.store import XMLStore

        store = XMLStore()
        root = store.load_document("<a><b>x</b></a>")
        store.read(root + 1)
        store.insert_into_last(root, "<c/>")
        from repro.obs.bridge import stats_registry

        rendered = render_classic_summary(stats_registry(store.stats))
        assert rendered == store.stats.summary()
        assert rendered.startswith("operations: ")
        assert "partial index:" in rendered


class TestHistoryCounterExposition:
    """The workload-history series must carry HELP/TYPE metadata."""

    FAMILIES = (
        ("repro_history_captures_total", "counter"),
        ("repro_history_compactions_total", "counter"),
        ("repro_history_snapshots", "gauge"),
    )

    def _history_store(self, enabled=True):
        from repro.core.config import StoreConfig
        from repro.core.store import XMLStore

        store = XMLStore.open(StoreConfig(history_enabled=enabled))
        if enabled:
            store.history.interval = 2
        root = store.load_document("<r><a>x</a><b>y</b></r>")
        for _ in range(4):
            store.read(root + 1)
        return store

    def test_help_and_type_lines_present(self):
        from repro.obs.bridge import store_registry

        store = self._history_store()
        assert store.history.captures >= 1
        text = prometheus_text(store_registry(store).collect())
        for name, metric_type in self.FAMILIES:
            assert f"# HELP {name} " in text, name
            assert f"# TYPE {name} {metric_type}\n" in text, name
        assert (
            f"repro_history_captures_total {store.history.captures}" in text
        )
        assert f"repro_history_snapshots {len(store.history)}" in text

    def test_absent_when_history_disabled(self):
        from repro.obs.bridge import store_registry

        store = self._history_store(enabled=False)
        text = prometheus_text(store_registry(store).collect())
        for name, _ in self.FAMILIES:
            assert name not in text


class TestRecorderIncidentExposition:
    """The flight-recorder and incident counters must carry HELP/TYPE
    metadata, with incidents labelled by trigger kind."""

    FAMILIES = (
        ("repro_recorder_dropped_total", "counter"),
        ("repro_incidents_total", "counter"),
    )

    def _recorder_store(self, enabled=True):
        from repro.core.config import StoreConfig
        from repro.core.store import XMLStore

        store = XMLStore.open(
            StoreConfig(events_enabled=True, recorder_enabled=enabled)
        )
        store.load_document("<r><a>x</a><b>y</b></r>")
        return store

    def test_help_and_type_lines_present(self):
        from repro.errors import ChecksumError
        from repro.obs.bridge import store_registry

        store = self._recorder_store()
        store.pool.quarantine(99, ChecksumError("boom", block_no=99))
        text = prometheus_text(store_registry(store).collect())
        for name, metric_type in self.FAMILIES:
            assert f"# HELP {name} " in text, name
            assert f"# TYPE {name} {metric_type}\n" in text, name
        assert (
            'repro_incidents_total{kind="checksum-quarantine"} 1' in text
        )
        assert f"repro_recorder_dropped_total {store.recorder.dropped}" in text

    def test_absent_when_recorder_disabled(self):
        from repro.obs.bridge import store_registry

        store = self._recorder_store(enabled=False)
        text = prometheus_text(store_registry(store).collect())
        for name, _ in self.FAMILIES:
            assert name not in text


class TestStorageGaugeExposition:
    """WAL size, quarantine, and scrub recency must export with
    HELP/TYPE metadata unconditionally (they feed the alert rules)."""

    FAMILIES = (
        ("repro_wal_size_bytes", "gauge"),
        ("repro_storage_quarantined_blocks", "gauge"),
        ("repro_storage_scrub_completions_total", "counter"),
        ("repro_storage_scrub_age_operations", "gauge"),
    )

    def _store(self):
        from repro.core.config import StoreConfig
        from repro.core.store import XMLStore

        store = XMLStore.open(StoreConfig())
        root = store.load_document("<r><a>x</a><b>y</b></r>")
        store.read(root + 1)
        return store

    def test_help_and_type_lines_present_on_a_plain_store(self):
        from repro.obs.bridge import store_registry

        text = prometheus_text(store_registry(self._store()).collect())
        for name, metric_type in self.FAMILIES:
            assert f"# HELP {name} " in text, name
            assert f"# TYPE {name} {metric_type}\n" in text, name

    def test_never_scrubbed_age_reads_minus_one(self):
        from repro.obs.bridge import store_registry

        text = prometheus_text(store_registry(self._store()).collect())
        assert "repro_storage_quarantined_blocks 0\n" in text
        assert "repro_storage_scrub_completions_total 0\n" in text
        assert "repro_storage_scrub_age_operations -1\n" in text

    def test_quarantine_and_scrub_move_the_gauges(self):
        from repro.errors import ChecksumError
        from repro.obs.bridge import store_registry
        from repro.storage.scrub import scrub_store

        store = self._store()
        scrub_store(store)
        store.pool.quarantine(0, ChecksumError("bad", block_no=0))
        text = prometheus_text(store_registry(store).collect())
        assert "repro_storage_quarantined_blocks 1\n" in text
        assert "repro_storage_scrub_completions_total 1\n" in text
        assert "repro_storage_scrub_age_operations 0\n" in text

    def test_wal_size_tracks_appended_records(self):
        from repro.obs.bridge import store_registry
        from repro.obs.metrics import sample_key

        store = self._store()
        values = {
            sample_key(sample): sample.value
            for family in store_registry(store).collect()
            for sample in family.samples
        }
        assert values["repro_wal_size_bytes"] > 0
        assert values["repro_wal_size_bytes"] == float(store.wal.size_bytes)


class TestPrometheusEdgeCases:
    def test_backslash_escaped_before_quotes_and_newlines(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labelnames=("p",)).labels(p='a\\b"c\nd').inc()
        text = prometheus_text(registry.collect())
        # exposition-format escaping: \ -> \\, " -> \", newline -> \n
        assert 'p="a\\\\b\\"c\\nd"' in text

    def test_backslash_alone(self):
        registry = MetricsRegistry()
        registry.gauge("g", labelnames=("path",)).labels(path="C:\\tmp").set(1)
        assert 'path="C:\\\\tmp"' in prometheus_text(registry.collect())

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry().collect()) == ""

    def test_histogram_value_exactly_on_bucket_edge(self):
        # a value equal to a bucket bound belongs IN that le bucket
        # (le is <=, and observe uses bisect_left)
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(0.001, 1.0))
        histogram.observe(0.001)
        text = prometheus_text(registry.collect())
        assert 'h_bucket{le="0.001"} 1' in text
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_sum 0.001" in text
        assert "h_count 1" in text

    def test_histogram_value_on_top_edge(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(0.001, 1.0))
        histogram.observe(1.0)
        text = prometheus_text(registry.collect())
        assert 'h_bucket{le="0.001"} 0' in text
        assert 'h_bucket{le="1"} 1' in text

    def test_histogram_value_beyond_top_edge_only_in_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(0.001, 1.0))
        histogram.observe(2.0)
        text = prometheus_text(registry.collect())
        assert 'h_bucket{le="1"} 0' in text
        assert 'h_bucket{le="+Inf"} 1' in text
