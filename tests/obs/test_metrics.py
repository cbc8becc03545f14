"""Metrics registry: counters, gauges, histogram bucket edges, no-ops."""

import threading

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NOOP_METRIC,
    format_value,
    sample_key,
)
from repro.obs.telemetry import Telemetry


class TestCounter:
    def test_inc_accumulates(self):
        counter = Counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = Counter("c_total")
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_labeled_children_are_distinct_and_stable(self):
        counter = Counter("c_total", labelnames=("path",))
        counter.labels(path="partial").inc()
        counter.labels(path="partial").inc()
        counter.labels(path="scan").inc()
        family = counter.collect()
        values = {sample_key(s): s.value for s in family.samples}
        assert values['c_total{path="partial"}'] == 2
        assert values['c_total{path="scan"}'] == 1

    def test_labeled_parent_rejects_direct_inc(self):
        counter = Counter("c_total", labelnames=("path",))
        with pytest.raises(ObservabilityError):
            counter.inc()

    def test_wrong_label_names_rejected(self):
        counter = Counter("c_total", labelnames=("path",))
        with pytest.raises(ObservabilityError):
            counter.labels(nope="x")

    def test_unlabeled_metric_rejects_labels(self):
        with pytest.raises(ObservabilityError):
            Counter("c_total").labels(path="x")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13

    def test_callback_evaluated_at_collect(self):
        gauge = Gauge("g")
        state = {"v": 1.0}
        gauge.set_function(lambda: state["v"])
        assert gauge.value == 1.0
        state["v"] = 7.0
        assert gauge.collect().samples[0].value == 7.0


class TestHistogramBucketEdges:
    def test_exact_boundary_counts_into_le_bucket(self):
        # le semantics: value == bound lands in that bucket, not the next
        hist = Histogram("h", buckets=(1.0, 5.0, 10.0))
        hist.observe(1.0)
        hist.observe(5.0)
        hist.observe(10.0)
        counts = dict(hist.bucket_counts())
        assert counts[1.0] == 1
        assert counts[5.0] == 2
        assert counts[10.0] == 3
        assert counts[float("inf")] == 3

    def test_overflow_goes_to_inf_only(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(99.0)
        counts = dict(hist.bucket_counts())
        assert counts[1.0] == 0
        assert counts[float("inf")] == 1

    def test_below_first_bucket(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.0)
        assert dict(hist.bucket_counts())[1.0] == 1

    def test_sum_and_count(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(0.5)
        hist.observe(2.5)
        assert hist.count == 2
        assert hist.sum == pytest.approx(3.0)

    def test_buckets_sorted_and_deduped(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ObservabilityError):
            Histogram("h", buckets=())
        hist = Histogram("h", buckets=(5.0, 1.0))
        assert hist.buckets == (1.0, 5.0)

    def test_samples_shape(self):
        hist = Histogram("h", buckets=(1.0,), labelnames=("op",))
        hist.labels(op="read").observe(0.5)
        names = [s.name for s in hist.collect().samples]
        assert names == ["h_bucket", "h_bucket", "h_sum", "h_count"]


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total")
        second = registry.counter("x_total")
        assert first is second

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ObservabilityError):
            registry.gauge("x_total")

    def test_labelnames_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labelnames=("a",))
        with pytest.raises(ObservabilityError):
            registry.counter("x_total", labelnames=("b",))

    def test_snapshot_flattens_samples(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labelnames=("k",)).labels(k="v").inc(3)
        registry.gauge("g").set(1.5)
        snapshot = registry.snapshot()
        assert snapshot['c_total{k="v"}'] == 3
        assert snapshot["g"] == 1.5

    def test_thread_safety_smoke(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", labelnames=("t",))

        def worker(tag):
            child = counter.labels(t=tag)
            for _ in range(1000):
                child.inc()

        threads = [
            threading.Thread(target=worker, args=(str(i % 2),)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = sum(s.value for s in counter.collect().samples)
        assert total == 4000


class TestFormatting:
    def test_format_value(self):
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"

    def test_sample_key_without_labels(self):
        registry = MetricsRegistry()
        registry.counter("plain_total").inc()
        assert "plain_total" in registry.snapshot()


class TestNoop:
    def test_disabled_telemetry_hands_out_shared_metric(self):
        telemetry = Telemetry(enabled=False)
        assert telemetry.counter("anything") is NOOP_METRIC
        assert telemetry.histogram("x") is NOOP_METRIC
        assert NOOP_METRIC.labels(a="b") is NOOP_METRIC

    def test_noop_swallows_updates(self):
        telemetry = Telemetry(enabled=False)
        telemetry.counter("c_total").inc()
        telemetry.histogram("h").observe(1.0)
        telemetry.gauge("g").set(2.0)
        assert telemetry.collect() == []
        assert telemetry.snapshot() == {}
