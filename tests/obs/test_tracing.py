"""Tracing: span nesting, ring-buffer overflow, the no-op fast path."""

import tracemalloc

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NOOP_SPAN, NOOP_TRACER, NoopTracer, Tracer


class TestNesting:
    def test_depth_and_parent_links(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                with tracer.span("leaf"):
                    pass
        events = {event.name: event for event in tracer.events()}
        assert events["outer"].depth == 0 and events["outer"].parent is None
        assert events["inner"].depth == 1
        assert events["inner"].parent == events["outer"].seq
        assert events["leaf"].depth == 2
        assert events["leaf"].parent == events["inner"].seq

    def test_inner_span_finishes_first(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [event.name for event in tracer.events()]
        assert names == ["inner", "outer"]

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        events = {event.name: event for event in tracer.events()}
        assert events["a"].parent == events["parent"].seq
        assert events["b"].parent == events["parent"].seq
        assert tracer.active_depth == 0

    def test_error_recorded_in_fields(self):
        tracer = Tracer()
        try:
            with tracer.span("fails"):
                raise ValueError("boom")
        except ValueError:
            pass
        (event,) = tracer.events()
        assert event.fields["error"] == "ValueError"


class TestClocks:
    def test_wall_seconds_positive(self):
        tracer = Tracer()
        with tracer.span("s"):
            sum(range(1000))
        (event,) = tracer.events()
        assert event.wall_seconds > 0

    def test_simulated_clock_delta(self):
        clock = {"now": 1.0}
        tracer = Tracer(simulated_clock=lambda: clock["now"])
        with tracer.span("s"):
            clock["now"] = 3.5
        (event,) = tracer.events()
        assert event.simulated_seconds == 2.5


class TestRingBuffer:
    def test_overflow_drops_oldest_and_counts(self):
        tracer = Tracer(capacity=2)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        events = tracer.events()
        assert [event.name for event in events] == ["s3", "s4"]
        assert tracer.dropped == 3

    def test_clear_resets(self):
        tracer = Tracer(capacity=1)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        tracer.clear()
        assert tracer.events() == []
        assert tracer.dropped == 0


class TestSpanMetrics:
    def test_finished_spans_feed_registry(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        with tracer.span("op"):
            pass
        snapshot = registry.snapshot()
        assert snapshot['repro_spans_total{span="op"}'] == 1
        assert snapshot['repro_span_seconds_count{span="op"}'] == 1

    def test_touch_preregisters_zero_series(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        tracer.touch("never_run")
        snapshot = registry.snapshot()
        assert snapshot['repro_spans_total{span="never_run"}'] == 0

    def test_seen_span_name_resolves_no_label_children(self, monkeypatch):
        # mechanical: a span's three metric children are looked up once
        # per name (first span or touch), not on every _finish
        from repro.obs import metrics

        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        tracer.touch("touched")
        with tracer.span("seen"):
            pass
        calls = []
        original = metrics._label_key
        monkeypatch.setattr(
            metrics,
            "_label_key",
            lambda names, labels: calls.append(labels) or original(names, labels),
        )
        for name in ("seen", "touched", "seen"):
            with tracer.span(name):
                pass
        assert calls == []
        with tracer.span("first_time"):
            pass
        assert len(calls) == 3  # count, wall histogram, simulated histogram
        snapshot = registry.snapshot()
        assert snapshot['repro_spans_total{span="seen"}'] == 3
        assert snapshot['repro_span_simulated_seconds_count{span="touched"}'] == 1
        assert snapshot['repro_spans_total{span="first_time"}'] == 1


class TestNoopTracer:
    def test_span_returns_shared_singleton(self):
        assert NOOP_TRACER.span("a") is NOOP_SPAN
        assert NOOP_TRACER.span("b", k=1) is NOOP_SPAN
        assert NoopTracer().span("c") is NOOP_SPAN

    def test_no_events_recorded(self):
        with NOOP_TRACER.span("a"):
            pass
        assert NOOP_TRACER.events() == []
        assert NOOP_TRACER.dropped == 0

    def test_disabled_path_allocates_no_event_objects(self):
        # one warm-up pass so caches/interned objects don't count
        with NOOP_TRACER.span("warm"):
            pass
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(100):
            with NOOP_TRACER.span("hot"):
                pass
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        leaked = sum(
            stat.size_diff for stat in after.compare_to(before, "lineno")
            if stat.size_diff > 0
        )
        # the loop itself may allocate trivial bookkeeping; 100 span
        # events would cost tens of kilobytes
        assert leaked < 2048
