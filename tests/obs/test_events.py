"""Structured event log: ring semantics, stamping, and the no-op twin."""

import json

import pytest

from repro.core.config import StoreConfig
from repro.core.store import XMLStore
from repro.errors import ObservabilityError
from repro.obs.events import (
    DEFAULT_EVENT_CAPACITY,
    EventLog,
    NOOP_EVENT_LOG,
    NoopEventLog,
    create_event_log,
    events_log_jsonl,
)
from repro.obs.tracing import Tracer


class TestEventLog:
    def test_emit_records_source_kind_and_fields(self):
        log = EventLog()
        event = log.emit("locator", "scan", node_id=42, tokens=7)
        assert event.source == "locator"
        assert event.kind == "scan"
        assert event.severity == "debug"
        assert event.fields == {"node_id": 42, "tokens": 7}
        assert log.events() == [event]

    def test_sequence_numbers_are_monotone(self):
        log = EventLog()
        seqs = [log.emit("a", "b").seq for _ in range(5)]
        assert seqs == [0, 1, 2, 3, 4]
        assert log.next_seq == 5

    def test_unknown_severity_rejected(self):
        log = EventLog()
        with pytest.raises(ObservabilityError):
            log.emit("a", "b", severity="fatal")

    def test_ring_drops_oldest_and_counts(self):
        log = EventLog(capacity=3)
        for index in range(5):
            log.emit("a", "b", index=index)
        events = log.events()
        assert [e.fields["index"] for e in events] == [2, 3, 4]
        assert log.dropped == 2

    def test_since_filter(self):
        log = EventLog()
        log.emit("a", "b")
        marker = log.next_seq
        kept = log.emit("a", "c")
        assert log.events(since=marker) == [kept]

    def test_operation_window_stamps_events(self):
        log = EventLog()
        outside = log.emit("a", "b")
        op_id = log.begin_op("read")
        inside = log.emit("a", "c")
        log.end_op()
        after = log.emit("a", "d")
        assert outside.op_id is None and after.op_id is None
        assert inside.op_id == op_id
        assert inside.op == "read"
        assert log.events(op_id=op_id) == [inside]

    def test_nested_operation_windows_restore_the_outer_one(self):
        """Regression: an inner window (an xpath EXPLAIN wrapping node
        reads) must not wipe the enclosing operation's stamp when it
        closes — windows form a stack, not a single slot."""
        log = EventLog()
        outer_id = log.begin_op("xpath")
        before = log.emit("a", "b")
        inner_id = log.begin_op("node_read")
        inside = log.emit("a", "c")
        log.end_op()
        after = log.emit("a", "d")
        log.end_op()
        outside = log.emit("a", "e")
        assert before.op_id == outer_id and before.op == "xpath"
        assert inside.op_id == inner_id and inside.op == "node_read"
        # the event after the inner window closes belongs to the outer op
        assert after.op_id == outer_id and after.op == "xpath"
        assert outside.op_id is None and outside.op is None

    def test_end_op_on_empty_stack_is_safe(self):
        log = EventLog()
        log.end_op()  # unbalanced close: no crash, no phantom window
        event = log.emit("a", "b")
        assert event.op_id is None

    def test_op_filter_separates_nested_windows(self):
        log = EventLog()
        outer = log.begin_op("outer")
        log.emit("a", "b")
        inner = log.begin_op("inner")
        log.emit("a", "c")
        log.end_op()
        log.end_op()
        assert [e.fields for e in log.events(op_id=outer)] == [{}]
        assert len(log.events(op_id=inner)) == 1

    def test_op_ids_are_unique(self):
        log = EventLog()
        first = log.begin_op("x")
        log.end_op()
        second = log.begin_op("y")
        log.end_op()
        assert first != second

    def test_span_correlation(self):
        tracer = Tracer()
        log = EventLog(tracer=tracer)
        with tracer.span("outer"):
            event = log.emit("a", "b")
        outside = log.emit("a", "c")
        assert event.span is not None
        assert outside.span is None

    def test_simulated_clock_stamps(self):
        log = EventLog(simulated_clock=lambda: 2.5)
        assert log.emit("a", "b").simulated == 2.5

    def test_jsonl_round_trip(self):
        log = EventLog()
        log.begin_op("read")
        log.emit("locator", "scan", severity="info", node_id=1)
        log.end_op()
        lines = log.to_jsonl().strip().split("\n")
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["source"] == "locator"
        assert parsed[0]["op"] == "read"
        assert parsed[0]["severity"] == "info"
        assert parsed[0]["fields"] == {"node_id": 1}

    def test_clear(self):
        log = EventLog(capacity=1)
        log.emit("a", "b")
        log.emit("a", "c")
        log.clear()
        assert log.events() == []
        assert log.dropped == 0

    def test_empty_jsonl(self):
        assert events_log_jsonl([]) == ""


class TestRetentionUnderNestedWindows:
    """The PR 3 nested-window fix and the bounded ring interact: ring
    eviction must never disturb the op-window stack, and clearing the
    ring mid-window must leave the open windows stamping correctly."""

    def test_eviction_keeps_window_stamps_correct(self):
        log = EventLog(capacity=2)
        outer = log.begin_op("outer")
        log.emit("a", "e0")
        inner = log.begin_op("inner")
        log.emit("a", "e1")
        log.emit("a", "e2")  # evicts e0 (the only outer-stamped event)
        log.end_op()
        survivor = log.emit("a", "e3")  # evicts e1
        log.end_op()
        assert log.dropped == 2
        # the evictions took every inner event but one — and the
        # survivor of the outer window is stamped with the *outer* op,
        # proving eviction never popped the stack
        assert survivor.op_id == outer
        assert [e.kind for e in log.events()] == ["e2", "e3"]
        assert log.events(op_id=inner) == [log.events()[0]]

    def test_clear_inside_nested_windows_preserves_the_stack(self):
        log = EventLog(capacity=2)
        outer = log.begin_op("outer")
        inner = log.begin_op("inner")
        log.emit("a", "e0")
        log.emit("a", "e1")
        log.emit("a", "e2")
        log.clear()
        assert log.events() == []
        assert log.dropped == 0
        # windows survive the clear: new events still stamp inner, then
        # outer after the inner window closes
        inside = log.emit("a", "e3")
        log.end_op()
        after = log.emit("a", "e4")
        log.end_op()
        assert inside.op_id == inner
        assert after.op_id == outer

    def test_clear_does_not_rewind_seq_or_op_ids(self):
        log = EventLog(capacity=4)
        log.begin_op("w")
        log.emit("a", "b")
        log.end_op()
        seq_before = log.next_seq
        log.clear()
        assert log.next_seq == seq_before
        assert log.begin_op("w2") == 1  # op ids keep counting too


class TestNoopEventLog:
    def test_shared_singleton_and_shape(self):
        assert create_event_log(False) is NOOP_EVENT_LOG
        assert not NOOP_EVENT_LOG.enabled
        assert NOOP_EVENT_LOG.emit("a", "b", node_id=1) is None
        assert NOOP_EVENT_LOG.begin_op("read") == 0
        NOOP_EVENT_LOG.end_op()
        assert NOOP_EVENT_LOG.events() == []
        assert NOOP_EVENT_LOG.to_jsonl() == ""
        assert NOOP_EVENT_LOG.next_seq == 0

    def test_noop_has_no_instance_dict(self):
        assert not hasattr(NoopEventLog(), "__dict__")

    def test_create_enabled(self):
        log = create_event_log(True)
        assert log.enabled
        assert log.capacity == DEFAULT_EVENT_CAPACITY
        assert EventLog(capacity=9).capacity == 9


class TestStoreIntegration:
    def test_components_emit_into_store_log(self):
        store = XMLStore.open(StoreConfig(events_enabled=True))
        store.load_document("<r><a>x</a><b>y</b></r>")
        store.read(2)
        sources = {e.source for e in store.event_log.events()}
        # lookup path: partial probe missed, range index located, locator scanned
        assert {"partial_index", "range_index", "locator"} <= sources

    def test_disabled_store_attaches_noop(self):
        store = XMLStore.open(StoreConfig())
        assert store.event_log is NOOP_EVENT_LOG
        store.load_document("<r/>")
        assert store.event_log.events() == []

    def test_xpath_summary_event(self):
        store = XMLStore.open(StoreConfig(events_enabled=True))
        store.load_document("<r><a/><a/></r>")
        store.xpath("/r/a")
        summaries = [
            e for e in store.event_log.events()
            if e.source == "xpath" and e.kind == "evaluate"
        ]
        assert len(summaries) == 1
        assert summaries[0].fields["matches"] == 2
        assert summaries[0].fields["view_tokens"] > 0

    def test_wal_append_events(self):
        store = XMLStore.open(StoreConfig(events_enabled=True))
        store.load_document("<r/>")
        store.insert_into_last(1, "<a/>")
        kinds = [
            e.fields["type"] for e in store.event_log.events()
            if e.source == "wal" and e.kind == "append"
        ]
        assert "load_document" in kinds
        assert "insert_into_last" in kinds
