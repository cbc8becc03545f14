"""Flight recorder: ring bounds, the three feeds, and determinism.

The recorder's contract: a bounded ring of event / alert / metric-frame
entries whose persisted form is a pure function of the workload — no
wall-clock readings ever reach an entry, so identical seeded runs
record byte-identically (the incident-determinism CI gate diffs the
dumps).
"""

import json

from repro.core.config import StoreConfig
from repro.core.store import XMLStore
from repro.obs.recorder import (
    DEFAULT_CAPACITY,
    DEFAULT_INTERVAL,
    FlightRecorder,
)


def _store(interval=4, **overrides):
    store = XMLStore.open(
        StoreConfig(events_enabled=True, recorder_enabled=True, **overrides)
    )
    store.recorder.interval = interval
    store.load_document("<r><a>x</a><b>y</b></r>")
    return store


class TestRing:
    def test_capacity_bounds_the_ring_and_counts_drops(self):
        recorder = FlightRecorder(capacity=3)
        for index in range(5):
            recorder.record("event", "test", f"e{index}", 0.0, {})
        assert len(recorder) == 3
        assert recorder.dropped == 2
        # oldest evicted: the survivors are the newest three, in order
        assert [entry.label for entry in recorder.entries()] == [
            "e2",
            "e3",
            "e4",
        ]

    def test_seq_is_monotone_across_evictions(self):
        recorder = FlightRecorder(capacity=2)
        for _ in range(4):
            recorder.record("event", "test", "e", 0.0, {})
        assert [entry.seq for entry in recorder.entries()] == [2, 3]
        assert recorder.entries(since=3)[0].seq == 3

    def test_clear_resets_entries_and_drop_counter(self):
        recorder = FlightRecorder(capacity=2)
        for _ in range(3):
            recorder.record("event", "test", "e", 0.0, {})
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.dropped == 0


class TestFeeds:
    def test_events_tee_into_the_ring_with_wall_stripped(self):
        store = _store()
        store.event_log.emit("test", "poke", severity="info", detail=7)
        entries = [
            entry
            for entry in store.recorder.entries()
            if entry.kind == "event" and entry.label == "poke"
        ]
        assert len(entries) == 1
        payload = entries[0].payload
        assert "wall" not in payload
        assert payload["fields"] == {"detail": 7}

    def test_alert_transitions_tee_into_the_ring(self):
        store = _store(alerts_enabled=True)
        # quarantining a block fires the critical checksum rules on the
        # next evaluation
        from repro.errors import ChecksumError

        store.pool.quarantine(99, ChecksumError("boom", block_no=99))
        store.watch("test", ["alerts"])
        alerts = [
            entry
            for entry in store.recorder.entries()
            if entry.kind == "alert"
        ]
        assert alerts, "fired alert never reached the recorder"
        assert alerts[0].label == "fired"
        assert "schema_version" not in alerts[0].payload

    def test_metric_frames_capture_deterministic_deltas(self):
        store = _store(interval=2)
        for _ in range(4):
            store.read()
        frames = [
            entry
            for entry in store.recorder.entries()
            if entry.kind == "metrics"
        ]
        assert frames, "no interval frame captured"
        for frame in frames:
            assert frame.source == "recorder"
            assert "operations" in frame.payload
            deltas = frame.payload["deltas"]
            assert all(
                not key.startswith("repro_span_seconds") for key in deltas
            ), "wall-clock key leaked into a recorder frame"

    def test_disabled_store_tees_into_an_empty_recorder(self):
        store = XMLStore.open(StoreConfig(events_enabled=True))
        assert store.recorder.enabled is False
        assert store.event_log.recorder is store.recorder
        store.load_document("<r><a/></r>")
        store.read(2)
        assert store.event_log.events()
        assert store.recorder.entries() == [] and len(store.recorder) == 0


class TestDeterminism:
    def _dump(self):
        store = _store(interval=2)
        for _ in range(3):
            store.read()
        store.event_log.emit("test", "poke", severity="info")
        return json.dumps(store.recorder.to_dict(), sort_keys=True)

    def test_identical_runs_record_byte_identically(self):
        assert self._dump() == self._dump()

    def test_to_dict_is_schema_stamped(self):
        recorder = FlightRecorder()
        assert recorder.to_dict()["schema_version"] == 1
        assert FlightRecorder(enabled=False).to_dict()["schema_version"] == 1


def test_recorder_defaults():
    live = FlightRecorder()
    assert live.enabled and live.capacity == DEFAULT_CAPACITY
    assert live.interval == DEFAULT_INTERVAL
