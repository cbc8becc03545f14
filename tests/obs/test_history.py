"""Workload history: capture, retention compaction, persistence."""

import json

import pytest

from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.store import XMLStore
from repro.errors import ObservabilityError
from repro.obs.bridge import deterministic_snapshot
from repro.obs.history import HistorySnapshot, WorkloadHistory, load_snapshots
from repro.obs.schema import HISTORY_FILE
from repro.obs.schema import read_jsonl as read_history

K_LOAD = 'repro_store_operations_total{op="load"}'
K_READ = 'repro_store_operations_total{op="node_read"}'


def _store(interval=4, capacity=None, **overrides):
    store = XMLStore.open(
        StoreConfig(
            policy=IndexingPolicy.RANGE_PLUS_PARTIAL,
            history_enabled=True,
            **overrides,
        )
    )
    store.history.interval = interval
    if capacity is not None:
        store.history.capacity = capacity
    root = store.load_document(
        "<doc>"
        + "".join(f"<item n='{i}'>t{i}</item>" for i in range(12))
        + "</doc>"
    )
    return store, root


def _capture(store, label):
    """One labeled history row, through the store's watch tick."""
    store.watch(label, ["history"])
    return store.history.snapshots()[-1]


class TestCapture:
    def test_interval_captures(self):
        store, root = _store(interval=4)
        for _ in range(8):
            store.read(root + 1)
        labels = [snap.label for snap in store.history.snapshots()]
        assert labels.count("interval") >= 2
        seqs = [snap.seq for snap in store.history.snapshots()]
        assert seqs == sorted(seqs)

    def test_first_capture_reports_cumulative_values(self):
        store, _ = _store()
        snapshot = _capture(store, "manual")
        assert snapshot.delta(K_LOAD) == 1.0
        assert snapshot.operations >= 1
        assert snapshot.simulated_seconds == store.simulated_seconds

    def test_deltas_are_per_window(self):
        store, root = _store(interval=1000)
        _capture(store, "baseline")
        for _ in range(3):
            store.read(root + 1)
        snapshot = _capture(store, "after")
        assert snapshot.delta(K_READ) == 3.0
        assert snapshot.delta(K_LOAD) == 0.0  # consumed by the baseline row

    def test_checkpoint_captures_once_then_skips_idle(self):
        store, _ = _store(interval=1000)
        store.checkpoint()
        rows = len(store.history)
        assert rows >= 1
        assert store.history.snapshots()[-1].label == "checkpoint"
        store.checkpoint()  # nothing ran since: no new row
        assert len(store.history) == rows

    def test_wall_clock_keys_are_filtered(self):
        store, root = _store(telemetry_enabled=True, interval=1000)
        store.read(root + 1)
        snapshot = _capture(store, "manual")
        wall = [k for k in snapshot.deltas if k.startswith("repro_span_seconds")]
        assert wall == []
        # the simulated-side span series is deterministic and survives
        assert any(
            k.startswith("repro_span_simulated_seconds")
            for k in snapshot.deltas
        )

    def test_partial_and_heat_sections(self):
        store, root = _store(heatmap_enabled=True)
        store.read(root + 1)
        store.read(root + 1)
        snapshot = _capture(store, "manual")
        assert snapshot.partial_index is not None
        assert snapshot.partial_index["probes"] >= 1
        heat = snapshot.heatmap
        assert heat is not None
        assert heat["touches"] > 0
        assert 0.0 <= heat["top_decile_share"] <= 1.0
        assert heat["hot80_blocks"] <= heat["blocks_touched"]
        assert len(heat["top_blocks"]) <= 5

    def test_heatmap_none_when_disabled(self):
        store, _ = _store()
        snapshot = _capture(store, "manual")
        assert snapshot.heatmap is None


class TestRetention:
    def test_overflow_merges_the_two_oldest_rows(self):
        store, root = _store(capacity=2, interval=1)
        for _ in range(5):
            store.read(root + 1)
        history = store.history
        assert len(history) == 2
        oldest = history.snapshots()[0]
        assert oldest.label == "compacted"
        assert oldest.merged >= 2
        assert history.compactions >= 1
        assert history.captures >= 4

    def test_merged_row_sums_deltas(self):
        history = WorkloadHistory(capacity=2)
        store, root = _store(interval=1000)

        def capture(label):
            history.capture(store, label, deterministic_snapshot(store))

        capture("one")  # cumulative baseline
        store.read(root + 1)
        capture("two")
        store.read(root + 1)
        capture("three")  # overflow: one+two merge
        assert len(history) == 2
        merged = history.snapshots()[0]
        # row one carried the load, row two one read: both survive the merge
        assert merged.delta(K_LOAD) == 1.0
        assert merged.delta(K_READ) == 1.0


class TestPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / HISTORY_FILE)
        store, root = _store(interval=1000, artifacts_dir=str(tmp_path))
        _capture(store, "manual")
        store.read(root + 1)
        _capture(store, "manual")
        rows = read_history(path)
        assert len(rows) == 2
        assert all(row["schema_version"] == 1 for row in rows)
        decoded = load_snapshots(path)
        assert [s.seq for s in decoded] == [0, 1]
        assert decoded[1].delta(K_READ) == 1.0

    def test_reopen_continues_the_sequence(self, tmp_path):
        path = str(tmp_path / HISTORY_FILE)
        store, _ = _store(interval=1000, artifacts_dir=str(tmp_path))
        _capture(store, "manual")
        successor = WorkloadHistory(path=path)
        assert len(successor) == 1
        fresh_store, _ = _store(interval=1000)
        snapshot = successor.capture(
            fresh_store, "later", deterministic_snapshot(fresh_store)
        )
        assert snapshot.seq == 1

    def test_compaction_rewrites_the_file(self, tmp_path):
        path = str(tmp_path / HISTORY_FILE)
        store, root = _store(
            capacity=2, interval=1, artifacts_dir=str(tmp_path)
        )
        for _ in range(5):
            store.read(root + 1)
        rows = read_history(path)
        assert len(rows) == len(store.history) == 2
        assert rows[0]["label"] == "compacted"

    def test_read_history_rejects_unstamped_lines(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(json.dumps({"seq": 0, "label": "x"}) + "\n")
        with pytest.raises(ObservabilityError, match="schema_version"):
            read_history(str(path))

    def test_read_history_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text('{"schema_version": 1}\nnot json\n')
        with pytest.raises(ObservabilityError, match="malformed"):
            read_history(str(path))

    def test_read_history_missing_file(self, tmp_path):
        # an absent trail is an empty one; an unreadable path is an error
        assert read_history(str(tmp_path / "absent.jsonl")) == []
        with pytest.raises(ObservabilityError, match="cannot read"):
            read_history(str(tmp_path))

    def test_torn_final_line_is_dropped_and_the_next_append_starts_fresh(
        self, tmp_path
    ):
        """A crash mid-append leaves an unterminated last line: readers drop
        it (a store with such a trail opens) and the next row replaces it."""
        path = tmp_path / HISTORY_FILE
        store, root = _store(interval=1000, artifacts_dir=str(tmp_path))
        _capture(store, "before")
        with open(path, "a") as handle:
            handle.write('{"seq": 1, "lab')
        assert [row["label"] for row in read_history(str(path))] == ["before"]
        reopened, _ = _store(interval=1000, artifacts_dir=str(tmp_path))
        assert [s.label for s in reopened.history.snapshots()] == ["before"]
        _capture(reopened, "after")
        assert [row["label"] for row in read_history(str(path))] == [
            "before", "after",
        ]
        assert path.read_text().endswith("\n")

    def test_from_dict_rejects_malformed_snapshots(self):
        with pytest.raises(ObservabilityError, match="malformed"):
            HistorySnapshot.from_dict({"seq": "zero"})


class TestDisabledHistory:
    def test_disabled_history_ignores_its_file(self, tmp_path):
        path = str(tmp_path / HISTORY_FILE)
        store, _ = _store(interval=1000, artifacts_dir=str(tmp_path))
        _capture(store, "manual")
        assert len(WorkloadHistory(path=path)) == 1
        disabled = WorkloadHistory(path=path, enabled=False)
        assert disabled.enabled is False and disabled.path is None
        assert disabled.snapshots() == [] and len(disabled) == 0
        assert WorkloadHistory().enabled

    def test_disabled_store_history_stays_empty(self):
        store = XMLStore.open(StoreConfig())
        root = store.load_document("<r><a/></r>")
        for _ in range(70):  # past one capture interval
            store.read(root + 1)
        store.checkpoint()
        assert store.history.enabled is False
        assert store.history.snapshots() == [] and len(store.history) == 0
        assert store.history.captures == 0
