"""EXPLAIN layer: access-path attribution per operation."""

import json

import pytest

from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.store import XMLStore
from repro.cli import build_parser
from repro.errors import InvalidOperationError, NodeNotFoundError
from repro.obs.explain import explain_report
from repro.obs.window import Window


def _store(policy=IndexingPolicy.RANGE_PLUS_PARTIAL) -> XMLStore:
    store = XMLStore.open(
        StoreConfig(
            policy=policy, telemetry_enabled=True, events_enabled=True,
            heatmap_enabled=True,
        )
    )
    store.load_document(
        "<doc>" + "".join(f"<item n='{i}'>t{i}</item>" for i in range(30)) + "</doc>"
    )
    return store


def _read(store, node_id):
    """EXPLAIN ``store.read(node_id)``, labelled as ``explain read`` is."""
    with Window(store, "read") as window:
        store.read(node_id)
    return explain_report(window, [str(node_id)])


def _xpath(store, query):
    """EXPLAIN a query the way ``explain xpath`` runs it: every match is
    serialized, so each one is located."""
    with Window(store, "xpath") as window:
        for node in store.xpath(query):
            node.xml()
    return explain_report(window, [query])


class TestAccessPathAttribution:
    def test_same_xpath_twice_miss_then_partial_hit(self):
        """Acceptance: the report distinguishes a partial-index hit from
        a miss on the very same query run twice."""
        store = _store()
        query = "/doc/item[@n='11']"
        first = _xpath(store, query)
        second = _xpath(store, query)
        # run 1: the partial index has never seen the node, so serializing
        # the match resolves by range scan (and memoizes the location)
        assert first.access_path == "range-scan"
        assert first.resolutions["scan"] > 0
        assert first.resolutions["partial"] == 0
        assert first.partial["misses"] > 0
        assert first.ranges_scanned, "the scanned interval must be attributed"
        # run 2: identical query, but now the memoized location hits
        assert second.access_path == "partial-hit"
        assert second.resolutions["partial"] > 0
        assert second.resolutions["scan"] == 0
        assert second.partial["hits"] > 0
        assert second.partial["misses"] == 0
        # and the hit shows up as cost: no tokens replayed for the locate
        assert second.tokens_replayed < first.tokens_replayed

    def test_full_index_probe_path(self):
        store = _store(policy=IndexingPolicy.FULL)
        report = _read(store, 5)
        assert report.access_path == "full-probe"
        assert report.resolutions["full"] > 0
        assert report.partial is None  # FULL policy keeps no partial index

    def test_read_report_counts_tokens_and_blocks(self):
        store = _store()
        store.pool.flush_all()
        store.pool.drop_all()  # cold cache so blocks_read is non-zero
        report = _read(store, 5)
        assert report.operation == "read"
        assert report.tokens_emitted > 0
        assert report.tokens_replayed > 0
        assert report.blocks_read > 0
        assert report.buffer_misses > 0
        assert report.simulated_seconds > 0

    def test_insert_pays_wal_appends(self):
        store = _store()
        with Window(store, "insert-last") as window:
            first_id = store.insert_into_last(1, "<item>new</item>")
        assert explain_report(window).wal_appends >= 1
        assert store.read(first_id) == "<item>new</item>"

    def test_events_scoped_to_the_operation(self):
        store = _store()
        _read(store, 5)  # emits events outside window
        report = _read(store, 8)
        assert report.events
        assert all(e.op_id == report.op_id for e in report.events)


class TestReportShape:
    def test_render_mentions_the_essentials(self):
        store = _store()
        report = _xpath(store, "/doc/item[@n='3']")
        text = report.render()
        assert "EXPLAIN xpath" in text
        assert "access path:" in text
        assert "tokens: replayed=" in text
        assert "blocks: read=" in text
        assert "wal:" in text

    def test_to_dict_is_json_ready(self):
        store = _store()
        report = _read(store, 5)
        payload = json.loads(json.dumps(report.to_dict(), default=str))
        assert payload["operation"] == "read"
        assert isinstance(payload["events"], list)

    def test_to_dict_can_compact_events(self):
        store = _store()
        report = _read(store, 5)
        compact = report.to_dict(include_events=False)
        assert compact["events"] == len(report.events)

    def test_stage_breakdown_covers_spans(self):
        store = _store()
        report = _read(store, 5)
        stages = {stage["stage"] for stage in report.stages}
        assert "node_read" in stages


def _command(store, *argv):
    """Run one CLI command's own handler on ``store``, in process."""
    arguments = build_parser().parse_args(["store", *argv])
    return arguments.handler(arguments, store, None)


class TestOperationDispatch:
    def test_every_explainable_op_runs(self):
        plain, explained = _store(), _store()
        steps = [
            ["read"],
            ["xpath", "/doc"],
            ["insert-last", "1", "<x/>"],
            ["insert-before", "2", "<y/>"],
            ["insert-after", "2", "<z/>"],
            ["replace", "2", "<w/>"],
        ]
        for step in steps:
            said = _command(plain, *step)
            report = json.loads(_command(explained, "explain", *step, "--json"))
            assert report["operation"] == step[0]
        new_id = int(said.rsplit("=", 1)[1])  # replacement got a fresh id
        _command(plain, "delete", str(new_id))
        _command(explained, "explain", "delete", str(new_id))
        assert explained.read() == plain.read()

    def test_unknown_operation_rejected(self):
        store = _store()
        with pytest.raises(InvalidOperationError):
            _command(store, "explain", "compact")


class TestRecorder:
    def test_failed_operation_produces_no_report(self):
        store = _store()
        window = Window(store, "read")
        with pytest.raises(NodeNotFoundError):
            with window:
                store.read(99999)
        assert window.counts is None

    def test_recorder_closes_op_window_on_failure(self):
        store = _store()
        try:
            with Window(store, "read"):
                store.read(99999)
        except NodeNotFoundError:
            pass
        event = store.event_log.emit("test", "after")
        assert event.op_id is None

    def test_works_without_partial_index(self):
        store = _store(policy=IndexingPolicy.RANGE)
        report = _read(store, 5)
        assert report.partial is None
        assert report.access_path == "range-scan"


class TestFaultAttribution:
    """EXPLAIN attributes fault-layer events (torn writes, sync barriers,
    crashes) emitted inside the operation window."""

    def _faulty_store(self):
        from repro.storage.disk import MemoryBlockDevice
        from repro.storage.faults import FaultConfig, build_fault_harness

        config = StoreConfig(telemetry_enabled=True, events_enabled=True)
        harness = build_fault_harness(
            FaultConfig(seed=0),
            MemoryBlockDevice(block_size=config.page_size),
        )
        store = XMLStore.open(config, device=harness.device)
        root = store.load_document("<r/>")
        for index in range(10):
            store.insert_into_last(root, f"<e n='{index}'/>")
        return store

    def test_checkpoint_sync_barrier_is_attributed(self):
        store = self._faulty_store()
        with Window(store, "checkpoint") as window:
            store.checkpoint()
        report = explain_report(window)
        assert any(
            f["source"] == "fault" and f["kind"] == "sync" for f in report.faults
        )
        assert "fault: sync" in report.render()
        payload = json.loads(json.dumps(report.to_dict(), default=str))
        assert payload["faults"]

    def test_plain_operations_report_no_faults(self):
        store = _store()
        report = _read(store, 5)
        assert report.faults == []
        assert report.to_dict()["faults"] == []
