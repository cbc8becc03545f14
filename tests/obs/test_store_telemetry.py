"""Store-level telemetry: spans per operation, projection, zero cost off."""

import pytest

from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.store import TABLE1_SPANS, XMLStore
from repro.obs.bridge import metrics_snapshot, store_families, store_registry
from repro.obs.exporters import prometheus_text
from repro.obs.telemetry import NOOP_TELEMETRY


def _enabled_store(**overrides) -> XMLStore:
    return XMLStore(StoreConfig(telemetry_enabled=True, **overrides))


DOC = "<orders><order><item>widget</item></order><order><item>bolt</item></order></orders>"


class TestSpansPerOperation:
    @pytest.mark.parametrize(
        ("span_name", "operation"),
        [
            ("load_document", lambda s, r: None),
            ("read", lambda s, r: s.read()),
            ("node_read", lambda s, r: s.read(r + 1)),
            ("insert_into_last", lambda s, r: s.insert_into_last(r, "<order/>")),
            ("insert_before", lambda s, r: s.insert_before(r + 1, "<order/>")),
            ("insert_after", lambda s, r: s.insert_after(r + 1, "<order/>")),
            ("insert_into_first", lambda s, r: s.insert_into_first(r, "<order/>")),
            ("replace_content", lambda s, r: s.replace_content(r + 1, "<item/>")),
            ("replace_node", lambda s, r: s.replace_node(r + 1, "<order/>")),
            ("delete_node", lambda s, r: s.delete_node(r + 1)),
        ],
    )
    def test_each_table1_operation_records_a_span(self, span_name, operation):
        store = _enabled_store()
        root = store.load_document(DOC)
        operation(store, root)
        names = {event.name for event in store.telemetry.events()}
        assert span_name in names

    def test_span_records_simulated_seconds(self):
        # a full read emits tokens, which costs simulated CPU seconds;
        # the lazy load itself is (by design) free on the simulated clock
        store = _enabled_store()
        store.load_document(DOC)
        store.read()
        events = {e.name: e for e in store.telemetry.events()}
        assert events["read"].simulated_seconds > 0
        assert events["read"].wall_seconds > 0
        assert events["load_document"].wall_seconds > 0

    def test_wal_append_spans_nest_under_operations(self):
        store = _enabled_store()
        store.load_document(DOC)
        events = {e.name: e for e in store.telemetry.events()}
        load = events["load_document"]
        append = events["wal.append"]
        assert append.parent == load.seq
        assert append.depth == load.depth + 1

    def test_preregistered_table1_series_visible_at_zero(self):
        store = _enabled_store()
        text = prometheus_text(store_families(store))
        for name in TABLE1_SPANS:
            assert f'repro_spans_total{{span="{name}"}}' in text


class TestProjection:
    def test_projection_covers_every_layer(self):
        store = _enabled_store()
        root = store.load_document(DOC)
        store.read(root + 1)
        snapshot = store_registry(store).snapshot()
        assert snapshot['repro_store_operations_total{op="load"}'] == 1
        assert snapshot['repro_store_operations_total{op="node_read"}'] == 1
        assert snapshot['repro_locator_resolutions_total{path="scan"}'] >= 1
        assert snapshot["repro_wal_appends_total"] >= 1
        assert "repro_buffer_hit_rate" in snapshot
        assert snapshot["repro_store_simulated_seconds"] == pytest.approx(
            store.simulated_seconds
        )

    def test_wal_append_counter_tracks_operations(self):
        store = _enabled_store()
        root = store.load_document(DOC)
        before = store.wal.appends
        store.insert_into_last(root, "<order/>")
        assert store.wal.appends == before + 1

    def test_families_merge_live_registry_without_name_collisions(self):
        store = _enabled_store()
        store.load_document(DOC)
        families = store_families(store)
        names = [family.name for family in families]
        assert len(names) == len(set(names))
        assert "repro_spans_total" in names
        assert "repro_store_operations_total" in names

    def test_projection_works_with_telemetry_disabled(self):
        store = XMLStore()
        store.load_document(DOC)
        snapshot = store_registry(store).snapshot()
        assert snapshot['repro_store_operations_total{op="load"}'] == 1
        assert store_families(store)  # projection only, no live registry

    def test_scan_tokens_histogram_observes_resolutions(self):
        store = _enabled_store()
        root = store.load_document(DOC)
        store.read(root + 1)
        snapshot = store.telemetry.snapshot()
        assert snapshot["repro_locator_scan_tokens_count"] >= 1


class TestBenchSnapshot:
    def test_metrics_snapshot_delta(self):
        store = _enabled_store()
        before = metrics_snapshot(store)
        store.load_document(DOC)
        after = metrics_snapshot(store)
        delta = after.delta(before)
        assert delta['repro_store_operations_total{op="load"}'] == 1
        # gauges report current value, not a difference
        assert delta["repro_store_simulated_seconds"] == pytest.approx(
            store.simulated_seconds
        )


class TestZeroCostDisabled:
    def test_disabled_store_gets_shared_noop(self):
        store = XMLStore()
        assert store.telemetry is NOOP_TELEMETRY
        assert not store.telemetry.enabled

    def test_disabled_store_records_no_events(self):
        store = XMLStore()
        root = store.load_document(DOC)
        store.read(root + 1)
        store.insert_into_last(root, "<order/>")
        assert store.telemetry.events() == []
        assert store.telemetry.snapshot() == {}

    def test_simulated_seconds_identical_on_vs_off(self):
        def workload(store: XMLStore) -> float:
            root = store.load_document(DOC)
            store.insert_into_last(root, "<order><item>x</item></order>")
            store.read(root + 1)
            store.read()
            store.delete_node(root + 1)
            return store.simulated_seconds

        off = workload(XMLStore(StoreConfig(telemetry_enabled=False)))
        on = workload(XMLStore(StoreConfig(telemetry_enabled=True)))
        assert off == on  # exact: telemetry never touches the simulated clock

    @pytest.mark.parametrize(
        "policy", [IndexingPolicy.FULL, IndexingPolicy.ADAPTIVE]
    )
    def test_other_policies_identical_too(self, policy):
        def workload(enabled: bool) -> float:
            store = XMLStore(StoreConfig(policy=policy, telemetry_enabled=enabled))
            root = store.load_document(DOC)
            store.insert_into_last(root, "<order/>")
            store.read(root + 1)
            return store.simulated_seconds

        assert workload(False) == workload(True)


class TestFromCatalogTelemetry:
    def test_reopened_store_keeps_telemetry_setting(self):
        config = StoreConfig(telemetry_enabled=True)
        store = XMLStore(config)
        store.load_document(DOC)
        catalog = store.checkpoint()
        reopened = XMLStore.from_catalog(store.device, catalog, config=config)
        assert reopened.telemetry.enabled
        reopened.read()
        assert any(e.name == "read" for e in reopened.telemetry.events())


class TestSnapshotIsARead:
    """Mechanical form of "keys are rendered once per series": on a warmed
    store the three periodic observers read the metric surface without
    rendering a key, formatting a bucket bound or building a Sample.
    (Before the flat path, each of the three calls rendered every key.)"""

    @staticmethod
    def _warm_store() -> XMLStore:
        from repro.server.sessions import SessionOp, XMLServer

        store = XMLStore.open(
            StoreConfig(
                policy=IndexingPolicy.RANGE_PLUS_PARTIAL,
                telemetry_enabled=True,
                events_enabled=True,
                heatmap_enabled=True,
                profiling_enabled=True,
                history_enabled=True,
                alerts_enabled=True,
                recorder_enabled=True,
            )
        )
        root = store.load_document(DOC)
        # a served write: the projection gains the serving counters and
        # the custom-bucket group-commit histogram
        server = XMLServer(store)
        server.submit([SessionOp("insert_into_last", root, "<order/>")])
        server.run(seed=0)
        for _ in range(3):
            store.read(root + 1)
            store.insert_into_last(root, "<order><item>nut</item></order>")
            store.xpath("/orders/order")
        # first tick of each observer: every series exists from here on
        store.recorder.frame(store, "warm")
        store.history.capture(store, "warm")
        store.alerts.evaluate_store(store, "warm")
        return store

    def test_observer_ticks_render_nothing(self, monkeypatch):
        from repro.obs import metrics

        store = self._warm_store()
        counts = {"format_value": 0, "sample_key": 0, "_flat_key": 0, "Sample": 0}

        def counting(name):
            original = getattr(metrics, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in counts:
            monkeypatch.setattr(metrics, name, counting(name))
        frame = store.recorder.frame(store, "tick")
        row = store.history.capture(store, "tick")
        store.alerts.evaluate_store(store, "tick")
        assert counts == {"format_value": 0, "sample_key": 0, "_flat_key": 0, "Sample": 0}
        # and they did read the surface, group-commit histogram included
        assert 'repro_history_captures_total' in frame.payload["deltas"]
        assert 'repro_wal_group_commit_batch_size_bucket{le="+Inf"}' in row.deltas
        assert not any(key.startswith("repro_span_seconds") for key in row.deltas)
        # the exporters' path still builds Samples (and only there)
        store_families(store)
        assert counts["Sample"] > 0
        assert counts["_flat_key"] == counts["format_value"] == 0

    def test_slo_evaluation_adds_no_series(self):
        # the alert view reads the SLO budget off the live histograms; a
        # target whose operation never ran must not appear in the export
        store = self._warm_store()
        before = prometheus_text(store_families(store))
        assert 'span="replace_node"' in before  # Table-1 spans are preregistered
        from repro.obs.slo import SLOTarget, SLOTracker

        report = SLOTracker(
            targets=(SLOTarget("never_ran", 0.25), SLOTarget("node_read", 0.25))
        ).evaluate(store)
        assert [status.count for status in report.statuses] == [0, 3]
        assert 'span="never_ran"' not in prometheus_text(store_families(store))
