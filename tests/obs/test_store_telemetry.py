"""Store-level telemetry: spans per operation, projection, zero cost off."""

import pytest

from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.store import OBSERVERS, TABLE1_SPANS, XMLStore
from repro.obs.bridge import metrics_snapshot, store_families, store_registry
from repro.obs.exporters import prometheus_text
from repro.obs.tracing import NOOP_SPAN


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
        assert not store.telemetry.enabled
        assert store.telemetry.span("read") is NOOP_SPAN
        # the components share the store's facade
        assert store.wal.telemetry is store.telemetry
        assert store.locator.telemetry is store.telemetry

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


#: every facility on, as ``repro serve`` runs
WATCHED = dict(
    policy=IndexingPolicy.RANGE_PLUS_PARTIAL,
    telemetry_enabled=True,
    events_enabled=True,
    heatmap_enabled=True,
    profiling_enabled=True,
    history_enabled=True,
    alerts_enabled=True,
    recorder_enabled=True,
)


class TestSnapshotIsARead:
    """Mechanical form of "keys are rendered once per series": on a warmed
    store the watch tick reads the metric surface without rendering a
    key, formatting a bucket bound or building a Sample.  (Before the flat
    path, each of the three observers rendered every key.)  And it reads
    it once: the tick builds one capture that history, the alert engine
    and the flight recorder share."""

    @staticmethod
    def _warm_store(**config) -> XMLStore:
        from repro.server.sessions import SessionOp, XMLServer

        store = XMLStore.open(StoreConfig(**{**WATCHED, **config}))
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
        # first tick of each observer: every series exists from here on,
        # and each observer's operation count restarts at zero
        store.watch("warm", OBSERVERS)
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
        store.watch("tick", OBSERVERS)
        frame = store.recorder.entries()[-1]
        row = store.history.snapshots()[-1]
        assert counts == {"format_value": 0, "sample_key": 0, "_flat_key": 0, "Sample": 0}
        # and they did read the surface, group-commit histogram included
        assert 'repro_history_captures_total' in frame["deltas"]
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

    @staticmethod
    def _count_projections(monkeypatch):
        from repro.obs import bridge

        calls = [0]
        original = bridge.store_registry

        def counting(store):
            calls[0] += 1
            return original(store)

        monkeypatch.setattr(bridge, "store_registry", counting)
        return calls

    def test_sixty_four_ops_build_two_projections(self, monkeypatch):
        # one tick at op 32 (the recorder's frame) and one at op 64 (history,
        # alerts and the frame together); an observer each, it was 1 + 3
        store = self._warm_store()
        calls = self._count_projections(monkeypatch)
        for _ in range(64):
            store.read(2)
        assert calls[0] == 2
        assert store.history.snapshots()[-1].label == "interval"
        assert store.alerts.evaluations == 2  # the warm tick and op 64
        assert [e["label"] for e in store.recorder.entries() if e["kind"] == "metrics"][-2:] == [
            "interval", "interval",
        ]

    def test_a_checkpoint_builds_one_projection(self, monkeypatch):
        store = self._warm_store()
        store.read(2)
        calls = self._count_projections(monkeypatch)
        store.checkpoint()
        assert calls[0] == 1
        assert store.history.snapshots()[-1].label == "checkpoint"
        store.checkpoint()  # idle since: nothing to capture
        assert calls[0] == 1

    def test_shared_capture_keeps_the_alert_keys_out_of_the_trails(self):
        from repro.obs.alerts import DRIFT_KEY, SLO_BUDGET_KEY

        store = self._warm_store()
        for _ in range(128):
            store.read(2)
        store.checkpoint()
        trails = [row.deltas for row in store.history.snapshots()] + [
            entry["deltas"]
            for entry in store.recorder.entries()
            if entry["kind"] == "metrics"
        ]
        assert len(trails) > 4
        for deltas in trails:
            assert DRIFT_KEY not in deltas and SLO_BUDGET_KEY not in deltas

    def test_the_frame_sees_what_the_tick_did_before_it(self):
        # history's capture counter, moved by this very tick, is in the frame
        from repro.obs.bridge import deterministic_snapshot

        store = self._warm_store()
        store.watch("tick", OBSERVERS)
        frame = store.recorder.entries()[-1]
        assert frame["deltas"]["repro_history_captures_total"] == 1
        assert store.recorder._last_metrics.values == deterministic_snapshot(store).values

    def test_an_incident_dump_gives_the_frame_the_post_dump_counters(self, tmp_path):
        from repro.errors import ChecksumError
        from repro.obs.bridge import deterministic_snapshot

        store = self._warm_store(artifacts_dir=str(tmp_path))
        store.pool.quarantine(0, ChecksumError("rot", block_no=0))
        dumped = len(store.incidents)
        store.watch("tick", OBSERVERS)  # the critical alert fires and dumps a bundle
        assert len(store.incidents) == dumped + 1
        assert (tmp_path / "store.incidents" / f"incident-{dumped}.json").is_file()
        frame = store.recorder.entries()[-1]
        assert frame["kind"] == "metrics"
        assert frame["deltas"]['repro_incidents_total{kind="critical-alert"}'] == 1
        # the frame's baseline is the surface after the dump's integrity walk
        assert store.recorder._last_metrics.values == deterministic_snapshot(store).values

    def test_each_observer_counts_its_own_operations(self):
        # the bench harness's labelled history row and a checkpoint reset
        # only the observers they feed
        store = self._warm_store()
        for _ in range(10):
            store.read(2)
        store.watch("phase", ["history"])
        assert store.ops_since_capture == {"history": 0, "alerts": 10, "recorder": 10}
        for _ in range(54):
            store.read(2)
        assert store.ops_since_capture == {"history": 54, "alerts": 0, "recorder": 0}
        store.checkpoint()
        assert store.ops_since_capture == {"history": 0, "alerts": 0, "recorder": 0}
