"""Tuning advisor: rules, evidence, what-ifs, and vacuous-by-design."""

import struct

import pytest

from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.store import XMLStore, _CATALOG_HEADER
from repro.obs import fingerprint as fp
from repro.obs.advisor import (
    MIN_OPERATIONS,
    AdvisorReport,
    advise,
    apply_recommendations,
)
from repro.obs.history import HistorySnapshot


def snap(seq, deltas, partial_index=None, heatmap=None):
    return HistorySnapshot(
        seq=seq,
        label="test",
        operations=0,
        simulated_seconds=0.0,
        deltas=deltas,
        partial_index=partial_index,
        heatmap=heatmap,
    )


def _loaded_store(interval=None, **overrides):
    config = dict(policy=IndexingPolicy.RANGE_PLUS_PARTIAL)
    config.update(overrides)
    store = XMLStore.open(StoreConfig(**config))
    if interval is not None:
        store.history.interval = interval
    store.load_document(
        "<doc>"
        + "".join(f"<item n='{i}'>t{i}</item>" for i in range(20))
        + "</doc>"
    )
    return store


def _rules(report):
    return [rec.rule for rec in report.recommendations]


class TestVacuousByDesign:
    def test_empty_store(self):
        report = advise(XMLStore.open(StoreConfig()))
        assert report.vacuous
        assert report.vacuous_reason == "store is empty"
        assert report.recommendations == []
        assert "no recommendations" in report.render()

    def test_no_history(self):
        report = advise(_loaded_store())
        assert report.vacuous
        assert "no workload history" in report.vacuous_reason

    def test_insufficient_operations(self):
        store = _loaded_store(history_enabled=True, interval=1)
        store.read()  # far below MIN_OPERATIONS
        report = advise(store)
        assert report.vacuous
        assert "insufficient evidence" in report.vacuous_reason
        assert report.operations < MIN_OPERATIONS
        assert report.fingerprint is not None  # evidence shown even when thin

    def test_legacy_two_section_store_never_crashes(self, tmp_path):
        # build a pre-checksum store and strip its catalog down to the
        # legacy two-section layout (chain + ranges, no format section)
        store = _loaded_store(checksums_enabled=False)
        store.checkpoint()
        scheme_state = store.id_scheme.to_catalog()
        sections = [store.layout.chain.to_catalog(), store.ranges.to_catalog()]
        parts = [
            _CATALOG_HEADER.pack(
                store.range_index.root_block, -1, len(scheme_state), 2
            ),
            scheme_state,
        ]
        for section in sections:
            parts.append(struct.pack("<I", len(section)))
            parts.append(section)
        reopened = XMLStore.from_catalog(
            store.device,
            b"".join(parts),
            StoreConfig(policy=IndexingPolicy.RANGE_PLUS_PARTIAL),
        )
        assert not reopened.codec.checksums  # genuinely opened as legacy
        report = advise(reopened)
        assert report.vacuous
        assert "no workload history" in report.vacuous_reason
        assert report.recommendations == []

    def test_vacuous_report_is_json_ready(self):
        payload = advise(XMLStore.open(StoreConfig())).to_dict()
        assert payload["schema_version"] == 1
        assert payload["vacuous"] is True
        assert payload["recommendations"] == []


def _busy_window(seq=0, **extra_deltas):
    """A window big enough to clear MIN_OPERATIONS, with scan pressure."""
    deltas = {
        fp.K_NODE_READS: 64.0,
        fp.K_PATH_SCAN: 32.0,
        fp.K_TOKENS_SCANNED: 32.0 * 2048.0,
        fp.K_BUFFER_HITS: 64.0,
        fp.K_BUFFER_MISSES: 4.0,
    }
    deltas.update(extra_deltas)
    return deltas


class TestSplitRangesRule:
    def test_deep_scans_trigger_a_split(self):
        store = _loaded_store(policy=IndexingPolicy.RANGE)
        report = advise(store, snapshots=[snap(0, _busy_window())])
        assert not report.vacuous
        [rec] = [r for r in report.recommendations if r.rule == "split-ranges"]
        assert rec.knob == "max_range_tokens"
        assert rec.current is None
        # avg depth 2048 -> pow2_at_most(512) = 512, inside [64, 4096]
        assert rec.recommended == 512
        assert rec.what_if.saving_simulated_seconds > 0
        metrics = {e.metric for e in rec.evidence}
        assert fp.K_TOKENS_SCANNED in metrics

    def test_already_granular_config_is_left_alone(self):
        store = _loaded_store(
            policy=IndexingPolicy.RANGE, max_range_tokens=512
        )
        report = advise(store, snapshots=[snap(0, _busy_window())])
        assert "split-ranges" not in _rules(report)

    def test_shallow_scans_do_not_trigger(self):
        window = _busy_window()
        window[fp.K_TOKENS_SCANNED] = 32.0 * 16.0  # avg depth 16
        store = _loaded_store(policy=IndexingPolicy.RANGE)
        report = advise(store, snapshots=[snap(0, window)])
        assert "split-ranges" not in _rules(report)


class TestPartialIndexRules:
    def test_thrashing_memo_grows(self):
        store = _loaded_store(partial_index_capacity=32)
        window = _busy_window(
            **{
                "repro_partial_index_inserts_total": 64.0,
                "repro_partial_index_evictions_total": 40.0,
                'repro_partial_index_probes_total{result="hit"}': 8.0,
                'repro_partial_index_probes_total{result="miss"}': 56.0,
            }
        )
        report = advise(
            store, snapshots=[snap(0, window, partial_index={"entries": 32})]
        )
        [rec] = [
            r for r in report.recommendations if r.rule == "grow-partial-index"
        ]
        assert rec.knob == "partial_index_capacity"
        assert rec.recommended > 32
        assert rec.what_if.saving_simulated_seconds > 0

    def test_dead_memo_shrinks(self):
        store = _loaded_store(partial_index_capacity=4096)
        window = _busy_window(
            **{
                'repro_partial_index_probes_total{result="hit"}': 1.0,
                'repro_partial_index_probes_total{result="miss"}': 99.0,
            }
        )
        report = advise(
            store, snapshots=[snap(0, window, partial_index={"entries": 2048})]
        )
        [rec] = [
            r
            for r in report.recommendations
            if r.rule == "shrink-partial-index"
        ]
        assert rec.recommended < 4096
        assert rec.recommended >= 256

    def test_no_partial_index_no_rule(self):
        store = _loaded_store(policy=IndexingPolicy.RANGE)
        report = advise(store, snapshots=[snap(0, _busy_window())])
        assert not any("partial" in rule for rule in _rules(report))


class TestBufferPoolRule:
    def test_hot_set_larger_than_pool_grows_it(self):
        store = _loaded_store(buffer_pool_capacity=8)
        window = _busy_window(
            **{fp.K_BUFFER_HITS: 40.0, fp.K_BUFFER_MISSES: 60.0}
        )
        report = advise(
            store,
            snapshots=[snap(0, window, heatmap={"hot80_blocks": 48})],
        )
        [rec] = [
            r for r in report.recommendations if r.rule == "grow-buffer-pool"
        ]
        assert rec.knob == "buffer_pool_capacity"
        assert rec.current == 8
        assert rec.recommended == 64  # pow2_at_least(48)
        assert rec.what_if.saving_simulated_seconds > 0

    def test_fitting_hot_set_is_left_alone(self):
        store = _loaded_store(buffer_pool_capacity=64)
        report = advise(
            store,
            snapshots=[
                snap(0, _busy_window(), heatmap={"hot80_blocks": 48})
            ],
        )
        assert "grow-buffer-pool" not in _rules(report)


class TestCompactionRule:
    def test_fragmented_read_mostly_store_compacts(self):
        # many tiny ranges: granular splits during a large bulk load
        store = XMLStore.open(
            StoreConfig(policy=IndexingPolicy.RANGE, max_range_tokens=32)
        )
        store.load_document(
            "<doc>"
            + "".join(f"<item n='{i}'>t{i}</item>" for i in range(200))
            + "</doc>"
        )
        assert len(store.ranges) >= 32
        report = advise(store, snapshots=[snap(0, _busy_window())])
        [rec] = [
            r for r in report.recommendations if r.rule == "compact-ranges"
        ]
        assert rec.knob == "maintenance:compact"
        assert rec.recommended < rec.current
        assert rec.what_if.saving_simulated_seconds > 0

    def test_coarse_store_does_not_compact(self):
        store = _loaded_store(policy=IndexingPolicy.RANGE)
        report = advise(store, snapshots=[snap(0, _busy_window())])
        assert "compact-ranges" not in _rules(report)


class TestReportPlumbing:
    def test_report_includes_drift_and_fingerprint(self):
        store = _loaded_store()
        rows = [snap(i, _busy_window()) for i in range(6)]
        report = advise(store, snapshots=rows, window=2)
        assert not report.vacuous
        assert report.window == (0, 5)
        assert report.fingerprint["operations"] == 6 * 64.0
        assert len(report.drift) == 4

    def test_to_dict_round_trips_recommendations(self):
        store = _loaded_store(buffer_pool_capacity=8)
        report = advise(
            store,
            snapshots=[
                snap(
                    0,
                    _busy_window(
                        **{fp.K_BUFFER_HITS: 40.0, fp.K_BUFFER_MISSES: 60.0}
                    ),
                    heatmap={"hot80_blocks": 48},
                )
            ],
        )
        payload = report.to_dict()
        assert payload["schema_version"] == 1
        assert payload["vacuous"] is False
        rec = next(
            r
            for r in payload["recommendations"]
            if r["rule"] == "grow-buffer-pool"
        )
        assert rec["evidence"]
        assert rec["what_if"]["saving_simulated_seconds"] > 0

    def test_render_shows_rule_and_what_if(self):
        store = _loaded_store(policy=IndexingPolicy.RANGE)
        text = advise(store, snapshots=[snap(0, _busy_window())]).render()
        assert "[split-ranges]" in text
        assert "what-if:" in text
        assert "evidence:" in text

    def test_advise_is_deterministic(self):
        store = _loaded_store(policy=IndexingPolicy.RANGE)
        rows = [snap(i, _busy_window()) for i in range(4)]
        first = advise(store, snapshots=rows).to_dict()
        second = advise(store, snapshots=rows).to_dict()
        assert first == second


class TestApplyRecommendations:
    def test_config_knobs_are_applied(self):
        store = _loaded_store(
            policy=IndexingPolicy.RANGE_PLUS_PARTIAL, buffer_pool_capacity=8
        )
        window = _busy_window(
            **{fp.K_BUFFER_HITS: 40.0, fp.K_BUFFER_MISSES: 60.0}
        )
        report = advise(
            store, snapshots=[snap(0, window, heatmap={"hot80_blocks": 48})]
        )
        tuned = apply_recommendations(store.config, report)
        assert tuned.buffer_pool_capacity == 64
        assert tuned.max_range_tokens == 512
        assert tuned is not store.config

    def test_maintenance_knobs_are_skipped(self):
        config = StoreConfig()
        report = AdvisorReport(
            vacuous_reason=None,
            operations=100.0,
            window=(0, 1),
            fingerprint=None,
        )
        from repro.obs.advisor import Recommendation

        report.recommendations.append(
            Recommendation(
                rule="compact-ranges",
                knob="maintenance:compact",
                current=40,
                recommended=5,
                summary="compact",
            )
        )
        assert apply_recommendations(config, report) is config

    def test_empty_report_returns_the_same_config(self):
        config = StoreConfig()
        report = advise(XMLStore.open(StoreConfig()))
        assert apply_recommendations(config, report) is config
