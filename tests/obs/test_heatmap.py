"""Block heatmap: counters, reports, and the disabled state."""

import json

from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.store import XMLStore
from repro.obs.heatmap import (
    BlockHeatmap,
    heatmap_json,
    heatmap_report,
    render_heatmap,
)


def _store(policy=IndexingPolicy.RANGE_PLUS_PARTIAL) -> XMLStore:
    store = XMLStore.open(
        StoreConfig(policy=policy, events_enabled=True, heatmap_enabled=True)
    )
    store.load_document(
        "<doc>" + "".join(f"<item n='{i}'>t{i}</item>" for i in range(30)) + "</doc>"
    )
    return store


class TestBlockHeatmap:
    def test_fetch_hit_vs_miss(self):
        heatmap = BlockHeatmap()
        heatmap.record_fetch(7, hit=False)
        heatmap.record_fetch(7, hit=True)
        heat = heatmap.counts()[7]
        assert heat.fetches == 2
        assert heat.misses == 1
        assert heat.touches == 2

    def test_writes(self):
        heatmap = BlockHeatmap()
        heatmap.record_write(3)
        heat = heatmap.counts()[3]
        assert heat.writes == 1
        assert heat.fetches == 0

    def test_len_and_clear(self):
        heatmap = BlockHeatmap()
        heatmap.record_fetch(1, hit=True)
        heatmap.record_write(2)
        assert len(heatmap) == 2
        heatmap.clear()
        assert len(heatmap) == 0

    def test_enabled_is_a_constructor_argument(self):
        assert BlockHeatmap().enabled
        disabled = BlockHeatmap(enabled=False)
        assert disabled.enabled is False
        assert disabled.counts() == {} and len(disabled) == 0


class TestStoreHeatmap:
    def test_buffer_pool_records_accesses(self):
        store = _store()
        store.pool.flush_all()
        store.pool.drop_all()
        store.read(5)
        counts = store.heatmap.counts()
        assert counts, "cold reads must touch blocks"
        assert any(h.misses > 0 for h in counts.values())

    def test_disabled_store_records_nothing(self):
        store = XMLStore.open(StoreConfig())
        store.load_document("<r><a/></r>")
        store.pool.flush_all()
        store.pool.drop_all()
        store.read(2)
        assert store.heatmap.enabled is False
        assert store.pool.heatmap is store.heatmap
        assert store.heatmap.counts() == {}


class TestReports:
    def test_report_classifies_data_and_index_blocks(self):
        store = _store()
        store.read()
        report = heatmap_report(store)
        kinds = {row["kind"] for row in report["blocks"]}
        assert "data" in kinds
        assert "index" in kinds  # range-index B+-tree pages
        assert report["blocks_touched"] == len(store.heatmap.counts())

    def test_range_rows_aggregate_block_counts(self):
        store = _store()
        store.read()
        report = heatmap_report(store)
        assert report["ranges"]
        row = report["ranges"][0]
        assert row["fetches"] > 0
        assert row["blocks"] >= 1

    def test_partial_efficacy_section(self):
        store = _store()
        store.read(5)
        store.read(5)  # second read hits the memoized location
        report = heatmap_report(store)
        partial = report["partial_index"]
        assert partial["hits"] >= 1
        assert partial["est_tokens_avoided"] > 0

    def test_no_partial_index_under_full_policy(self):
        store = _store(policy=IndexingPolicy.FULL)
        report = heatmap_report(store)
        assert report["partial_index"] is None
        assert "(policy maintains no partial index)" in render_heatmap(store)

    def test_top_limits_rows(self):
        store = _store()
        store.read()
        report = heatmap_report(store, top=1)
        assert len(report["blocks"]) <= 1
        assert len(report["ranges"]) <= 1

    def test_data_blocks_join_back_to_live_ranges(self):
        store = _store()
        store.read()
        report = heatmap_report(store, top=1000)
        live = {meta.range_id for meta in store.ranges.in_order()}
        data_rows = [r for r in report["blocks"] if r["kind"] == "data"]
        assert data_rows
        for row in data_rows:
            assert row["ranges"]
            assert set(row["ranges"]) <= live

    def test_range_rows_equal_the_block_join(self):
        # a range row must be exactly the sum of the heat of the blocks its
        # tokens are in, and a block row must list exactly the ranges with a
        # token in it — both held to a walk of the chain, after enough
        # inserts, splits and a delete to spread ranges over shared blocks
        store = XMLStore.open(
            StoreConfig(
                policy=IndexingPolicy.RANGE_PLUS_PARTIAL,
                page_size=512,
                heatmap_enabled=True,
            )
        )
        root = store.load_document(
            "<doc>" + "".join(f"<item n='{i}'>t{i}</item>" for i in range(30)) + "</doc>"
        )
        for target in (5, 41, 77, 5, 62):  # item elements are ids 2, 5, 8, ...
            store.insert_into_last(target, "<sub>s</sub>")
        store.insert_into_last(root, "<item>last</item>")
        store.delete_node(41)
        store.read(5)
        store.read()
        blocks_of = {}
        walk = store.layout.iter_from(None)
        for meta in store.ranges.in_order():
            for _ in range(meta.token_count):
                pos, _record = next(walk)
                blocks = blocks_of.setdefault(meta.range_id, [])
                if pos.block_no not in blocks:
                    blocks.append(pos.block_no)
        assert next(walk, None) is None
        assert max(len(blocks) for blocks in blocks_of.values()) > 1
        assert len(store.ranges) > len(set().union(*blocks_of.values()))
        counts = store.heatmap.counts()
        report = heatmap_report(store, top=1000)
        assert {row["range_id"] for row in report["ranges"]} == set(blocks_of)
        for row in report["ranges"]:
            blocks = blocks_of[row["range_id"]]
            assert row["blocks"] == len(blocks)
            for field in ("fetches", "misses", "writes"):
                joined = sum(
                    getattr(counts[b], field) for b in blocks if b in counts
                )
                assert row[field] == joined, (row["range_id"], field)
        for row in report["blocks"]:
            assert row["ranges"] == sorted(
                range_id for range_id, blocks in blocks_of.items()
                if row["block"] in blocks
            )

    def test_join_survives_range_splits(self):
        # granular cap so the bulk load splits ranges many times; the
        # join must still resolve every block to a live range
        store = XMLStore.open(
            StoreConfig(
                policy=IndexingPolicy.RANGE,
                max_range_tokens=32,
                heatmap_enabled=True,
            )
        )
        store.load_document(
            "<doc>"
            + "".join(f"<item n='{i}'>t{i}</item>" for i in range(60))
            + "</doc>"
        )
        assert len(store.ranges) > 1  # splits actually happened
        store.read()
        report = heatmap_report(store, top=1000)
        live = {meta.range_id for meta in store.ranges.in_order()}
        assert {row["range_id"] for row in report["ranges"]} <= live
        touched_ranges = {
            range_id
            for row in report["blocks"]
            for range_id in row["ranges"]
        }
        assert touched_ranges <= live
        # the scan touched every range of the document
        assert {row["range_id"] for row in report["ranges"]} == live

    def test_render_and_json(self):
        store = _store()
        store.read(5)
        text = render_heatmap(store, top=3)
        assert "hottest blocks (top 3)" in text
        assert "partial-index efficacy" in text
        payload = json.loads(heatmap_json(store))
        assert set(payload) == {
            "blocks",
            "blocks_touched",
            "partial_index",
            "ranges",
            "schema_version",
        }
        assert payload["schema_version"] == 1
