"""Unit tests for the range index, partial index and full index."""

import pytest

from repro.core.full_index import FullIndex
from repro.core.partial_index import LocationEntry, PartialIndex
from repro.core.range_index import RangeIndex
from repro.core.ranges import RangeTable
from repro.storage.buffer import BufferPool
from repro.storage.disk import InstrumentedDevice, MemoryBlockDevice
from repro.storage.heap import Position


def make_pool():
    device = InstrumentedDevice(MemoryBlockDevice())
    return BufferPool(device, capacity=32)


def make_table_with_paper_ranges():
    """Ranges of the paper's Table 3: [1,70], [101,140], [71,100]."""
    table = RangeTable()
    r1 = table.new_range(Position(1, 0), 140, 1, 70)
    r2 = table.new_range(Position(1, 70), 80, 101, 140, after=r1.range_id)
    r3 = table.new_range(Position(2, 0), 60, 71, 100, after=r2.range_id)
    return table, r1, r2, r3


class TestRangeIndex:
    def test_locate_inside_interval(self):
        table, r1, r2, r3 = make_table_with_paper_ranges()
        index = RangeIndex(make_pool())
        for meta in (r1, r2, r3):
            index.register(meta)
        assert index.locate(60, table).range_id == r1.range_id
        assert index.locate(101, table).range_id == r2.range_id
        assert index.locate(140, table).range_id == r2.range_id
        assert index.locate(71, table).range_id == r3.range_id

    def test_locate_boundaries(self):
        table, r1, r2, r3 = make_table_with_paper_ranges()
        index = RangeIndex(make_pool())
        for meta in (r1, r2, r3):
            index.register(meta)
        assert index.locate(1, table).range_id == r1.range_id
        assert index.locate(70, table).range_id == r1.range_id

    def test_locate_miss_below(self):
        table, r1, *_ = make_table_with_paper_ranges()
        index = RangeIndex(make_pool())
        index.register(r1)
        assert index.locate(0, table) is None

    def test_locate_miss_in_gap(self):
        table = RangeTable()
        r1 = table.new_range(Position(0, 0), 10, 1, 10)
        r2 = table.new_range(Position(0, 10), 10, 100, 110, after=r1.range_id)
        index = RangeIndex(make_pool())
        index.register(r1)
        index.register(r2)
        assert index.locate(50, table) is None  # floor hits r1 but 50 > 10

    def test_empty_interval_not_registered(self):
        table = RangeTable()
        empty = table.new_range(Position(0, 0), 3, None, None)
        index = RangeIndex(make_pool())
        index.register(empty)
        assert len(index) == 0

    def test_unregister(self):
        table, r1, *_ = make_table_with_paper_ranges()
        index = RangeIndex(make_pool())
        index.register(r1)
        index.unregister(r1.start_id)
        assert index.locate(60, table) is None
        index.unregister(None)  # no-op

    def test_rekey(self):
        table = RangeTable()
        meta = table.new_range(Position(0, 0), 10, 10, 20)
        index = RangeIndex(make_pool())
        index.register(meta)
        meta.start_id = 15
        index.rekey(10, meta)
        assert index.locate(16, table).range_id == meta.range_id
        assert dict(index.entries()) == {15: meta.range_id}

    def test_one_entry_per_range_not_per_node(self):
        """The paper's core claim: index size tracks ranges, not nodes."""
        table, r1, r2, r3 = make_table_with_paper_ranges()
        index = RangeIndex(make_pool())
        for meta in (r1, r2, r3):
            index.register(meta)
        assert len(index) == 3  # 140 nodes but only 3 entries

    def test_stale_table_entry_ignored(self):
        table, r1, *_ = make_table_with_paper_ranges()
        index = RangeIndex(make_pool())
        index.register(r1)
        table.drop(r1.range_id)
        assert index.locate(60, table) is None

    def test_check_integrity(self):
        table, r1, r2, r3 = make_table_with_paper_ranges()
        index = RangeIndex(make_pool())
        for meta in (r1, r2, r3):
            index.register(meta)
        index.check_integrity(table)


def entry(node_id, meta, offset=0):
    """An entry for a node whose begin token is token ``offset`` of ``meta``."""
    return LocationEntry(node_id, meta.origin, meta.lo + offset)


def cut(table, meta, at):
    """Split ``meta`` at token ``at`` the way an interior insert does."""
    tail = table.split(meta, at, meta.start_id)
    table.place(tail, Position(9, 0), after=meta.range_id)
    return tail


class TestPartialIndex:
    def test_probe_miss_then_hit(self):
        table, r1, *_ = make_table_with_paper_ranges()
        partial = PartialIndex()
        assert partial.probe(60, table) is None
        partial.remember(entry(60, r1, 59))
        hit = partial.probe(60, table)
        assert hit is not None and hit.node_id == 60
        assert partial.stats.hits == 1 and partial.stats.misses == 1

    def test_split_does_not_invalidate(self):
        table, r1, *_ = make_table_with_paper_ranges()
        partial = PartialIndex()
        partial.remember(entry(20, r1, 19))
        partial.remember(entry(60, r1, 59))
        tail = cut(table, r1, 40)
        assert partial.probe(20, table) is not None
        hit = partial.probe(60, table)
        assert table.resolve(hit.origin, hit.address) == (tail, 19)
        assert partial.stats.stale_hits == 0

    def test_stale_entry_dropped_on_probe(self):
        table, r1, *_ = make_table_with_paper_ranges()
        partial = PartialIndex()
        partial.remember(entry(60, r1, 59))
        table.truncate(r1, 50, 25)  # a delete removed the node's tokens
        assert partial.probe(60, table) is None
        assert partial.stats.stale_hits == 1
        assert len(partial) == 0

    def test_entry_for_dropped_range_is_stale(self):
        table, r1, *_ = make_table_with_paper_ranges()
        partial = PartialIndex()
        partial.remember(entry(60, r1, 59))
        table.drop(r1.range_id)
        assert partial.probe(60, table) is None

    def test_lru_eviction(self):
        table, r1, *_ = make_table_with_paper_ranges()
        partial = PartialIndex(capacity=2)
        for node_id in (1, 2, 3):
            partial.remember(entry(node_id, r1, node_id))
        assert len(partial) == 2
        assert partial.probe(1, table) is None  # evicted
        assert partial.probe(3, table) is not None
        assert partial.stats.evictions == 1

    def test_probe_refreshes_lru_position(self):
        table, r1, *_ = make_table_with_paper_ranges()
        partial = PartialIndex(capacity=2)
        partial.remember(entry(1, r1))
        partial.remember(entry(2, r1, 1))
        partial.probe(1, table)  # 1 becomes MRU
        partial.remember(entry(3, r1, 2))
        assert partial.probe(2, table) is None  # 2 was evicted, not 1
        assert partial.probe(1, table) is not None

    def test_unbounded_capacity(self):
        table, r1, *_ = make_table_with_paper_ranges()
        partial = PartialIndex(capacity=None)
        for node_id in range(1000):
            partial.remember(entry(node_id, r1))
        assert len(partial) == 1000
        assert partial.stats.evictions == 0

    def test_remember_merges_end_knowledge(self):
        table, r1, *_ = make_table_with_paper_ranges()
        partial = PartialIndex()
        rich = entry(60, r1, 59)
        rich.end_origin, rich.end_address = r1.origin, 99
        partial.remember(rich)
        # a later begin-only memoization must not lose the end location
        partial.remember(entry(60, r1, 59))
        hit = partial.probe(60, table)
        assert (hit.end_origin, hit.end_address) == (r1.origin, 99)

    def test_forget_range(self):
        # nothing has to be told: entries into a range the table dropped
        # stop resolving, entries into its neighbours do not
        table, r1, r2, _ = make_table_with_paper_ranges()
        partial = PartialIndex()
        partial.remember(entry(60, r1, 59))
        partial.remember(entry(101, r2))
        table.drop(r1.range_id)
        assert partial.probe(60, table) is None
        assert partial.probe(101, table) is not None

    def test_sweep_stale(self):
        table, r1, r2, _ = make_table_with_paper_ranges()
        partial = PartialIndex()
        partial.remember(entry(60, r1, 59))
        partial.remember(entry(101, r2))
        table.rebase(r1)  # what a compaction merge does
        assert partial.sweep_stale(table) == 1
        assert len(partial) == 1

    def test_clear(self):
        table, r1, *_ = make_table_with_paper_ranges()
        partial = PartialIndex()
        partial.remember(entry(60, r1, 59))
        partial.clear()
        assert len(partial) == 0


class TestFullIndex:
    def test_put_and_lookup(self):
        table, r1, *_ = make_table_with_paper_ranges()
        full = FullIndex(make_pool())
        full.put(60, r1.origin, 59)
        found = full.lookup(60, table)
        assert found is not None
        assert (found.node_id, found.origin, found.address) == (60, r1.origin, 59)
        assert not found.has_end

    def test_split_does_not_invalidate(self):
        table, r1, *_ = make_table_with_paper_ranges()
        full = FullIndex(make_pool())
        full.put(60, r1.origin, 59)
        tail = cut(table, r1, 40)
        found = full.lookup(60, table)
        assert table.resolve(found.origin, found.address) == (tail, 19)
        assert full.stale_lookups == 0

    def test_stale_version_returns_none(self):
        # a value in the older 40-byte (range, version, block, slot, offset)
        # format is never decoded: it reads as stale, and a repair replaces it
        import struct

        table, r1, *_ = make_table_with_paper_ranges()
        full = FullIndex(make_pool())
        full._tree.insert(60, struct.pack("<qqqqq", r1.range_id, 0, 1, 59, 59))
        assert full.lookup(60, table) is None
        assert full.stale_lookups == 1
        assert list(full.entries()) == []
        full.put(60, r1.origin, 59)
        assert full.lookup(60, table) is not None
        assert len(full) == 1

    def test_unresolved_address_returns_none(self):
        table, r1, *_ = make_table_with_paper_ranges()
        full = FullIndex(make_pool())
        full.put(60, r1.origin, 59)
        table.rebase(r1)
        assert full.lookup(60, table) is None
        assert full.stale_lookups == 1

    def test_missing_id(self):
        table, *_ = make_table_with_paper_ranges()
        full = FullIndex(make_pool())
        assert full.lookup(999, table) is None

    def test_remove(self):
        table, r1, *_ = make_table_with_paper_ranges()
        full = FullIndex(make_pool())
        full.put(60, r1.origin, 59)
        assert full.remove(60) is True
        assert full.remove(60) is False
        assert 60 not in full

    def test_remove_interval(self):
        table, r1, *_ = make_table_with_paper_ranges()
        full = FullIndex(make_pool())
        for node_id in range(1, 71):
            full.put(node_id, r1.origin, node_id - 1)
        removed = full.remove_interval(10, 20)
        assert removed == 11
        assert len(full) == 70 - 11
        assert 10 not in full and 15 not in full and 21 in full

    def test_entry_count_tracks_every_node(self):
        """The paper's complaint: one entry per node."""
        table, r1, r2, r3 = make_table_with_paper_ranges()
        full = FullIndex(make_pool())
        for meta in (r1, r2, r3):
            for node_id in range(meta.start_id, meta.end_id + 1):
                full.put(node_id, meta.origin, 0)
        assert len(full) == 140  # vs 3 range-index entries


class TestPartialIndexCompactionInvalidation:
    """Compaction moves tokens between ranges; memo entries for the merged
    ranges must stop resolving (fresh origin / range drop), never resolve
    to a wrong location — the invariant the crash-consistency torture
    harness leans on after recovering mid-compaction crashes."""

    def _compactable_store(self):
        from repro.core.config import IndexingPolicy, StoreConfig
        from repro.core.store import XMLStore

        store = XMLStore.open(
            StoreConfig(
                policy=IndexingPolicy.RANGE_PLUS_PARTIAL, max_range_tokens=16
            )
        )
        store.load_document(
            "<r>" + "".join(f"<a n='{i}'><b/></a>" for i in range(8)) + "</r>"
        )
        for meta in store.ranges.in_order():
            if meta.has_interval:
                store.read(meta.start_id)
        assert len(store.partial_index) > 1
        return store

    def test_memos_for_merged_ranges_go_stale_not_wrong(self):
        store = self._compactable_store()
        report = store.compact()
        assert report.merges > 0
        # whatever still resolves must agree with a from-scratch scan —
        # exactly the partial-memo integrity check
        from repro.core.integrity import integrity_report

        memo = {c.name: c for c in integrity_report(store).checks}["partial-memo"]
        assert memo.ok and memo.detail["stale"] > 0

    def test_reads_after_compaction_return_the_same_content(self):
        store = self._compactable_store()
        node_ids = []
        for meta in store.ranges.in_order():
            if meta.has_interval:
                node_ids.extend((meta.start_id, meta.end_id))
        before = {node_id: store.read(node_id) for node_id in node_ids}
        store.compact()
        for node_id, text in before.items():
            assert store.read(node_id) == text  # memo staleness is invisible
