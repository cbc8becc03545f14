"""Unit tests for statistics aggregation."""

from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.locator import LocatorStats
from repro.core.partial_index import PartialIndexStats
from repro.core.stats import OperationCounts, StoreStatistics
from repro.core.store import CPU_COST_PER_SCAN_TOKEN, CPU_COST_PER_TOKEN, XMLStore
from repro.storage.buffer import BufferStats
from repro.storage.disk import DiskStats


class TestOperationCounts:
    def test_updates_aggregate(self):
        counts = OperationCounts(loads=1, inserts=2, deletes=3, replaces=4)
        assert counts.updates == 10

    def test_read_ops_aggregate(self):
        counts = OperationCounts(reads=2, node_reads=5)
        assert counts.read_ops == 7

    def test_reset(self):
        counts = OperationCounts(loads=5, nodes_inserted=100)
        counts.reset()
        assert counts.loads == 0 and counts.nodes_inserted == 0

    def test_reset_zeroes_every_field(self):
        counts = OperationCounts(
            loads=1, reads=2, node_reads=3, inserts=4, deletes=5,
            replaces=6, ranges_created=7, ranges_split=8,
            ranges_dropped=9, nodes_inserted=10, nodes_deleted=11,
        )
        counts.reset()
        for name in counts.__dataclass_fields__:
            assert getattr(counts, name) == 0, name
        assert counts.updates == 0 and counts.read_ops == 0


class TestStoreStatistics:
    def _stats(self, with_partial=True):
        return StoreStatistics(
            operations=OperationCounts(loads=1, reads=2, inserts=3),
            locator=LocatorStats(scan_resolutions=4, tokens_scanned=50),
            disk=DiskStats(reads=6, writes=2, sequential_reads=5,
                           simulated_seconds=0.25),
            buffer=BufferStats(hits=3, misses=1, evictions=2),
            partial=PartialIndexStats(hits=3, misses=1, inserts=4)
            if with_partial else None,
        )

    def test_reset_cascades_to_every_layer(self):
        stats = self._stats()
        stats.reset()
        assert stats.operations.loads == 0
        assert stats.locator.scan_resolutions == 0
        assert stats.locator.tokens_scanned == 0
        assert stats.disk.reads == 0
        assert stats.disk.simulated_seconds == 0.0
        assert stats.buffer.hits == 0
        assert stats.partial.hits == 0 and stats.partial.inserts == 0

    def test_reset_tolerates_missing_partial_index(self):
        stats = self._stats(with_partial=False)
        stats.reset()  # must not raise
        assert stats.partial is None

    def test_summary_format_is_stable(self):
        # scripts parse these exact lines; the text is a contract
        expected = (
            "operations: 4 updates, 2 reads (0 ranges created, 0 split)\n"
            "locator: 0 via partial index, 0 via full index, "
            "4 via range scan (50 tokens scanned)\n"
            "disk: 6 reads (5 seq), 2 writes, 250.00 ms simulated\n"
            "buffer pool: 75.0% hit rate (3/4)\n"
            "partial index: 75.0% hit rate, 4 inserts, "
            "0 evictions, 0 stale"
        )
        assert self._stats().summary() == expected

    def test_summary_omits_partial_line_without_partial_index(self):
        text = self._stats(with_partial=False).summary()
        assert "partial index:" not in text
        assert text.startswith("operations: ")


class TestSimulatedClock:
    def test_clock_monotone_over_operations(self):
        store = XMLStore.open()
        t0 = store.simulated_seconds
        store.load_document("<r><a/></r>")
        t1 = store.simulated_seconds
        store.read(2)
        t2 = store.simulated_seconds
        assert t0 <= t1 <= t2

    def test_scan_tokens_cost_less_than_emitted(self):
        assert CPU_COST_PER_SCAN_TOKEN < CPU_COST_PER_TOKEN

    def test_index_entries_counted_under_full_policy(self):
        store = XMLStore.open(StoreConfig(policy=IndexingPolicy.FULL))
        store.load_document("<r><a/><b/></r>")
        assert store.index_entries_loaded > 0

    def test_tokens_emitted_counts_serialization(self):
        store = XMLStore.open()
        store.load_document("<r><a/></r>")
        before = store.tokens_emitted
        store.read()
        assert store.tokens_emitted == before + 4  # r, a begins+ends

    def test_stats_object_reflects_policy(self):
        plain = XMLStore.open(StoreConfig(policy=IndexingPolicy.RANGE))
        assert plain.stats.partial is None
        lazy = XMLStore.open(StoreConfig(policy=IndexingPolicy.RANGE_PLUS_PARTIAL))
        assert lazy.stats.partial is not None

    def test_stats_reset(self):
        store = XMLStore.open()
        store.load_document("<r/>")
        store.read()
        store.stats.reset()
        assert store.operations.loads == 0
        assert store.locator.stats.tokens_scanned == 0
        assert store.pool.stats.accesses == 0
