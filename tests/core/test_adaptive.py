"""Unit tests for the adaptive controller (read- vs update-optimized)."""

from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.store import XMLStore


def make_adaptive_store(window=16, threshold=0.5):
    store = XMLStore.open(
        StoreConfig(policy=IndexingPolicy.ADAPTIVE, adaptive_window=window)
    )
    store.adaptive.read_threshold = threshold
    return store


class TestAdaptiveSwitching:
    def test_starts_read_optimized(self):
        store = make_adaptive_store()
        assert store.adaptive is not None
        assert store.adaptive.read_optimized
        assert store.locator.populate_partial

    def test_update_heavy_workload_switches_off_population(self):
        store = make_adaptive_store(window=16)
        root = store.load_document("<r/>")
        for index in range(20):
            store.insert_into_last(root, f"<e{index}/>")
        assert not store.adaptive.read_optimized
        assert not store.locator.populate_partial
        assert store.adaptive.decisions
        assert store.adaptive.decisions[-1].read_optimized is False

    def test_read_heavy_workload_switches_back(self):
        store = make_adaptive_store(window=16)
        root = store.load_document("<r/>")
        for index in range(20):
            store.insert_into_last(root, f"<e{index}/>")
        assert not store.adaptive.read_optimized
        for _ in range(20):
            store.read(root)
        assert store.adaptive.read_optimized
        assert store.locator.populate_partial

    def test_read_fraction_tracks_window(self):
        store = make_adaptive_store(window=8)
        root = store.load_document("<r/>")
        for _ in range(4):
            store.read(root)
        # window so far: 1 load + 4 reads
        assert 0.5 < store.adaptive.read_fraction <= 1.0

    def test_update_mode_stops_memoizing(self):
        store = make_adaptive_store(window=8)
        root = store.load_document("<r/>")
        for index in range(12):
            store.insert_into_last(root, f"<e{index}/>")
        assert not store.locator.populate_partial
        entries_before = len(store.partial_index)
        store.locator.locate(5)
        assert len(store.partial_index) == entries_before

    def test_decisions_record_operation_numbers(self):
        store = make_adaptive_store(window=8)
        root = store.load_document("<r/>")
        for index in range(12):
            store.insert_into_last(root, f"<e{index}/>")
        first = store.adaptive.decisions[0]
        assert first.at_operation > 0
        assert 0.0 <= first.read_fraction <= 1.0


class TestAdaptiveCorrectness:
    def test_results_identical_to_static_policy(self):
        """Adaptivity must never change answers, only costs."""
        adaptive = make_adaptive_store(window=8)
        static = XMLStore.open(StoreConfig(policy=IndexingPolicy.RANGE))
        for store in (adaptive, static):
            root = store.load_document("<log/>")
            for index in range(10):
                store.insert_into_last(root, f"<entry n='{index}'/>")
            store.delete_node(5)
        assert adaptive.read() == static.read()
        adaptive.check_integrity()
