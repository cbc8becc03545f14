"""Benchmark: the paper's §4.5 worked example (Tables 2–4).

Not a performance table in the paper, but the canonical store scenario:
bulk-insert 100 nodes, then ``insertIntoLast(60, <40 nodes>)``.  We verify
the resulting Range Index state matches Tables 2–3 and measure the
operation under every indexing policy.
"""

import pytest

from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.store import XMLStore

POLICIES = [
    IndexingPolicy.FULL,
    IndexingPolicy.RANGE,
    IndexingPolicy.RANGE_PLUS_PARTIAL,
]


def build_base_store(policy):
    """Two sibling nodes, 100 nodes total (ids 1..100)."""
    store = XMLStore.open(StoreConfig(policy=policy))
    fragment = "".join(f"<c{i}/>" for i in range(49))
    store.load_document(f"<a>{fragment}</a><b>{fragment}</b>")
    return store


@pytest.mark.parametrize("policy", POLICIES, ids=[p.value for p in POLICIES])
def test_insert_into_last_node60(benchmark, policy):
    fragment = "".join(f"<n{i}/>" for i in range(40))

    def setup():
        return (build_base_store(policy),), {}

    def run(store):
        store.insert_into_last(60, fragment)
        return store

    store = benchmark.pedantic(run, setup=setup, rounds=1, iterations=1)
    snapshot = store.range_snapshot()
    # Tables 2-3: three ranges, id intervals [1..60], [101..140], [61..100]
    assert [row[2:] for row in snapshot] == [(1, 60), (101, 140), (61, 100)]
    store.check_integrity()


def test_partial_index_state_matches_table4(benchmark):
    """Table 4: after the insert, the partial index knows node 60."""

    def run():
        store = build_base_store(IndexingPolicy.RANGE_PLUS_PARTIAL)
        fragment = "".join(f"<n{i}/>" for i in range(40))
        store.insert_into_last(60, fragment)
        return store

    store = benchmark.pedantic(run, rounds=1, iterations=1)
    memoized = dict(store.partial_snapshot())
    assert 60 in memoized  # the lookup performed during the update was kept
    entry = store.partial_index.probe(60, store.ranges)
    assert entry is not None
    assert entry.has_end  # begin AND end token locations, as in Table 4
    # the end token lives in a different range than the begin (the split)
    begin_range, _ = store.ranges.resolve(entry.origin, entry.address)
    end_range, end_offset = store.ranges.resolve(entry.end_origin, entry.end_address)
    assert end_range.range_id != begin_range.range_id
    # ... though both tokens still carry the address they were loaded under
    assert entry.end_origin == entry.origin and end_offset == 0
