"""Logical addresses: index entries that survive splits, reads that never
write, and the in-memory block counts positions are derived from.

An index entry names a token's logical address (origin range + offset
there); :meth:`RangeTable.resolve` turns it back into (range, offset) and
:meth:`TokenLayout.position_of` into (block, slot).  These tests hold the
code to what that buys, mechanically: counters that must stay at zero, and
a rule machine that checks every entry against a from-scratch scan after
every operation.
"""

import struct

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.filestore import close_directory, open_directory
from repro.core.full_index import FullIndex
from repro.core.integrity import integrity_report
from repro.core.store import XMLStore
from repro.storage.wal import WriteAheadLog
from repro.testing.reference import ReferenceStore


def orders_document(orders=12, items=4):
    body = "".join(
        f"<order no='{o}'>"
        + "".join(f"<item sku='s{o}-{i}'>t{i}</item>" for i in range(items))
        + "</order>"
        for o in range(orders)
    )
    return f"<orders>{body}</orders>"


def make_store(policy, **kwargs):
    kwargs.setdefault("page_size", 512)
    kwargs.setdefault("buffer_pool_capacity", 64)
    return XMLStore.open(StoreConfig(policy=policy, **kwargs))


def order_ids(store):
    return [n.node_id for n in store.xpath("/orders/order")]


def assert_block_counts_match_pages(store):
    chain = store.layout.chain
    for block_no in chain.blocks():
        with store.pool.fetch(block_no) as guard:
            assert chain.block_record_count(block_no) == len(guard.page), block_no


def scanned_node_starts(store):
    """{(range id, offset): (regenerated node id, record)}, by scanning
    everything."""
    return {
        (item.meta.range_id, item.offset): (item.last_id, item.record)
        for item in store.locator.scan()
        if item.starts_node
    }


def assert_entries_resolve_right_or_not_at_all(store):
    truth = scanned_node_starts(store)
    entries = []
    if store.partial_index is not None:
        entries.extend(store.partial_index._entries.values())
    if store.full_index is not None:
        entries.extend(store.full_index.entries())
    for entry in entries:
        resolved = store.ranges.resolve(entry.origin, entry.address)
        if resolved is not None:
            meta, offset = resolved
            node_id, record = truth.get((meta.range_id, offset), (None, None))
            assert node_id == entry.node_id, entry
            pos = store.layout.position_of(meta, offset)
            assert store.layout.record_at(pos) == record


class CountingFullIndex:
    """Counts ``FullIndex.put`` calls until ``monkeypatch`` is undone."""

    def __init__(self, monkeypatch):
        self.puts = 0
        original = FullIndex.put

        def counting(index, *args):
            self.puts += 1
            return original(index, *args)

        monkeypatch.setattr(FullIndex, "put", counting)


class TestEntriesSurviveASplit:
    """After an interior insert that splits a block and a range, lookups
    behind the split point and in co-resident ranges scan zero tokens."""

    def split_store(self, policy):
        store = make_store(policy, page_size=1024)
        store.load_document(orders_document())
        orders = order_ids(store)
        # a second range, co-resident with the tail of the first in the
        # document's last block
        appended = store.insert_into_last(1, "<order no='x'><item>late</item></order>")
        expected = {node_id: store.read(node_id) for node_id in orders + [appended]}
        splits = store.operations.ranges_split
        blocks = store.layout.chain.num_blocks
        target = orders[len(orders) // 2]
        new_id = store.insert_into_last(target, "<item sku='new'>n</item>")
        assert store.operations.ranges_split == splits + 1
        assert store.layout.chain.num_blocks > blocks  # the block split too
        expected[target] = expected[target].replace(
            "</order>", '<item sku="new">n</item></order>'
        )
        expected[new_id] = '<item sku="new">n</item>'
        behind = [node_id for node_id in orders if node_id > target]
        assert behind
        return store, expected, behind, appended

    def test_partial_hits_behind_the_split_and_in_a_coresident_range(self):
        store, expected, behind, appended = self.split_store(
            IndexingPolicy.RANGE_PLUS_PARTIAL
        )
        stats, partial = store.locator.stats, store.partial_index.stats
        scanned, scans = stats.tokens_scanned, stats.scan_resolutions
        hits = partial.hits
        for node_id in behind + [appended]:
            assert store.read(node_id) == expected[node_id]
        assert stats.tokens_scanned == scanned
        assert stats.scan_resolutions == scans
        assert partial.hits == hits + len(behind) + 1
        assert partial.stale_hits == 0

    def test_full_index_hits_behind_the_split_and_in_a_coresident_range(self):
        store, expected, behind, appended = self.split_store(IndexingPolicy.FULL)
        stats = store.locator.stats
        full = stats.full_resolutions
        for node_id in behind + [appended]:
            scanned = stats.tokens_scanned
            store.locator.locate(node_id)
            assert stats.tokens_scanned == scanned
            assert store.read(node_id) == expected[node_id]
        assert stats.scan_resolutions == 0
        assert stats.full_resolutions == full + 2 * (len(behind) + 1)
        assert store.full_index.stale_lookups == 0
        store.check_integrity()

    def test_every_node_still_reads_right(self):
        for policy in (IndexingPolicy.FULL, IndexingPolicy.RANGE_PLUS_PARTIAL):
            store, expected, _, _ = self.split_store(policy)
            for node_id, text in expected.items():
                assert store.read(node_id) == text
            store.check_integrity()


class TestAReadNeverWrites:
    def test_read_only_phase_under_full_writes_nothing(self, monkeypatch):
        store = make_store(IndexingPolicy.FULL, buffer_pool_capacity=8)
        store.load_document(orders_document(orders=40))
        targets = order_ids(store)
        for node_id in targets[::3]:
            store.insert_into_last(node_id, "<item>more</item>")
        store.checkpoint()
        counter = CountingFullIndex(monkeypatch)
        disk = store.device.stats
        writes = disk.writes
        scans = store.locator.stats.scan_resolutions
        for node_id in targets * 2:
            store.read(node_id)
        assert disk.reads > 0  # the pool is smaller than the store
        assert disk.writes == writes
        assert counter.puts == 0
        assert store.locator.stats.scan_resolutions == scans
        assert store.pool.dirty_blocks() == []

    def test_a_scan_for_the_end_is_kept_in_the_partial_index_only(self, monkeypatch):
        store = make_store(IndexingPolicy.RANGE_PLUS_PARTIAL)
        store.load_document("<r><a><b/></a><c/></r>")
        store.locator.locate(2)  # begin only
        inserts = store.partial_index.stats.inserts
        store.read(2)  # learns the end
        assert store.partial_index.stats.inserts == inserts + 1
        assert store.partial_index.probe(2, store.ranges).has_end
        store.read(2)  # learns nothing
        assert store.partial_index.stats.inserts == inserts + 1


class TestOrderIndexOnDemand:
    """A range's document-order index costs a ``list.index`` over every
    range; only a scan that continues from an item, and the update engine,
    need it, so an index-answered read does not ask."""

    def counted(self, store, monkeypatch):
        calls = []
        real = store.ranges.order_index
        monkeypatch.setattr(
            store.ranges, "order_index", lambda rid: calls.append(rid) or real(rid)
        )
        return calls

    def test_a_partial_hit_with_a_memoized_end_never_asks(self, monkeypatch):
        store = make_store(IndexingPolicy.RANGE_PLUS_PARTIAL)
        store.load_document(orders_document())
        targets = order_ids(store)
        store.insert_into_last(targets[3], "<item>split</item>")
        expected = {node_id: store.read(node_id) for node_id in targets}
        calls = self.counted(store, monkeypatch)
        scans = store.locator.stats.scan_resolutions
        for node_id in targets:
            assert store.read(node_id) == expected[node_id]
        assert store.locator.stats.scan_resolutions == scans
        assert calls == []

    def test_a_full_index_hit_asks_once_to_scan_for_the_end(self, monkeypatch):
        store = make_store(IndexingPolicy.FULL)
        store.load_document(orders_document())
        targets = order_ids(store)
        calls = self.counted(store, monkeypatch)
        store.locator.locate(targets[2])
        assert calls == []
        store.read(targets[2])
        assert len(calls) == 1
        assert store.locator.stats.scan_resolutions == 0


class TestEndLastIdIsReframed:
    """``end_last_id`` is remembered in the frame of the range the end
    token was in; after a split the end may sit in a tail piece that
    starts after that node."""

    @pytest.mark.parametrize("trailing", ["<e/>", ""])
    def test_insert_into_last_after_the_end_moved_into_a_tail(self, trailing):
        store = make_store(IndexingPolicy.RANGE_PLUS_PARTIAL)
        store.load_document(
            "<orders><order><a/></order><order><b/><c><d/></c></order>"
            f"{trailing}</orders>"
        )
        _, order = order_ids(store)
        c, d, e = order + 2, order + 3, order + 4
        store.read(order)  # memoizes the order's begin and end
        assert store.partial_index._entries[order].end_last_id == d
        # cut the range at </c>: the order's end token lands in the new tail
        # at offset 1, behind an end token only; the tail's first node is
        # <e/>, or it has none
        store.insert_into_last(c, "<x/>")
        scans = store.locator.stats.scan_resolutions
        location = store.locator.locate(order)
        assert store.locator.stats.scan_resolutions == scans  # a memo hit
        assert location.end.offset == 1
        assert location.end.meta.start_id == (e if trailing else None)
        assert location.end.last_id is None  # not d: no node precedes it here
        store.insert_into_last(order, "<f/>")
        store.check_integrity()
        assert store.read(order) == "<order><b/><c><d/><x/></c><f/></order>"

    def test_last_id_before_the_piece_start_is_dropped(self):
        store = make_store(IndexingPolicy.RANGE_PLUS_PARTIAL)
        store.load_document("<r><p><a/><b/></p><q/></r>")
        store.read(2)  # <p>: end_last_id is <b/>'s id, 4
        assert store.partial_index._entries[2].end_last_id == 4
        # split between <b/> and </p>: the tail piece starts at </p> and its
        # first node id is <q/>'s, 5
        store.insert_into_last(2, "<c/>")
        location = store.locator.locate(2)
        assert location.end.meta.start_id == 5 and location.end.offset == 0
        assert location.end.last_id is None
        store.insert_into_last(2, "<d/>")
        store.check_integrity()
        assert store.read(2) == "<p><a/><b/><c/><d/></p>"


# -- legacy stores -------------------------------------------------------------

_CATALOG_HEADER = struct.Struct("<qqqI")
_RANGE_HEADER = struct.Struct("<qI")
_RANGE_META = struct.Struct("<qqqqqqqq")
_OLD_FULL_ENTRY = struct.Struct("<qqqqq")  # range_id, version, block, slot, offset


def downgrade_catalog(catalog: bytes) -> bytes:
    """Rewrite catalog bytes into what the code before logical addresses
    wrote: (version, 0) in each range's last two slots, no address flag."""
    _, _, scheme_len, n_sections = _CATALOG_HEADER.unpack_from(catalog, 0)
    offset = _CATALOG_HEADER.size + scheme_len
    out = [catalog[:offset]]
    for index in range(n_sections):
        (length,) = struct.unpack_from("<I", catalog, offset)
        section = catalog[offset + 4 : offset + 4 + length]
        offset += 4 + length
        if index == 1:
            header = section[: _RANGE_HEADER.size]
            _, count = _RANGE_HEADER.unpack(header)
            metas = [
                _RANGE_META.unpack_from(section, _RANGE_HEADER.size + i * _RANGE_META.size)
                for i in range(count)
            ]
            section = header + b"".join(
                _RANGE_META.pack(*meta[:6], 3, 0) for meta in metas
            )
        elif index == 2:
            version, flags = struct.unpack("<HH", section)
            assert flags & 2
            section = struct.pack("<HH", version, flags & ~2)
        out.append(struct.pack("<I", len(section)) + section)
    return b"".join(out)


class TestLegacyStore:
    """A FULL directory store written before logical addresses: a catalog
    without the address flag, 40-byte full-index values."""

    CONFIG = StoreConfig(policy=IndexingPolicy.FULL)  # the CLI's page size

    def legacy_directory(self, path):
        store = open_directory(path, self.CONFIG)
        store.load_document(orders_document(orders=30))
        orders = order_ids(store)
        for node_id in orders[1::4]:  # cut ranges: origins and offsets to lose
            store.insert_into_last(node_id, "<item>late</item>")
        store.delete_node(orders[0])
        expected = {
            item.last_id: store.read(item.last_id)
            for item in list(store.locator.scan())
            if item.starts_node and item.kind.name != "NAMESPACE"
            and "ATTRIBUTE" not in item.kind.name
        }
        assert any(meta.origin != meta.range_id for meta in store.ranges.in_order())
        tree = store.full_index._tree
        for entry in list(store.full_index.entries()):
            meta, offset = store.ranges.resolve(entry.origin, entry.address)
            block_no, slot = store.layout.position_of(meta, offset)
            tree.insert(
                entry.node_id,
                _OLD_FULL_ENTRY.pack(meta.range_id, 3, block_no, slot, offset),
            )
        close_directory(path, store)
        catalog_path = f"{path}/store.catalog"
        with open(catalog_path, "rb") as handle:
            catalog = handle.read()
        with open(catalog_path, "wb") as handle:
            handle.write(downgrade_catalog(catalog))
        return expected

    def test_opens_reads_right_and_verifies(self, tmp_path):
        path = str(tmp_path / "store")
        expected = self.legacy_directory(path)
        store = open_directory(path, self.CONFIG)
        try:
            # every range is its own origin; no old index value is decoded
            assert all(
                (meta.origin, meta.lo) == (meta.range_id, 0)
                for meta in store.ranges.in_order()
            )
            assert list(store.full_index.entries()) == []
            assert integrity_report(store).ok
            for node_id, text in expected.items():
                assert store.read(node_id) == text
            # each was a stale lookup, a scan, and a repair in the new shape
            assert store.full_index.stale_lookups == len(expected)
            assert store.locator.stats.scan_resolutions == len(expected)
            assert {e.node_id for e in store.full_index.entries()} == set(expected)
            scans = store.locator.stats.scan_resolutions
            for node_id, text in expected.items():
                assert store.read(node_id) == text
            assert store.locator.stats.scan_resolutions == scans
            store.check_integrity()
        finally:
            close_directory(path, store)
        # the close above rewrote the catalog, with addresses
        store = open_directory(path, self.CONFIG)
        try:
            for node_id, text in expected.items():
                assert store.read(node_id) == text
            assert store.locator.stats.scan_resolutions == 0
        finally:
            close_directory(path, store)

    def test_repro_verify_exits_zero(self, tmp_path):
        from repro.cli import run

        path = str(tmp_path / "store")
        self.legacy_directory(path)
        assert run([path, "verify"]).splitlines()[-1] == "integrity ok"

    def test_legacy_value_of_a_deleted_then_reopened_store_is_never_misread(self):
        # the old value's first two slots (range id, version) would decode
        # as a plausible (origin, address): only the length says otherwise
        store = make_store(IndexingPolicy.FULL)
        store.load_document("<r><a/><b/></r>")
        store.full_index._tree.insert(3, _OLD_FULL_ENTRY.pack(1, 1, 64, 1, 1))
        assert store.read(3) == "<b/>"
        assert store.full_index.stale_lookups == 1


# -- the rule machine ------------------------------------------------------------

FRAGMENTS = [
    "<a/>",
    "<b>text</b>",
    "<c x='1'><d/></c>",
    "<e><f>deep</f><g/></e>",
    "<h/><i/>",
]


class EntriesResolveRightOrNotAtAll(RuleBasedStateMachine):
    """After every insert / delete / replace / compact / reopen / recovery:
    each partial and full-index entry either resolves to the token whose
    regenerated id is its key or does not resolve, and the chain's block
    counts equal ``len(page)`` for every block."""

    @initialize(
        policy=st.sampled_from(
            [IndexingPolicy.FULL, IndexingPolicy.RANGE_PLUS_PARTIAL]
        ),
        page_size=st.sampled_from([256, 1024]),
        granularity=st.sampled_from([None, 8]),
        eager=st.booleans(),
    )
    def setup(self, policy, page_size, granularity, eager):
        self.config = StoreConfig(
            policy=policy,
            page_size=page_size,
            buffer_pool_capacity=8,
            max_range_tokens=granularity,
            eager_partial_index=eager and policy is not IndexingPolicy.FULL,
        )
        self.store = XMLStore.open(self.config)
        self.model = ReferenceStore()
        document = "<r><s><t/><u>v</u></s><w/></r>"
        self.store.load_document(document)
        self.model.load_document(document)

    def _targets(self):
        return [
            node_id
            for node_id in self.model.node_ids()
            if not self.model.is_attribute(node_id)
        ]

    @rule(data=st.data())
    def read_node(self, data):
        node_id = data.draw(st.sampled_from(self._targets()))
        assert self.store.read(node_id) == self.model.read(node_id)

    @rule(data=st.data(), fragment=st.sampled_from(FRAGMENTS))
    def insert_into_last(self, data, fragment):
        node_id = data.draw(st.sampled_from(self.model.element_ids()))
        self.store.insert_into_last(node_id, fragment)
        self.model.insert_into_last(node_id, fragment)

    @rule(data=st.data(), fragment=st.sampled_from(FRAGMENTS))
    def insert_into_first(self, data, fragment):
        node_id = data.draw(st.sampled_from(self.model.element_ids()))
        self.store.insert_into_first(node_id, fragment)
        self.model.insert_into_first(node_id, fragment)

    @rule(data=st.data(), fragment=st.sampled_from(FRAGMENTS))
    def insert_before(self, data, fragment):
        node_id = data.draw(st.sampled_from(self._targets()))
        self.store.insert_before(node_id, fragment)
        self.model.insert_before(node_id, fragment)

    @rule(data=st.data(), fragment=st.sampled_from(FRAGMENTS))
    def insert_after(self, data, fragment):
        node_id = data.draw(st.sampled_from(self._targets()))
        self.store.insert_after(node_id, fragment)
        self.model.insert_after(node_id, fragment)

    @precondition(lambda self: len(self._targets()) > 1)
    @rule(data=st.data())
    def delete_node(self, data):
        node_id = data.draw(st.sampled_from(self._targets()[1:]))
        self.store.delete_node(node_id)
        self.model.delete_node(node_id)

    @precondition(lambda self: len(self._targets()) > 1)
    @rule(data=st.data(), fragment=st.sampled_from(FRAGMENTS))
    def replace_node(self, data, fragment):
        node_id = data.draw(st.sampled_from(self._targets()[1:]))
        self.store.replace_node(node_id, fragment)
        self.model.replace_node(node_id, fragment)

    @rule(data=st.data(), fragment=st.sampled_from(FRAGMENTS))
    def replace_content(self, data, fragment):
        node_id = data.draw(st.sampled_from(self.model.element_ids()))
        self.store.replace_content(node_id, fragment)
        self.model.replace_content(node_id, fragment)

    @rule(max_tokens=st.sampled_from([None, 16]))
    def compact(self, max_tokens):
        self.store.compact(max_tokens=max_tokens)

    @rule()
    def reopen(self):
        catalog = self.store.checkpoint()
        self.store = XMLStore.from_catalog(
            self.store.device, catalog, config=self.config, wal=self.store.wal
        )

    @rule()
    def recover(self):
        wal = WriteAheadLog.from_bytes(self.store.wal.to_bytes())
        self.store = XMLStore.recover(wal, config=self.config)

    @invariant()
    def entries_resolve_right_or_not_at_all(self):
        assert_entries_resolve_right_or_not_at_all(self.store)

    @invariant()
    def block_counts_match_pages(self):
        assert_block_counts_match_pages(self.store)

    @invariant()
    def same_document_and_integrity(self):
        assert self.store.read() == self.model.read()
        self.store.check_integrity()


TestEntriesResolveRightOrNotAtAll = EntriesResolveRightOrNotAtAll.TestCase
TestEntriesResolveRightOrNotAtAll.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
