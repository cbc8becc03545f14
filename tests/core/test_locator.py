"""Unit tests for the locator's scan and resolution machinery."""

import pytest

from repro.errors import NodeNotFoundError
from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.store import XMLStore
from repro.xmltoken.tokens import TokenKind


def make_store(**kwargs):
    return XMLStore.open(StoreConfig(**kwargs))


class TestScan:
    def test_scan_regenerates_ids_in_document_order(self):
        store = make_store()
        store.load_document("<ticket><hour>15</hour><name>Paul</name></ticket>")
        ids = [
            item.last_id
            for item in store.locator.scan()
            if item.token.starts_node
        ]
        assert ids == [1, 2, 3, 4, 5]

    def test_scan_tracks_offsets_and_ranges(self):
        store = make_store()
        store.load_document("<a><b/></a>")
        items = list(store.locator.scan())
        assert [item.offset for item in items] == [0, 1, 2, 3]
        assert all(item.meta.range_id == items[0].meta.range_id for item in items)

    def test_scan_across_ranges_resets_cursor(self):
        store = make_store()
        store.load_document("<a/>")           # range 1: id 1
        store.load_document("<b/><c/>")       # range 2: ids 2, 3
        items = list(store.locator.scan())
        node_items = [item for item in items if item.token.starts_node]
        assert [item.last_id for item in node_items] == [1, 2, 3]
        assert node_items[0].meta.range_id != node_items[1].meta.range_id

    def test_scan_empty_store(self):
        store = make_store()
        assert list(store.locator.scan()) == []

    def test_continue_scan_resumes_exactly(self):
        store = make_store()
        store.load_document("<r><a/><b/><c/></r>")
        items = list(store.locator.scan())
        resumed = list(store.locator.continue_scan(items[2]))
        assert [item.pos for item in resumed] == [item.pos for item in items[3:]]
        assert [item.last_id for item in resumed] == [
            item.last_id for item in items[3:]
        ]

    def test_scan_attribute_ids(self):
        store = make_store()
        store.load_document('<a x="1"><b/></a>')
        kinds_and_ids = [
            (item.token.kind, item.last_id)
            for item in store.locator.scan()
            if item.token.starts_node
        ]
        assert kinds_and_ids == [
            (TokenKind.BEGIN_ELEMENT, 1),
            (TokenKind.BEGIN_ATTRIBUTE, 2),
            (TokenKind.BEGIN_ELEMENT, 3),
        ]


class TestFindEnd:
    def test_end_of_leaf_element(self):
        store = make_store()
        store.load_document("<r><a/></r>")
        location = store.locator.locate(2)
        end = store.locator.find_end(location.begin)
        assert end.token.kind == TokenKind.END_ELEMENT
        assert end.offset == location.begin.offset + 1

    def test_end_of_subtree(self):
        store = make_store()
        store.load_document("<r><a><x/><y/></a></r>")
        location = store.locator.locate(2)
        end = store.locator.find_end(location.begin)
        # a's subtree: begin a, begin x, end x, begin y, end y, end a
        assert end.offset == location.begin.offset + 5

    def test_end_of_atomic_node_is_itself(self):
        store = make_store()
        store.load_document("<r>text</r>")
        location = store.locator.locate(2)
        end = store.locator.find_end(location.begin)
        assert end.pos == location.begin.pos


class TestResolutionPaths:
    def test_scan_then_partial(self):
        store = make_store()
        store.load_document("<r><a/><b/><c/></r>")
        store.locator.locate(3)
        assert store.locator.stats.scan_resolutions == 1
        store.locator.locate(3)
        assert store.locator.stats.scan_resolutions == 1
        assert store.locator.stats.partial_resolutions == 1

    def test_partial_entry_invalidated_by_update(self):
        # only by an update that removes the node: an interior insert that
        # splits the node's range, and moves it to a new range, does not
        store = make_store()
        store.load_document("<r><a/><b/><c/></r>")
        store.read(3)
        store.read(4)
        scans = store.locator.stats.scan_resolutions
        store.insert_before(3, "<new/>")
        assert store.read(3) == "<b/>"
        assert store.read(4) == "<c/>"
        assert store.locator.stats.scan_resolutions == scans
        assert store.partial_index.stats.stale_hits == 0
        store.delete_node(3)
        assert store.read(4) == "<c/>"
        assert store.locator.stats.scan_resolutions == scans
        with pytest.raises(NodeNotFoundError):
            store.read(3)
        assert store.partial_index.stats.stale_hits == 1

    def test_locate_after_deletion_raises(self):
        store = make_store()
        store.load_document("<r><a/><b/></r>")
        store.locator.locate(2)
        store.delete_node(2)
        with pytest.raises(NodeNotFoundError):
            store.locator.locate(2)

    def test_full_index_repair_after_relocation(self):
        store = make_store(policy=IndexingPolicy.FULL)
        store.load_document("<r><a/><b/><c/></r>")
        store.insert_before(3, "<new/>")  # splits the range, moves <c/>
        assert store.read(4) == "<c/>"  # the entry survived the split
        assert store.locator.stats.scan_resolutions == 0
        # an entry that cannot be used (here: the older 40-byte format) is
        # a scan, which repairs it
        store.full_index._tree.insert(4, bytes(40))
        assert store.read(4) == "<c/>"
        assert store.locator.stats.scan_resolutions == 1
        assert store.read(4) == "<c/>"  # repaired entry serves this one
        assert store.locator.stats.scan_resolutions == 1

    def test_populate_partial_flag(self):
        store = make_store()
        store.load_document("<r><a/></r>")
        store.locator.populate_partial = False
        store.locator.locate(2)
        assert len(store.partial_index) == 0
        store.locator.populate_partial = True
        store.locator.locate(2)
        assert len(store.partial_index) == 1

    def test_memoized_end_within_same_range(self):
        store = make_store()
        store.load_document("<r><a/><b/></r>")
        store.read(2)  # locate_span memoizes begin and end
        entry = store.partial_index.probe(2, store.ranges)
        assert entry is not None
        assert entry.end_origin == entry.origin
        assert entry.end_address == entry.address + 1

    def test_unresolvable_end_is_dropped_and_found_again(self):
        store = make_store()
        store.load_document("<r><a><b/></a><c/></r>")
        store.read(2)
        entry = store.partial_index._entries[2]
        entry.end_address += 1000  # as if a merge had renumbered the end's range
        location = store.locator.locate(2)
        assert location.end is None and not entry.has_end
        assert store.locator.stats.scan_resolutions == 1  # the begin still hit
        assert store.read(2) == "<a><b/></a>"
        assert store.partial_index._entries[2].has_end

    def test_tokens_scanned_counter_grows(self):
        store = make_store()
        store.load_document("<r><a/><b/></r>")
        before = store.locator.stats.tokens_scanned
        store.read(3)
        assert store.locator.stats.tokens_scanned > before


def scanned_by(store, action):
    before = store.locator.stats.tokens_scanned
    action()
    return store.locator.stats.tokens_scanned - before


class TestScanCharges:
    """``tokens_scanned`` feeds the simulated clock: the header-only walk
    must charge exactly what the decoding walk it replaced charged.  The
    numbers are the ones that walk produced on these two stores."""

    def small_store(self):
        # one block; ranges of 8 and 6 tokens, ids 1..6 and 7..9
        store = make_store(
            policy=IndexingPolicy.RANGE, max_range_tokens=8, page_size=256
        )
        store.load_document("<r><a>1</a><b>2</b><c>3</c><d>4</d></r>")
        return store

    def chained_store(self):
        # 8 blocks, ranges of 64 tokens (the last 42) that straddle them
        store = make_store(
            policy=IndexingPolicy.RANGE,
            max_range_tokens=64,
            page_size=256,
            buffer_pool_capacity=4,
        )
        items = "".join(f"<i n='{k}'>v{k}</i>" for k in range(60))
        store.load_document(f"<r>{items}</r>")
        return store

    @pytest.mark.parametrize("node_id, charged", [(5, 6), (9, 4)])
    def test_found(self, node_id, charged):
        store = self.small_store()
        assert scanned_by(store, lambda: store.locator.locate(node_id)) == charged

    @pytest.mark.parametrize("node_id, charged", [(4, 7), (6, 10), (1, 14)])
    def test_found_with_end(self, node_id, charged):
        # 6 closes in the next range, 1 at the end of the document
        store = self.small_store()
        assert scanned_by(store, lambda: store.locator.locate_span(node_id)) == charged

    def test_not_found_mid_chain_pays_for_the_next_ranges_first_token(self):
        store = self.small_store()
        first = store.ranges.at_order(0)

        def lookup():
            with pytest.raises(NodeNotFoundError):
                store.locator._locate_by_scan(first, 99)

        assert scanned_by(store, lookup) == first.token_count + 1 == 9

    def test_not_found_in_last_range_pays_for_the_range_only(self):
        store = self.small_store()
        last = store.ranges.at_order(len(store.ranges) - 1)

        def lookup():
            with pytest.raises(NodeNotFoundError):
                store.locator._locate_by_scan(last, 99)

        assert scanned_by(store, lookup) == last.token_count == 6

    def test_across_blocks(self):
        store = self.chained_store()
        locator = store.locator
        assert store.layout.chain.num_blocks == 8
        assert [m.token_count for m in store.ranges.in_order()] == [64] * 5 + [42]
        found = {2: 2, 40: 14, 41: 16, 80: 30, 121: 48, 181: 40}
        for node_id, charged in found.items():
            assert scanned_by(store, lambda: locator.locate(node_id)) == charged
        spans = {1: 362, 2: 7, 40: 14, 62: 63}
        for node_id, charged in spans.items():
            assert scanned_by(store, lambda: locator.locate_span(node_id)) == charged

        def missing(meta):
            with pytest.raises(NodeNotFoundError):
                locator._locate_by_scan(meta, 9999)

        assert scanned_by(store, lambda: missing(store.ranges.at_order(1))) == 65
        assert scanned_by(store, lambda: missing(store.ranges.at_order(5))) == 42


class TestHeaderOnly:
    """The cost model charges a locate scan for header inspection only
    (DESIGN.md §2); this holds the code to it."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        """Counts every full token decode, whoever asks for it."""
        from repro.xmltoken import binary

        calls = []
        original = binary.decode_token_at

        def counting(data, offset):
            calls.append(1)
            return original(data, offset)

        monkeypatch.setattr(binary, "decode_token_at", counting)
        return calls

    def coarse_store(self):
        store = make_store(policy=IndexingPolicy.RANGE, max_range_tokens=4096)
        items = "".join(f"<i n='{k}'>v{k}</i>" for k in range(1500))
        store.load_document(f"<r>{items}</r>")
        return store

    def test_scan_resolved_span_decodes_at_most_begin_and_end(self, decodes):
        store = self.coarse_store()
        meta = store.ranges.at_order(0)
        assert meta.token_count == 4096
        del decodes[:]
        node_id = meta.end_id - 1  # resolved by walking nearly the whole range
        scanned = scanned_by(store, lambda: store.locator.locate_span(node_id))
        assert scanned > 4000
        assert store.locator.stats.scan_resolutions == 1
        assert decodes == []
        location = store.locator.locate_span(node_id)
        assert location.begin.token.kind is location.begin.kind
        assert location.end.token.kind is location.end.kind
        assert len(decodes) <= 2

    def test_walking_items_decodes_only_the_tokens_asked_for(self, decodes):
        store = self.coarse_store()
        del decodes[:]
        items = list(store.locator.scan())
        assert len(items) == sum(m.token_count for m in store.ranges.in_order())
        assert decodes == []
        assert items[1].token.name == "i"
        assert items[1].token is items[1].token
        assert len(decodes) == 1

    def test_corrupt_header_on_the_scan_path_is_a_codec_error(self):
        from repro.errors import CodecError

        store = make_store(policy=IndexingPolicy.RANGE)
        store.load_document("<r><a/><b/><c/></r>")
        pos = store.locator.locate(2).begin.pos
        for damaged in (b"", bytes([0x1F])):
            store.layout.chain.replace_record(pos, damaged)
            with pytest.raises(CodecError):
                store.locator.locate(4)
            with pytest.raises(CodecError):
                store.locator.find_end(store.locator.locate(1).begin)
            with pytest.raises(CodecError):
                list(store.locator.scan())
