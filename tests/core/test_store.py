"""Unit tests for the XMLStore: the paper's Table-1 interface."""

import pytest

from repro.errors import InvalidOperationError, NodeNotFoundError, XMLSyntaxError
from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.store import XMLStore

ALL_POLICIES = [
    IndexingPolicy.FULL,
    IndexingPolicy.RANGE,
    IndexingPolicy.RANGE_PLUS_PARTIAL,
    IndexingPolicy.ADAPTIVE,
]


def make_store(policy=IndexingPolicy.RANGE_PLUS_PARTIAL, **kwargs):
    return XMLStore.open(StoreConfig(policy=policy, **kwargs))


@pytest.fixture(params=ALL_POLICIES, ids=[p.value for p in ALL_POLICIES])
def any_store(request):
    """The same behavioural contract must hold under every policy."""
    return make_store(policy=request.param)


class TestLoadAndRead:
    def test_load_returns_root_id(self, any_store):
        root = any_store.load_document("<a/>")
        assert root == 1

    def test_read_round_trips(self, any_store):
        xml = "<ticket><hour>15</hour><name>Paul</name></ticket>"
        any_store.load_document(xml)
        assert any_store.read() == xml

    def test_read_single_node(self, any_store):
        any_store.load_document("<ticket><hour>15</hour><name>Paul</name></ticket>")
        assert any_store.read(2) == "<hour>15</hour>"
        assert any_store.read(4) == "<name>Paul</name>"

    def test_read_text_node(self, any_store):
        any_store.load_document("<ticket><hour>15</hour></ticket>")
        assert any_store.read(3) == "15"

    def test_read_with_attributes(self, any_store):
        xml = '<order no="7"><item sku="x">2</item></order>'
        any_store.load_document(xml)
        assert any_store.read() == xml

    def test_figure1_node_ids(self, any_store):
        """Figure 1: ticket=1, hour=2, '15'=3, name=4, 'Paul'=5."""
        any_store.load_document("<ticket><hour>15</hour><name>Paul</name></ticket>")
        assert any_store.read(1).startswith("<ticket>")
        assert any_store.read(2) == "<hour>15</hour>"
        assert any_store.read(3) == "15"
        assert any_store.read(4) == "<name>Paul</name>"
        assert any_store.read(5) == "Paul"

    def test_missing_node_raises(self, any_store):
        any_store.load_document("<a/>")
        with pytest.raises(NodeNotFoundError):
            any_store.read(99)

    def test_empty_store(self, any_store):
        assert any_store.is_empty
        assert any_store.read() == ""

    def test_multiple_documents_in_order(self, any_store):
        any_store.load_document("<a/>")
        any_store.load_document("<b/>")
        assert any_store.read() == "<a/><b/>"

    def test_document_wrapper_stripped(self, any_store):
        any_store.load_document('<?xml version="1.0"?><r><x/></r>')
        assert any_store.read() == "<r><x/></r>"

    def test_bad_xml_rejected(self, any_store):
        with pytest.raises(XMLSyntaxError):
            any_store.load_document("<a><b></a>")

    def test_exists(self, any_store):
        any_store.load_document("<a><b/></a>")
        assert any_store.exists(2)
        assert not any_store.exists(5)


class TestInsertIntoLast:
    def test_insert_into_empty_element(self, any_store):
        root = any_store.load_document("<orders/>")
        any_store.insert_into_last(root, "<order>1</order>")
        assert any_store.read() == "<orders><order>1</order></orders>"

    def test_repeated_appends_preserve_order(self, any_store):
        root = any_store.load_document("<orders/>")
        for index in range(5):
            any_store.insert_into_last(root, f"<o{index}/>")
        assert any_store.read() == "<orders><o0/><o1/><o2/><o3/><o4/></orders>"
        any_store.check_integrity()

    def test_new_nodes_get_fresh_ids(self, any_store):
        root = any_store.load_document("<orders><a/></orders>")  # ids 1, 2
        new_id = any_store.insert_into_last(root, "<b/>")
        assert new_id == 3
        assert any_store.read(3) == "<b/>"

    def test_insert_into_nested_element(self, any_store):
        any_store.load_document("<r><mid><leaf/></mid></r>")
        any_store.insert_into_last(2, "<new/>")
        assert any_store.read() == "<r><mid><leaf/><new/></mid></r>"

    def test_insert_into_text_node_rejected(self, any_store):
        any_store.load_document("<a>text</a>")
        with pytest.raises(InvalidOperationError):
            any_store.insert_into_last(2, "<x/>")

    def test_insert_multi_node_fragment(self, any_store):
        root = any_store.load_document("<r/>")
        any_store.insert_into_last(root, "<a/>text<b/>")
        assert any_store.read() == "<r><a/>text<b/></r>"

    def test_paper_4_5_scenario_range_shape(self):
        """Tables 2–3: 100-node load + 40-node insert at node 60 gives
        three ranges with intervals [1..x], [101..140], [x+1..100]."""
        store = make_store()
        fragment = "".join(f"<c{i}/>" for i in range(49))
        store.load_document(f"<a>{fragment}</a><b>{fragment}</b>")  # 100 nodes
        snapshot = store.range_snapshot()
        assert len(snapshot) == 1
        assert snapshot[0][2:] == (1, 100)
        store.insert_into_last(60, "".join(f"<n{i}/>" for i in range(40)))
        snapshot = store.range_snapshot()
        assert len(snapshot) == 3
        intervals = [row[2:] for row in snapshot]
        assert intervals[0] == (1, 60)
        assert intervals[1] == (101, 140)
        assert intervals[2] == (61, 100)
        store.check_integrity()


class TestInsertIntoFirst:
    def test_insert_first_child(self, any_store):
        root = any_store.load_document("<r><old/></r>")
        any_store.insert_into_first(root, "<new/>")
        assert any_store.read() == "<r><new/><old/></r>"

    def test_insert_first_into_empty_element(self, any_store):
        root = any_store.load_document("<r/>")
        any_store.insert_into_first(root, "<only/>")
        assert any_store.read() == "<r><only/></r>"

    def test_insert_first_skips_attributes(self, any_store):
        root = any_store.load_document('<r a="1"><old/></r>')
        any_store.insert_into_first(root, "<new/>")
        assert any_store.read() == '<r a="1"><new/><old/></r>'

    def test_insert_first_into_attribute_only_element(self, any_store):
        root = any_store.load_document('<r a="1"/>')
        any_store.insert_into_first(root, "text")
        assert any_store.read() == '<r a="1">text</r>'


class TestInsertBeforeAfter:
    def test_insert_before_middle_sibling(self, any_store):
        any_store.load_document("<r><a/><c/></r>")
        any_store.insert_before(3, "<b/>")  # c has id 3
        assert any_store.read() == "<r><a/><b/><c/></r>"

    def test_insert_before_first_sibling(self, any_store):
        any_store.load_document("<r><a/></r>")
        any_store.insert_before(2, "<zero/>")
        assert any_store.read() == "<r><zero/><a/></r>"

    def test_insert_after_middle_sibling(self, any_store):
        any_store.load_document("<r><a/><c/></r>")
        any_store.insert_after(2, "<b/>")
        assert any_store.read() == "<r><a/><b/><c/></r>"

    def test_insert_after_last_sibling(self, any_store):
        any_store.load_document("<r><a/></r>")
        any_store.insert_after(2, "<b/>")
        assert any_store.read() == "<r><a/><b/></r>"

    def test_insert_after_subtree_skips_descendants(self, any_store):
        any_store.load_document("<r><a><deep><deeper/></deep></a></r>")
        any_store.insert_after(2, "<b/>")
        assert any_store.read() == "<r><a><deep><deeper/></deep></a><b/></r>"

    def test_insert_after_root(self, any_store):
        root = any_store.load_document("<a/>")
        any_store.insert_after(root, "<b/>")
        assert any_store.read() == "<a/><b/>"

    def test_insert_before_root(self, any_store):
        root = any_store.load_document("<b/>")
        any_store.insert_before(root, "<a/>")
        assert any_store.read() == "<a/><b/>"

    def test_insert_before_text_node(self, any_store):
        any_store.load_document("<r>tail</r>")
        any_store.insert_before(2, "<x/>")
        assert any_store.read() == "<r><x/>tail</r>"

    def test_empty_fragment_rejected(self, any_store):
        root = any_store.load_document("<a/>")
        with pytest.raises(InvalidOperationError):
            any_store.insert_after(root, "")


class TestDelete:
    def test_delete_leaf(self, any_store):
        any_store.load_document("<r><a/><b/></r>")
        any_store.delete_node(2)
        assert any_store.read() == "<r><b/></r>"
        any_store.check_integrity()

    def test_delete_subtree(self, any_store):
        any_store.load_document("<r><a><x/><y/></a><b/></r>")
        any_store.delete_node(2)
        assert any_store.read() == "<r><b/></r>"
        assert not any_store.exists(3)  # x went with its parent
        any_store.check_integrity()

    def test_delete_text_node(self, any_store):
        any_store.load_document("<r>text<b/></r>")
        any_store.delete_node(2)
        assert any_store.read() == "<r><b/></r>"

    def test_deleted_id_not_found(self, any_store):
        any_store.load_document("<r><a/><b/></r>")
        any_store.delete_node(2)
        with pytest.raises(NodeNotFoundError):
            any_store.read(2)

    def test_sibling_ids_survive_deletion(self, any_store):
        any_store.load_document("<r><a/><b/><c/></r>")
        any_store.delete_node(3)
        assert any_store.read(2) == "<a/>"
        assert any_store.read(4) == "<c/>"

    def test_delete_root_empties_store(self, any_store):
        root = any_store.load_document("<r><a/><b/></r>")
        any_store.delete_node(root)
        assert any_store.read() == ""
        assert any_store.is_empty
        any_store.check_integrity()

    def test_delete_node_spanning_inserted_range(self, any_store):
        """Delete a subtree that contains an earlier mid-insert (ids in the
        subtree are then non-contiguous)."""
        any_store.load_document("<r><a><x/></a><b/></r>")  # ids 1..4... a=2,x=3,b=4
        any_store.insert_into_last(2, "<late/>")  # id 5 inside a
        any_store.delete_node(2)
        assert any_store.read() == "<r><b/></r>"
        assert not any_store.exists(5)
        any_store.check_integrity()

    def test_reload_after_full_delete(self, any_store):
        root = any_store.load_document("<a/>")
        any_store.delete_node(root)
        new_root = any_store.load_document("<b/>")
        assert any_store.read() == "<b/>"
        assert new_root > root  # ids are never reused


class TestReplace:
    def test_replace_leaf_node(self, any_store):
        any_store.load_document("<r><a/><c/></r>")
        any_store.replace_node(2, "<b/>")
        assert any_store.read() == "<r><b/><c/></r>"
        any_store.check_integrity()

    def test_replace_subtree(self, any_store):
        any_store.load_document("<r><a><x/><y/></a><c/></r>")
        any_store.replace_node(2, "<b>done</b>")
        assert any_store.read() == "<r><b>done</b><c/></r>"

    def test_replace_returns_new_id(self, any_store):
        any_store.load_document("<r><a/></r>")
        new_id = any_store.replace_node(2, "<b/>")
        assert any_store.read(new_id) == "<b/>"
        with pytest.raises(NodeNotFoundError):
            any_store.read(2)

    def test_replace_last_node(self, any_store):
        any_store.load_document("<r><a/></r>")
        any_store.replace_node(1, "<s/>")
        assert any_store.read() == "<s/>"

    def test_replace_content_keeps_element_and_attributes(self, any_store):
        any_store.load_document('<r a="1"><old/>junk</r>')
        any_store.replace_content(1, "<new/>")
        assert any_store.read() == '<r a="1"><new/></r>'
        any_store.check_integrity()

    def test_replace_content_of_empty_element(self, any_store):
        any_store.load_document("<r/>")
        any_store.replace_content(1, "<child/>text")
        assert any_store.read() == "<r><child/>text</r>"

    def test_replace_content_with_empty(self, any_store):
        any_store.load_document("<r><a/><b/></r>")
        any_store.replace_content(1, "")
        assert any_store.read() == "<r/>"
        any_store.check_integrity()

    def test_replace_content_text_only(self, any_store):
        any_store.load_document("<price>10</price>")
        any_store.replace_content(1, "20")
        assert any_store.read() == "<price>20</price>"


class TestMixedWorkload:
    def test_interleaved_updates_and_reads(self, any_store):
        root = any_store.load_document("<log/>")
        ids = []
        for index in range(20):
            ids.append(any_store.insert_into_last(root, f"<e n='{index}'/>"))
        for index in (0, 5, 19):
            assert f"n=\"{index}\"" in any_store.read(ids[index])
        any_store.delete_node(ids[10])
        any_store.replace_node(ids[3], "<e n='three'/>")
        text = any_store.read()
        assert 'n="10"' not in text
        assert 'n="three"' in text
        any_store.check_integrity()

    def test_deep_nesting_growth(self, any_store):
        current = any_store.load_document("<d0/>")
        for depth in range(1, 15):
            current = any_store.insert_into_last(current, f"<d{depth}/>")
        text = any_store.read()
        assert "<d14/>" in text
        assert text.startswith("<d0><d1>")
        any_store.check_integrity()

    def test_many_small_documents(self, any_store):
        for index in range(30):
            any_store.load_document(f"<doc{index}/>")
        assert len(any_store.range_snapshot()) == 30
        assert any_store.read().count("<doc") == 30
        any_store.check_integrity()


class TestGranularity:
    def test_max_range_tokens_chunks_bulk_loads(self):
        store = make_store(max_range_tokens=10)
        fragment = "".join(f"<c{i}/>" for i in range(49))
        store.load_document(f"<a>{fragment}</a>")  # 100 tokens
        assert len(store.range_snapshot()) == 10
        store.check_integrity()
        assert store.read(25) == "<c23/>"

    def test_chunked_intervals_are_dense_and_disjoint(self):
        store = make_store(max_range_tokens=16)
        fragment = "".join(f"<c{i}/>" for i in range(49))
        store.load_document(f"<a>{fragment}</a>")
        rows = store.range_snapshot()
        previous_end = 0
        for _, _, start_id, end_id in rows:
            assert start_id == previous_end + 1
            previous_end = end_id
        assert previous_end == 50


class TestStatsAndSnapshots:
    def test_operation_counts(self):
        store = make_store()
        root = store.load_document("<r/>")
        store.insert_into_last(root, "<a/>")
        store.read()
        store.read(root)
        store.delete_node(2)
        ops = store.stats.operations
        assert ops.loads == 1
        assert ops.inserts == 1
        assert ops.reads == 1
        assert ops.node_reads == 1
        assert ops.deletes == 1

    def test_partial_index_populated_lazily(self):
        store = make_store()
        store.load_document("<r><a/><b/></r>")
        assert store.partial_snapshot() == []
        store.read(2)
        assert any(node_id == 2 for node_id, _ in store.partial_snapshot())

    def test_repeated_read_hits_partial_index(self):
        store = make_store()
        store.load_document("<r><a/><b/></r>")
        store.read(3)
        scans_before = store.locator.stats.scan_resolutions
        store.read(3)
        assert store.locator.stats.scan_resolutions == scans_before
        assert store.locator.stats.partial_resolutions >= 1

    def test_full_policy_resolves_through_full_index(self):
        store = make_store(policy=IndexingPolicy.FULL)
        store.load_document("<r><a/><b/></r>")
        store.read(3)
        assert store.locator.stats.full_resolutions >= 1
        assert store.locator.stats.scan_resolutions == 0

    def test_range_policy_always_scans(self):
        store = make_store(policy=IndexingPolicy.RANGE)
        store.load_document("<r><a/><b/></r>")
        store.read(3)
        store.read(3)
        assert store.locator.stats.scan_resolutions == 2

    def test_summary_renders(self):
        store = make_store()
        store.load_document("<r/>")
        text = store.stats.summary()
        assert "operations" in text and "partial index" in text


RECORD_READ_XML = (
    '<lib xmlns:p="urn:p" name="main &amp; &quot;annex&quot;">'
    + "".join(
        f'<p:book id="b{k}" lang="en"><title>T{k} &amp; co</title>'
        f"<!--c{k}--><?pi d{k}?>text {k} &lt; {k + 1}</p:book>"
        for k in range(40)
    )
    + "</lib>"
)

#: node id -> what read(id) returns: an element whose span crosses a block
#: boundary, a text node, an attribute node and a namespace node.
RECORD_READ_NODES = {
    316: '<p:book id="b39" lang="en"><title>T39 &amp; co</title>'
    "<!--c39--><?pi d39?>text 39 &lt; 40</p:book>",
    8: "T0 &amp; co",
    3: 'name="main &amp; &quot;annex&quot;"',
    2: 'xmlns:p="urn:p"',
}


#: What the token-decoding read path (PR 15's) produced for
#: ``record_read_ledger``, less the two range-index fetches of read(316):
#: the memo ``insert_before(316)`` left survives its own split, so that
#: read is a partial-index hit where it was a stale entry and a scan.
RECORD_READ_LEDGER = {
    "tokens_emitted": 590,
    "reads": 1,
    "node_reads": 4,
    "simulated_seconds": 0.16878749999999998,
    "fetched": [
        64, 69, 65, 66, 67, 70, 68,  # read(): the seven data blocks in chain order
        70, 70, 68, 70, 68,  # read(316): begin record, end walk, the span's two blocks
        0, 0, 64, 64, 0, 0, 64, 64, 64, 0, 0, 64, 64,
    ],
    "after_digest": (1161, 2, 32, 0.2146336363636363),
}
RECORD_READ_DIGEST = "bbb0c0b2bb26bb0a110bd1a5145cbc6fc09a654515e40b1ab52ae39314cbb77d"


def record_read_ledger():
    """Whole and point reads on a pool smaller than the document; returns
    what was read and everything the simulated clock depends on."""
    from repro.replication.digest import state_digest

    store = make_store(
        policy=IndexingPolicy.RANGE_PLUS_PARTIAL,
        page_size=1024,
        buffer_pool_capacity=4,
        max_range_tokens=64,
    )
    store.load_document(RECORD_READ_XML)
    store.insert_into_last(4, "<note>n</note>")
    store.insert_before(316, "<gap/>")
    fetched = []
    fetch = store.pool.fetch

    def recording(block_no):
        fetched.append(block_no)
        return fetch(block_no)

    store.pool.fetch = recording
    whole = store.read()
    nodes = {node_id: store.read(node_id) for node_id in RECORD_READ_NODES}
    ledger = {
        "tokens_emitted": store.tokens_emitted,
        "reads": store.operations.reads,
        "node_reads": store.operations.node_reads,
        "simulated_seconds": store.simulated_seconds,
        "fetched": fetched[:],
    }
    digest = state_digest(store)
    ledger["after_digest"] = (
        store.tokens_emitted, store.operations.reads, len(fetched), store.simulated_seconds,
    )
    return whole, nodes, ledger, digest


@pytest.fixture
def decodes(monkeypatch):
    """Counts every token built and every full decode, whoever asks."""
    from repro.xmltoken import binary
    from repro.xmltoken.tokens import Token

    calls = []
    init, decode_at = Token.__init__, binary.decode_token_at

    def counting_init(self, *args, **kwargs):
        calls.append("Token")
        init(self, *args, **kwargs)

    def counting_decode(data, offset):
        calls.append("decode_token_at")
        return decode_at(data, offset)

    monkeypatch.setattr(Token, "__init__", counting_init)
    monkeypatch.setattr(binary, "decode_token_at", counting_decode)
    return calls


class TestRecordRead:
    """The cost model charges a read 20 us per record rendered (DESIGN.md
    §2) and nothing for building tokens; this holds the code to it.  The
    constants are what the token-decoding read path (PR 15's) produced for
    the same calls: the counters, the simulated clock, the fetch sequence
    and the replication digest did not move when the emitter replaced it."""

    def test_reads_decode_no_token(self, decodes):
        from repro.xmltoken.parser import tokenize_fragment

        store = make_store()
        store.load_document(RECORD_READ_XML)
        tokenize_fragment("<a/>")
        assert decodes  # the token view decodes: the counter works
        del decodes[:]
        assert store.read() == RECORD_READ_XML
        # the same ids as in the ledger's store: nothing was inserted
        for node_id, expected in RECORD_READ_NODES.items():
            assert store.read(node_id) == expected
        assert decodes == []

    def test_charges_and_fetches_match_the_token_decoding_path(self):
        whole, nodes, ledger, _ = record_read_ledger()
        assert whole.startswith('<lib xmlns:p="urn:p" name="main &amp; &quot;annex&quot;"><p:book')
        assert whole.count("<note>n</note>") == 1 and whole.count("<gap/>") == 1
        assert nodes == RECORD_READ_NODES
        assert ledger == RECORD_READ_LEDGER

    def test_state_digest_is_the_one_existing_sidecars_hold(self):
        assert record_read_ledger()[3] == RECORD_READ_DIGEST

    def test_a_flipped_text_byte_is_a_codec_error(self):
        # with checksums off nothing stands between a rotten byte and the
        # codec, which used to let UnicodeDecodeError through
        from repro.errors import CodecError

        store = make_store(checksums_enabled=False)
        store.load_document("<r><a>caf\u00e9</a></r>")
        pos = store.locator.locate(3).begin.pos
        record = store.layout.record_at(pos)
        assert record.endswith("\u00e9".encode())
        store.layout.chain.replace_record(pos, record[:-1] + b"\xff")
        with pytest.raises(CodecError, match="UTF-8"):
            store.read()
        with pytest.raises(CodecError, match="UTF-8"):
            store.read(3)


class TestRecordWrite:
    """Writes go from XML text to stored records in one pass (the parser
    encodes each event as it recognizes it): no verb builds a token or
    decodes a record, nor does the transactional insert's undo."""

    def test_writes_build_no_token(self, decodes):
        from repro.concurrency.transactions import TransactionManager

        # small ranges: a load spans many, each counted from header bytes
        store = make_store(max_range_tokens=16)
        store.load_document(RECORD_READ_XML)
        store.insert_before(4, '<a k="v">x</a>')
        store.insert_after(4, "<b/><!--c-->")
        store.insert_into_first(4, "<?pi data?>text")
        store.insert_into_last(4, "<d><e/></d>")
        store.replace_content(4, "<f>&amp;</f>")
        store.replace_node(12, "<g/>")
        txn = TransactionManager(store).begin()
        txn.insert_into_last(1, "<h><i/></h>tail")
        txn.commit()
        assert decodes == []
        store.check_integrity()
        assert store.read(4) == '<p:book id="b0" lang="en"><f>&amp;</f></p:book>'
        assert store.read().endswith("<h><i/></h>tail</lib>")


class TestUnencodableInput:
    """A lone surrogate — referenced in text, referenced in an attribute, or
    written literally — cannot be held in a UTF-8 record.  The parser
    encodes as it reads, so it rejects one before anything is logged, and
    the log still replays to the live document."""

    SURROGATES = ["<i>&#xD800;</i>", '<i a="&#55296;"/>', "<i>\ud800</i>"]

    def _transactional_insert(self, store, xml):
        from repro.concurrency.transactions import TransactionManager

        txn = TransactionManager(store, redo_buffering=True).begin()
        try:
            txn.insert_into_last(1, xml)
        finally:
            txn.commit()

    @pytest.mark.parametrize("xml", SURROGATES)
    @pytest.mark.parametrize("verb", ["load_document", "insert_into_last", "transaction"])
    def test_rejected_before_the_log(self, verb, xml):
        from repro.storage.wal import WriteAheadLog

        store = make_store()
        store.load_document("<r><o/></r>")
        logged = len(list(store.wal.records()))
        write = {
            "load_document": lambda: store.load_document(xml),
            "insert_into_last": lambda: store.insert_into_last(2, xml),
            "transaction": lambda: self._transactional_insert(store, xml),
        }[verb]
        with pytest.raises(XMLSyntaxError, match="surrogate U\\+D800"):
            write()
        assert len(list(store.wal.records())) == logged
        recovered = XMLStore.recover(WriteAheadLog.from_bytes(store.wal.to_bytes()))
        assert recovered.read() == store.read() == "<r><o/></r>"
