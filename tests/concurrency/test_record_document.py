"""The one document model over records (repro.concurrency.recorddoc).

``RecordDocument`` holds stored records plus a parallel id list; undo
composition, snapshot views and the reference store all run over it.
Extents come from header bytes, so these pin them on the shapes the
token-list helper they replaced was tested on, then hold the model to the
store through transactional delete + abort on every sibling target.
"""

import pytest

from repro.concurrency.recorddoc import RecordDocument, capture_document
from repro.concurrency.transactions import TransactionManager
from repro.core.config import StoreConfig
from repro.core.store import XMLStore
from repro.errors import NodeNotFoundError, TokenStreamError, TransactionStateError
from repro.xmltoken.parser import parse_records

#: first, middle and last children; text, comment and PI children; an
#: attribute and a namespace; two top-level nodes after the root
MIXED = (
    '<r xmlns:p="u" k="v"><a>one<x/></a>mid<!--c--><p:b n="1"><c/>two</p:b>'
    "<?pi d?><d>three</d></r><!--top-->tail"
)


def document(xml):
    model = RecordDocument()
    model.load_document(xml)
    return model


class TestExtents:
    def test_atomic_node(self):
        model = document("x")
        assert model._span(1) == (0, 1)

    def test_element_node(self):
        model = document("<a><b/><c/></a>")
        assert model._span(1) == (0, len(model.records))

    def test_inner_element(self):
        model = document("<a><b>t</b><c/></a>")
        # b starts at record 1 and spans [begin, text, end]
        assert model._span(2) == (1, 4)

    def test_attribute_node(self):
        model = document('<a x="1"/>')
        assert model._span(2) == (1, 4)

    def test_comment_and_namespace_nodes_are_atomic(self):
        model = document('<a xmlns:p="u"><!--c--></a>')
        assert model._span(2) == (1, 2)
        assert model._span(3) == (2, 3)

    def test_unknown_id_rejected(self):
        with pytest.raises(NodeNotFoundError):
            document("<a/>")._span(2)

    def test_unclosed_node_rejected(self):
        records = parse_records("<a><b/></a>")[0][:-1]
        model = RecordDocument(records, [1, 2, None])
        with pytest.raises(TokenStreamError, match="never closed"):
            model._span(1)


class TestSplices:
    def test_dense_ids_continue_across_splices(self):
        model = document("<a><b/></a>")
        assert model.insert_into_last(1, "<c>t</c>") == 3
        assert model.node_ids() == [1, 2, 3, 4]
        assert model.read() == "<a><b/><c>t</c></a>"

    def test_supplied_ids_are_used(self):
        model = document("<a/>")
        model.insert_into_last(1, "<c>t</c><d/>", ids=(40, 41, 42))
        assert model.node_ids() == [1, 40, 41, 42]
        assert model.read(41) == "t"

    @pytest.mark.parametrize("ids", [(), (7,), (7, 8, 9)])
    def test_ids_that_do_not_cover_the_node_starts_are_rejected(self, ids):
        model = document("<a/>")
        with pytest.raises(TransactionStateError, match="does not cover 2"):
            model.insert_into_last(1, "<c>t</c>", ids=ids)
        assert model.read() == "<a/>"

    def test_content_of_gives_the_content_and_its_ids(self):
        model = document('<a k="v"><b>t</b><!--c--></a>')
        assert model.content_of(1) == ("<b>t</b><!--c-->", [3, 4, 5])
        assert model.content_of(3) == ("t", [4])
        assert document("<a/>").content_of(1) == ("", [])


class TestCaptureAndAbort:
    """A transactional delete records its undo from a captured subtree
    and its anchor from the store's navigation; abort must put every
    sibling target back byte for byte, under ids that read as before."""

    @staticmethod
    def make_store():
        store = XMLStore.open(StoreConfig(max_range_tokens=8))
        store.load_document(MIXED)
        return store

    def test_capture_matches_the_store(self):
        store = self.make_store()
        captured = capture_document(store)
        reference = document(MIXED)
        assert captured.records == reference.records
        assert captured.ids == reference.ids
        assert captured.read() == store.read()

    @pytest.mark.parametrize("target", document(MIXED).sibling_target_ids())
    def test_delete_then_abort_restores_the_document(self, target):
        store = self.make_store()
        before = store.read()
        contents = {node: store.read(node) for node in document(MIXED).node_ids()}
        txn = TransactionManager(store).begin()
        txn.delete_node(target)
        assert store.read() != before
        txn.abort()
        assert store.read() == before
        # the live store re-allocates the re-inserted subtree's ids; every
        # other id still resolves to its old content, and the new ones to
        # the content the deleted ids had
        restored = {node: store.read(node) for node in capture_document(store).node_ids()}
        kept = {node: text for node, text in contents.items() if node in restored}
        assert kept == {node: restored[node] for node in kept}
        assert sorted(restored.values()) == sorted(contents.values())
