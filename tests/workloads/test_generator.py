"""Unit tests for workload generators."""

import random

import pytest

from repro.core.store import XMLStore
from repro.xmltoken.parser import parse_records, tokenize_fragment
from repro.xmltoken.tokens import TokenKind
from repro.workloads.generator import (
    element_tree_with_nodes,
    purchase_order,
    purchase_order_stream,
    purchase_orders_document,
    text_heavy_document,
    words,
)
from repro.workloads.xmark import bidder_fragment, xmark_document


class TestWords:
    def test_deterministic(self):
        assert words(random.Random(1), 5) == words(random.Random(1), 5)

    def test_count(self):
        assert len(words(random.Random(1), 7).split()) == 7


class TestElementTree:
    @pytest.mark.parametrize("count", [1, 2, 7, 50, 200])
    def test_exact_node_count(self, count):
        xml = element_tree_with_nodes(count)
        tokens = tokenize_fragment(xml)
        elements = [t for t in tokens if t.kind == TokenKind.BEGIN_ELEMENT]
        assert len(elements) == count
        assert parse_records(xml)[1] == count

    def test_is_well_formed_and_loadable(self):
        store = XMLStore.open()
        store.load_document(element_tree_with_nodes(100))
        store.check_integrity()

    def test_fanout_limits_width(self):
        xml = element_tree_with_nodes(20, fanout=2)
        # with fanout 2 the root has at most 2 direct children
        tokens = tokenize_fragment(xml)
        depth = 0
        root_children = 0
        for token in tokens:
            if token.kind == TokenKind.BEGIN_ELEMENT:
                depth += 1
                if depth == 2:
                    root_children += 1
            elif token.kind == TokenKind.END_ELEMENT:
                depth -= 1
        assert root_children == 2

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            element_tree_with_nodes(0)


class TestPurchaseOrders:
    def test_order_is_well_formed(self):
        xml = purchase_order(1, 3, random.Random(0))
        tokens = tokenize_fragment(xml)
        assert tokens[0].name == "purchase-order"

    def test_items_count(self):
        xml = purchase_order(1, 4, random.Random(0))
        assert xml.count("<item ") == 4

    def test_document_contains_all_orders(self):
        xml = purchase_orders_document(10, items_per_order=2)
        assert xml.count("<purchase-order ") == 10

    def test_document_deterministic(self):
        assert purchase_orders_document(5) == purchase_orders_document(5)

    def test_stream_yields_fragments(self):
        fragments = list(purchase_order_stream(5, start_no=100))
        assert len(fragments) == 5
        assert 'no="100"' in fragments[0]

    def test_document_loads_into_store(self):
        store = XMLStore.open()
        store.load_document(purchase_orders_document(5))
        assert len(store.xpath("/purchase-orders/purchase-order")) == 5


class TestTextHeavyAndXMark:
    def test_text_heavy_document(self):
        xml = text_heavy_document(5, words_each=10)
        assert xml.count("<p>") == 5
        store = XMLStore.open()
        store.load_document(xml)
        store.check_integrity()

    def test_xmark_loads_and_queries(self):
        store = XMLStore.open()
        store.load_document(xmark_document(items_per_region=2, people=4, auctions=3))
        assert len(store.xpath("//open_auction")) == 3
        assert len(store.xpath("/site/people/person")) == 4
        items = store.xpath("//item")
        assert len(items) == 2 * 6  # two per region, six regions

    def test_xmark_deterministic(self):
        assert xmark_document(seed=5) == xmark_document(seed=5)
        assert xmark_document(seed=5) != xmark_document(seed=6)

    def test_bidder_fragment_appends(self):
        store = XMLStore.open()
        store.load_document(xmark_document(items_per_region=1, people=3, auctions=1))
        auction = store.xpath("//open_auction")[0]
        before = len(store.xpath("//bidder"))
        store.insert_into_last(auction.node_id, bidder_fragment(3, seed=9))
        assert len(store.xpath("//bidder")) == before + 1
