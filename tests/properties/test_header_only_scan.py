"""Header-only structural walks agree with a walk that decodes everything.

The locator's scans read one byte per record (the kind bits of the header)
and regenerate ids from kinds.  The oracle here shares nothing with them:
it ``decode_token``s every record of the chain and derives ranges, offsets
and ids from the range table alone.  Hypothesis drives random documents
through random insert/delete sequences and holds both walks, and every
``locate`` / ``locate_span`` answer, to each other.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.store import XMLStore
from repro.errors import NodeNotFoundError
from repro.xmltoken.binary import decode_token
from repro.xmltoken.tokens import TokenKind

FRAGMENTS = [
    "<a/>",
    "<b>text</b>",
    "<c x='1' y='2'><d/></c>",
    "<e><f>deep</f><g><h>deeper</h></g></e>",
    "plain text",
    "<i/><j/>",
    "<!--note--><k/>",
    "<l xmlns:p='urn:p'><p:m/></l>",
]

ATTRIBUTE_NODE_KINDS = (TokenKind.BEGIN_ATTRIBUTE, TokenKind.NAMESPACE)
SIBLING_OPS = ("insert_before", "insert_after", "delete_node", "replace_node")
CHILD_OPS = ("insert_into_first", "insert_into_last")

operations = st.lists(
    st.tuples(
        st.sampled_from(SIBLING_OPS + CHILD_OPS),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(FRAGMENTS),
    ),
    max_size=12,
)


def decoding_walk(store):
    """One ``(order_index, range_id, offset, pos, token, last_id)`` row per
    stored token, from fully decoded records and the range table."""
    records = list(store.layout.iter_from(None))
    rows = []
    cursor = 0
    for order_index, meta in enumerate(store.ranges.in_order()):
        last_id = None
        for offset in range(meta.token_count):
            pos, record = records[cursor]
            cursor += 1
            token = decode_token(record)
            if token.starts_node:
                last_id = meta.start_id if last_id is None else last_id + 1
            rows.append((order_index, meta.range_id, offset, pos, token, last_id))
    assert cursor == len(records)
    return rows


def end_row_of(rows, index):
    """Index of the row closing the node that starts at ``rows[index]``."""
    if not rows[index][4].is_begin:
        return index
    depth = 0
    for cursor in range(index, len(rows)):
        token = rows[cursor][4]
        depth += token.is_begin - token.is_end
        if depth == 0:
            return cursor
    raise AssertionError("reference walk found an unclosed node")


def shape(store, item):
    # an item an index answered learns its range's order index when asked
    return (
        store.locator.order_of(item), item.meta.range_id, item.offset, item.pos,
        item.kind, item.last_id,
    )


def row_shape(row):
    order_index, range_id, offset, pos, token, last_id = row
    return (order_index, range_id, offset, pos, token.kind, last_id)


def apply_operations(store, steps):
    for op, pick, fragment in steps:
        rows = decoding_walk(store)
        nodes = [row for row in rows if row[4].starts_node]
        if op in CHILD_OPS:
            targets = [r for r in nodes if r[4].kind == TokenKind.BEGIN_ELEMENT]
        else:
            targets = [r for r in nodes if r[4].kind not in ATTRIBUTE_NODE_KINDS]
        if not targets:
            continue
        node_id = targets[pick % len(targets)][5]
        if op == "delete_node":
            store.delete_node(node_id)
        else:
            getattr(store, op)(node_id, fragment)


@settings(max_examples=40, deadline=None)
@given(
    policy=st.sampled_from(
        [IndexingPolicy.RANGE, IndexingPolicy.RANGE_PLUS_PARTIAL, IndexingPolicy.FULL]
    ),
    page_size=st.sampled_from([256, 4096]),
    granularity=st.sampled_from([None, 4, 32]),
    documents=st.lists(st.sampled_from(FRAGMENTS), min_size=1, max_size=4),
    steps=operations,
    resume_at=st.integers(min_value=0, max_value=10_000),
)
def test_header_only_walk_equals_decoding_walk(
    policy, page_size, granularity, documents, steps, resume_at
):
    store = XMLStore.open(
        StoreConfig(
            policy=policy,
            page_size=page_size,
            buffer_pool_capacity=8,
            max_range_tokens=granularity,
        )
    )
    for document in documents:
        store.load_document(document)
    apply_operations(store, steps)

    rows = decoding_walk(store)
    expected = [row_shape(row) for row in rows]
    items = list(store.locator.scan())
    assert [shape(store, item) for item in items] == expected
    assert [item.token for item in items] == [row[4] for row in rows]

    if items:
        cut = resume_at % len(items)
        resumed = store.locator.continue_scan(items[cut])
        assert [shape(store, item) for item in resumed] == expected[cut + 1:]

    for meta in store.ranges.in_order():
        in_range = [s for s in expected if s[1] == meta.range_id]
        assert [shape(store, item) for item in store.locator.scan_range(meta)] == in_range

    live = set()
    for index, row in enumerate(rows):
        if not row[4].starts_node:
            continue
        node_id = row[5]
        live.add(node_id)
        begin = store.locator.locate(node_id).begin
        assert shape(store, begin) == expected[index]
        assert begin.token == row[4]
        span = store.locator.locate_span(node_id)
        assert span.node_id == node_id
        assert shape(store, span.begin) == expected[index]
        end_index = end_row_of(rows, index)
        assert shape(store, span.end) == expected[end_index]
        assert span.end.token == rows[end_index][4]

    for node_id in range(1, store.id_scheme.high_water_mark + 3):
        if node_id not in live:
            with pytest.raises(NodeNotFoundError):
                store.locator.locate(node_id)
            with pytest.raises(NodeNotFoundError):
                store.locator.locate_span(node_id)
