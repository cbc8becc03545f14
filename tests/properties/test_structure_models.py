"""Model-based tests for the storage substrates: B+-tree vs dict,
chained file vs list, ORDPATH ordering under random insertion."""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.index.bptree import (
    BYTES_KEY_CODEC,
    INT_KEY_CODEC,
    INT_TUPLE_KEY_CODEC,
    PagedBPlusTree,
)
from repro.storage.buffer import BufferPool
from repro.storage.disk import InstrumentedDevice, MemoryBlockDevice
from repro.storage.heap import ChainedFile, Position


#: Per codec: an injective map from the drawn integer to a key, of varying
#: length where the codec allows (the ``key_len`` arithmetic).
KEY_SHAPES = {
    "int": (INT_KEY_CODEC, lambda n: n),
    "int_tuple": (INT_TUPLE_KEY_CODEC, lambda n: tuple(str(n).encode())),
    "bytes": (BYTES_KEY_CODEC, lambda n: str(n).encode()),
}


KEYS = st.integers(-100, 100)
PROBES = st.integers(-120, 120)


def decode_everything(records, codec):
    """The eager reference: every field of every record of a node page."""
    is_leaf, pointer = struct.unpack("<Bq", records[0])
    keys, payloads = [], []
    for record in records[1:]:
        (key_len,) = struct.unpack_from("<H", record)
        keys.append(codec.decode(record[2 : 2 + key_len]))
        rest = record[2 + key_len :]
        payloads.append(rest if is_leaf else struct.unpack("<q", rest)[0])
    return bool(is_leaf), pointer, keys, payloads


class BPlusTreeAgreesWithDict(RuleBasedStateMachine):
    """Insert/delete/lookup/scan against a dict oracle, and every node's
    on-demand view against an eager decode of the same page.  Orders 3-6
    keep nodes small, so both borrows, both merges and root shrink fire."""

    @initialize(order=st.integers(3, 6), shape=st.sampled_from(sorted(KEY_SHAPES)))
    def setup(self, order, shape):
        device = InstrumentedDevice(MemoryBlockDevice())
        self.pool = BufferPool(device, capacity=64)
        self.codec, self.key = KEY_SHAPES[shape]
        self.tree = PagedBPlusTree(self.pool, self.codec, order=order)
        self.model = {}

    @rule(n=KEYS, value=st.binary(max_size=8))
    def insert(self, n, value):
        self.tree.insert(self.key(n), value)
        self.model[self.key(n)] = value

    @rule(n=KEYS)
    def delete(self, n):
        removed = self.tree.delete(self.key(n))
        assert removed == (self.key(n) in self.model)
        self.model.pop(self.key(n), None)

    # batches grow the tree to three levels and drain it again within one
    # example, which single-key rules almost never do

    @rule(ns=st.lists(KEYS, min_size=8, max_size=40))
    def insert_batch(self, ns):
        for n in ns:
            self.insert(n, b"%d" % n)

    @precondition(lambda self: self.model)
    @rule(skip=st.integers(0, 200), count=st.integers(8, 60), stride=st.integers(1, 3))
    def delete_batch(self, skip, count, stride):
        present = sorted(self.model)
        for key in present[skip % len(present) :: stride][:count]:
            assert self.tree.delete(key)
            del self.model[key]

    @rule(n=PROBES)
    def lookup(self, n):
        assert self.tree.get(self.key(n)) == self.model.get(self.key(n))

    @rule(n=PROBES)
    def floor(self, n):
        eligible = [k for k in self.model if k <= self.key(n)]
        found = self.tree.floor_item(self.key(n))
        if eligible:
            best = max(eligible)
            assert found == (best, self.model[best])
        else:
            assert found is None

    @rule(n=PROBES)
    def ceiling(self, n):
        eligible = [k for k in self.model if k >= self.key(n)]
        found = self.tree.ceiling_item(self.key(n))
        if eligible:
            best = min(eligible)
            assert found == (best, self.model[best])
        else:
            assert found is None

    @rule(n=PROBES, span=st.integers(0, 60))
    def range_scan(self, n, span):
        low, high = sorted([self.key(n), self.key(n + span)])
        expected = sorted(
            (k, v) for k, v in self.model.items() if low <= k <= high
        )
        assert list(self.tree.items(low=low, high=high)) == expected

    @invariant()
    def tree_is_structurally_sound(self):
        self.tree.check_integrity()

    @invariant()
    def full_scan_matches(self):
        assert list(self.tree.items()) == sorted(self.model.items())

    @invariant()
    def node_views_match_the_eager_decode(self):
        for block_no in self.tree.block_numbers():
            with self.pool.fetch(block_no) as guard:
                records = guard.page.records()
            is_leaf, pointer, keys, payloads = decode_everything(records, self.codec)
            node = self.tree._load(block_no)
            assert (node.is_leaf, node.keys) == (is_leaf, keys)
            if is_leaf:
                assert node.next_leaf == (None if pointer == -1 else pointer)
                items = [node.item(index) for index in range(len(keys))]
                assert items == list(zip(keys, payloads))
            else:
                assert node.children == [pointer] + payloads


TestBPlusTree = BPlusTreeAgreesWithDict.TestCase
TestBPlusTree.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)


class ChainAgreesWithList(RuleBasedStateMachine):
    """Chained-file record operations against a Python list oracle."""

    @initialize(block_size=st.sampled_from([64, 128, 512]))
    def setup(self, block_size):
        device = InstrumentedDevice(MemoryBlockDevice(block_size=block_size))
        pool = BufferPool(device, capacity=16)
        self.chain = ChainedFile(pool)
        self.model = []

    def _contents(self):
        return [record for _, record in self.chain.records()]

    def _position_of(self, index):
        """Physical position of the index-th record."""
        for count, (pos, _) in enumerate(self.chain.records()):
            if count == index:
                return pos
        raise AssertionError("index out of range")

    @rule(records=st.lists(st.binary(min_size=1, max_size=20), min_size=1, max_size=5))
    def append(self, records):
        self.chain.append_records(records)
        self.model.extend(records)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), records=st.lists(st.binary(min_size=1, max_size=20), min_size=1, max_size=4))
    def insert_at(self, data, records):
        index = data.draw(st.integers(0, len(self.model) - 1))
        self.chain.insert_records(self._position_of(index), records)
        self.model[index:index] = records

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_at(self, data):
        index = data.draw(st.integers(0, len(self.model) - 1))
        removed = self.chain.delete_record(self._position_of(index))
        assert removed == self.model.pop(index)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), record=st.binary(min_size=1, max_size=30))
    def replace_at(self, data, record):
        index = data.draw(st.integers(0, len(self.model) - 1))
        self.chain.replace_record(self._position_of(index), record)
        self.model[index] = record

    @invariant()
    def same_sequence(self):
        assert self._contents() == self.model

    @invariant()
    def chain_is_sound(self):
        self.chain.check_integrity()


TestChainedFile = ChainAgreesWithList.TestCase
TestChainedFile.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)


class OrdpathOrderInvariants(RuleBasedStateMachine):
    """Random sibling insertions: order always strict and stable, no label
    ever becomes an ancestor of a sibling."""

    def __init__(self):
        super().__init__()
        from repro.ids.ordpath import OrdpathScheme

        self.scheme = OrdpathScheme()
        self.labels = [(1, 1), (1, 3)]

    @rule(data=st.data())
    def insert_between(self, data):
        index = data.draw(st.integers(0, len(self.labels) - 2))
        left, right = self.labels[index], self.labels[index + 1]
        new_label = self.scheme.between(left, right)
        assert left < new_label < right
        self.labels.insert(index + 1, new_label)

    @rule()
    def append_sibling(self):
        self.labels.append(self.scheme.next_sibling(self.labels[-1]))

    @rule()
    def prepend_sibling(self):
        self.labels.insert(0, self.scheme.previous_sibling_slot(self.labels[0]))

    @invariant()
    def strictly_ordered(self):
        for left, right in zip(self.labels, self.labels[1:]):
            assert left < right

    @invariant()
    def no_sibling_ancestry(self):
        for left, right in zip(self.labels, self.labels[1:]):
            assert not self.scheme.is_ancestor(left, right)
            assert not self.scheme.is_ancestor(right, left)

    @invariant()
    def labels_end_odd(self):
        for label in self.labels:
            assert label[-1] % 2 == 1

    @invariant()
    def byte_encoding_preserves_order(self):
        encoded = [self.scheme.encode(label) for label in self.labels]
        assert encoded == sorted(encoded)


TestOrdpathInvariants = OrdpathOrderInvariants.TestCase
TestOrdpathInvariants.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)


@given(st.lists(st.binary(min_size=1, max_size=10), max_size=30))
def test_slotted_page_roundtrip_property(records):
    from repro.storage.pages import SlottedPage

    page = SlottedPage(4096, records)
    assert SlottedPage.from_bytes(page.to_bytes()).records() == records
    # the layout, spelled out one field at a time
    image = struct.pack("<H", len(records))
    image += b"".join(struct.pack("<H", len(record)) for record in records)
    image += b"".join(records)
    assert page.to_bytes() == image.ljust(4096, b"\x00")
