"""Range surgery has one owner: ``RangeTable``'s verbs.

An update cuts ranges with ``split``/``place``, ``truncate``, ``behead``,
``drop`` and ``merge`` (DESIGN.md §11); each keeps the range's token count,
id interval, address piece and Range Index key consistent.  Three ways of
holding the code to that: a ledger of B+-tree operations for the one case
that used to pay twice, random verb sequences on a bare table and index
checked after every step, and a walk over ``src/repro`` showing no other
module assigns those fields or touches the key.
"""

import ast
import os

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.compaction import can_merge
from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.range_index import RangeIndex
from repro.core.ranges import RangeTable
from repro.core.store import XMLStore
from repro.storage.buffer import BufferPool
from repro.storage.disk import InstrumentedDevice, MemoryBlockDevice
from repro.storage.heap import Position


class TestKeyLedger:
    """Deleting the node at the head of a range whose remainder starts no
    node takes the range's key out of the Range Index — once.  (The old
    same-range arm rekeyed, which deletes the key, and then unregistered
    it again: a second, charged descent that the cross-range arm never
    made.)"""

    def store_with_a_text_headed_tail(self):
        store = XMLStore.open(
            StoreConfig(policy=IndexingPolicy.RANGE, page_size=512)
        )
        store.load_document("<r><a>text</a></r>")
        store.insert_before(3, "<x/>")
        # the split left the text node at the head of [text, </a>, </r>]
        assert store.range_snapshot()[-1][2:] == (3, 3)
        return store

    def counted_deletes(self, store, monkeypatch):
        tree = store.range_index._tree
        keys = []
        real = tree.delete
        monkeypatch.setattr(tree, "delete", lambda key: keys.append(key) or real(key))
        return keys

    def test_same_range_beheading_deletes_the_key_once(self, monkeypatch):
        store = self.store_with_a_text_headed_tail()
        keys = self.counted_deletes(store, monkeypatch)
        store.delete_node(3)
        assert keys == [3]
        assert store.range_snapshot()[-1][2:] == (None, None)
        assert store.read() == "<r><a><x/></a></r>"
        store.check_integrity()

    def test_cross_range_beheading_deletes_the_key_once(self, monkeypatch):
        store = self.store_with_a_text_headed_tail()
        keys = self.counted_deletes(store, monkeypatch)
        # <x/> is a range of its own: dropped (key 4), then the tail beheaded
        store.replace_content(2, "")
        assert keys == [4, 3]
        assert store.read() == "<r><a/></r>"
        store.check_integrity()


# --------------------------------------------------------------- verb sequences


def make_table():
    device = InstrumentedDevice(MemoryBlockDevice(block_size=512))
    index = RangeIndex(BufferPool(device, capacity=16), order=4)
    return RangeTable(index), index


class Model:
    """The document as ``{range id: [(token uid, node id or None), ...]}``
    beside the table under test; every token's address is noted when it
    is inserted."""

    NOWHERE = Position(0, 0)  # a bare table is never asked where tokens live

    def __init__(self):
        self.table, self.index = make_table()
        self.tokens = {}
        self.addresses = {}
        self.next_uid = 0
        self.next_id = 1

    def order(self):
        return [meta.range_id for meta in self.table.in_order()]

    def total(self):
        return sum(len(tokens) for tokens in self.tokens.values())

    def find(self, position):
        """(range id, offset) of global token ``position``."""
        for range_id in self.order():
            if position < len(self.tokens[range_id]):
                return range_id, position
            position -= len(self.tokens[range_id])
        raise AssertionError("position past the end")

    @staticmethod
    def last_id(tokens):
        ids = [node_id for _, node_id in tokens if node_id is not None]
        return ids[-1] if ids else None

    # -- the verbs, mirrored

    def insert(self, position, shape):
        fresh = []
        for starts_node in shape:
            fresh.append((self.next_uid, self.next_id if starts_node else None))
            self.next_uid += 1
            self.next_id += starts_node
        ids = [node_id for _, node_id in fresh if node_id is not None]
        interval = (ids[0], ids[-1]) if ids else (None, None)
        table = self.table
        tail = None
        if position == self.total():
            placement = {}
        else:
            range_id, offset = self.find(position)
            if offset == 0:
                placement = {"before": range_id}
            else:
                tokens = self.tokens[range_id]
                tail = table.split(table.get(range_id), offset, self.last_id(tokens[:offset]))
                self.tokens[range_id], tail_tokens = tokens[:offset], tokens[offset:]
                placement = {"after": range_id}
        meta = table.new_range(self.NOWHERE, len(fresh), *interval, **placement)
        self.tokens[meta.range_id] = fresh
        for offset, (uid, _) in enumerate(fresh):
            self.addresses[(meta.origin, offset)] = uid
        if tail is not None:
            table.place(tail, self.NOWHERE, after=meta.range_id)
            self.tokens[tail.range_id] = tail_tokens

    def delete(self, first, last):
        """Delete global token positions ``first..last`` inclusive."""
        table = self.table
        begin_range, begin_offset = self.find(first)
        end_range, end_offset = self.find(last)
        order = self.order()
        covered = order[order.index(begin_range) : order.index(end_range) + 1]
        for range_id in covered:
            meta, tokens = table.get(range_id), self.tokens[range_id]
            cut_from = begin_offset if range_id == begin_range else 0
            cut_to = end_offset + 1 if range_id == end_range else len(tokens)
            head_last = self.last_id(tokens[:cut_from])
            gone_last = self.last_id(tokens[:cut_to])
            if cut_to < len(tokens):
                if cut_from:
                    tail = table.split(meta, cut_to, gone_last)
                    table.truncate(meta, cut_from, head_last)
                    table.place(tail, self.NOWHERE, after=range_id)
                    self.tokens[tail.range_id] = tokens[cut_to:]
                    self.tokens[range_id] = tokens[:cut_from]
                else:
                    table.behead(meta, cut_to, gone_last)
                    self.tokens[range_id] = tokens[cut_to:]
            elif cut_from:
                table.truncate(meta, cut_from, head_last)
                self.tokens[range_id] = tokens[:cut_from]
            else:
                table.drop(range_id)
                del self.tokens[range_id]

    def merge(self, pick):
        order = self.order()
        if len(order) < 2:
            return
        index = pick % (len(order) - 1)
        left, right = (self.table.get(range_id) for range_id in order[index : index + 2])
        if not can_merge(left, right):
            return
        self.table.merge(left, right)
        self.tokens[left.range_id] += self.tokens.pop(right.range_id)

    # -- what must hold after every step

    def check(self):
        table = self.table
        table.check_integrity()
        self.index.check_integrity(table)
        assert set(self.order()) == set(self.tokens)
        live = {}
        for meta in table.in_order():
            tokens = self.tokens[meta.range_id]
            assert meta.token_count == len(tokens)
            ids = [node_id for _, node_id in tokens if node_id is not None]
            assert (meta.start_id, meta.end_id) == (
                (ids[0], ids[-1]) if ids else (None, None)
            )
            assert ids == list(range(ids[0], ids[-1] + 1)) if ids else True
            for offset, (uid, _) in enumerate(tokens):
                live[uid] = (meta, offset)
        # an address taken before the step names the same token, or nothing;
        # a deleted token's address never resolves
        for (origin, address), uid in self.addresses.items():
            resolved = table.resolve(origin, address)
            if resolved is not None:
                assert live.get(uid) == resolved


steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.integers(0, 10_000),
            st.lists(st.booleans(), min_size=1, max_size=6),
        ),
        st.tuples(st.just("delete"), st.integers(0, 10_000), st.integers(0, 12)),
        st.tuples(st.just("merge"), st.integers(0, 10_000), st.none()),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(steps=steps)
def test_verb_sequences_keep_table_index_and_addresses_consistent(steps):
    model = Model()
    model.insert(0, [True, False, True, True, False, False])
    model.check()
    for kind, a, b in steps:
        total = model.total()
        if kind == "insert":
            model.insert(a % (total + 1), b)
        elif kind == "delete":
            if total < 2:
                continue
            first = a % total
            model.delete(first, min(total - 1, first + b))
        else:
            model.merge(a)
        model.check()


# ------------------------------------------------------------------ single owner

SRC = os.path.dirname(repro.__file__)
RANGE_FIELDS = {"token_count", "start_id", "end_id", "lo"}
KEY_METHODS = {"register", "unregister", "rekey"}


def modules_where(match):
    """Modules under ``src/repro`` with an AST node ``match`` accepts."""
    found = set()
    for directory, _, filenames in os.walk(SRC):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            if any(match(node) for node in ast.walk(tree)):
                found.add(os.path.relpath(path, SRC).replace(os.sep, "/"))
    return found


def assigns_a_range_field(node):
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    flat = []
    for target in targets:
        flat.extend(target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target])
    return any(
        isinstance(target, ast.Attribute) and target.attr in RANGE_FIELDS
        for target in flat
    )


def calls_a_key_method(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in KEY_METHODS
    )


def test_one_module_assigns_range_counts_intervals_and_addresses():
    assert modules_where(assigns_a_range_field) == {"core/ranges.py"}


def test_one_module_keys_the_range_index():
    # besides the table: RangeIndex.rekey is written on its own register, and
    # index/bptree.py's rekey is a B+-tree node's method of the same name
    callers = modules_where(calls_a_key_method)
    assert callers - {"core/range_index.py", "index/bptree.py"} == {"core/ranges.py"}
    calls_register = modules_where(
        lambda node: calls_a_key_method(node) and node.func.attr != "rekey"
    )
    assert "index/bptree.py" not in calls_register
