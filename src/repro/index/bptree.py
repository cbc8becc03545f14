"""A paged B+-tree over the buffer pool.

This is the ordered-index substrate under both the coarse Range Index and
the full-index baseline.  In the paper's prototype this role was played by
MySQL's B-trees; building our own — *on the same buffer pool and
instrumented device as the data blocks* — means every index node touch is
charged to the same simulated clock as data I/O, so the cost asymmetry the
paper measures (full index: one index insert per node; range index: one
per range) emerges from first principles.

Each tree node occupies one block.  Keys are signed 64-bit integers (node
ids, range starts).  A node is decoded once, on the fetch that brings its
page in from the device, and the decoded node lives in the page's buffer
frame (:attr:`~repro.storage.buffer.PageGuard.derived`) until the frame
is evicted or a writer marks the page dirty; the tree's own writes put
the node they wrote back into the frame.  Leaves are chained for range
scans.  Deletion rebalances by borrowing from or merging with siblings, so
the tree never degrades.

The tree keeps only its root block number as external state
(:attr:`PagedBPlusTree.root_block`); persist that in a catalog to reopen.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional, Tuple

from repro.errors import StorageError
from repro.storage.buffer import BufferPool

_NODE_HEADER = struct.Struct("<Bq")  # is_leaf, next_leaf / first_child
#: An entry's head: ``u16 key_len`` (always 8) and the ``i64`` key.
_HEAD = struct.Struct("<Hq")
_INTERNAL_ENTRY = struct.Struct("<Hqq")  # head, child
_CHILD = struct.Struct("<q")
_KEY_LEN = _HEAD.pack(8, 0)[:2]
_NO_LEAF = -1
KEY_MIN, KEY_MAX = -(1 << 63), (1 << 63) - 1


class _Node:
    """One tree node, decoded once per read of its page from the device:
    the header's flag and pointer (next leaf, -1 for none / first child),
    every key as an int, and the entry records as the page stores them — ``u16 8 | i64 key |
    value`` in a leaf, ``u16 8 | i64 key | i64 child`` in an internal node.
    Values and child pointers are sliced from the records on demand.

    A node is never changed: its buffer frame hands the same node to every
    reader, and an update builds a new node (the methods below return one)
    and writes it.
    """

    __slots__ = ("is_leaf", "pointer", "keys", "entries")

    def __init__(self, is_leaf: bool, pointer: int, keys: tuple, entries: tuple) -> None:
        self.is_leaf = is_leaf
        self.pointer = pointer
        self.keys: Tuple[int, ...] = keys
        self.entries: Tuple[bytes, ...] = entries

    def item(self, index: int) -> Tuple[int, bytes]:
        """Leaf only: the key and the value of entry ``index``."""
        return self.keys[index], self.entries[index][_HEAD.size :]

    def child(self, index: int) -> int:
        """Internal only: child ``index`` of ``len(keys) + 1``."""
        if index == 0:
            return self.pointer
        return _CHILD.unpack_from(self.entries[index - 1], _HEAD.size)[0]

    @property
    def children(self) -> List[int]:
        return [self.child(index) for index in range(len(self.keys) + 1)]

    @property
    def next_leaf(self) -> Optional[int]:
        return None if self.pointer == _NO_LEAF else self.pointer

    def spliced(self, index: int, drop: int, keys: tuple = (), entries: tuple = ()) -> "_Node":
        """A new node whose ``drop`` entries from ``index`` on are replaced
        by ``entries`` under ``keys``: keys and records change in step."""
        stop = index + drop
        return _Node(
            self.is_leaf, self.pointer,
            self.keys[:index] + keys + self.keys[stop:],
            self.entries[:index] + entries + self.entries[stop:],
        )

    def rekeyed(self, index: int, key: int) -> "_Node":
        """Internal only: entry ``index`` under a new key, keeping its child."""
        return self.spliced(index, 1, (key,), (_internal_entry(key, self.child(index + 1)),))


def _internal_entry(key: int, child: int) -> bytes:
    return _INTERNAL_ENTRY.pack(8, key, child)


def _decode(block_no: int, records: List[bytes]) -> _Node:
    """Decode a node page: one ``struct.unpack`` reads every entry's
    ``key_len`` and key.  A page that is not a node raises
    :class:`StorageError` naming the block."""
    if not records or len(records[0]) != _NODE_HEADER.size:
        raise StorageError(f"index block {block_no} has no node header")
    is_leaf, pointer = _NODE_HEADER.unpack(records[0])
    entries = tuple(records[1:])
    try:
        heads = struct.unpack(
            "<" + "Hq" * len(entries), b"".join([entry[: _HEAD.size] for entry in entries])
        )
    except struct.error:  # an entry shorter than its head
        heads = ()
    if heads[::2].count(8) != len(entries) or not (
        is_leaf or set(map(len, entries)) <= {_INTERNAL_ENTRY.size}
    ):
        bad = next(
            index
            for index, entry in enumerate(entries)
            if entry[:2] != _KEY_LEN
            or (len(entry) < _HEAD.size if is_leaf else len(entry) != _INTERNAL_ENTRY.size)
        )
        raise StorageError(f"malformed entry {bad} in index block {block_no}")
    return _Node(bool(is_leaf), pointer, heads[1::2], entries)


class PagedBPlusTree:
    """B+-tree from signed 64-bit integer keys to byte-string values.

    ``order`` is the maximum number of keys per node; it must be chosen so
    a full node serializes into one block (checked at write time).
    """

    #: Allocation stream for tree pages: keeps index extents separate from
    #: the data chain's, as a real system's separate index file would.
    INDEX_STREAM = 1

    def __init__(
        self,
        pool: BufferPool,
        order: int = 64,
        root_block: Optional[int] = None,
        alloc_stream: int = INDEX_STREAM,
    ) -> None:
        if order < 3:
            raise StorageError("B+-tree order must be >= 3")
        self.pool = pool
        self.order = order
        self.alloc_stream = alloc_stream
        #: entries of every node visited — the CPU-cost ledger used by the
        #: simulated clock (analogous to tokens scanned), charged per visit
        #: whether or not the node was already decoded.
        self.entries_loaded = 0
        if root_block is None:
            self.root_block = self._new_node(_Node(True, _NO_LEAF, (), ()))
        else:
            self.root_block = root_block

    # ------------------------------------------------------------------ io --

    def _load(self, block_no: int) -> _Node:
        """The node in ``block_no``: decoded on the fetch that found its
        frame without one, then shared from the frame."""
        with self.pool.fetch(block_no) as guard:
            node = guard.derived
            if node is None:
                node = guard.derived = _decode(block_no, guard.page.records())
        self.entries_loaded += len(node.entries)
        return node

    def _save(self, block_no: int, node: _Node) -> None:
        with self.pool.fetch(block_no) as guard:
            self._store(guard, node)

    def _store(self, guard, node: _Node) -> None:
        header = _NODE_HEADER.pack(node.is_leaf, node.pointer)
        guard.page.replace_all([header, *node.entries])
        guard.mark_dirty()
        guard.derived = node

    def _save_slot(
        self, block_no: int, node: _Node, index: int, entry: Optional[bytes], replace: bool = False
    ) -> None:
        """Write ``node``, which differs from the node its page holds only
        in entry ``index``: insert ``entry`` there, replace it, or (``entry``
        None) delete it — one record, size-checked by the page itself."""
        with self.pool.fetch(block_no) as guard:
            page, slot = guard.page, index + 1  # slot 0 is the node header
            if entry is None:
                page.delete(slot)
            elif replace:
                page.replace(slot, entry)
            else:
                page.insert(slot, entry)
            guard.mark_dirty()
            guard.derived = node

    def _new_node(self, node: _Node) -> int:
        with self.pool.new_page(self.alloc_stream) as guard:
            self._store(guard, node)
            return guard.block_no

    # -------------------------------------------------------------- queries --

    def get(self, key: int) -> Optional[bytes]:
        """The value stored under ``key``, or None."""
        node = self._load(self._find_leaf(key))
        index = bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            return node.entries[index][_HEAD.size :]
        return None

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def floor_item(self, key: int) -> Optional[Tuple[int, bytes]]:
        """The entry with the largest key ``<= key`` (the Range Index's
        lookup primitive), or None if every key is greater."""
        block_no = self._find_leaf(key)
        node = self._load(block_no)
        index = bisect_right(node.keys, key) - 1
        if index >= 0:
            return node.item(index)
        # Everything in this leaf is greater; the floor, if any, is the
        # last entry of the previous leaf.  Leaves are singly linked, so
        # walk down the left spine tracking the predecessor leaf.
        prev = self._predecessor_leaf(block_no)
        if prev is None:
            return None
        prev_node = self._load(prev)
        if not prev_node.entries:
            return None
        return prev_node.item(-1)

    def ceiling_item(self, key: int) -> Optional[Tuple[int, bytes]]:
        """The entry with the smallest key ``>= key``, or None."""
        node = self._load(self._find_leaf(key))
        index = bisect_left(node.keys, key)
        if index < len(node.entries):
            return node.item(index)
        if node.next_leaf is None:
            return None
        nxt = self._load(node.next_leaf)
        if not nxt.entries:
            return None
        return nxt.item(0)

    def items(
        self, low: Optional[int] = None, high: Optional[int] = None
    ) -> Iterator[Tuple[int, bytes]]:
        """Iterate entries with ``low <= key <= high`` in key order."""
        if low is None:
            block_no: Optional[int] = self._leftmost_leaf()
        else:
            block_no = self._find_leaf(low)
        while block_no is not None:
            node = self._load(block_no)
            # only the first leaf can hold keys below ``low``
            start = 0 if low is None else bisect_left(node.keys, low)
            low = None
            for index in range(start, len(node.entries)):
                key, value = node.item(index)
                if high is not None and high < key:
                    return
                yield key, value
            block_no = node.next_leaf

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    @property
    def is_empty(self) -> bool:
        for _ in self.items():
            return False
        return True

    def height(self) -> int:
        """Number of levels (1 = a single leaf)."""
        levels = 1
        node = self._load(self.root_block)
        while not node.is_leaf:
            levels += 1
            node = self._load(node.pointer)
        return levels

    # ------------------------------------------------------------- mutation --

    def insert(self, key: int, value: bytes) -> None:
        """Insert or overwrite ``key``, a signed 64-bit integer."""
        if not (isinstance(key, int) and KEY_MIN <= key <= KEY_MAX):
            raise StorageError(f"B+-tree key {key!r} is not a signed 64-bit integer")
        split = self._insert(self.root_block, key, value)
        if split is not None:
            separator, right_block = split
            new_root = _Node(
                False, self.root_block, (separator,), (_internal_entry(separator, right_block),)
            )
            self.root_block = self._new_node(new_root)

    def delete(self, key: int) -> bool:
        """Remove ``key``; returns whether it was present."""
        removed = self._delete(self.root_block, key)
        root = self._load(self.root_block)
        if not root.is_leaf and not root.entries:
            # shrink the tree: the lone child becomes the root
            old_root = self.root_block
            self.root_block = root.pointer
            self.pool.free_page(old_root)
        return removed

    def clear(self) -> None:
        """Remove every entry (frees all non-root blocks)."""
        self._free_subtree(self.root_block, keep_root=True)
        self._save(self.root_block, _Node(True, _NO_LEAF, (), ()))

    # ----------------------------------------------------------- insertion --

    def _insert(self, block_no: int, key: int, value: bytes) -> Optional[Tuple[int, int]]:
        """Returns ``(separator, right_block)`` when ``block_no`` split: the
        key to add to the parent, and its child."""
        node = self._load(block_no)
        if node.is_leaf:
            index = bisect_left(node.keys, key)
            entry = _HEAD.pack(8, key) + value
            if index < len(node.keys) and node.keys[index] == key:
                node = node.spliced(index, 1, (key,), (entry,))
                self._save_slot(block_no, node, index, entry, replace=True)
                return None
            node = node.spliced(index, 0, (key,), (entry,))
            if len(node.entries) > self.order:
                return self._split_leaf(block_no, node)
            self._save_slot(block_no, node, index, entry)
            return None
        index = bisect_right(node.keys, key)
        split = self._insert(node.child(index), key, value)
        if split is None:
            return None
        separator, right_block = split
        entry = _internal_entry(separator, right_block)
        node = node.spliced(index, 0, (separator,), (entry,))
        if len(node.entries) > self.order:
            return self._split_internal(block_no, node)
        self._save_slot(block_no, node, index, entry)
        return None

    def _split_leaf(self, block_no: int, node: _Node) -> Tuple[int, int]:
        half = len(node.entries) // 2
        right = _Node(True, node.pointer, node.keys[half:], node.entries[half:])
        right_block = self._new_node(right)
        self._save(block_no, _Node(True, right_block, node.keys[:half], node.entries[:half]))
        return right.keys[0], right_block

    def _split_internal(self, block_no: int, node: _Node) -> Tuple[int, int]:
        half = len(node.entries) // 2
        right = _Node(False, node.child(half + 1), node.keys[half + 1 :], node.entries[half + 1 :])
        right_block = self._new_node(right)
        self._save(block_no, _Node(False, node.pointer, node.keys[:half], node.entries[:half]))
        return node.keys[half], right_block

    # ------------------------------------------------------------ deletion --

    def _delete(self, block_no: int, key: int) -> bool:
        node = self._load(block_no)
        if node.is_leaf:
            index = bisect_left(node.keys, key)
            if index >= len(node.keys) or node.keys[index] != key:
                return False
            self._save_slot(block_no, node.spliced(index, 1), index, None)
            return True
        index = bisect_right(node.keys, key)
        removed = self._delete(node.child(index), key)
        if removed:
            self._rebalance_child(block_no, index)
        return removed

    def _min_keys(self) -> int:
        return self.order // 2

    def _rebalance_child(self, parent_block: int, index: int) -> None:
        parent = self._load(parent_block)
        child_block = parent.child(index)
        child = self._load(child_block)
        if len(child.entries) >= self._min_keys():
            return
        # Try borrowing from the left sibling.
        if index > 0:
            left_block = parent.child(index - 1)
            left = self._load(left_block)
            if len(left.entries) > self._min_keys():
                left, child, parent = self._borrow_from_left(parent, index, left, child)
                self._save(left_block, left)
                self._save(child_block, child)
                self._save(parent_block, parent)
                return
        # Try borrowing from the right sibling.
        if index < len(parent.entries):
            right_block = parent.child(index + 1)
            right = self._load(right_block)
            if len(right.entries) > self._min_keys():
                child, right, parent = self._borrow_from_right(parent, index, child, right)
                self._save(right_block, right)
                self._save(child_block, child)
                self._save(parent_block, parent)
                return
        # Merge with a sibling.
        if index > 0:
            self._merge_children(parent_block, parent, index - 1)
        else:
            self._merge_children(parent_block, parent, index)

    @staticmethod
    def _borrow_from_left(
        parent: _Node, index: int, left: _Node, child: _Node
    ) -> Tuple[_Node, _Node, _Node]:
        """The new ``(left, child, parent)`` once left's last entry moved."""
        last = len(left.entries) - 1
        up = left.keys[last]
        if child.is_leaf:
            child = child.spliced(0, 0, (up,), (left.entries[last],))
        else:
            # rotate: the parent's separator comes down over the child's old
            # first pointer, left's last key goes up, its child comes across
            down = parent.keys[index - 1]
            child = _Node(
                False, left.child(last + 1),
                (down,) + child.keys,
                (_internal_entry(down, child.pointer),) + child.entries,
            )
        left = _Node(left.is_leaf, left.pointer, left.keys[:last], left.entries[:last])
        return left, child, parent.rekeyed(index - 1, up)

    @staticmethod
    def _borrow_from_right(
        parent: _Node, index: int, child: _Node, right: _Node
    ) -> Tuple[_Node, _Node, _Node]:
        """The new ``(child, right, parent)`` once right's first entry moved."""
        if child.is_leaf:
            child = child.spliced(len(child.keys), 0, right.keys[:1], right.entries[:1])
            pointer, up = right.pointer, right.keys[1]
        else:
            # rotate: the parent's separator comes down over right's first
            # pointer, right's first key goes up
            down = parent.keys[index]
            child = child.spliced(
                len(child.keys), 0, (down,), (_internal_entry(down, right.pointer),)
            )
            pointer, up = right.child(1), right.keys[0]
        right = _Node(right.is_leaf, pointer, right.keys[1:], right.entries[1:])
        return child, right, parent.rekeyed(index, up)

    def _merge_children(self, parent_block: int, parent: _Node, left_index: int) -> None:
        left_block = parent.child(left_index)
        right_block = parent.child(left_index + 1)
        left = self._load(left_block)
        right = self._load(right_block)
        if left.is_leaf:
            merged = _Node(True, right.pointer, left.keys + right.keys, left.entries + right.entries)
        else:
            down = parent.keys[left_index]
            merged = _Node(
                False, left.pointer,
                left.keys + (down,) + right.keys,
                left.entries + (_internal_entry(down, right.pointer),) + right.entries,
            )
        self._save(left_block, merged)
        self._save(parent_block, parent.spliced(left_index, 1))
        self.pool.free_page(right_block)

    # ------------------------------------------------------------ traversal --

    def _find_leaf(self, key: int) -> int:
        block_no = self.root_block
        node = self._load(block_no)
        while not node.is_leaf:
            block_no = node.child(bisect_right(node.keys, key))
            node = self._load(block_no)
        return block_no

    def _leftmost_leaf(self) -> int:
        block_no = self.root_block
        node = self._load(block_no)
        while not node.is_leaf:
            block_no = node.pointer
            node = self._load(block_no)
        return block_no

    def _predecessor_leaf(self, leaf_block: int) -> Optional[int]:
        previous = None
        current = self._leftmost_leaf()
        while current != leaf_block:
            node = self._load(current)
            previous = current
            current = node.next_leaf
            if current is None:
                raise StorageError("leaf chain is broken (bug)")
        return previous

    def block_numbers(self) -> List[int]:
        """Every block this tree occupies (root-first walk).

        The scrubber uses this to know which device blocks belong to the
        index chain; unlike :meth:`items` it visits internal nodes too.
        """
        out: List[int] = []
        stack = [self.root_block]
        while stack:
            block_no = stack.pop()
            out.append(block_no)
            node = self._load(block_no)
            if not node.is_leaf:
                stack.extend(reversed(node.children))
        return out

    def _free_subtree(self, block_no: int, keep_root: bool = False) -> None:
        node = self._load(block_no)
        if not node.is_leaf:
            for child in node.children:
                self._free_subtree(child)
        if not keep_root:
            self.pool.free_page(block_no)

    # ------------------------------------------------------------ integrity --

    def check_integrity(self) -> None:
        """Verify ordering, balance and leaf-chain consistency (test aid)."""
        leaves: List[int] = []
        self._check_node(self.root_block, None, None, leaves, is_root=True)
        # the leaf chain must visit exactly the leaves, left to right
        chained = []
        current: Optional[int] = self._leftmost_leaf()
        while current is not None:
            chained.append(current)
            current = self._load(current).next_leaf
        if chained != leaves:
            raise StorageError(f"leaf chain {chained} != tree leaves {leaves}")

    def _check_node(
        self,
        block_no: int,
        low: Optional[int],
        high: Optional[int],
        leaves: List[int],
        is_root: bool = False,
        depth: int = 0,
        leaf_depth: Optional[List[int]] = None,
    ) -> None:
        if leaf_depth is None:
            leaf_depth = []
        node = self._load(block_no)
        keys = node.keys
        for left, right in zip(keys, keys[1:]):
            if not left < right:
                raise StorageError(f"keys out of order in block {block_no}")
        if low is not None and keys and keys[0] < low:
            raise StorageError(f"key below lower bound in block {block_no}")
        if high is not None and keys and not keys[-1] < high:
            raise StorageError(f"key at/above upper bound in block {block_no}")
        if not is_root and len(keys) < self._min_keys() and not node.is_leaf:
            raise StorageError(f"underfull internal node {block_no}")
        if node.is_leaf:
            if leaf_depth and depth != leaf_depth[0]:
                raise StorageError("leaves at differing depths")
            leaf_depth.append(depth)
            leaves.append(block_no)
            return
        bounds = [low, *keys, high]
        for child, (lo, hi) in zip(node.children, zip(bounds, bounds[1:])):
            self._check_node(child, lo, hi, leaves, depth=depth + 1, leaf_depth=leaf_depth)
