"""A paged B+-tree over the buffer pool.

This is the ordered-index substrate under both the coarse Range Index and
the full-index baseline.  In the paper's prototype this role was played by
MySQL's B-trees; building our own — *on the same buffer pool and
instrumented device as the data blocks* — means every index node touch is
charged to the same simulated clock as data I/O, so the cost asymmetry the
paper measures (full index: one index insert per node; range index: one
per range) emerges from first principles.

Each tree node occupies one block.  Keys are arbitrary Python objects
serialized through an order-agnostic codec; ordering uses the *decoded*
keys' natural ``<``, so any totally ordered key type works (ints, tuples,
bytes).  Leaves are chained for range scans.  Deletion rebalances by
borrowing from or merging with siblings, so the tree never degrades.

The tree keeps only its root block number as external state
(:attr:`PagedBPlusTree.root_block`); persist that in a catalog to reopen.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.errors import StorageError
from repro.storage.buffer import BufferPool

K = TypeVar("K")
V = TypeVar("V")

_NODE_HEADER = struct.Struct("<Bq")  # is_leaf, next_leaf / first_child
_KEY_LEN = struct.Struct("<H")
_CHILD = struct.Struct("<q")
_NO_LEAF = -1
#: What a key codec raises on bytes it did not write.
_KEY_DECODE_ERRORS = (struct.error, ValueError, IndexError)


@dataclass(frozen=True)
class KeyCodec(Generic[K]):
    """Order-agnostic key serialization (ordering uses decoded values)."""

    encode: Callable[[K], bytes]
    decode: Callable[[bytes], K]


def _encode_int(value: int) -> bytes:
    return struct.pack("<q", value)


def _decode_int(data: bytes) -> int:
    return struct.unpack("<q", data)[0]


INT_KEY_CODEC: KeyCodec[int] = KeyCodec(encode=_encode_int, decode=_decode_int)


def _encode_int_tuple(value: Tuple[int, ...]) -> bytes:
    return struct.pack(f"<H{len(value)}q", len(value), *value)


def _decode_int_tuple(data: bytes) -> Tuple[int, ...]:
    (count,) = struct.unpack_from("<H", data, 0)
    return struct.unpack_from(f"<{count}q", data, 2)


INT_TUPLE_KEY_CODEC: KeyCodec[Tuple[int, ...]] = KeyCodec(
    encode=_encode_int_tuple, decode=_decode_int_tuple
)

BYTES_KEY_CODEC: KeyCodec[bytes] = KeyCodec(encode=bytes, decode=bytes)


class _Node(Generic[K]):
    """One tree node *as its page stores it*: the header's flag and pointer
    (next leaf, -1 for none / first child) and the entry records, still
    encoded — ``u16 key_len | key | value`` in a leaf, ``u16 key_len | key |
    i64 child`` in an internal node.  Keys, values and child pointers decode
    on demand, so a binary search decodes log2(n) keys and an update splices
    one record; a malformed record raises :class:`StorageError` when touched.
    """

    __slots__ = ("is_leaf", "pointer", "entries", "block_no", "_decode")

    def __init__(self, is_leaf, pointer, entries, decode, block_no=None) -> None:
        self.is_leaf: bool = is_leaf
        self.pointer: int = pointer
        self.entries: List[bytes] = entries
        self.block_no: Optional[int] = block_no  # None until stored
        self._decode: Callable[[bytes], K] = decode

    def _key_end(self, index: int) -> int:
        """Offset just past entry ``index``'s key, checked against the
        record's length (an internal entry ends in exactly 8 child bytes)."""
        record = self.entries[index]
        if len(record) >= _KEY_LEN.size:
            end = _KEY_LEN.size + (record[0] | record[1] << 8)
            rest = len(record) - end
            if (rest >= 0) if self.is_leaf else (rest == _CHILD.size):
                return end
        raise StorageError(f"malformed entry {index} in index block {self.block_no}")

    def key(self, index: int) -> K:
        try:
            return self._decode(
                self.entries[index][_KEY_LEN.size : self._key_end(index)]
            )
        except _KEY_DECODE_ERRORS as error:
            raise StorageError(
                f"undecodable key {index} in index block {self.block_no}: {error}"
            ) from None

    def separator(self, index: int) -> bytes:
        """Entry ``index``'s ``u16 key_len | key`` prefix, ready to be given
        a child pointer — moving a key between nodes never re-encodes it."""
        return self.entries[index][: self._key_end(index)]

    def rekey(self, index: int, separator: bytes) -> None:
        """Internal only: give entry ``index`` a new key, keeping its child."""
        self.entries[index] = separator + self.entries[index][self._key_end(index) :]

    def item(self, index: int) -> Tuple[K, bytes]:
        """Leaf only: the decoded key and the value of entry ``index``."""
        return self.key(index), self.entries[index][self._key_end(index) :]

    def child(self, index: int) -> int:
        """Internal only: child ``index`` of ``len(entries) + 1``."""
        if index == 0:
            return self.pointer
        return _CHILD.unpack_from(self.entries[index - 1], self._key_end(index - 1))[0]

    @property
    def keys(self) -> List[K]:
        return [self.key(index) for index in range(len(self.entries))]

    @property
    def children(self) -> List[int]:
        return [self.child(index) for index in range(len(self.entries) + 1)]

    @property
    def next_leaf(self) -> Optional[int]:
        return None if self.pointer == _NO_LEAF else self.pointer

    def lower_bound(self, key: K) -> int:
        """First index whose key is >= key."""
        lo, hi = 0, len(self.entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.key(mid) < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def upper_bound(self, key: K) -> int:
        """First index whose key is > key."""
        lo, hi = 0, len(self.entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if key < self.key(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo


class PagedBPlusTree(Generic[K]):
    """B+-tree with byte-string values and pluggable key codec.

    ``order`` is the maximum number of keys per node; it must be chosen so
    a full node serializes into one block (checked at write time).
    """

    #: Allocation stream for tree pages: keeps index extents separate from
    #: the data chain's, as a real system's separate index file would.
    INDEX_STREAM = 1

    def __init__(
        self,
        pool: BufferPool,
        key_codec: KeyCodec[K],
        order: int = 64,
        root_block: Optional[int] = None,
        alloc_stream: int = INDEX_STREAM,
    ) -> None:
        if order < 3:
            raise StorageError("B+-tree order must be >= 3")
        self.pool = pool
        self.key_codec = key_codec
        self.order = order
        self.alloc_stream = alloc_stream
        #: entries decoded while loading nodes — the CPU-cost ledger used
        #: by the simulated clock (analogous to tokens scanned).
        self.entries_loaded = 0
        if root_block is None:
            self.root_block = self._new_node(self._node(True, _NO_LEAF, []))
        else:
            self.root_block = root_block

    # ------------------------------------------------------------------ io --

    def _node(self, is_leaf, pointer, entries, block_no=None) -> _Node[K]:
        return _Node(is_leaf, pointer, entries, self.key_codec.decode, block_no)

    def _load(self, block_no: int) -> _Node[K]:
        with self.pool.fetch(block_no) as guard:
            records = guard.page.records()
        if not records or len(records[0]) != _NODE_HEADER.size:
            raise StorageError(f"index block {block_no} has no node header")
        is_leaf_flag, pointer = _NODE_HEADER.unpack(records[0])
        del records[0]
        self.entries_loaded += len(records)
        return self._node(bool(is_leaf_flag), pointer, records, block_no)

    def _save(self, block_no: int, node: _Node[K]) -> None:
        with self.pool.fetch(block_no) as guard:
            self._store(guard, node)

    def _store(self, guard, node: _Node[K]) -> None:
        header = _NODE_HEADER.pack(node.is_leaf, node.pointer)
        guard.page.replace_all([header, *node.entries])
        guard.mark_dirty()

    def _new_node(self, node: _Node[K]) -> int:
        with self.pool.new_page(self.alloc_stream) as guard:
            self._store(guard, node)
            return guard.block_no

    # -------------------------------------------------------------- queries --

    def get(self, key: K) -> Optional[bytes]:
        """The value stored under ``key``, or None."""
        node = self._load(self._find_leaf(key))
        index = node.lower_bound(key)
        if index < len(node.entries):
            found, value = node.item(index)
            if found == key:
                return value
        return None

    def __contains__(self, key: K) -> bool:
        return self.get(key) is not None

    def floor_item(self, key: K) -> Optional[Tuple[K, bytes]]:
        """The entry with the largest key ``<= key`` (the Range Index's
        lookup primitive), or None if every key is greater."""
        block_no = self._find_leaf(key)
        node = self._load(block_no)
        index = node.upper_bound(key) - 1
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

    def ceiling_item(self, key: K) -> Optional[Tuple[K, bytes]]:
        """The entry with the smallest key ``>= key``, or None."""
        node = self._load(self._find_leaf(key))
        index = node.lower_bound(key)
        if index < len(node.entries):
            return node.item(index)
        if node.next_leaf is None:
            return None
        nxt = self._load(node.next_leaf)
        if not nxt.entries:
            return None
        return nxt.item(0)

    def items(
        self, low: Optional[K] = None, high: Optional[K] = None
    ) -> Iterator[Tuple[K, bytes]]:
        """Iterate entries with ``low <= key <= high`` in key order."""
        if low is None:
            block_no: Optional[int] = self._leftmost_leaf()
        else:
            block_no = self._find_leaf(low)
        while block_no is not None:
            node = self._load(block_no)
            # only the first leaf can hold keys below ``low``
            start = 0 if low is None else node.lower_bound(low)
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

    def insert(self, key: K, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        split = self._insert(self.root_block, key, value)
        if split is not None:
            separator, right_block = split
            new_root = self._node(
                False, self.root_block, [separator + _CHILD.pack(right_block)]
            )
            self.root_block = self._new_node(new_root)

    def delete(self, key: K) -> bool:
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
        self._save(self.root_block, self._node(True, _NO_LEAF, []))

    # ----------------------------------------------------------- insertion --

    def _insert(
        self, block_no: int, key: K, value: bytes
    ) -> Optional[Tuple[bytes, int]]:
        """Returns ``(separator, right_block)`` when ``block_no`` split: the
        encoded ``u16 key_len | key`` to add to the parent, and its child."""
        node = self._load(block_no)
        if node.is_leaf:
            index = node.lower_bound(key)
            encoded = self.key_codec.encode(key)
            entry = _KEY_LEN.pack(len(encoded)) + encoded + value
            if index < len(node.entries) and node.key(index) == key:
                node.entries[index] = entry
            else:
                node.entries.insert(index, entry)
            if len(node.entries) > self.order:
                return self._split_leaf(block_no, node)
            self._save(block_no, node)
            return None
        index = node.upper_bound(key)
        split = self._insert(node.child(index), key, value)
        if split is None:
            return None
        separator, right_block = split
        node.entries.insert(index, separator + _CHILD.pack(right_block))
        if len(node.entries) > self.order:
            return self._split_internal(block_no, node)
        self._save(block_no, node)
        return None

    def _split_leaf(self, block_no: int, node: _Node[K]) -> Tuple[bytes, int]:
        half = len(node.entries) // 2
        right = self._node(True, node.pointer, node.entries[half:])
        del node.entries[half:]
        right_block = self._new_node(right)
        node.pointer = right_block
        self._save(block_no, node)
        return right.separator(0), right_block

    def _split_internal(self, block_no: int, node: _Node[K]) -> Tuple[bytes, int]:
        half = len(node.entries) // 2
        separator = node.separator(half)
        right = self._node(False, node.child(half + 1), node.entries[half + 1 :])
        del node.entries[half:]
        right_block = self._new_node(right)
        self._save(block_no, node)
        return separator, right_block

    # ------------------------------------------------------------ deletion --

    def _delete(self, block_no: int, key: K) -> bool:
        node = self._load(block_no)
        if node.is_leaf:
            index = node.lower_bound(key)
            if index >= len(node.entries) or node.key(index) != key:
                return False
            del node.entries[index]
            self._save(block_no, node)
            return True
        index = node.upper_bound(key)
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
                self._borrow_from_left(parent, index, left, child)
                self._save(left_block, left)
                self._save(child_block, child)
                self._save(parent_block, parent)
                return
        # Try borrowing from the right sibling.
        if index < len(parent.entries):
            right_block = parent.child(index + 1)
            right = self._load(right_block)
            if len(right.entries) > self._min_keys():
                self._borrow_from_right(parent, index, child, right)
                self._save(right_block, right)
                self._save(child_block, child)
                self._save(parent_block, parent)
                return
        # Merge with a sibling.
        if index > 0:
            self._merge_children(parent_block, parent, index - 1)
        else:
            self._merge_children(parent_block, parent, index)

    def _borrow_from_left(
        self, parent: _Node[K], index: int, left: _Node[K], child: _Node[K]
    ) -> None:
        if child.is_leaf:
            child.entries.insert(0, left.entries.pop())
            parent.rekey(index - 1, child.separator(0))
        else:
            # rotate: the parent's separator comes down over the child's old
            # first pointer, left's last key goes up, its child comes across
            last = len(left.entries) - 1
            down = parent.separator(index - 1) + _CHILD.pack(child.pointer)
            child.pointer = left.child(last + 1)
            child.entries.insert(0, down)
            parent.rekey(index - 1, left.separator(last))
            del left.entries[last]

    def _borrow_from_right(
        self, parent: _Node[K], index: int, child: _Node[K], right: _Node[K]
    ) -> None:
        if child.is_leaf:
            child.entries.append(right.entries.pop(0))
            parent.rekey(index, right.separator(0))
        else:
            child.entries.append(parent.separator(index) + _CHILD.pack(right.pointer))
            parent.rekey(index, right.separator(0))
            right.pointer = right.child(1)
            del right.entries[0]

    def _merge_children(self, parent_block: int, parent: _Node[K], left_index: int) -> None:
        left_block = parent.child(left_index)
        right_block = parent.child(left_index + 1)
        left = self._load(left_block)
        right = self._load(right_block)
        if left.is_leaf:
            left.pointer = right.pointer
        else:
            left.entries.append(
                parent.separator(left_index) + _CHILD.pack(right.pointer)
            )
        left.entries.extend(right.entries)
        del parent.entries[left_index]
        self._save(left_block, left)
        self._save(parent_block, parent)
        self.pool.free_page(right_block)

    # ------------------------------------------------------------ traversal --

    def _find_leaf(self, key: K) -> int:
        block_no = self.root_block
        node = self._load(block_no)
        while not node.is_leaf:
            block_no = node.child(node.upper_bound(key))
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
        low: Optional[K],
        high: Optional[K],
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
        bounds = [low] + keys + [high]
        for child, (lo, hi) in zip(node.children, zip(bounds, bounds[1:])):
            self._check_node(child, lo, hi, leaves, depth=depth + 1, leaf_depth=leaf_depth)
