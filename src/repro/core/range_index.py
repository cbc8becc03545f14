"""The coarse Range Index (paper §4.3): id interval → range.

One entry per range — *not* per node.  The index maps a range's
``start_id`` to its ``range_id``; because ranges' id intervals are
disjoint, the floor lookup (largest ``start_id <= node_id``) names the
only candidate range, and the range's ``end_id`` confirms coverage.

The index lives in a paged B+-tree on the same buffer pool as the data,
so its maintenance cost is charged to the same simulated clock — a few
entries per *insert operation* instead of one per *node*, which is the
whole point (§4.1: "fewer entries are inserted to the range index — a big
step forward in comparison to the full index approach").

The entries are kept by :class:`~repro.core.ranges.RangeTable`, whose verbs
are the only callers of ``register``/``unregister``/``rekey``.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional, Tuple

from repro.core.ranges import RangeMeta, RangeTable
from repro.index.bptree import INT_KEY_CODEC, PagedBPlusTree
from repro.obs.events import NOOP_EVENT_LOG
from repro.storage.buffer import BufferPool

_VALUE = struct.Struct("<q")


class RangeIndex:
    """start_id -> range_id over a paged B+-tree."""

    def __init__(
        self, pool: BufferPool, order: int = 64, root_block: Optional[int] = None
    ) -> None:
        self._tree: PagedBPlusTree[int] = PagedBPlusTree(
            pool, INT_KEY_CODEC, order=order, root_block=root_block
        )
        self.lookups = 0
        #: Structured event log (no-op unless the store attaches one).
        self.event_log = NOOP_EVENT_LOG

    @property
    def root_block(self) -> int:
        return self._tree.root_block

    def register(self, meta: RangeMeta) -> None:
        """Index a range's interval (no-op for empty intervals)."""
        if meta.has_interval:
            assert meta.start_id is not None
            self._tree.insert(meta.start_id, _VALUE.pack(meta.range_id))

    def unregister(self, start_id: Optional[int]) -> None:
        """Drop the entry keyed by ``start_id`` (no-op for None)."""
        if start_id is not None:
            self._tree.delete(start_id)

    def rekey(self, old_start_id: Optional[int], meta: RangeMeta) -> None:
        """A range's interval changed its start, or emptied: move its entry,
        or drop it."""
        if old_start_id is not None and old_start_id != meta.start_id:
            self._tree.delete(old_start_id)
        self.register(meta)

    def locate(self, node_id: int, ranges: RangeTable) -> Optional[RangeMeta]:
        """The paper's ``rangeIndexLocate: {ID} -> {R}``: the range whose
        interval covers ``node_id``, or None."""
        self.lookups += 1
        item = self._tree.floor_item(node_id)
        meta: Optional[RangeMeta] = None
        if item is not None:
            _, value = item
            (range_id,) = _VALUE.unpack(value)
            if range_id in ranges:
                candidate = ranges.get(range_id)
                if candidate.covers(node_id):
                    meta = candidate
        if self.event_log.enabled:
            self.event_log.emit(
                "range_index",
                "locate",
                node_id=node_id,
                range_id=meta.range_id if meta is not None else None,
                start_id=meta.start_id if meta is not None else None,
                end_id=meta.end_id if meta is not None else None,
            )
        return meta

    def entries(self) -> Iterator[Tuple[int, int]]:
        """(start_id, range_id) pairs in id order (for reports/tests)."""
        for key, value in self._tree.items():
            yield key, _VALUE.unpack(value)[0]

    def __len__(self) -> int:
        return len(self._tree)

    def check_integrity(self, ranges: RangeTable) -> None:
        """Every non-empty range indexed exactly once, and vice versa."""
        from repro.errors import StoreError

        indexed = dict(self.entries())
        expected = {
            meta.start_id: meta.range_id
            for meta in ranges.in_order()
            if meta.has_interval
        }
        if indexed != expected:
            raise StoreError(
                f"range index {indexed} disagrees with table {expected}"
            )
        self._tree.check_integrity()
