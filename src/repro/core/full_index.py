"""The full-index baseline (paper §4.1): every node id indexed eagerly.

"The advantages of a full index are the ability to quickly locate nodes.
However, a full index has two main disadvantages: (a) inserts are
expensive, and (b) storage requirements are very high."

The full index is a disk-based B+-tree (same buffer pool, same simulated
clock as everything else) mapping every node id to the logical address of
its begin token (see :mod:`repro.core.ranges`).  Inserting N nodes costs N
tree insertions — that is the cost Table 5 row 1 pays.  An address survives
every split and unrelated update, so the only entries that stop resolving
are those compaction merged away and those written in the older
position-based format; both are repaired on access by falling back to a
range scan.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional

from repro.core.partial_index import LocationEntry
from repro.core.ranges import RangeTable
from repro.index.bptree import PagedBPlusTree
from repro.obs.events import EventLog
from repro.storage.buffer import BufferPool

_ENTRY = struct.Struct("<qq")  # origin, address


def _decode(node_id: int, value: bytes) -> Optional[LocationEntry]:
    """A value of any other length (the 40-byte range/version/position
    form of older stores) is never decoded: it reads as stale."""
    if len(value) != _ENTRY.size:
        return None
    return LocationEntry(node_id, *_ENTRY.unpack(value))


class FullIndex:
    """node_id -> (origin, address) over a B+-tree."""

    def __init__(
        self, pool: BufferPool, order: int = 64, root_block: Optional[int] = None
    ) -> None:
        self._tree = PagedBPlusTree(pool, order=order, root_block=root_block)
        self.lookups = 0
        self.stale_lookups = 0
        #: Structured event log (disabled until the store attaches its own).
        self.event_log = EventLog(enabled=False)

    @property
    def root_block(self) -> int:
        return self._tree.root_block

    def put(self, node_id: int, origin: int, address: int) -> None:
        self._tree.insert(node_id, _ENTRY.pack(origin, address))

    def lookup(self, node_id: int, ranges: RangeTable) -> Optional[LocationEntry]:
        """The entry for ``node_id`` if it still resolves; stale entries
        return None (the caller re-locates by scan and calls :meth:`put`
        to repair)."""
        self.lookups += 1
        value = self._tree.get(node_id)
        entry = None if value is None else _decode(node_id, value)
        if entry is not None and ranges.resolve(entry.origin, entry.address) is None:
            entry = None
        if entry is None and value is not None:
            self.stale_lookups += 1
        if self.event_log.enabled:
            outcome = "hit" if entry else "miss" if value is None else "stale"
            self.event_log.emit("full_index", "probe",
                                node_id=node_id, outcome=outcome)
        return entry

    def remove(self, node_id: int) -> bool:
        return self._tree.delete(node_id)

    def remove_interval(self, low: int, high: int) -> int:
        """Remove every entry with ``low <= node_id <= high`` (bulk path
        for deleted subtrees); returns how many were removed."""
        doomed = [node_id for node_id, _ in self._tree.items(low=low, high=high)]
        for node_id in doomed:
            self._tree.delete(node_id)
        return len(doomed)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._tree

    def __len__(self) -> int:
        return len(self._tree)

    def entries(self) -> Iterator[LocationEntry]:
        """Every entry of the current format, in id order."""
        for node_id, value in self._tree.items():
            entry = _decode(node_id, value)
            if entry is not None:
                yield entry
