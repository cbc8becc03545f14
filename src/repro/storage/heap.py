"""Chained block files: the document-order backbone of the store.

The paper's storage model (§3.3, §4.4) keeps token records "serialized in
sequential blocks/pages, in document order", with document order preserved
"through the chaining of blocks and through the ordering of ranges inside
blocks".  :class:`ChainedFile` implements exactly that substrate: a doubly
linked chain of slotted-page blocks where

* the chain order of blocks, and
* the slot order of records inside each block

together define one global, totally ordered sequence of records.  New
blocks can be spliced in anywhere, and a block can be *split* at a slot
boundary (moving its tail records into a fresh successor block) so that
records can be inserted into the middle of the sequence.

Chain links are kept in memory and serialized via :meth:`ChainedFile.to_catalog`
into the store's catalog, which the store persists and WAL-logs; the blocks
themselves are persisted through the buffer pool.  The chain also keeps each
block's record count in memory (never persisted: a reopened chain learns a
block's count the first time it is asked), so a position "``n`` records after
this one" is arithmetic over the links, not a walk over pages.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import BlockNotFoundError, PageFullError, StorageError
from repro.storage.buffer import BufferPool, PageGuard


class Position(NamedTuple):
    """A record position: block number + slot index inside that block."""

    block_no: int
    slot: int


class _Link(NamedTuple):
    prev: Optional[int]
    next: Optional[int]


_CATALOG_ENTRY = struct.Struct("<qqq")  # block_no, prev(-1=None), next(-1=None)
_CATALOG_HEADER = struct.Struct("<qqI")  # head(-1), tail(-1), count


class ChainedFile:
    """A doubly linked chain of slotted-page blocks over a buffer pool."""

    def __init__(self, pool: BufferPool) -> None:
        self.pool = pool
        self._links: Dict[int, _Link] = {}
        #: block_no -> records in the block, for every block this chain has
        #: created or looked at; every mutation below keeps it equal to
        #: ``len(page)``.
        self._counts: Dict[int, int] = {}
        self.head: Optional[int] = None
        self.tail: Optional[int] = None

    # -- chain structure ----------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return len(self._links)

    def contains_block(self, block_no: int) -> bool:
        return block_no in self._links

    def next_block(self, block_no: int) -> Optional[int]:
        return self._link(block_no).next

    def prev_block(self, block_no: int) -> Optional[int]:
        return self._link(block_no).prev

    def blocks(self) -> Iterator[int]:
        """Iterate block numbers in chain (document) order."""
        current = self.head
        while current is not None:
            yield current
            current = self._links[current].next

    def append_block(self) -> int:
        """Add a fresh empty block at the end of the chain."""
        if self.tail is None:
            return self._first_block()
        return self.insert_block_after(self.tail)

    def insert_block_after(self, block_no: int) -> int:
        """Splice a fresh empty block right after ``block_no``."""
        link = self._link(block_no)
        with self.pool.new_page() as guard:
            new_no = guard.block_no
            guard.mark_dirty()
        self._links[new_no] = _Link(prev=block_no, next=link.next)
        self._counts[new_no] = 0
        self._links[block_no] = _Link(prev=link.prev, next=new_no)
        if link.next is not None:
            after = self._links[link.next]
            self._links[link.next] = _Link(prev=new_no, next=after.next)
        else:
            self.tail = new_no
        return new_no

    def insert_block_before(self, block_no: int) -> int:
        """Splice a fresh empty block right before ``block_no``."""
        link = self._link(block_no)
        if link.prev is not None:
            return self.insert_block_after(link.prev)
        with self.pool.new_page() as guard:
            new_no = guard.block_no
            guard.mark_dirty()
        self._links[new_no] = _Link(prev=None, next=block_no)
        self._counts[new_no] = 0
        self._links[block_no] = _Link(prev=new_no, next=link.next)
        self.head = new_no
        return new_no

    def remove_block(self, block_no: int) -> None:
        """Unlink ``block_no`` from the chain and free it."""
        self.unlink_block(block_no)
        self.pool.free_page(block_no)

    def unlink_block(self, block_no: int) -> None:
        """Re-chain around ``block_no`` without reading or freeing it.

        The repair path (:mod:`repro.core.repair`) uses this to route the
        chain around a *dead* (checksum-failing) block: the block's page
        cannot be fetched and its device image must stay untouched until
        repair decides what to do with it, so neither the
        :meth:`remove_block` free nor any page access is acceptable.
        """
        link = self._link(block_no)
        if link.prev is not None:
            before = self._links[link.prev]
            self._links[link.prev] = _Link(prev=before.prev, next=link.next)
        else:
            self.head = link.next
        if link.next is not None:
            after = self._links[link.next]
            self._links[link.next] = _Link(prev=link.prev, next=after.next)
        else:
            self.tail = link.prev
        del self._links[block_no]
        self._counts.pop(block_no, None)

    def _first_block(self) -> int:
        with self.pool.new_page() as guard:
            block_no = guard.block_no
            guard.mark_dirty()
        self._links[block_no] = _Link(prev=None, next=None)
        self._counts[block_no] = 0
        self.head = self.tail = block_no
        return block_no

    def _link(self, block_no: int) -> _Link:
        try:
            return self._links[block_no]
        except KeyError:
            raise BlockNotFoundError(f"block {block_no} is not in this chain") from None

    # -- record-level operations ---------------------------------------------

    def fetch(self, block_no: int) -> PageGuard:
        if block_no not in self._links:
            raise BlockNotFoundError(f"block {block_no} is not in this chain")
        return self.pool.fetch(block_no)

    def read_record(self, pos: Position) -> bytes:
        with self.fetch(pos.block_no) as guard:
            return guard.page.record(pos.slot)

    def block_record_count(self, block_no: int) -> int:
        """Records in ``block_no``, from memory; only a block of a reopened
        chain that nothing has asked about yet costs a page fetch, once."""
        count = self._counts.get(block_no)
        if count is None:
            with self.fetch(block_no) as guard:
                count = self._counts[block_no] = len(guard.page)
        return count

    def advance(self, pos: Position, distance: int) -> Position:
        """The position ``distance`` records after ``pos`` in document
        order, by arithmetic over the block counts (no page is touched)."""
        block_no, slot = pos
        slot += distance
        counts, links = self._counts, self._links
        while True:
            count = counts.get(block_no)
            if count is None:
                count = self.block_record_count(block_no)
            if slot < count:
                return Position(block_no, slot)
            slot -= count
            block_no = links[block_no].next
            if block_no is None:
                raise StorageError(
                    f"no record {distance} after {tuple(pos)}: the chain ends first"
                )

    def record_runs(
        self, start: Optional[Position] = None
    ) -> Iterator[Tuple[int, int, List[bytes]]]:
        """Iterate the chain block by block from ``start`` (inclusive) as
        ``(block_no, first_slot, page_records)``: the block's records in
        document order are ``page_records[first_slot:]``.

        Each block is fetched only when the walk reaches it, and
        ``page_records`` is a copy of the page's slot list, so callers may
        mutate the chain between runs.
        """
        if self.head is None:
            return
        if start is None:
            block_no: Optional[int] = self.head
            first_slot = 0
        else:
            block_no, first_slot = start
        while block_no is not None:
            with self.fetch(block_no) as guard:
                page_records = guard.page.records()
            yield block_no, first_slot, page_records
            first_slot = 0
            block_no = self._links[block_no].next

    def records(self, start: Optional[Position] = None) -> Iterator[Tuple[Position, bytes]]:
        """Iterate ``(position, record)`` pairs in document order.

        ``start`` restricts iteration to begin at that position (inclusive).
        """
        for block_no, first_slot, page_records in self.record_runs(start):
            for slot in range(first_slot, len(page_records)):
                yield Position(block_no, slot), page_records[slot]

    def split_block(self, block_no: int, slot: int) -> int:
        """Split a block at ``slot``: records ``[slot:]`` move into a fresh
        block chained right after.  Returns the new block number.
        """
        new_no = self.insert_block_after(block_no)
        with self.fetch(block_no) as source, self.fetch(new_no) as target:
            tail = source.page.split(slot)
            target.page.extend(tail.records())
            source.mark_dirty()
            target.mark_dirty()
            self._counts[block_no] = len(source.page)
            self._counts[new_no] = len(target.page)
        return new_no

    def insert_records(self, pos: Position, records: Sequence[bytes]) -> List[Position]:
        """Insert ``records`` so the first lands *at* ``pos``.

        Existing records at and after ``pos`` keep following the inserted
        run in document order.  ``pos.slot`` may equal the block's record
        count, meaning "after the last record of the block".  Blocks are
        split and allocated as needed.  Returns the positions of the
        inserted records (in order).
        """
        if not records:
            return []
        block_no, slot = pos
        with self.fetch(block_no) as guard:
            record_count = len(guard.page)
        if not 0 <= slot <= record_count:
            raise StorageError(
                f"insert slot {slot} out of range 0..{record_count} in block {block_no}"
            )
        # If the insert point is mid-block and the whole run does not fit,
        # split the block so we can append freely into the gap.
        if slot < record_count:
            need = sum(len(r) + 2 for r in records)
            with self.fetch(block_no) as guard:
                fits = guard.page.free_space + 2 >= need
            if not fits:
                self.split_block(block_no, slot)
        positions: List[Position] = []
        current = block_no
        insert_at = slot
        for record in records:
            current, insert_at = self._insert_one(current, insert_at, record)
            positions.append(Position(current, insert_at))
            insert_at += 1
        return positions

    def _insert_one(self, block_no: int, slot: int, record: bytes) -> Tuple[int, int]:
        """Insert one record at (block_no, slot), splitting/allocating as
        needed; returns where it actually landed."""
        with self.fetch(block_no) as guard:
            if guard.page.fits(record):
                guard.page.insert(slot, record)
                guard.mark_dirty()
                self._counts[block_no] = len(guard.page)
                return block_no, slot
            record_count = len(guard.page)
        if slot < record_count:
            # Mid-block and full: move the tail away, then retry at the gap.
            self.split_block(block_no, slot)
            with self.fetch(block_no) as guard:
                if guard.page.fits(record):
                    guard.page.insert(slot, record)
                    guard.mark_dirty()
                    self._counts[block_no] = len(guard.page)
                    return block_no, slot
        # Appending at the end of a full block: go to (or create) a block
        # after it and insert at its front.
        next_no = self.insert_block_after(block_no)
        with self.fetch(next_no) as guard:
            guard.page.insert(0, record)
            guard.mark_dirty()
        self._counts[next_no] = 1
        return next_no, 0

    def append_records(self, records: Sequence[bytes]) -> List[Position]:
        """Append records at the end of the chain (bulk load path)."""
        if self.tail is None:
            self.append_block()
        assert self.tail is not None
        with self.fetch(self.tail) as guard:
            end = len(guard.page)
        return self.insert_records(Position(self.tail, end), records)

    def append_after(self, block_no: int, records: Sequence[bytes]) -> List[Position]:
        """Append ``records`` into ``block_no``'s tail free space, then into
        fresh blocks chained right after it, in order; no existing record
        moves.  Returns the positions of the appended records."""
        positions: List[Position] = []
        current = block_no
        for record in records:
            with self.fetch(current) as guard:
                if guard.page.fits(record):
                    slot = guard.page.append(record)
                    guard.mark_dirty()
                    self._counts[current] = slot + 1
                    positions.append(Position(current, slot))
                    continue
            current = self.insert_block_after(current)
            with self.fetch(current) as guard:
                # raises RecordTooLargeError for records that can never fit
                slot = guard.page.append(record)
                guard.mark_dirty()
            self._counts[current] = slot + 1
            positions.append(Position(current, slot))
        return positions

    def delete_record(self, pos: Position) -> bytes:
        """Delete the record at ``pos`` (later slots shift left).  Empty
        blocks are *not* removed automatically; callers decide."""
        with self.fetch(pos.block_no) as guard:
            record = guard.page.delete(pos.slot)
            guard.mark_dirty()
            self._counts[pos.block_no] = len(guard.page)
        return record

    def replace_record(self, pos: Position, record: bytes) -> None:
        """Replace the record at ``pos``; splits the block if it no longer
        fits."""
        try:
            with self.fetch(pos.block_no) as guard:
                guard.page.replace(pos.slot, record)
                guard.mark_dirty()
                return
        except PageFullError:
            pass
        self.delete_record(pos)
        self.insert_records(pos, [record])

    # -- catalog serialization ------------------------------------------------

    def to_catalog(self) -> bytes:
        """Serialize the chain structure (not the block contents)."""
        head = -1 if self.head is None else self.head
        tail = -1 if self.tail is None else self.tail
        parts = [_CATALOG_HEADER.pack(head, tail, len(self._links))]
        for block_no, link in self._links.items():
            parts.append(
                _CATALOG_ENTRY.pack(
                    block_no,
                    -1 if link.prev is None else link.prev,
                    -1 if link.next is None else link.next,
                )
            )
        return b"".join(parts)

    @classmethod
    def from_catalog(cls, pool: BufferPool, data: bytes) -> "ChainedFile":
        chain = cls(pool)
        head, tail, count = _CATALOG_HEADER.unpack_from(data, 0)
        chain.head = None if head == -1 else head
        chain.tail = None if tail == -1 else tail
        offset = _CATALOG_HEADER.size
        for _ in range(count):
            block_no, prev, nxt = _CATALOG_ENTRY.unpack_from(data, offset)
            offset += _CATALOG_ENTRY.size
            chain._links[block_no] = _Link(
                prev=None if prev == -1 else prev,
                next=None if nxt == -1 else nxt,
            )
        return chain

    # -- integrity ------------------------------------------------------------

    def check_integrity(self) -> None:
        """Verify the chain is a consistent doubly linked list (test aid)."""
        seen = set()
        current = self.head
        prev = None
        while current is not None:
            if current in seen:
                raise StorageError(f"cycle at block {current}")
            seen.add(current)
            link = self._links[current]
            if link.prev != prev:
                raise StorageError(
                    f"block {current} has prev={link.prev}, expected {prev}"
                )
            prev = current
            current = link.next
        if prev != self.tail:
            raise StorageError(f"tail is {self.tail}, chain ends at {prev}")
        if len(seen) != len(self._links):
            raise StorageError(
                f"{len(self._links) - len(seen)} blocks unreachable from head"
            )
