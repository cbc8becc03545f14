"""Physical token placement: the storage model of §3.3/§4.4.

Tokens live as one record each in a :class:`~repro.storage.heap.ChainedFile`;
document order is the chain order.  :class:`TokenLayout` is the single
place that mutates the chain on behalf of the store, because every
physical move must be mirrored in range bookkeeping:

* when a block is **split**, ranges *starting* in the moved tail get a new
  start position;
* when records are **deleted**, later slots in the same block shift left,
  so surviving range starts in that block are shifted;
* **insertions** are engineered to never move existing records: the insert
  point is first turned into a block boundary (via a split), after which
  new records only ever fill tail free space or brand-new blocks.

A range's ``start`` is the only physical coordinate anything remembers:
:meth:`TokenLayout.position_of` derives every other position from it and
the chain's in-memory block counts, so neither move invalidates anything.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import StoreError
from repro.storage.buffer import BufferPool
from repro.storage.heap import ChainedFile, Position
from repro.core.ranges import RangeMeta, RangeTable


class InsertResult:
    """Outcome of a physical insertion."""

    __slots__ = ("positions", "following")

    def __init__(self, positions: List[Position], following: Optional[Position]) -> None:
        #: Positions of the inserted records, in document order.
        self.positions = positions
        #: New position of the record that the insertion displaced (the one
        #: previously *at* the insert point); None when appending at the end.
        self.following = following

    @property
    def first(self) -> Position:
        return self.positions[0]


class TokenLayout:
    """Mediates all physical chain mutations, keeping ranges consistent."""

    def __init__(
        self,
        pool: BufferPool,
        ranges: RangeTable,
        chain: Optional[ChainedFile] = None,
    ) -> None:
        self.pool = pool
        self.ranges = ranges
        self.chain = chain if chain is not None else ChainedFile(pool)

    # -- reading ------------------------------------------------------------------

    def iter_from(
        self, start: Optional[Position] = None
    ) -> Iterator[Tuple[Position, bytes]]:
        """Iterate (position, record) in document order from ``start``."""
        return self.chain.records(start=start)

    def runs_from(
        self, start: Optional[Position] = None
    ) -> Iterator[Tuple[int, int, List[bytes]]]:
        """Iterate ``(block_no, first_slot, page_records)`` runs in document
        order from ``start`` (see :meth:`ChainedFile.record_runs`)."""
        return self.chain.record_runs(start=start)

    def record_at(self, pos: Position) -> bytes:
        return self.chain.read_record(pos)

    def position_of(self, meta: RangeMeta, offset: int) -> Position:
        """Where token ``offset`` of range ``meta`` lives: ``meta.start``
        advanced over the chain's block counts (no page is touched)."""
        return self.chain.advance(meta.start, offset)

    def blocks_of(self, meta: RangeMeta) -> List[int]:
        """The blocks holding ``meta``'s tokens, in chain order."""
        if not meta.token_count:
            return []
        last = self.position_of(meta, meta.token_count - 1).block_no
        blocks = [meta.start.block_no]
        while blocks[-1] != last:
            blocks.append(self.chain.next_block(blocks[-1]))
        return blocks

    @property
    def is_empty(self) -> bool:
        return self.chain.head is None

    # -- insertion -----------------------------------------------------------------

    def insert_before(
        self,
        pos: Optional[Position],
        records: Sequence[bytes],
        meta: Optional[RangeMeta] = None,
    ) -> InsertResult:
        """Insert ``records`` immediately before the record at ``pos``,
        a token of range ``meta``.

        ``pos=None`` appends at the end of the document.  Existing records
        never move except for the single block split needed when ``pos``
        is in the middle of a block; the split's relocations are accounted
        against the range table before this method returns.
        """
        if not records:
            raise StoreError("insert_before called with no records")
        if self.chain.head is None:
            first_block = self.chain.append_block()
            positions = self.chain.append_after(first_block, records)
            return InsertResult(positions, None)
        if pos is None:
            tail = self.chain.tail
            assert tail is not None
            positions = self.chain.append_after(tail, records)
            return InsertResult(positions, None)
        block_no, slot = pos
        if slot == 0:
            return self._insert_at_block_front(block_no, records)
        following = self._make_boundary(block_no, slot, meta)
        positions = self.chain.append_after(block_no, records)
        return InsertResult(positions, following)

    def _insert_at_block_front(
        self, block_no: int, records: Sequence[bytes]
    ) -> InsertResult:
        """Insert before slot 0 of a block: fill the predecessor's tail (or
        fresh blocks spliced before); the displaced record never moves."""
        prev = self.chain.prev_block(block_no)
        if prev is None:
            prev = self.chain.insert_block_before(block_no)
        positions = self.chain.append_after(prev, records)
        return InsertResult(positions, Position(block_no, 0))

    def _make_boundary(self, block_no: int, slot: int, meta: RangeMeta) -> Position:
        """Split ``block_no`` at ``slot`` (a token of ``meta``) so the insert
        point becomes the end of the block; returns the new position of the
        displaced record and fixes the start of every range that began in
        the moved tail."""
        new_block = self.chain.split_block(block_no, slot)
        # those ranges are consecutive in document order: ``meta`` itself if
        # the split point is its first token, then its successors
        index = self.ranges.order_index(meta.range_id)
        if meta.start != (block_no, slot):
            index += 1
        self._shift_starts(index, block_no, new_block, slot)
        return Position(new_block, 0)

    def _shift_starts(self, first: int, block_no: int, to_block: int, by: int) -> None:
        """Ranges from document-order index ``first`` on that start in
        ``block_no`` now start ``by`` slots earlier, in ``to_block``."""
        ranges = self.ranges
        for index in range(first, len(ranges)):
            meta = ranges.at_order(index)
            if meta.start.block_no != block_no:
                break
            meta.start = Position(to_block, meta.start.slot - by)

    # -- deletion -------------------------------------------------------------------

    def delete_run(
        self, start: Position, count: int, following: Optional[RangeMeta]
    ) -> Optional[Position]:
        """Delete ``count`` consecutive records starting at ``start``.

        Returns the (new) position of the first surviving record after the
        run, or None if the run reached the end of the document.  Shifts
        the starts of the ranges that begin after the run in its last block
        — ``following``, the first range wholly after the run (None: there
        is none), and its successors; range starts *inside* the deleted
        run, and that of a range whose front the run removed, are the
        caller's responsibility (it knows which ranges the run covered).
        """
        if count <= 0:
            raise StoreError(f"delete_run of {count} records")
        remaining = count
        block_no: Optional[int] = start.block_no
        slot = start.slot
        after: Optional[Position] = None
        while remaining > 0:
            if block_no is None:
                raise StoreError("delete_run ran past the end of the chain")
            available = self.chain.block_record_count(block_no) - slot
            if available < 0:
                raise StoreError(f"delete_run start slot {slot} out of range")
            take = min(remaining, available)
            for _ in range(take):
                self.chain.delete_record(Position(block_no, slot))
            remaining -= take
            next_block = self.chain.next_block(block_no)
            if remaining == 0 and following is not None:
                # only the run's last block has survivors after the run
                first = self.ranges.order_index(following.range_id)
                self._shift_starts(first, block_no, block_no, take)
            left = self.chain.block_record_count(block_no)
            if left == 0:
                self.chain.remove_block(block_no)
            elif remaining == 0 and slot < left:
                after = Position(block_no, slot)
                break
            if remaining == 0:
                after = Position(next_block, 0) if next_block is not None else None
                break
            block_no = next_block
            slot = 0
        return after

    # -- integrity ---------------------------------------------------------------------

    def total_records(self) -> int:
        return sum(1 for _ in self.chain.records())

    def check_integrity(self) -> None:
        """The ranges must tile the chain exactly, in document order."""
        self.chain.check_integrity()
        expected = self.total_records()
        total = 0
        cursor = iter(self.chain.records())
        for meta in self.ranges.in_order():
            if meta.token_count == 0:
                continue
            try:
                first_pos, _ = next(cursor)
            except StopIteration:
                raise StoreError(f"chain ended before {meta!r}") from None
            if first_pos != meta.start:
                raise StoreError(
                    f"{meta!r} starts at {tuple(meta.start)} but chain cursor "
                    f"is at {tuple(first_pos)}"
                )
            for _ in range(meta.token_count - 1):
                try:
                    next(cursor)
                except StopIteration:
                    raise StoreError(f"chain ended inside {meta!r}") from None
            total += meta.token_count
        if total != expected:
            raise StoreError(
                f"ranges cover {total} records, chain holds {expected}"
            )
        self.ranges.check_integrity()
