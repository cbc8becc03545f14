"""Physical token placement: the storage model of §3.3/§4.4.

Tokens live as one record each in a :class:`~repro.storage.heap.ChainedFile`;
document order is the chain order.  :class:`TokenLayout` is the single
place that mutates the chain on behalf of the store, because every
physical move must be mirrored in range bookkeeping:

* when a block is **split**, ranges *starting* in the moved tail get a new
  start position, and every range resident in the block gets its version
  bumped (cached locations are now stale);
* when records are **deleted**, later slots in the same block shift left,
  so surviving range starts in that block are shifted and residents are
  bumped;
* **insertions** are engineered to never move existing records: the insert
  point is first turned into a block boundary (via a split), after which
  new records only ever fill tail free space or brand-new blocks.

The layout returns the positions of inserted records so the caller can
register residency and (eagerly) index them.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import StoreError
from repro.storage.buffer import BufferPool
from repro.storage.heap import ChainedFile, Position
from repro.core.ranges import RangeTable


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

    @property
    def is_empty(self) -> bool:
        return self.chain.head is None

    # -- insertion -----------------------------------------------------------------

    def insert_before(
        self, pos: Optional[Position], records: Sequence[bytes]
    ) -> InsertResult:
        """Insert ``records`` immediately before the record at ``pos``.

        ``pos=None`` appends at the end of the document.  Existing records
        never move except for the single block split needed when ``pos``
        is in the middle of a block; the split's relocations are accounted
        against the range table before this method returns.
        """
        if not records:
            raise StoreError("insert_before called with no records")
        if self.chain.head is None:
            first_block = self.chain.append_block()
            positions = self._fill_from(first_block, records)
            return InsertResult(positions, None)
        if pos is None:
            tail = self.chain.tail
            assert tail is not None
            positions = self._fill_from(tail, records)
            return InsertResult(positions, None)
        block_no, slot = pos
        if slot == 0:
            return self._insert_at_block_front(block_no, records)
        following = self._make_boundary(block_no, slot)
        positions = self._fill_from(block_no, records)
        return InsertResult(positions, following)

    def _insert_at_block_front(
        self, block_no: int, records: Sequence[bytes]
    ) -> InsertResult:
        """Insert before slot 0 of a block: fill the predecessor's tail (or
        fresh blocks spliced before); the displaced record never moves."""
        prev = self.chain.prev_block(block_no)
        if prev is None:
            prev = self.chain.insert_block_before(block_no)
        positions = self._fill_from(prev, records)
        return InsertResult(positions, Position(block_no, 0))

    def _make_boundary(self, block_no: int, slot: int) -> Position:
        """Split ``block_no`` at ``slot`` so the insert point becomes the
        end of the block; returns the new position of the displaced record
        and performs all relocation accounting."""
        new_block = self.chain.split_block(block_no, slot)
        self.ranges.copy_residents(block_no, new_block)
        # every resident's cached positions may now be wrong
        self.ranges.bump_block(block_no)
        # ranges that *started* in the moved tail get their start fixed
        for range_id in self.ranges.residents(block_no):
            meta = self.ranges.get(range_id)
            if meta.start.block_no == block_no and meta.start.slot >= slot:
                meta.start = Position(new_block, meta.start.slot - slot)
                self.ranges.add_resident(new_block, range_id)
        return Position(new_block, 0)

    def _fill_from(self, anchor_block: int, records: Sequence[bytes]) -> List[Position]:
        """Append records into ``anchor_block``'s tail free space, then
        into fresh blocks chained right after it, in order."""
        positions: List[Position] = []
        current = anchor_block
        for record in records:
            with self.chain.fetch(current) as guard:
                if guard.page.fits(record):
                    slot = guard.page.append(record)
                    guard.mark_dirty()
                    positions.append(Position(current, slot))
                    continue
            current = self.chain.insert_block_after(current)
            with self.chain.fetch(current) as guard:
                # raises RecordTooLargeError for records that can never fit
                slot = guard.page.append(record)
                guard.mark_dirty()
            positions.append(Position(current, slot))
        return positions

    # -- deletion -------------------------------------------------------------------

    def delete_run(self, start: Position, count: int) -> Optional[Position]:
        """Delete ``count`` consecutive records starting at ``start``.

        Returns the (new) position of the first surviving record after the
        run, or None if the run reached the end of the document.  Shifts
        surviving range starts and bumps resident versions; range starts
        *inside* the deleted run are the caller's responsibility (it knows
        which ranges the run covered).
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
            with self.chain.fetch(block_no) as guard:
                available = len(guard.page) - slot
            if available < 0:
                raise StoreError(f"delete_run start slot {slot} out of range")
            take = min(remaining, available)
            for _ in range(take):
                self.chain.delete_record(Position(block_no, slot))
            remaining -= take
            next_block = self.chain.next_block(block_no)
            self.ranges.bump_block(block_no)
            # shift surviving starts in this block left by `take`
            for range_id in list(self.ranges.residents(block_no)):
                meta = self.ranges.get(range_id)
                if meta.start.block_no == block_no and meta.start.slot >= slot + take:
                    meta.start = Position(block_no, meta.start.slot - take)
            with self.chain.fetch(block_no) as guard:
                now_empty = len(guard.page) == 0
            if now_empty:
                self.chain.remove_block(block_no)
                self.ranges.forget_block(block_no)
            elif remaining == 0:
                with self.chain.fetch(block_no) as guard:
                    if slot < len(guard.page):
                        after = Position(block_no, slot)
                        break
            if remaining == 0 and after is None:
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
