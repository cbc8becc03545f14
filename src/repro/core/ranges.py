"""Ranges: the store's analogue of relational records (paper §4.2).

A Range is a sequence of tokens whose size and existence is defined by the
application's usage pattern: every insert operation creates one (or, with
the granularity knob, a few) new range(s), and inserting *into* existing
data splits the enclosing range in two.  Ranges partition the global token
sequence: the concatenation of all ranges in document order is exactly the
chain's record sequence.

:class:`RangeMeta` holds a range's identity, its id interval
``[start_id, end_id]`` (the Range Index key material — ids inside a range
are contiguous and document-ordered because they were allocated densely at
the range's insert), its physical start :class:`~repro.storage.heap.Position`,
its token count, and the *logical address* of its first token: the range it
was first inserted under (``origin``) and its offset there (``lo``).

A token's logical address ``(origin, lo + offset)`` is what an index entry
stores, because nothing that happens to *other* tokens changes it: ranges
only ever shrink or get cut (a cut-off tail is a new range with the same
origin), so the surviving *pieces* of one origin cover disjoint address
intervals and :meth:`RangeTable.resolve` turns an address back into
``(range, offset)`` — or into ``None`` once the token is gone.  Nothing is
versioned and no write invalidates anything (DESIGN.md §10).

:class:`RangeTable` owns all range metadata, the document-order list and the
per-origin piece lists — and every way a range changes shape.  An update is
a sequence of a few verbs (DESIGN.md §11): :meth:`~RangeTable.new_range`,
:meth:`~RangeTable.split` + :meth:`~RangeTable.place`,
:meth:`~RangeTable.truncate`, :meth:`~RangeTable.behead`,
:meth:`~RangeTable.drop` and :meth:`~RangeTable.merge`.  Each keeps a range's
token count, id interval, address piece and Range Index key consistent, so
nothing outside this module assigns those fields or touches the key.
"""

from __future__ import annotations

import struct
from bisect import bisect_right, insort
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.errors import StoreError
from repro.storage.heap import Position

if TYPE_CHECKING:  # range_index imports this module
    from repro.core.range_index import RangeIndex

_META = struct.Struct("<qqqqqqqq")  # id, start_id(-1), end_id(-1), block, slot, count, origin, lo
_HEADER = struct.Struct("<qI")  # next_range_id, count
_LO = attrgetter("lo")


def _interval_after(
    last_id: int, end_id: Optional[int]
) -> Tuple[Optional[int], Optional[int]]:
    """What is left of an interval ending at ``end_id`` past ``last_id``."""
    if end_id is None or last_id >= end_id:
        return None, None
    return last_id + 1, end_id


@dataclass
class RangeMeta:
    """Metadata for one range."""

    range_id: int
    start: Position
    token_count: int
    #: First/last node identifier allocated inside the range; ``None`` for
    #: ranges that contain no node-starting tokens (e.g. a tail of end
    #: tokens produced by a split).
    start_id: Optional[int] = None
    end_id: Optional[int] = None
    #: Logical address of the range's first token: the id of the range its
    #: tokens were first inserted under, and the offset they had there.
    origin: int = 0
    lo: int = 0

    @property
    def has_interval(self) -> bool:
        return self.start_id is not None

    def covers(self, node_id: int) -> bool:
        """Whether ``node_id`` falls in this range's id interval."""
        return (
            self.start_id is not None
            and self.end_id is not None
            and self.start_id <= node_id <= self.end_id
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ids = f"[{self.start_id},{self.end_id}]" if self.has_interval else "[]"
        return (
            f"Range(#{self.range_id} ids={ids} tokens={self.token_count} "
            f"at={tuple(self.start)} addr={self.origin}+{self.lo})"
        )


class RangeTable:
    """All ranges, their document order, and the pieces of each origin."""

    def __init__(self, index: Optional["RangeIndex"] = None) -> None:
        #: The Range Index, kept keyed by every range's ``start_id`` (None:
        #: a bare table, whose verbs do everything but that).
        self.index = index
        self._by_id: Dict[int, RangeMeta] = {}
        self._order: List[int] = []
        #: origin -> its surviving ranges, ascending by ``lo``
        self._pieces: Dict[int, List[RangeMeta]] = {}
        self._next_range_id = 1

    # -- basic access ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, range_id: int) -> bool:
        return range_id in self._by_id

    def get(self, range_id: int) -> RangeMeta:
        try:
            return self._by_id[range_id]
        except KeyError:
            raise StoreError(f"range {range_id} does not exist") from None

    def in_order(self) -> Iterator[RangeMeta]:
        """Ranges in document order."""
        return (self._by_id[range_id] for range_id in self._order)

    def order_index(self, range_id: int) -> int:
        try:
            return self._order.index(range_id)
        except ValueError:
            raise StoreError(f"range {range_id} is not in the order list") from None

    def at_order(self, index: int) -> RangeMeta:
        return self._by_id[self._order[index]]

    def successor(self, range_id: int) -> Optional[RangeMeta]:
        index = self.order_index(range_id)
        if index + 1 < len(self._order):
            return self._by_id[self._order[index + 1]]
        return None

    def predecessor(self, range_id: int) -> Optional[RangeMeta]:
        index = self.order_index(range_id)
        if index > 0:
            return self._by_id[self._order[index - 1]]
        return None

    @property
    def first(self) -> Optional[RangeMeta]:
        return self._by_id[self._order[0]] if self._order else None

    @property
    def last(self) -> Optional[RangeMeta]:
        return self._by_id[self._order[-1]] if self._order else None

    @property
    def total_tokens(self) -> int:
        return sum(meta.token_count for meta in self._by_id.values())

    # -- mutation ---------------------------------------------------------------

    def new_range(
        self,
        start: Position,
        token_count: int,
        start_id: Optional[int],
        end_id: Optional[int],
        after: Optional[int] = None,
        before: Optional[int] = None,
    ) -> RangeMeta:
        """Create a range of freshly inserted tokens (its own origin) and
        place it in document order: ``after``/``before`` name an existing
        range id; omitting both appends at the end of the document."""
        meta = RangeMeta(
            self._next_range_id, start, token_count, start_id, end_id,
            origin=self._next_range_id,
        )
        self._enter(meta, after, before)
        return meta

    def _enter(self, meta: RangeMeta, after: Optional[int], before: Optional[int]) -> None:
        self._next_range_id += 1
        self._by_id[meta.range_id] = meta
        insort(self._pieces.setdefault(meta.origin, []), meta, key=_LO)
        if after is not None:
            self._order.insert(self.order_index(after) + 1, meta.range_id)
        elif before is not None:
            self._order.insert(self.order_index(before), meta.range_id)
        else:
            self._order.append(meta.range_id)
        if self.index is not None:
            self.index.register(meta)

    def truncate(self, meta: RangeMeta, count: int, last_id: Optional[int]) -> None:
        """``meta`` keeps only its first ``count`` tokens, ``last_id`` being
        the last node id among them (None: they start no node, so the
        range's interval empties and it leaves the Range Index)."""
        meta.token_count = count
        if last_id is not None:
            meta.end_id = last_id
            return
        if self.index is not None:
            self.index.unregister(meta.start_id)
        meta.start_id = meta.end_id = None

    def behead(self, meta: RangeMeta, count: int, last_id: Optional[int]) -> None:
        """``meta`` loses its first ``count`` tokens — it *becomes* its tail,
        at the same origin — ``last_id`` being the last node id among those
        lost (None: they started no node, the interval stands).  The caller
        moves ``meta.start`` once the tokens are physically gone."""
        old_key = meta.start_id
        meta.lo += count
        meta.token_count -= count
        if last_id is not None:
            meta.start_id, meta.end_id = _interval_after(last_id, meta.end_id)
        if self.index is not None:
            self.index.rekey(old_key, meta)

    def split(self, meta: RangeMeta, at: int, last_id: Optional[int]) -> RangeMeta:
        """Cut ``meta`` before token ``at``: it is truncated to ``[0, at)``
        and the tail ``[at, count)`` is returned, carrying the rest of the
        interval at the same origin.  The tail is not yet in the table:
        :meth:`place` it, after whatever goes in between (the ranges of an
        interior insert draw their ids, and enter the Range Index, first)."""
        start_id, end_id = meta.start_id, meta.end_id
        if last_id is not None:
            start_id, end_id = _interval_after(last_id, end_id)
        tail = RangeMeta(
            0, meta.start, meta.token_count - at, start_id, end_id,
            origin=meta.origin, lo=meta.lo + at,
        )
        self.truncate(meta, at, last_id)
        return tail

    def place(self, tail: RangeMeta, start: Position, after: int) -> None:
        """Make a :meth:`split` tail, whose tokens now begin at ``start``,
        the range following range ``after``."""
        tail.range_id = self._next_range_id
        tail.start = start
        self._enter(tail, after, None)

    def drop(self, range_id: int) -> None:
        """The range's tokens are all deleted."""
        meta = self.get(range_id)
        if self.index is not None:
            self.index.unregister(meta.start_id)
        self._remove(meta)

    def merge(self, left: RangeMeta, right: RangeMeta) -> None:
        """``left`` absorbs ``right``, its document-order successor whose
        interval continues its own (compaction's test).  Their tokens are
        renumbered under one range, so the merged range moves to a fresh
        origin and every address held for either stops resolving."""
        old_left_key, old_right_key = left.start_id, right.start_id
        # an empty left range (a fully deleted head) starts where right does
        if left.token_count == 0:
            left.start = right.start
        left.token_count += right.token_count
        if not left.has_interval:
            left.start_id, left.end_id = right.start_id, right.end_id
        elif right.has_interval:
            left.end_id = right.end_id
        self.rebase(left)
        if self.index is not None:
            self.index.unregister(old_right_key)
            self.index.rekey(old_left_key, left)
        self._remove(right)

    def _remove(self, meta: RangeMeta) -> None:
        self._order.remove(meta.range_id)
        del self._by_id[meta.range_id]
        self._unlist(meta)

    def _unlist(self, meta: RangeMeta) -> None:
        pieces = self._pieces[meta.origin]
        pieces.remove(meta)
        if not pieces:
            del self._pieces[meta.origin]

    # -- logical addresses ------------------------------------------------------

    def resolve(self, origin: int, address: int) -> Optional[Tuple[RangeMeta, int]]:
        """The range now holding the token at logical ``address`` of
        ``origin`` and the token's offset in it, or None if it is gone."""
        pieces = self._pieces.get(origin)
        if pieces is None:
            return None
        index = bisect_right(pieces, address, key=_LO) - 1 if len(pieces) > 1 else 0
        if index < 0:
            return None
        meta = pieces[index]
        offset = address - meta.lo
        if 0 <= offset < meta.token_count:
            return meta, offset
        return None

    def rebase(self, meta: RangeMeta) -> None:
        """Move ``meta`` to a fresh origin (its tokens are about to be
        renumbered by a merge): every address held for them stops resolving."""
        self._unlist(meta)
        meta.origin = self._next_range_id
        meta.lo = 0
        self._next_range_id += 1
        self._pieces[meta.origin] = [meta]

    # -- integrity ----------------------------------------------------------------

    def check_integrity(self) -> None:
        """Intervals must be disjoint and the order list consistent."""
        if set(self._order) != set(self._by_id):
            raise StoreError("order list and range map disagree")
        intervals = sorted(
            (meta.start_id, meta.end_id)
            for meta in self._by_id.values()
            if meta.has_interval
        )
        for (_, left_end), (right_start, _) in zip(intervals, intervals[1:]):
            if right_start <= left_end:
                raise StoreError(
                    f"overlapping id intervals: ...{left_end}] and [{right_start}..."
                )
        for meta in self._by_id.values():
            if meta.token_count < 0:
                raise StoreError(f"negative token count in {meta!r}")
            if meta.has_interval and meta.end_id < meta.start_id:
                raise StoreError(f"inverted interval in {meta!r}")
        listed = 0
        for pieces in self._pieces.values():
            listed += len(pieces)
            for left, right in zip(pieces, pieces[1:]):
                if left.lo + left.token_count > right.lo:
                    raise StoreError(f"overlapping addresses: {left!r} and {right!r}")
        if listed != len(self._by_id):
            raise StoreError("piece lists and range map disagree")

    # -- catalog ---------------------------------------------------------------------

    def to_catalog(self) -> bytes:
        parts = [_HEADER.pack(self._next_range_id, len(self._order))]
        for range_id in self._order:
            meta = self._by_id[range_id]
            parts.append(
                _META.pack(
                    meta.range_id,
                    -1 if meta.start_id is None else meta.start_id,
                    -1 if meta.end_id is None else meta.end_id,
                    meta.start.block_no,
                    meta.start.slot,
                    meta.token_count,
                    meta.origin,
                    meta.lo,
                )
            )
        return b"".join(parts)

    @classmethod
    def from_catalog(
        cls, data: bytes, addressed: bool = True, index: Optional["RangeIndex"] = None
    ) -> "RangeTable":
        """Rebuild the table over ``index``, which already holds its keys;
        ``addressed=False`` reads a catalog written before ranges had
        logical addresses (those two slots held a version and zero), where
        every range is its own origin."""
        table = cls(index)
        table._next_range_id, count = _HEADER.unpack_from(data, 0)
        offset = _HEADER.size
        for _ in range(count):
            (
                range_id,
                start_id,
                end_id,
                block_no,
                slot,
                token_count,
                origin,
                lo,
            ) = _META.unpack_from(data, offset)
            offset += _META.size
            if not addressed:
                origin, lo = range_id, 0
            meta = RangeMeta(
                range_id=range_id,
                start=Position(block_no, slot),
                token_count=token_count,
                start_id=None if start_id == -1 else start_id,
                end_id=None if end_id == -1 else end_id,
                origin=origin,
                lo=lo,
            )
            table._by_id[range_id] = meta
            table._order.append(range_id)
            insort(table._pieces.setdefault(origin, []), meta, key=_LO)
        return table
