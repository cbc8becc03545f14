"""Range compaction: merging adjacent ranges (paper §9's "more
optimizations of the read/update/storage overhead").

Update-heavy histories fragment the document into many small ranges; each
costs a Range-Index entry and a per-range scan restart.  Two ranges that
are adjacent in document order can be merged *without moving a single
token* whenever their id intervals concatenate densely — i.e. scanning
the combined token run still regenerates exactly ``[start_id .. end_id]``:

* both have intervals and ``right.start_id == left.end_id + 1``, or
* the left range contains no node-starting tokens (its interval is empty,
  so the merged range's first node-start is the right range's), or
* the right range's interval is empty (the merged interval is the left's).

Merging is purely a metadata operation, :meth:`RangeTable.merge`: extend
the left meta, drop the right meta and its index entry, and move the merged
range to a fresh origin so that every logical address held for either stops
resolving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.ranges import RangeMeta


@dataclass
class CompactionReport:
    """What a compaction pass did."""

    ranges_before: int
    ranges_after: int
    merges: int

    @property
    def removed(self) -> int:
        return self.ranges_before - self.ranges_after


def can_merge(left: RangeMeta, right: RangeMeta) -> bool:
    """Whether two document-order-adjacent ranges can merge losslessly."""
    if left.token_count == 0 or right.token_count == 0:
        return True
    if not left.has_interval or not right.has_interval:
        return True
    assert left.end_id is not None and right.start_id is not None
    return right.start_id == left.end_id + 1


def compact(store, max_tokens: Optional[int] = None) -> CompactionReport:
    """Greedily merge adjacent mergeable ranges of ``store``.

    ``max_tokens`` bounds the merged range size (so compaction does not
    undo a granularity policy); ``None`` merges without bound.  Returns a
    report; the store's content and every live node id are unchanged.
    """
    ranges = store.ranges
    before = len(ranges)
    merges = 0
    index = 0
    while index + 1 < len(ranges):
        left = ranges.at_order(index)
        right = ranges.at_order(index + 1)
        combined = left.token_count + right.token_count
        if (
            can_merge(left, right)
            and (max_tokens is None or combined <= max_tokens)
        ):
            ranges.merge(left, right)
            store.operations.ranges_dropped += 1
            merges += 1
            # stay at the same index: the new neighbour may merge too
        else:
            index += 1
    return CompactionReport(
        ranges_before=before, ranges_after=len(ranges), merges=merges
    )
