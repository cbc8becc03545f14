"""Node location: partial index → full index → range index → scan.

Implements the lookup discipline of §4–§5.  A node id is resolved by:

1. probing the (memory) **partial index** — free, may be stale;
2. probing the (disk) **full index** when the policy maintains one;
3. otherwise ``rangeIndexLocate``: a **range-index** floor lookup names the
   candidate range, and a scan from the range's start *regenerates node
   identifiers* (§4.3 — ids are not stored with the tokens) until the
   target id is reached.  Ids are dense and in document order within a
   range, as the floor lookup already requires, so each node-starting
   record's id is the previous one plus 1.

Every successful scan is memoized back into the partial index (lazy
population), which is precisely what makes the store adaptive: positions
the workload keeps touching become cheap, untouched ones cost nothing.

Both indexes hold a token's logical address (:mod:`repro.core.ranges`), and
a lookup writes back only what it *learned*: a begin found by scan goes to
both, an end found by scan to the partial index (the full index has nowhere
to keep one); a read answered by an index writes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.errors import CodecError, DocumentOrderError, NodeNotFoundError
from repro.core.full_index import FullIndex
from repro.core.layout import TokenLayout
from repro.core.partial_index import LocationEntry, PartialIndex
from repro.core.range_index import RangeIndex
from repro.core.ranges import RangeMeta, RangeTable
from repro.obs.events import EventLog
from repro.obs.metrics import TOKEN_COUNT_BUCKETS
from repro.obs.telemetry import Telemetry
from repro.storage.heap import Position
from repro.xmltoken.binary import (
    DEPTH_STEP,
    KIND_MASK,
    KIND_TABLE,
    STARTS_NODE,
    peek_kind,
    token_fields,
)
from repro.xmltoken.columns import NodeColumns
from repro.xmltoken.tokens import TokenKind

#: The kinds :meth:`Locator.node_columns` tells apart, as plain ints (an
#: enum member costs an attribute lookup per comparison), and those whose
#: records it reads past the header byte.
_BEGIN_ELEMENT, _END_ELEMENT, _BEGIN_ATTRIBUTE, _END_ATTRIBUTE, _ATTRIBUTE_VALUE = map(int, (
    TokenKind.BEGIN_ELEMENT, TokenKind.END_ELEMENT, TokenKind.BEGIN_ATTRIBUTE,
    TokenKind.END_ATTRIBUTE, TokenKind.ATTRIBUTE_VALUE))
_COLUMN_KINDS = frozenset(map(int, (
    TokenKind.BEGIN_ELEMENT, TokenKind.BEGIN_ATTRIBUTE, TokenKind.ATTRIBUTE_VALUE,
    TokenKind.TEXT, TokenKind.COMMENT, TokenKind.PROCESSING_INSTRUCTION)))

#: One piece of a scan: the records ``page_records[slot:stop]`` of one block,
#: all in range ``meta`` (at ``order_index``), the first at ``offset``.
_Segment = Tuple[int, RangeMeta, int, int, int, int, List[bytes]]


class ScanItem:
    """One token encountered by a document-order scan, which reads only the
    record's header byte (``kind``)."""

    __slots__ = ("order_index", "meta", "offset", "pos", "record", "kind", "last_id")

    def __init__(
        self,
        order_index: Optional[int],
        meta: RangeMeta,
        offset: int,
        pos: Position,
        record: bytes,
        kind: TokenKind,
        last_id: Optional[int],
    ) -> None:
        #: Position of the range in document order, as a scan knew it; None
        #: on an item an index answered (:meth:`Locator.order_of` asks).
        self.order_index = order_index
        self.meta = meta                # the range the token belongs to
        self.offset = offset            # token offset inside the range
        self.pos = pos                  # physical position
        self.record = record            # the encoded token
        self.kind = kind
        #: Id of the most recent node-starting token within this range,
        #: *after* processing this token (None before the first node start).
        self.last_id = last_id

    @property
    def address(self) -> Tuple[int, int]:
        """The token's logical address: (origin, offset under the origin)."""
        return self.meta.origin, self.meta.lo + self.offset

    @property
    def starts_node(self) -> bool:
        return STARTS_NODE[self.kind]

    @property
    def is_begin(self) -> bool:
        return DEPTH_STEP[self.kind] > 0

    @property
    def is_end(self) -> bool:
        return DEPTH_STEP[self.kind] < 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScanItem(range={self.meta.range_id}, offset={self.offset}, "
            f"pos={tuple(self.pos)}, kind={self.kind.name}, last_id={self.last_id})"
        )


@dataclass
class NodeLocation:
    """A located node: its begin token and (optionally) its end token."""

    node_id: int
    begin: ScanItem
    end: Optional[ScanItem] = None


@dataclass
class LocatorStats:
    partial_resolutions: int = 0
    full_resolutions: int = 0
    scan_resolutions: int = 0
    tokens_scanned: int = 0

    def reset(self) -> None:
        self.partial_resolutions = 0
        self.full_resolutions = 0
        self.scan_resolutions = 0
        self.tokens_scanned = 0

    def register_metrics(self, registry) -> None:
        """Project these counters into a metrics registry."""
        resolutions = registry.counter(
            "repro_locator_resolutions_total",
            "Node resolutions by the path that answered them.",
            labelnames=("path",),
        )
        resolutions.labels(path="partial").inc(self.partial_resolutions)
        resolutions.labels(path="full").inc(self.full_resolutions)
        resolutions.labels(path="scan").inc(self.scan_resolutions)
        registry.counter(
            "repro_locator_tokens_scanned_total",
            "Tokens inspected by document-order scans.",
        ).inc(self.tokens_scanned)


class Locator:
    """Resolves node identifiers to physical locations."""

    def __init__(
        self,
        layout: TokenLayout,
        ranges: RangeTable,
        range_index: RangeIndex,
        partial_index: Optional[PartialIndex] = None,
        full_index: Optional[FullIndex] = None,
    ) -> None:
        self.layout = layout
        self.ranges = ranges
        self.range_index = range_index
        self.partial_index = partial_index
        self.full_index = full_index
        self.stats = LocatorStats()
        #: When False, successful scans are not memoized (the adaptive
        #: controller flips this in update-optimized mode).
        self.populate_partial = True
        #: Telemetry facade and structured event log (disabled until the
        #: store attaches its own).
        self.attach_telemetry(Telemetry(enabled=False))
        self.event_log = EventLog(enabled=False)

    def attach_telemetry(self, telemetry) -> None:
        """Record per-resolution scan lengths through ``telemetry``."""
        self.telemetry = telemetry
        self._scan_tokens = telemetry.histogram(
            "repro_locator_scan_tokens",
            "Tokens scanned per range-scan resolution.",
            buckets=TOKEN_COUNT_BUCKETS,
        )

    # -- scanning -----------------------------------------------------------------
    #
    # Every walk below reads ``record[0]``, looks the kind bits up in the
    # tables above, and advances the id cursor from the kind; only
    # ``node_columns`` reads further, into the records that name a node or
    # hold its value.  ``_segments`` is the one place that follows the chain
    # across blocks and ranges; the four loops over it differ only in what
    # they do per token.

    def scan(self, start_order_index: int = 0) -> Iterator[ScanItem]:
        """Scan tokens in document order from the given range onward,
        regenerating node identifiers per range."""
        return self._items(self._segments_from_range(start_order_index), None)

    def scan_range(self, meta: RangeMeta) -> Iterator[ScanItem]:
        """Scan exactly one range's tokens."""
        order_index = self.ranges.order_index(meta.range_id)
        for item in self.scan(order_index):
            if item.meta.range_id != meta.range_id:
                return
            yield item

    def continue_scan(self, item: ScanItem) -> Iterator[ScanItem]:
        """Scan items *after* ``item`` in document order.

        Re-derives the id cursor from the item, so it is exact within the
        item's range and resets at range boundaries like :meth:`scan`.
        """
        return self._items(self._segments_after(item), item.last_id)

    def _segments_from_range(self, start_order_index: int) -> Iterator[_Segment]:
        """Segments from the start of the first non-empty range at or after
        ``start_order_index`` (nothing, and no page touched, if there is none)."""
        for order_index in range(start_order_index, len(self.ranges)):
            meta = self.ranges.at_order(order_index)
            if meta.token_count:
                return self._segments(order_index, meta, 0, meta.start)
        return iter(())

    def order_of(self, item: ScanItem) -> int:
        """The document-order index of ``item``'s range.  Only a scan that
        continues from the item and the update engine need it, so an item
        built from an index entry finds out here, not on every read."""
        if item.order_index is None:
            item.order_index = self.ranges.order_index(item.meta.range_id)
        return item.order_index

    def _segments_after(self, item: ScanItem) -> Iterator[_Segment]:
        block_no, slot = item.pos
        return self._segments(
            self.order_of(item), item.meta, item.offset + 1, Position(block_no, slot + 1)
        )

    def _segments(
        self, order_index: int, meta: RangeMeta, offset: int, start: Position
    ) -> Iterator[_Segment]:
        """Cut the chain from ``start`` (token ``offset`` of ``meta``) into
        maximal runs of records that share a block and a range."""
        ranges = self.ranges
        total_ranges = len(ranges)
        for block_no, slot, page_records in self.layout.runs_from(start):
            count = len(page_records)
            while slot < count:
                while offset >= meta.token_count:
                    order_index += 1
                    if order_index >= total_ranges:
                        raise DocumentOrderError(
                            "chain has records beyond the last range"
                        )
                    meta = ranges.at_order(order_index)
                    offset = 0
                if offset == 0 and (block_no, slot) != meta.start:
                    raise DocumentOrderError(
                        f"range {meta.range_id} starts at {tuple(meta.start)}, "
                        f"scan reached {(block_no, slot)}"
                    )
                stop = min(count, slot + meta.token_count - offset)
                yield order_index, meta, offset, block_no, slot, stop, page_records
                offset += stop - slot
                slot = stop

    @staticmethod
    def _first_id(meta: RangeMeta) -> int:
        """The id of a range's first node-starting token."""
        if meta.start_id is None:
            raise DocumentOrderError(
                f"range {meta.range_id} has node tokens but no interval"
            )
        return meta.start_id

    def _items(
        self, segments: Iterator[_Segment], last_id: Optional[int]
    ) -> Iterator[ScanItem]:
        """One :class:`ScanItem` per token of ``segments``; ``last_id`` is
        the id cursor at the first of them."""
        stats = self.stats
        for order_index, meta, offset, block_no, first, stop, records in segments:
            if offset == 0:
                last_id = None
            for slot in range(first, stop):
                record = records[slot]
                kind = peek_kind(record)
                if STARTS_NODE[kind]:
                    if last_id is None:
                        last_id = self._first_id(meta)
                    else:
                        last_id += 1
                stats.tokens_scanned += 1
                yield ScanItem(
                    order_index, meta, offset, Position(block_no, slot),
                    record, kind, last_id,
                )
                offset += 1

    def node_columns(self) -> NodeColumns:
        """Every node of the document as :class:`NodeColumns`, in one walk
        that charges each record once, as :meth:`scan` does.  The records
        of nodes and attribute values are sliced with the codec's checks;
        no token and no per-node object is built."""
        columns = NodeColumns()
        ids, kinds, names, values = columns.ids, columns.kinds, columns.names, columns.values
        parent, end = columns.parent, columns.end
        kind_table, starts_node = KIND_TABLE, STARTS_NODE
        stats = self.stats
        open_elements = [0]  # entries whose subtree is still open
        attribute = 0  # the entry of the attribute being read, 0 outside one
        last_id = None
        for _, meta, offset, _, first, stop, records in self._segments_from_range(0):
            if offset == 0:
                last_id = None
            for slot in range(first, stop):
                record = records[slot]
                if not record:
                    raise CodecError("empty token record")
                raw = record[0] & KIND_MASK
                if starts_node[raw]:
                    last_id = (
                        self._first_id(meta) if last_id is None else last_id + 1
                    )
                if raw not in _COLUMN_KINDS:
                    if raw == _END_ELEMENT:
                        end[open_elements.pop()] = len(ids)
                    elif raw == _END_ATTRIBUTE:
                        attribute = 0
                    elif kind_table[raw] is None:
                        peek_kind(record)  # raises the typed error
                    continue
                _, name, value, _, size = token_fields(record)
                if size != len(record):
                    raise CodecError(f"{len(record) - size} trailing bytes after token")
                if raw == _ATTRIBUTE_VALUE:
                    if attribute:
                        values[attribute] += value
                    continue
                index = len(ids)
                ids.append(last_id)
                kinds.append(raw)
                names.append(name)
                values.append(value)
                parent.append(open_elements[-1])
                end.append(index + 1)
                if raw == _BEGIN_ELEMENT:
                    open_elements.append(index)
                elif raw == _BEGIN_ATTRIBUTE:
                    attribute = index
            stats.tokens_scanned += stop - first
        end[0] = len(ids)
        return columns

    # -- resolution ------------------------------------------------------------------

    def locate(self, node_id: int) -> NodeLocation:
        """Resolve ``node_id`` to its begin token or raise
        :class:`NodeNotFoundError`."""
        entry = None
        if self.partial_index is not None:
            entry = self.partial_index.probe(node_id, self.ranges)
            if entry is not None:
                self.stats.partial_resolutions += 1
        if entry is None and self.full_index is not None:
            entry = self.full_index.lookup(node_id, self.ranges)
            if entry is not None:
                self.stats.full_resolutions += 1
        if entry is not None:
            return self._location_from_entry(entry)
        meta = self.range_index.locate(node_id, self.ranges)
        if meta is None:
            raise NodeNotFoundError(f"no node with id {node_id}")
        location = self._locate_by_scan(meta, node_id)
        self._memoize(location, found_begin=True)
        return location

    def locate_span(self, node_id: int) -> NodeLocation:
        """Resolve ``node_id`` including its end token."""
        location = self.locate(node_id)
        self.complete(location)
        return location

    def complete(self, location: NodeLocation) -> ScanItem:
        """The end-token item of a located node: the memoized one if the
        lookup had it (paper Table 4), else found by scan and remembered."""
        if location.end is None:
            location.end = self.find_end(location.begin)
            self._memoize(location, found_begin=False)
        return location.end

    def find_end(self, begin: ScanItem) -> ScanItem:
        """The item of the end token of the node starting at ``begin``."""
        if not begin.starts_node:
            raise DocumentOrderError(f"a record of kind {begin.kind.name} does not start a node")
        if not begin.is_begin:
            return begin
        kinds, starts_node, depth_step = KIND_TABLE, STARTS_NODE, DEPTH_STEP
        stats = self.stats
        depth = 1
        last_id = begin.last_id
        for order_index, meta, offset, block_no, first, stop, records in (
            self._segments_after(begin)
        ):
            if offset == 0:
                last_id = None
            try:
                for slot in range(first, stop):
                    raw = records[slot][0] & KIND_MASK
                    if starts_node[raw]:
                        if last_id is None:
                            last_id = self._first_id(meta)
                        else:
                            last_id += 1
                        depth += depth_step[raw]
                    elif depth_step[raw]:
                        depth -= 1
                        if depth == 0:
                            stats.tokens_scanned += slot + 1 - first
                            return ScanItem(
                                order_index, meta, offset + slot - first,
                                Position(block_no, slot), records[slot],
                                kinds[raw], last_id,
                            )
                    elif kinds[raw] is None:
                        peek_kind(records[slot])  # raises the typed error
            except IndexError:
                raise CodecError("empty token record") from None
            stats.tokens_scanned += stop - first
        raise DocumentOrderError(f"node at {tuple(begin.pos)} is never closed")

    # -- internals --------------------------------------------------------------------

    def _locate_by_scan(self, meta: RangeMeta, node_id: int) -> NodeLocation:
        self.stats.scan_resolutions += 1
        scanned_before = self.stats.tokens_scanned
        # the span gives token replay its own frame in cost profiles
        # (both clocks); a disabled telemetry's span is the shared no-op
        try:
            with self.telemetry.span(
                "locator.scan", node_id=node_id, range_id=meta.range_id
            ):
                begin = self._seek_id(meta, node_id)
                if begin is not None:
                    return NodeLocation(node_id=node_id, begin=begin)
        finally:
            scanned = self.stats.tokens_scanned - scanned_before
            self._scan_tokens.observe(scanned)
            if self.event_log.enabled:
                self.event_log.emit(
                    "locator",
                    "scan",
                    node_id=node_id,
                    range_id=meta.range_id,
                    start_id=meta.start_id,
                    end_id=meta.end_id,
                    tokens=scanned,
                )
        raise NodeNotFoundError(
            f"node {node_id} was deleted from range {meta.range_id}"
        )

    def _seek_id(self, meta: RangeMeta, node_id: int) -> Optional[ScanItem]:
        """Walk range ``meta`` for the token that starts ``node_id``."""
        kinds, starts_node = KIND_TABLE, STARTS_NODE
        stats = self.stats
        last_id = None
        for order_index, seg_meta, offset, block_no, first, stop, records in (
            self._segments_from_range(self.ranges.order_index(meta.range_id))
        ):
            if seg_meta.range_id != meta.range_id:
                # the walk learns the range has ended by inspecting the first
                # token of the next one, and is charged for it
                if starts_node[peek_kind(records[first])]:
                    self._first_id(seg_meta)
                stats.tokens_scanned += 1
                return None
            try:
                for slot in range(first, stop):
                    raw = records[slot][0] & KIND_MASK
                    if starts_node[raw]:
                        if last_id is None:
                            last_id = self._first_id(seg_meta)
                        else:
                            last_id += 1
                        if last_id == node_id:
                            stats.tokens_scanned += slot + 1 - first
                            return ScanItem(
                                order_index, seg_meta, offset + slot - first,
                                Position(block_no, slot), records[slot],
                                kinds[raw], last_id,
                            )
                    elif kinds[raw] is None:
                        peek_kind(records[slot])  # raises the typed error
            except IndexError:
                raise CodecError("empty token record") from None
            stats.tokens_scanned += stop - first
        return None

    def _location_from_entry(self, entry: LocationEntry) -> NodeLocation:
        """The location an entry that a probe just validated stands for."""
        begin = self.ranges.resolve(entry.origin, entry.address)
        assert begin is not None
        location = NodeLocation(entry.node_id, self._item_at(*begin, entry.node_id))
        if entry.has_end:
            end = self.ranges.resolve(entry.end_origin, entry.end_address)
            if end is None:
                entry.drop_end()
            else:
                location.end = self._item_at(*end, entry.end_last_id)
        return location

    def _item_at(
        self, meta: RangeMeta, offset: int, last_id: Optional[int]
    ) -> ScanItem:
        """The scan item for token ``offset`` of ``meta`` (one record read).

        ``last_id`` was remembered in the frame of the range the token was
        in then; since a split or delete the token may sit in a tail piece
        that starts after that node, where the id cursor has not started.
        """
        if last_id is not None and (
            meta.start_id is None or last_id < meta.start_id
        ):
            last_id = None
        pos = self.layout.position_of(meta, offset)
        record = self.layout.record_at(pos)
        return ScanItem(None, meta, offset, pos, record, peek_kind(record), last_id)

    def _memoize(self, location: NodeLocation, found_begin: bool) -> None:
        """Write back what a scan learned: ``found_begin`` says the begin
        token came from a scan (else only the end did)."""
        origin, address = location.begin.address
        if self.partial_index is not None and self.populate_partial:
            entry = LocationEntry(location.node_id, origin, address)
            end = location.end
            if end is not None:
                # the end token may sit in a later range (paper Table 4)
                entry.end_origin, entry.end_address = end.address
                entry.end_last_id = end.last_id
            self.partial_index.remember(entry)
        if found_begin and self.full_index is not None:
            self.full_index.put(location.node_id, origin, address)
