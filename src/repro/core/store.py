"""The adaptive XML store: the paper's Table-1 interface.

:class:`XMLStore` ties the substrates together: tokens live in chained
blocks (document order), every insert operation creates Ranges, a coarse
Range Index locates the range of an identifier, and — depending on the
:class:`~repro.core.config.IndexingPolicy` — a lazy Partial Index and/or
an eager Full Index accelerate node location.

Interface (paper Table 1)::

    read()                      read(id)
    insert_before(id, xml)      insert_after(id, xml)
    insert_into_first(id, xml)  insert_into_last(id, xml)
    delete_node(id)             replace_node(id, xml)
    replace_content(id, xml)

plus ``load_document`` (the initial bulk insert), ``xpath`` (query entry
point), ``checkpoint``/``from_catalog`` (durability), and statistics.

Internal invariants (checked by :meth:`check_integrity`):

* ranges tile the chain exactly, in document order;
* each range's node-starting tokens carry exactly the dense id interval
  ``[start_id, end_id]`` in scan order (which is what makes id
  *regeneration* sound — ids are never stored with tokens);
* id intervals of distinct ranges are disjoint;
* the range index has exactly one entry per non-empty range.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import (
    InvalidOperationError,
    NodeNotFoundError,
    StoreError,
)
from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.full_index import FullIndex
from repro.core.indexing import AdaptiveController
from repro.core.layout import TokenLayout
from repro.core.locator import Locator, NodeLocation, ScanItem
from repro.core.partial_index import LocationEntry, PartialIndex
from repro.core.range_index import RangeIndex
from repro.core.ranges import RangeMeta, RangeTable
from repro.core.stats import OperationCounts, StoreStatistics
from repro.ids.sequential import SequentialIdScheme
from repro.obs.alerts import create_alerts
from repro.obs.incident import create_incidents
from repro.obs.recorder import create_recorder
from repro.obs.events import create_event_log
from repro.obs.heatmap import create_heatmap
from repro.obs.history import create_history
from repro.obs.slo import create_slo
from repro.obs.telemetry import create_telemetry
from repro.storage.buffer import BufferPool
from repro.storage.disk import BlockDevice, InstrumentedDevice, MemoryBlockDevice
from repro.storage.heap import ChainedFile, Position
from repro.storage.pages import PageCodec
from repro.storage.recovery import encode_op_payload
from repro.storage.wal import RecordType, WriteAheadLog
from repro.xmltoken.binary import encode_tokens
from repro.xmltoken.datamodel import strip_document_tokens, validate_stream
# perfbench's tracer patches this module's ``serialize`` by name: it has to
# stay the callable the read path calls
from repro.xmltoken.emitter import emit as serialize
from repro.xmltoken.parser import tokenize_fragment
from repro.xmltoken.tokens import Token, TokenKind, count_nodes

_ATTRIBUTE_KINDS = frozenset(
    {
        TokenKind.BEGIN_ATTRIBUTE,
        TokenKind.ATTRIBUTE_VALUE,
        TokenKind.END_ATTRIBUTE,
        TokenKind.NAMESPACE,
    }
)

_CATALOG_HEADER = struct.Struct("<qqqI")  # range_root, full_root(-1), scheme_len, n_sections

#: Third catalog section: the on-disk page format (version, flags).  The
#: catalog — not the page bytes — is the authority on whether a store's
#: blocks are checksum-framed, so decoding is always strict: a flipped
#: bit can never demote a framed page to the legacy raw read path.
#: Two-section catalogs predate this marker and always mean legacy raw.
_FORMAT_SECTION = struct.Struct("<HH")
PAGE_FORMAT_VERSION = 1
_FORMAT_CHECKSUMS = 1  # flags bit 0
#: flags bit 1: the range catalog's last two slots are (origin, lo).  A
#: catalog without it predates logical addresses: every range opens as its
#: own origin and whatever its full index holds reads as stale.
_FORMAT_ADDRESSES = 2

#: Span names pre-registered at store setup so exporters show every
#: Table-1 operation (plus the maintenance entry points) even at zero.
TABLE1_SPANS = (
    "read",
    "node_read",
    "load_document",
    "insert_before",
    "insert_after",
    "insert_into_first",
    "insert_into_last",
    "delete_node",
    "replace_node",
    "replace_content",
    "xpath",
    "compact",
    "checkpoint",
    "wal.append",
    "wal.fsync",
    "lock.wait",
    "locator.scan",
    "store.open",
)


@dataclass
class _InsertPoint:
    """Where a fragment goes: before the token at ``pos`` (which is token
    ``offset`` of range ``meta``), with ``last_id_before`` the id of the
    last node-starting token strictly before the point within the range."""

    meta: RangeMeta
    offset: int
    pos: Position
    last_id_before: Optional[int]

    @classmethod
    def before(cls, item: ScanItem) -> "_InsertPoint":
        """The point that displaces ``item``."""
        return cls(item.meta, item.offset, item.pos, _last_id_before(item))


def _last_id_before(item: ScanItem) -> Optional[int]:
    """The id of the last node-starting token strictly before ``item`` in
    its range.  Ids are dense within a range, so it is the item's cursor,
    less the item itself if it starts a node — nothing at the range's first."""
    last_id = item.last_id
    if last_id is not None and item.starts_node:
        assert item.meta.start_id is not None
        last_id = last_id - 1 if last_id > item.meta.start_id else None
    return last_id


class _Catalog(NamedTuple):
    """What a catalog holds (:meth:`XMLStore.to_catalog`'s inverse)."""

    range_root: int
    full_root: int  # -1: the store keeps no full index
    scheme_state: bytes
    chain: bytes
    ranges: bytes
    flags: int  # the format section's; 0 for a two-section catalog

    @classmethod
    def parse(cls, data: bytes) -> "_Catalog":
        range_root, full_root, scheme_len, n_sections = _CATALOG_HEADER.unpack_from(
            data, 0
        )
        offset = _CATALOG_HEADER.size
        scheme_state = data[offset : offset + scheme_len]
        offset += scheme_len
        sections = []
        for _ in range(n_sections):
            (length,) = struct.unpack_from("<I", data, offset)
            offset += 4
            sections.append(data[offset : offset + length])
            offset += length
        flags = 0
        if len(sections) > 2:
            _version, flags = _FORMAT_SECTION.unpack_from(sections[2], 0)
        return cls(range_root, full_root, scheme_state, sections[0], sections[1], flags)


def effective_btree_order(configured: int, page_size: int) -> int:
    """Cap the B+-tree order so a full node serializes into one page.

    The widest node record is a full-index leaf entry of the older
    position-based format, which a reopened store may still hold: 2-byte
    slot length + 2-byte key length + 8-byte key + 40-byte packed location
    = 52 bytes, plus the node-header record and the page header.
    """
    widest_entry = 52
    fits = max(3, (page_size - 16) // widest_entry)
    return max(3, min(configured, fits))


class XMLStore:
    """An adaptive, lazily indexed XML store."""

    def __init__(
        self,
        config: Optional[StoreConfig] = None,
        device: Optional[BlockDevice] = None,
        wal: Optional[WriteAheadLog] = None,
    ) -> None:
        config = config if config is not None else StoreConfig()
        if device is None:
            backend = MemoryBlockDevice(block_size=config.page_size)
            device = InstrumentedDevice(backend, cost_model=config.cost_model)
        if device.block_size != config.page_size:
            raise StoreError(
                f"device block size {device.block_size} != configured "
                f"page size {config.page_size}"
            )
        self._assemble(config, device, wal)

    def _assemble(
        self,
        config: StoreConfig,
        device: BlockDevice,
        wal: Optional[WriteAheadLog],
        catalog: Optional[_Catalog] = None,
    ) -> None:
        """Wire the component graph — the one place that does — over an
        empty device, or over the chain, range table and index roots a
        ``catalog`` names.

        The catalog, not ``config``, says what is on the device: whether
        block images are checksum-framed, whether ranges carry addresses,
        and whether there is a full index.  A full index the catalog roots
        is attached and maintained under any policy: opened without it, it
        would miss the inserts made meanwhile and lose its root at the next
        checkpoint.
        """
        self.config = config
        self.device = device
        policy = config.policy
        fresh = catalog is None
        self.codec = PageCodec(
            device.block_size,
            checksums=config.checksums_enabled
            if fresh
            else bool(catalog.flags & _FORMAT_CHECKSUMS),
        )
        self.pool = BufferPool(
            device, capacity=config.buffer_pool_capacity, codec=self.codec
        )
        self.wal = wal if wal is not None else WriteAheadLog()
        self.id_scheme = SequentialIdScheme()
        order = effective_btree_order(config.btree_order, self.codec.page_size)
        if fresh:
            chain = full_root = None
            has_full_index = policy is IndexingPolicy.FULL
            self.range_index = RangeIndex(self.pool, order=order)
            self.ranges = RangeTable(self.range_index)
        else:
            full_root = catalog.full_root
            has_full_index = full_root != -1
            if policy is IndexingPolicy.FULL and not has_full_index:
                raise StoreError("catalog has no full-index root for FULL policy")
            self.id_scheme.restore_catalog(catalog.scheme_state)
            chain = ChainedFile.from_catalog(self.pool, catalog.chain)
            self.range_index = RangeIndex(
                self.pool, order=order, root_block=catalog.range_root
            )
            self.ranges = RangeTable.from_catalog(
                catalog.ranges,
                addressed=bool(catalog.flags & _FORMAT_ADDRESSES),
                index=self.range_index,
            )
        self.layout = TokenLayout(self.pool, self.ranges, chain)
        self.partial_index: Optional[PartialIndex] = None
        self.full_index: Optional[FullIndex] = None
        if policy in (IndexingPolicy.RANGE_PLUS_PARTIAL, IndexingPolicy.ADAPTIVE):
            self.partial_index = PartialIndex(config.partial_index_capacity)
        if has_full_index:
            self.full_index = FullIndex(self.pool, order=order, root_block=full_root)
        self.locator = Locator(
            layout=self.layout,
            ranges=self.ranges,
            range_index=self.range_index,
            id_scheme=self.id_scheme,
            partial_index=self.partial_index,
            full_index=self.full_index,
        )
        self.adaptive: Optional[AdaptiveController] = None
        if policy is IndexingPolicy.ADAPTIVE:
            self.adaptive = AdaptiveController(
                self.locator,
                self.partial_index,
                self.ranges,
                window=config.adaptive_window,
                read_threshold=config.adaptive_read_threshold,
            )
        self.operations = OperationCounts()
        #: tokens decoded for serialization (part of the simulated CPU cost)
        self.tokens_emitted = 0
        #: never-stale parent-link memo (see repro.core.navigation)
        from repro.core.navigation import StructuralHints

        self.structural_hints = StructuralHints()
        self._setup_telemetry()

    def _setup_telemetry(self) -> None:
        """Select the live or no-op recorder and attach it everywhere."""
        self.telemetry = create_telemetry(
            # the profiler folds spans, so profiling implies telemetry
            self.config.telemetry_enabled or self.config.profiling_enabled,
            simulated_clock=lambda: self.simulated_seconds,
            ring_capacity=self.config.telemetry_ring_capacity,
        )
        self.telemetry.preregister_spans(TABLE1_SPANS)
        self.locator.attach_telemetry(self.telemetry)
        self.wal.telemetry = self.telemetry
        # the cost model prices sync barriers (0.0 by default, so the
        # committed baselines are untouched); the WAL charges it per flush
        self.wal.sync_cost = self.config.cost_model.sync_seconds
        self.event_log = create_event_log(
            self.config.events_enabled,
            capacity=self.config.events_capacity,
            simulated_clock=lambda: self.simulated_seconds,
            tracer=self.telemetry.tracer,
        )
        self.heatmap = create_heatmap(self.config.heatmap_enabled)
        self.history = create_history(
            self.config.history_enabled,
            path=self.config.history_path,
            capacity=self.config.history_capacity,
            interval=self.config.history_interval,
        )
        self.slo = create_slo(self.config.alerts_enabled)
        self.alerts = create_alerts(
            self.config.alerts_enabled,
            path=self.config.alerts_path,
            interval=self.config.alerts_interval,
        )
        self.recorder = create_recorder(
            self.config.recorder_enabled,
            capacity=self.config.recorder_capacity,
            interval=self.config.recorder_interval,
        )
        self.incidents = create_incidents(
            self.config.recorder_enabled,
            directory=self.config.recorder_incidents_dir,
            limit=self.config.recorder_incident_limit,
        )
        self.incidents.attach(self)
        #: scrub recency (bridge-exported, health-checked): completed
        #: passes on this store instance and the Table-1 operation count
        #: at the most recent one (None = never scrubbed)
        self.scrub_completions = 0
        self.operations_at_last_scrub: Optional[int] = None
        self.pool.event_log = self.event_log
        self.pool.heatmap = self.heatmap
        self.pool.incidents = self.incidents
        # the tee/trigger attachments assign attributes, which the
        # slotted no-op twins refuse by design: guard on .enabled
        if self.event_log.enabled:
            self.event_log.recorder = self.recorder
        if self.alerts.enabled:
            self.alerts.recorder = self.recorder
            self.alerts.incidents = self.incidents
        self.locator.event_log = self.event_log
        self.range_index.event_log = self.event_log
        if self.partial_index is not None:
            self.partial_index.event_log = self.event_log
        if self.full_index is not None:
            self.full_index.event_log = self.event_log
        self.wal.event_log = self.event_log
        # fault-injection layer (if any): crash/torn-write events land in
        # the same log so EXPLAIN can attribute recovery work to faults
        from repro.storage.faults import find_fault_layer

        faulty = find_fault_layer(self.device)
        if faulty is not None:
            faulty.event_log = self.event_log
        if self.wal.fault_adapter is not None:
            self.wal.fault_adapter.event_log = self.event_log

    # -- convenience constructors -----------------------------------------------------

    @classmethod
    def open(
        cls,
        config: Optional[StoreConfig] = None,
        device: Optional[BlockDevice] = None,
        wal: Optional[WriteAheadLog] = None,
    ) -> "XMLStore":
        """Create a store (alias of the constructor, reads like a DB API)."""
        return cls(config=config, device=device, wal=wal)

    # ==================================================================== reads ==

    def read(self, node_id: Optional[int] = None) -> str:
        """Serialize the whole data source, or the subtree of ``node_id``."""
        return self.read_bytes(node_id).decode("utf-8")

    def read_bytes(self, node_id: Optional[int] = None) -> bytes:
        """:meth:`read`'s text as the UTF-8 bytes it is rendered in (what
        the replication digest hashes)."""
        if node_id is None:
            with self.telemetry.span("read"):
                self.operations.reads += 1
                self._observe(is_read=True)
                return serialize(itertools.chain.from_iterable(self._record_runs()))
        with self.telemetry.span("node_read", node_id=node_id):
            self.operations.node_reads += 1
            self._observe(is_read=True)
            location = self.locator.locate_span(node_id)
            # an attribute or namespace node has no XML form of its own:
            # ``node`` renders it as name="value"
            records = itertools.chain.from_iterable(self._record_runs(location))
            return serialize(records, node=True)

    def _record_runs(self, span: Optional[NodeLocation] = None) -> Iterator[List[bytes]]:
        """The stored records in document order, block by block: the
        span of one located node, or the whole data source.  Every record
        handed out is charged as a token emitted."""
        if span is None:
            begin, end = None, None
        else:
            assert span.end is not None
            begin, end = span.begin.pos, span.end.pos
        for block_no, first_slot, run in self.layout.runs_from(begin):
            last_block = end is not None and block_no == end.block_no
            if last_block:
                run = run[first_slot : end.slot + 1]
            elif first_slot:
                run = run[first_slot:]
            self.tokens_emitted += len(run)
            yield run
            if last_block:
                return
        if end is not None:
            raise StoreError("end token not reached (bug)")

    def exists(self, node_id: int) -> bool:
        """Whether a node with ``node_id`` is currently in the store."""
        try:
            self.locator.locate(node_id)
            return True
        except NodeNotFoundError:
            return False

    @property
    def is_empty(self) -> bool:
        return self.layout.is_empty

    # ==================================================================== loads ==

    def load_document(self, xml_text: str, log: bool = True) -> Optional[int]:
        """Bulk-insert a document/fragment at the end of the data source.

        Returns the id of the first inserted node (the root for a
        single-rooted document), or None for an all-markup fragment.
        """
        with self.telemetry.span("load_document", bytes=len(xml_text)):
            tokens = self._ingest(xml_text)
            if not tokens:
                return None
            if log:
                self.wal.append(
                    RecordType.LOAD_DOCUMENT, encode_op_payload(b"", xml_text)
                )
            first_id = self._insert_fragment(None, tokens)
            self.operations.loads += 1
            self._observe(is_read=False)
            return first_id

    # ================================================================== updates ==

    def insert_before(self, node_id: int, xml_text: str, log: bool = True) -> Optional[int]:
        """Insert ``xml_text`` as the preceding sibling(s) of ``node_id``."""
        return self._insert(
            "insert_before", RecordType.INSERT_BEFORE, node_id, xml_text, log,
            self._require_sibling_target,
            lambda location: _InsertPoint.before(location.begin),
        )

    def insert_after(self, node_id: int, xml_text: str, log: bool = True) -> Optional[int]:
        """Insert ``xml_text`` as the following sibling(s) of ``node_id``."""
        return self._insert(
            "insert_after", RecordType.INSERT_AFTER, node_id, xml_text, log,
            self._require_sibling_target,
            lambda location: self._point_after(self._end_item(location)),
        )

    def insert_into_first(self, node_id: int, xml_text: str, log: bool = True) -> Optional[int]:
        """Insert ``xml_text`` as the first child(ren) of element
        ``node_id`` (after its attributes)."""
        return self._insert(
            "insert_into_first", RecordType.INSERT_INTO_FIRST, node_id, xml_text, log,
            self._require_element_target,
            lambda location: _InsertPoint.before(
                self._first_content_item(location.begin)
            ),
        )

    def insert_into_last(self, node_id: int, xml_text: str, log: bool = True) -> Optional[int]:
        """Insert ``xml_text`` as the last child(ren) of element
        ``node_id`` — the paper's running example (§4.5).  Table 4
        discipline: the lookups this update performed are kept; the split
        changes neither token's logical address."""
        return self._insert(
            "insert_into_last", RecordType.INSERT_INTO_LAST, node_id, xml_text, log,
            self._require_element_target,
            lambda location: _InsertPoint.before(self._end_item(location)),
        )

    def _insert(
        self,
        op: str,
        record_type: int,
        node_id: int,
        xml_text: str,
        log: bool,
        require: Callable[[NodeLocation], None],
        point_of: Callable[[NodeLocation], Optional[_InsertPoint]],
    ) -> Optional[int]:
        """What the four inserts share: they differ in which targets they
        ``require`` and in where, relative to the target, the point is."""
        with self.telemetry.span(op, node_id=node_id):
            tokens = self._ingest(xml_text, require_content=True)
            location = self.locator.locate(node_id)
            require(location)
            if log:
                self._log(record_type, node_id, xml_text)
            first_id = self._insert_fragment(point_of(location), tokens)
            self.operations.inserts += 1
            self._observe(is_read=False)
            return first_id

    def delete_node(self, node_id: int, log: bool = True) -> None:
        """Remove the node and its entire subtree."""
        with self.telemetry.span("delete_node", node_id=node_id):
            location = self.locator.locate(node_id)
            if log:
                self._log(RecordType.DELETE_NODE, node_id, "")
            end = self._end_item(location)
            self._delete_span(location.begin, end)
            self.operations.deletes += 1
            self._observe(is_read=False)

    def replace_node(self, node_id: int, xml_text: str, log: bool = True) -> Optional[int]:
        """Replace the node (and subtree) with ``xml_text``."""
        with self.telemetry.span("replace_node", node_id=node_id):
            tokens = self._ingest(xml_text, require_content=True)
            location = self.locator.locate(node_id)
            if log:
                self._log(RecordType.REPLACE_NODE, node_id, xml_text)
            end = self._end_item(location)
            point = self._delete_span(location.begin, end)
            first_id = self._insert_fragment(point, tokens)
            self.operations.replaces += 1
            self._observe(is_read=False)
            return first_id

    def replace_content(self, node_id: int, xml_text: str, log: bool = True) -> Optional[int]:
        """Replace an element's content (children), keeping attributes."""
        with self.telemetry.span("replace_content", node_id=node_id):
            tokens = self._ingest(xml_text)
            location = self.locator.locate(node_id)
            self._require_element_target(location)
            if log:
                self._log(RecordType.REPLACE_CONTENT, node_id, xml_text)
            content_start = self._first_content_item(location.begin)
            point: Optional[_InsertPoint]
            if content_start.kind == TokenKind.END_ELEMENT:
                # no existing content: this is the element's own end token
                point = _InsertPoint.before(content_start)
            else:
                last_content = self._last_item_before_end(content_start)
                point = self._delete_span(content_start, last_content)
            if tokens:
                self._insert_fragment(point, tokens)
            self.operations.replaces += 1
            self._observe(is_read=False)
            return node_id

    # =============================================================== inspection ==

    @property
    def tokens_processed(self) -> int:
        """Tokens scanned by lookups plus tokens emitted by reads."""
        return self.locator.stats.tokens_scanned + self.tokens_emitted

    @property
    def index_entries_loaded(self) -> int:
        """B+-tree entries decoded by the range index (and full index)."""
        total = self.range_index._tree.entries_loaded
        if self.full_index is not None:
            total += self.full_index._tree.entries_loaded
        return total

    @property
    def simulated_seconds(self) -> float:
        """The full simulated clock: disk I/O plus per-token and
        per-index-entry CPU cost."""
        disk = getattr(self.device, "stats", None)
        disk_seconds = disk.simulated_seconds if disk is not None else 0.0
        return (
            disk_seconds
            + self.wal.simulated_sync_seconds
            + self.tokens_emitted * self.config.cpu_cost_per_token
            + self.locator.stats.tokens_scanned * self.config.cpu_cost_per_scan_token
            + self.index_entries_loaded * self.config.cpu_cost_per_index_entry
        )

    @property
    def stats(self) -> StoreStatistics:
        disk_stats = getattr(self.device, "stats", None)
        if disk_stats is None:
            from repro.storage.disk import DiskStats

            disk_stats = DiskStats()
        return StoreStatistics(
            operations=self.operations,
            locator=self.locator.stats,
            disk=disk_stats,
            buffer=self.pool.stats,
            partial=self.partial_index.stats if self.partial_index is not None else None,
        )

    def range_snapshot(self) -> List[Tuple[int, int, Optional[int], Optional[int]]]:
        """Rows shaped like the paper's Tables 2–3:
        (RangeId, BlockId, StartId, EndId), in document order."""
        return [
            (meta.range_id, meta.start.block_no, meta.start_id, meta.end_id)
            for meta in self.ranges.in_order()
        ]

    def partial_snapshot(self) -> List[Tuple[int, int]]:
        """Rows shaped like the paper's Table 4: (NodeId, Range) of each
        memoized begin token that still resolves."""
        if self.partial_index is None:
            return []
        rows = []
        for entry in self.partial_index._entries.values():
            resolved = self.ranges.resolve(entry.origin, entry.address)
            if resolved is not None:
                rows.append((entry.node_id, resolved[0].range_id))
        return sorted(rows)

    def check_integrity(self) -> None:
        """Verify every store invariant; raises on the first broken one.
        For a per-check structured report (what ``repro verify`` prints),
        see :func:`repro.core.integrity.integrity_report`."""
        from repro.core.integrity import integrity_report

        report = integrity_report(self)
        failed = report.failed()
        if failed:
            raise StoreError(
                f"integrity check {failed[0].name!r} failed: {failed[0].error}"
            )

    # ================================================================ durability ==

    def checkpoint(self) -> bytes:
        """Flush everything and return the catalog bytes; marks the WAL."""
        with self.telemetry.span("checkpoint"):
            self.pool.flush_all()
            self.wal.checkpoint()
            if self.history.enabled:
                self.history.capture(self, "checkpoint", skip_if_idle=True)
            if self.alerts.enabled:
                # after the history capture, so delta rules see this window
                self.alerts.evaluate_store(self, "checkpoint", skip_if_idle=True)
            return self.to_catalog()

    def to_catalog(self) -> bytes:
        scheme_state = self.id_scheme.to_catalog()
        flags = _FORMAT_ADDRESSES | (_FORMAT_CHECKSUMS if self.codec.checksums else 0)
        sections = [
            self.layout.chain.to_catalog(),
            self.ranges.to_catalog(),
            _FORMAT_SECTION.pack(PAGE_FORMAT_VERSION, flags),
        ]
        full_root = self.full_index.root_block if self.full_index is not None else -1
        parts = [
            _CATALOG_HEADER.pack(
                self.range_index.root_block,
                full_root,
                len(scheme_state),
                len(sections),
            ),
            scheme_state,
        ]
        for section in sections:
            parts.append(struct.pack("<I", len(section)))
            parts.append(section)
        return b"".join(parts)

    @classmethod
    def from_catalog(
        cls,
        device: BlockDevice,
        catalog: bytes,
        config: Optional[StoreConfig] = None,
        wal: Optional[WriteAheadLog] = None,
    ) -> "XMLStore":
        """Reopen a store from its device + catalog (last checkpoint state).

        The catalog's format section — not ``config.checksums_enabled`` —
        decides how block images are decoded: a legacy two-section
        catalog always opens via the raw read path, a framed store is
        always verified; likewise a full index the catalog roots is kept
        whatever ``config.policy`` says.  No block is read: a store with
        corrupt blocks opens, and fails where it touches them.
        """
        store = cls.__new__(cls)
        store._assemble(
            config if config is not None else StoreConfig(),
            device,
            wal,
            _Catalog.parse(catalog),
        )
        return store

    @classmethod
    def recover(
        cls,
        wal: WriteAheadLog,
        config: Optional[StoreConfig] = None,
        device: Optional[BlockDevice] = None,
    ) -> "XMLStore":
        """Crash recovery by logical full restore: build a fresh store and
        re-execute the entire operation log (see
        :func:`repro.storage.recovery.replay_all`)."""
        from repro.storage.recovery import replay_all

        store = cls(config=config, device=device, wal=wal)
        replay_all(store, wal)
        return store

    def decode_node_id(self, id_bytes: bytes) -> int:
        """WAL-replay hook: decode an id serialized by this store."""
        return self.id_scheme.decode(id_bytes)

    # =============================================================== navigation ==

    def parent_of(self, node_id: int) -> Optional[int]:
        """Parent node id (None for top-level nodes); parent links are
        memoized and never go stale (§9 extension)."""
        from repro.core import navigation

        return navigation.parent_of(self, node_id)

    def ancestors_of(self, node_id: int) -> List[int]:
        """Ancestor ids, nearest first."""
        from repro.core import navigation

        return navigation.ancestors_of(self, node_id)

    def children_of(self, node_id: int) -> List[int]:
        """Child node ids in document order (attributes excluded)."""
        from repro.core import navigation

        return navigation.children_of(self, node_id)

    def attributes_of(self, node_id: int) -> List[int]:
        """Attribute node ids of an element, in document order."""
        from repro.core import navigation

        return navigation.attributes_of(self, node_id)

    def next_sibling_of(self, node_id: int) -> Optional[int]:
        """Id of the following sibling, or None."""
        from repro.core import navigation

        return navigation.next_sibling_of(self, node_id)

    # ================================================================ maintenance ==

    def compact(self, max_tokens: Optional[int] = None):
        """Merge adjacent ranges fragmented by updates (§9: "more
        optimizations of the read/update/storage overhead"); content and
        node ids are unchanged.  Returns a CompactionReport."""
        from repro.core.compaction import compact

        with self.telemetry.span("compact"):
            return compact(self, max_tokens=max_tokens)

    # ================================================================== queries ==

    def xpath(self, expression: str):
        """Evaluate an XPath (subset) expression against the store; see
        :mod:`repro.xpath` for the supported grammar."""
        from repro.xpath.evaluator import evaluate

        with self.telemetry.span("xpath", expression=expression):
            self._observe(is_read=True)
            return evaluate(self, expression)

    # ================================================================ internals ==

    def _observe(self, is_read: bool) -> None:
        if self.adaptive is not None:
            self.adaptive.observe(is_read)
        if self.history.enabled:
            self.history.observe(self, is_read)
        if self.alerts.enabled:
            self.alerts.observe(self)
        if self.recorder.enabled:
            self.recorder.observe(self)

    def _log(self, record_type: int, node_id: int, xml_text: str) -> None:
        self.wal.append(
            record_type,
            encode_op_payload(self.id_scheme.encode(node_id), xml_text),
        )

    def _end_item(self, location: NodeLocation) -> ScanItem:
        """The end-token item of a node ``locate`` just found."""
        if location.end is None and self.partial_index is not None:
            # learns nothing ``locate`` did not; kept because the probe
            # counters and events it adds are pinned (ROADMAP item 8)
            self.partial_index.probe(location.node_id, self.ranges)
        return self.locator.complete(location)

    def _ingest(self, xml_text: str, require_content: bool = False) -> List[Token]:
        tokens = strip_document_tokens(tokenize_fragment(xml_text))
        if self.config.validate_input:
            validate_stream(tokens, allow_document=False)
        if require_content and not tokens:
            raise InvalidOperationError("the inserted fragment is empty")
        return tokens

    @staticmethod
    def _require_element_target(location: NodeLocation) -> None:
        if location.begin.kind != TokenKind.BEGIN_ELEMENT:
            raise InvalidOperationError(
                f"target node {location.node_id} is not an element"
            )

    @staticmethod
    def _require_sibling_target(location: NodeLocation) -> None:
        if location.begin.kind in (
            TokenKind.BEGIN_ATTRIBUTE,
            TokenKind.NAMESPACE,
        ):
            raise InvalidOperationError(
                "cannot insert siblings next to an attribute or namespace node"
            )

    def _point_after(self, end: ScanItem) -> Optional[_InsertPoint]:
        """The insert point immediately following ``end`` (None = the end
        of the document)."""
        nxt = next(self.locator.continue_scan(end), None)
        return None if nxt is None else _InsertPoint.before(nxt)

    def _first_content_item(self, begin: ScanItem) -> ScanItem:
        """The first token after an element's attribute tokens."""
        for item in self.locator.continue_scan(begin):
            if item.kind not in _ATTRIBUTE_KINDS:
                return item
        raise StoreError("element has no end token (bug)")

    def _last_item_before_end(self, content_start: ScanItem) -> ScanItem:
        """Last token item of the element content beginning at
        ``content_start`` (whose enclosing element's end token follows)."""
        depth = 0
        previous = content_start
        if content_start.is_begin:
            depth = 1
        for item in self.locator.continue_scan(content_start):
            if depth == 0 and item.kind == TokenKind.END_ELEMENT:
                return previous
            if item.is_begin:
                depth += 1
            elif item.is_end:
                depth -= 1
            previous = item
        return previous

    # ----------------------------------------------------------- insert engine --

    def _insert_fragment(
        self, point: Optional[_InsertPoint], tokens: Sequence[Token]
    ) -> Optional[int]:
        """Insert ``tokens`` as one-or-more fresh ranges at ``point``
        (None = end of document); returns the first inserted node's id."""
        if not tokens:
            return None
        records = encode_tokens(tokens)
        node_count = count_nodes(tokens)
        first_id: Optional[int] = None
        if node_count:
            first_id, _ = self.id_scheme.allocate_interval(node_count)
        # ---- physical placement
        if point is None:
            result = self.layout.insert_before(None, records)
        else:
            result = self.layout.insert_before(point.pos, records, point.meta)
        # ---- logical range bookkeeping: the fresh ranges go at the end,
        # before the displaced range, or — the paper's §4.5 walk-through —
        # between the two halves of the range the point is inside
        after = before = tail = None
        if point is None:
            after = self.ranges.last.range_id if len(self.ranges) else None
        elif point.offset == 0:
            before = point.meta.range_id
        else:
            if result.following is None:
                raise StoreError("interior insert did not displace a record (bug)")
            tail = self.ranges.split(point.meta, point.offset, point.last_id_before)
            after = point.meta.range_id
        new_metas = self._create_ranges(
            records, tokens, result.positions, first_id, after=after, before=before
        )
        if tail is not None:
            self.ranges.place(tail, result.following, after=new_metas[-1].range_id)
            self.operations.ranges_split += 1
        self.operations.ranges_created += len(new_metas)
        self.operations.nodes_inserted += node_count
        # ---- eager indexing (FULL policy / Ablation C)
        if self.full_index is not None or self.config.eager_partial_index:
            self._index_inserted(new_metas)
        return first_id

    def _chunk_counts(self, total_tokens: int) -> List[int]:
        limit = self.config.max_range_tokens
        if limit is None or total_tokens <= limit:
            return [total_tokens]
        counts = []
        remaining = total_tokens
        while remaining > 0:
            take = min(limit, remaining)
            counts.append(take)
            remaining -= take
        return counts

    def _create_ranges(
        self,
        records: Sequence[bytes],
        tokens: Sequence[Token],
        positions: Sequence[Position],
        first_id: Optional[int],
        after: Optional[int] = None,
        before: Optional[int] = None,
    ) -> List[RangeMeta]:
        """Create ranges (one per granularity chunk) over freshly inserted
        records."""
        metas: List[RangeMeta] = []
        offset = 0
        next_id = first_id
        anchor_after = after
        for chunk_tokens in self._chunk_counts(len(records)):
            chunk_nodes = count_nodes(tokens[offset : offset + chunk_tokens])
            if chunk_nodes and next_id is not None:
                start_id: Optional[int] = next_id
                end_id: Optional[int] = next_id + chunk_nodes - 1
                next_id = end_id + 1
            else:
                start_id = end_id = None
            meta = self.ranges.new_range(
                start=positions[offset],
                token_count=chunk_tokens,
                start_id=start_id,
                end_id=end_id,
                after=anchor_after,
                before=before if anchor_after is None else None,
            )
            metas.append(meta)
            anchor_after = meta.range_id
            offset += chunk_tokens
        return metas

    def _index_inserted(self, new_metas: Sequence[RangeMeta]) -> None:
        """Eagerly index every node of freshly created ranges."""
        for meta in new_metas:
            if not meta.has_interval:
                continue
            for item in self.locator.scan_range(meta):
                if not item.starts_node:
                    continue
                assert item.last_id is not None
                if self.full_index is not None:
                    self.full_index.put(item.last_id, *item.address)
                if self.config.eager_partial_index and self.partial_index is not None:
                    self.partial_index.remember(
                        LocationEntry(item.last_id, *item.address)
                    )

    # ----------------------------------------------------------- delete engine --

    def _delete_span(
        self, begin: ScanItem, end: ScanItem
    ) -> Optional[_InsertPoint]:
        """Delete tokens from ``begin`` (which starts a node) to ``end``
        inclusive; returns the insert point at the deletion site (None =
        document end)."""
        ranges = self.ranges
        first = self.locator.order_of(begin)
        covered = [
            ranges.at_order(index)
            for index in range(first, self.locator.order_of(end) + 1)
        ]
        head_last = _last_id_before(begin)
        # ---- logical updates before the physical delete: each covered
        # range keeps its head, its tail, both or nothing
        span = 0
        deleted_intervals: List[Tuple[int, int]] = []
        tail_meta: Optional[RangeMeta] = None
        for meta in covered:
            cut_from = begin.offset if meta is begin.meta else 0
            cut_to = end.offset + 1 if meta is end.meta else meta.token_count
            span += cut_to - cut_from
            # the ids that go with the tokens (dense by the range-density
            # invariant)
            low = begin.last_id if meta is begin.meta else meta.start_id
            high = end.last_id if meta is end.meta else meta.end_id
            if low is not None and high is not None:
                deleted_intervals.append((low, high))
            if cut_to < meta.token_count:
                if cut_from:
                    tail_meta = ranges.split(meta, cut_to, end.last_id)
                    ranges.truncate(meta, cut_from, head_last)
                    # its start is a placeholder until the physical delete
                    ranges.place(tail_meta, end.pos, after=meta.range_id)
                else:
                    ranges.behead(meta, cut_to, end.last_id)
                    tail_meta = meta
            elif cut_from:
                ranges.truncate(meta, cut_from, head_last)
            else:
                ranges.drop(meta.range_id)
                self.operations.ranges_dropped += 1
        # ---- physical delete
        # document-order index of whatever follows the run: the surviving
        # tail if there is one, else the first range wholly after it
        follower = first + (begin.offset > 0)
        after = self.layout.delete_run(
            begin.pos, span, first_after=follower + (tail_meta is not None)
        )
        # fix the tail's start to the post-delete coordinates
        if tail_meta is not None:
            if after is None:
                raise StoreError("surviving tail but no record after the run (bug)")
            tail_meta.start = after
        # ---- index maintenance
        for low, high in deleted_intervals:
            self.operations.nodes_deleted += high - low + 1
            if self.full_index is not None:
                self.full_index.remove_interval(low, high)
        # ---- where did the deleted content live?  (for replace_*)
        if after is None:
            return None
        # the run ended exactly at the head of a range: the tail, or a
        # surviving later one
        if follower < len(ranges):
            meta = ranges.at_order(follower)
            if meta.start == after:
                return _InsertPoint(meta, 0, after, None)
        raise StoreError("post-delete position matches no range head (bug)")
