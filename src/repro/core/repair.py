"""Self-healing repair: rebuild a store around checksum-dead blocks.

The scrubber (:mod:`repro.storage.scrub`) finds blocks whose device
image fails verification; this module decides what the store can still
prove about itself and rebuilds everything else.  Two strategies, in
order of preference:

**Full-log rebuild** (:func:`rebuild_from_wal`, mode ``wal-rebuild``).
The WAL is never truncated — checkpoints only append markers — so the
log holds the complete operation history and replaying it onto a fresh
device (:meth:`XMLStore.recover`) is a *complete* recovery: nothing is
lost, no matter how many data blocks rotted.  :func:`repair_directory`
always tries this first.

**Structural salvage** (:func:`repair_store`, mode ``salvage``).  When
no usable log exists, the chain itself is mined: every record in a
*live* (verifying) block survives; dead blocks take their records with
them.  The rebuild leans on the paper's range invariants — ranges tile
the chain in document order and each range's node-starting tokens carry
exactly the dense interval ``[start_id, end_id]`` in scan order — which
make id reassignment for *prefixes* and *suffixes* of a damaged range
provable:

* a surviving run anchored at the range's **start** holds the first
  ``a`` node-starting tokens, hence ids ``start_id .. start_id+a-1``;
* a surviving run extending to the range's **end** holds the last ``b``,
  hence ids ``end_id-b+1 .. end_id``;
* a run floating between two losses is *ambiguous* — the number of ids
  consumed before it is unknowable — so its records are dropped rather
  than guessed: repair never fabricates an id binding.

Ids in between are reported as **lost intervals**; looking one up after
repair raises ``NodeNotFoundError`` (a detected absence, never a wrong
answer).  Derived state is not patched but rebuilt from scratch: fresh
chain, fresh range index, cleared partial memos, re-scanned full index,
fresh structural hints.  The id allocator is preserved, so ids of lost
nodes are never reissued.

Degraded reads (:func:`degraded_read`) serve whatever still verifies
*without* repairing: ranges free of quarantined blocks are salvaged in
document order and minimally re-balanced for serialization (only
synthetic end-tags are ever added — surviving content is emitted
verbatim), with lost id intervals reported alongside.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    ChecksumError,
    CodecError,
    ReproError,
    StoreCorruptError,
    TokenStreamError,
)
from repro.core.config import StoreConfig
from repro.core.integrity import integrity_report
from repro.core.ranges import RangeMeta
from repro.log import get_logger
from repro.obs.incident import record_directory_incident
from repro.obs.schema import SIDECAR_FILE
from repro.storage.scrub import ScrubReport, scrub_store
from repro.storage.wal import LogRecord, WriteAheadLog
from repro.xmltoken.binary import KIND_MASK, encode_record, token_fields
from repro.xmltoken.emitter import emit
from repro.xmltoken.tokens import TokenKind

_log = get_logger("core.repair")


@dataclass
class RepairReport:
    """What one repair pass did and what it could not save."""

    #: "clean" (nothing to do) | "salvage" | "wal-rebuild"
    mode: str = "clean"
    bad_blocks: List[int] = field(default_factory=list)
    records_kept: int = 0
    #: surviving records dropped because their id binding was ambiguous
    records_dropped: int = 0
    ranges_before: int = 0
    ranges_after: int = 0
    #: dense id intervals whose nodes are gone: [(low, high)], ascending
    lost_intervals: List[Tuple[int, int]] = field(default_factory=list)
    memos_dropped: int = 0
    #: WAL-tail operations re-applied / skipped during the splice
    spliced_ops: int = 0
    skipped_ops: int = 0
    #: operations replayed by a full-log rebuild
    replayed_ops: int = 0
    integrity_ok: bool = True

    @property
    def lost_ids(self) -> int:
        return sum(high - low + 1 for low, high in self.lost_intervals)

    @property
    def degraded(self) -> bool:
        """True when the repaired store provably lost data (or still
        fails integrity): the CLI maps this to exit code 1."""
        return bool(
            self.lost_intervals
            or self.records_dropped
            or self.skipped_ops
            or not self.integrity_ok
        )

    def to_dict(self) -> dict:
        from repro.obs.schema import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "degraded": self.degraded,
            "integrity_ok": self.integrity_ok,
            "bad_blocks": list(self.bad_blocks),
            "records_kept": self.records_kept,
            "records_dropped": self.records_dropped,
            "ranges_before": self.ranges_before,
            "ranges_after": self.ranges_after,
            "lost_intervals": [list(pair) for pair in self.lost_intervals],
            "lost_ids": self.lost_ids,
            "memos_dropped": self.memos_dropped,
            "spliced_ops": self.spliced_ops,
            "skipped_ops": self.skipped_ops,
            "replayed_ops": self.replayed_ops,
        }

    def render(self) -> str:
        lines = [f"repair: mode={self.mode} "
                 f"{'DEGRADED' if self.degraded else 'ok'}"]
        if self.bad_blocks:
            lines.append(f"  bad blocks: {self.bad_blocks}")
        if self.mode == "wal-rebuild":
            lines.append(f"  operations replayed: {self.replayed_ops}")
        if self.mode == "salvage":
            lines.append(
                f"  records: {self.records_kept} kept, "
                f"{self.records_dropped} dropped (ambiguous id binding)"
            )
            lines.append(
                f"  ranges: {self.ranges_before} -> {self.ranges_after}"
            )
            if self.spliced_ops or self.skipped_ops:
                lines.append(
                    f"  wal tail: {self.spliced_ops} ops re-applied, "
                    f"{self.skipped_ops} skipped"
                )
        for low, high in self.lost_intervals:
            lines.append(f"  lost ids: [{low}..{high}]")
        lines.append(f"  integrity: {'ok' if self.integrity_ok else 'FAILED'}")
        return "\n".join(lines)


# =========================================================== salvage core ==


@dataclass
class _Segment:
    """A maximal surviving run of one range's records."""

    records: List[bytes]
    #: chain ordinal of the block holding the run's last record so far
    last_ordinal: int


def _count_node_starts(records: List[bytes]) -> Optional[int]:
    """Node-starting tokens in ``records``; None if any record fails to
    decode (the caller then drops the segment rather than guess)."""
    count = 0
    try:
        for record in records:
            if decode_token(record).starts_node:
                count += 1
    except ReproError:
        return None
    except Exception:  # defensive: undecodable bytes that passed CRC
        return None
    return count


def repair_store(
    store,
    wal_records: Optional[List[LogRecord]] = None,
    scrub_report: Optional[ScrubReport] = None,
) -> RepairReport:
    """Structurally salvage ``store`` in place around its dead blocks.

    Runs a scrub (unless a *complete* ``scrub_report`` is supplied),
    then rebuilds the chain from surviving records with provable id
    assignments only (see the module docstring), re-deriving every
    secondary structure.  ``wal_records`` (e.g. the tail after the last
    checkpoint) are replayed afterwards per-record, skipping — and
    counting — any that no longer apply because their target ids were
    lost.  Returns a :class:`RepairReport`; the store is usable (and
    passes integrity checks) afterwards even when degraded.
    """
    report = scrub_report
    if report is None or not report.complete:
        report = scrub_store(store)
    bad = set(report.bad_blocks()) | set(store.pool.quarantined_blocks())
    result = RepairReport(bad_blocks=sorted(bad))
    result.ranges_before = len(list(store.ranges.in_order()))

    chain = store.layout.chain
    chain_blocks = list(chain.blocks())
    ordinal = {block_no: i for i, block_no in enumerate(chain_blocks)}

    # -- read every surviving record up front (before any mutation) --------
    block_records: Dict[int, List[bytes]] = {}
    for block_no in chain_blocks:
        if block_no in bad:
            continue
        try:
            with store.pool.fetch(block_no) as guard:
                block_records[block_no] = list(guard.page.records())
        except ChecksumError:
            bad.add(block_no)
    result.bad_blocks = sorted(bad)

    if not bad:
        result.mode = "clean"
        result.ranges_after = result.ranges_before
        result.records_kept = sum(len(r) for r in block_records.values())
        result.integrity_ok = integrity_report(store).ok
        return result

    result.mode = "salvage"
    dead_ordinals = sorted(ordinal[b] for b in bad if b in ordinal)

    # global survivor sequence, keyed by (chain ordinal, slot)
    survivors: List[Tuple[int, int, bytes]] = []
    for block_no in chain_blocks:
        if block_no in bad:
            continue
        for slot, record in enumerate(block_records[block_no]):
            survivors.append((ordinal[block_no], slot, record))

    # range windows: [start_key[i], start_key[i+1]) tile the survivor keys
    metas = [m for m in store.ranges.in_order() if m.token_count > 0]
    start_keys: List[Tuple[int, int]] = []
    for meta in metas:
        block_ordinal = ordinal.get(meta.start.block_no)
        if block_ordinal is None:
            raise StoreCorruptError(
                f"range {meta.range_id} starts in block "
                f"{meta.start.block_no}, which is not in the chain"
            )
        start_keys.append((block_ordinal, meta.start.slot))
    end_sentinel = (len(chain_blocks), 0)

    def dead_between(low_ordinal: int, high_ordinal: int) -> bool:
        """Any dead block strictly between the two chain ordinals?"""
        left = bisect_right(dead_ordinals, low_ordinal)
        return left < bisect_left(dead_ordinals, high_ordinal)

    specs: List[Tuple[List[bytes], Optional[int], Optional[int]]] = []
    cursor = 0
    for index, meta in enumerate(metas):
        window_end = start_keys[index + 1] if index + 1 < len(metas) else end_sentinel
        window: List[Tuple[int, int, bytes]] = []
        while cursor < len(survivors) and survivors[cursor][:2] < window_end:
            window.append(survivors[cursor])
            cursor += 1

        if len(window) == meta.token_count:
            # nothing of this range was lost (a dead block between two of
            # its survivors can only have been empty)
            specs.append(
                ([rec for _, _, rec in window], meta.start_id, meta.end_id)
            )
            result.records_kept += len(window)
            continue

        # some records are gone: split the survivors into maximal runs
        head_intact = bool(window) and window[0][:2] == start_keys[index]
        tail_intact = False
        if window:
            last_ordinal = window[-1][0]
            end_block_ordinal, end_slot = window_end
            tail_intact = not dead_between(last_ordinal, end_block_ordinal)
            if end_slot > 0 and chain_blocks[end_block_ordinal] in bad:
                # the window ran into the next range's start block, and
                # that block is dead: our tail records died with it
                tail_intact = False
        segments: List[_Segment] = []
        for entry in window:
            if segments and not dead_between(segments[-1].last_ordinal, entry[0]):
                segments[-1].records.append(entry[2])
                segments[-1].last_ordinal = entry[0]
            else:
                segments.append(_Segment(records=[entry[2]], last_ordinal=entry[0]))

        prefix = segments[0].records if head_intact else None
        suffix = (
            segments[-1].records
            if tail_intact and len(segments) > (1 if head_intact else 0)
            else None
        )
        if head_intact and tail_intact and len(segments) == 1:
            # both ends survive in one run yet records are missing: the
            # invariants are already violated; keep the provable prefix
            suffix = None

        if not meta.has_interval:
            # markup-only range: no ids to assign, keep every survivor
            kept = [rec for _, _, rec in window]
            if kept:
                specs.append((kept, None, None))
                result.records_kept += len(kept)
            continue

        start_id, end_id = meta.start_id, meta.end_id
        prefix_nodes = _count_node_starts(prefix) if prefix is not None else 0
        suffix_nodes = _count_node_starts(suffix) if suffix is not None else 0
        if prefix_nodes is None:
            prefix, prefix_nodes = None, 0
        if suffix_nodes is None:
            suffix, suffix_nodes = None, 0
        if prefix_nodes + suffix_nodes > end_id - start_id + 1:
            # cannot happen under the density invariant; never guess
            suffix, suffix_nodes = None, 0

        kept_records = 0
        if prefix:
            specs.append((
                prefix,
                start_id if prefix_nodes else None,
                start_id + prefix_nodes - 1 if prefix_nodes else None,
            ))
            kept_records += len(prefix)
        if suffix:
            specs.append((
                suffix,
                end_id - suffix_nodes + 1 if suffix_nodes else None,
                end_id if suffix_nodes else None,
            ))
            kept_records += len(suffix)
        result.records_kept += kept_records
        result.records_dropped += len(window) - kept_records
        lost_low = start_id + prefix_nodes
        lost_high = end_id - suffix_nodes
        if lost_low <= lost_high:
            result.lost_intervals.append((lost_low, lost_high))

    result.lost_intervals.sort()

    # -- tear down the old physical state ---------------------------------
    old_index_blocks = _reachable_index_blocks(store.range_index._tree)
    if store.full_index is not None:
        old_index_blocks.extend(_reachable_index_blocks(store.full_index._tree))
    # a stale-valid index page can list reallocated (now-chain) blocks as
    # children, so the two walks may overlap: free each block once
    for block_no in set(chain_blocks) | set(old_index_blocks):
        store.pool.free_page(block_no)
    # blocks in subtrees below a corrupt index node are unreachable and
    # leak (never freed): acceptable — space, not correctness
    store.pool.clear_quarantine()

    # -- rebuild: fresh chain, fresh ranges, fresh indexes ------------------
    if store.partial_index is not None:
        result.memos_dropped = len(store.partial_index)
        store.partial_index.clear()
    store._assemble_logical(has_full_index=store.full_index is not None)
    previous: Optional[int] = None
    for records, start_id, end_id in specs:
        positions = store.layout.chain.append_records(records)
        meta = store.ranges.new_range(
            start=positions[0],
            token_count=len(records),
            start_id=start_id,
            end_id=end_id,
            after=previous,
        )
        previous = meta.range_id
    if store.full_index is not None or store.config.eager_partial_index:
        store._index_inserted(list(store.ranges.in_order()))
    result.ranges_after = len(store.ranges)

    # -- splice the WAL tail, tolerantly -----------------------------------
    if wal_records:
        from repro.storage.recovery import replay_record

        for record in wal_records:
            try:
                replay_record(store, record)
                result.spliced_ops += 1
            except ReproError:
                result.skipped_ops += 1

    result.integrity_ok = integrity_report(store).ok
    if store.event_log.enabled:
        store.event_log.emit(
            "recovery",
            "repair_complete",
            severity="warning" if result.degraded else "info",
            mode=result.mode,
            bad_blocks=len(result.bad_blocks),
            records_kept=result.records_kept,
            records_dropped=result.records_dropped,
            lost_ids=result.lost_ids,
            skipped_ops=result.skipped_ops,
            integrity_ok=result.integrity_ok,
        )
    _log.warning(
        "repair (%s): %d bad blocks, %d records kept, %d dropped, %d ids lost",
        result.mode,
        len(result.bad_blocks),
        result.records_kept,
        result.records_dropped,
        result.lost_ids,
    )
    return result


def _reachable_index_blocks(tree) -> List[int]:
    """Every index block reachable from the root, tolerating corrupt
    nodes (their subtrees are unreachable and simply not returned)."""
    out: List[int] = []
    stack = [tree.root_block]
    while stack:
        block_no = stack.pop()
        out.append(block_no)
        try:
            node = tree._load(block_no)
            if not node.is_leaf:
                stack.extend(node.children)
        except ReproError:
            continue
    return out


# ====================================================== full-log rebuild ==


def rebuild_from_wal(
    wal: WriteAheadLog,
    config: Optional[StoreConfig] = None,
    device=None,
) -> Tuple["object", int]:
    """Complete recovery: replay the full operation log onto a fresh
    store.  Sound because the WAL is never truncated (checkpoints only
    append markers) and every mutating operation is logged before it
    executes.  Returns ``(store, operations_replayed)``.
    """
    from repro.core.store import XMLStore
    from repro.storage.recovery import replay_all

    store = XMLStore(config=config, device=device, wal=wal)
    replayed = replay_all(store, wal)
    return store, len(replayed)


# ========================================================= degraded reads ==


@dataclass
class DegradedRead:
    """Best-effort document text plus an honest account of the damage."""

    text: str
    #: True when this is a normal, complete read (no salvage needed)
    complete: bool
    lost_intervals: List[Tuple[int, int]] = field(default_factory=list)
    ranges_lost: int = 0
    #: True when synthetic end-tags were added to keep the surviving
    #: content serializable (structure around a loss was unbalanced)
    auto_balanced: bool = False

    def to_dict(self) -> dict:
        return {
            "complete": self.complete,
            "ranges_lost": self.ranges_lost,
            "lost_intervals": [list(pair) for pair in self.lost_intervals],
            "auto_balanced": self.auto_balanced,
            "text": self.text,
        }


def degraded_read(store) -> DegradedRead:
    """Read the store, degrading instead of failing on dead blocks.

    Tries a normal full read first.  On a checksum failure it salvages
    every range whose blocks all verify, in document order, reporting
    the id intervals of lost ranges; the surviving record stream is
    minimally re-balanced (only synthetic end-tags added, nothing
    invented) so it always renders.  Content that is returned is
    always genuine — damage shows up as *absence*, never as a wrong
    answer.
    """
    try:
        return DegradedRead(text=store.read(), complete=True)
    except (ChecksumError, TokenStreamError):
        # ChecksumError: a dead block sits on the full-scan path.
        # TokenStreamError: a *prior* degraded salvage left the stream
        # unbalanced (lost begin/end tags), so the strict reader refuses
        # it — exactly the store this tolerant path exists for.
        pass
    records: List[bytes] = []
    lost: List[Tuple[int, int]] = []
    ranges_lost = 0
    for meta in store.ranges.in_order():
        try:
            records.extend(_range_records(store, meta))
        except (ChecksumError, StopIteration):
            ranges_lost += 1
            if meta.has_interval:
                lost.append((meta.start_id, meta.end_id))
    balanced, changed = _balance_records(records)
    return DegradedRead(
        text=emit(balanced).decode("utf-8"),
        complete=False,
        lost_intervals=lost,
        ranges_lost=ranges_lost,
        auto_balanced=changed,
    )


def _range_records(store, meta: RangeMeta) -> List[bytes]:
    """All records of one range, collected atomically (so a checksum
    failure midway contributes nothing), each checked as the codec checks
    a record it decodes: a ``CodecError`` for any that does not slice."""
    out: List[bytes] = []
    cursor = store.layout.iter_from(meta.start)
    for _ in range(meta.token_count):
        _, record = next(cursor)
        end = token_fields(record)[4]
        if end != len(record):
            raise CodecError(f"{len(record) - end} trailing bytes after token")
        out.append(record)
    return out


#: The only synthetic records a balance ever adds.
_ATTRIBUTE_CLOSER = encode_record(TokenKind.END_ATTRIBUTE)
_ELEMENT_CLOSER = encode_record(TokenKind.END_ELEMENT)


def _balance_records(records: List[bytes]) -> Tuple[List[bytes], bool]:
    """Minimal edit making a salvaged stream renderable.

    Drops records the emitter would reject (unmatched end records,
    attribute material with no open start tag) and closes elements left
    open at the end.  Every kept record is genuine surviving content;
    the only *synthetic* records ever added are END_ATTRIBUTE/END_ELEMENT
    closers.  Returns ``(records, changed)``.
    """
    out: List[bytes] = []
    changed = False
    open_elements = 0
    tag_open = False  # start tag still open: attributes are legal
    attr_open = False  # inside BEGIN_ATTRIBUTE .. END_ATTRIBUTE

    def close_attribute() -> None:
        nonlocal attr_open, changed
        if attr_open:
            out.append(_ATTRIBUTE_CLOSER)
            attr_open = False
            changed = True

    for record in records:
        kind = record[0] & KIND_MASK
        if kind == TokenKind.BEGIN_ELEMENT:
            close_attribute()
            keep = tag_open = True
            open_elements += 1
        elif kind == TokenKind.END_ELEMENT:
            close_attribute()
            keep = open_elements > 0  # an unmatched end is dropped
            if keep:
                open_elements -= 1
                tag_open = False
        elif kind == TokenKind.BEGIN_ATTRIBUTE:
            keep = tag_open and not attr_open
            attr_open = attr_open or keep
        elif kind == TokenKind.ATTRIBUTE_VALUE:
            keep = attr_open
        elif kind == TokenKind.END_ATTRIBUTE:
            keep, attr_open = attr_open, False
        elif kind == TokenKind.NAMESPACE:
            keep = tag_open and not attr_open
        elif kind in (TokenKind.BEGIN_DOCUMENT, TokenKind.END_DOCUMENT):
            keep = True  # the emitter renders them as nothing
        else:  # TEXT / COMMENT / PROCESSING_INSTRUCTION
            close_attribute()
            keep, tag_open = True, False
        if keep:
            out.append(record)
        else:
            changed = True
    close_attribute()
    if open_elements:
        out.extend([_ELEMENT_CLOSER] * open_elements)
        changed = True
    return out, changed


# ===================================================== directory stores ==


def repair_directory(path: str, config: Optional[StoreConfig] = None) -> RepairReport:
    """Repair the directory store at ``path`` (see ``repro repair``).

    Tries the full-log rebuild first — the WAL holds the complete
    operation history, so when it is present and readable the rebuild
    recovers *everything* — and falls back to structural salvage of the
    device + catalog.  On a degraded salvage a ``store.repair.json``
    sidecar is written next to the store (``repro verify`` maps it to
    exit code 1); a full recovery removes any stale sidecar.
    """
    from repro.core.filestore import (
        CATALOG_FILE,
        DEVICE_FILE,
        WAL_FILE,
        _write_catalog,
    )
    from repro.core.store import XMLStore
    from repro.storage.disk import FileBlockDevice, InstrumentedDevice

    config = config if config is not None else StoreConfig()
    device_path = os.path.join(path, DEVICE_FILE)
    wal_path = os.path.join(path, WAL_FILE)
    catalog_path = os.path.join(path, CATALOG_FILE)
    sidecar_path = os.path.join(path, SIDECAR_FILE)

    # -- strategy 1: full-log rebuild --------------------------------------
    if os.path.exists(wal_path):
        rebuild_path = device_path + ".rebuild"
        try:
            if os.path.exists(rebuild_path):
                os.remove(rebuild_path)
            wal = WriteAheadLog(wal_path)
            try:
                device = InstrumentedDevice(
                    FileBlockDevice(rebuild_path, block_size=config.page_size)
                )
                store, replayed = rebuild_from_wal(wal, config=config, device=device)
                report = RepairReport(mode="wal-rebuild", replayed_ops=replayed)
                report.ranges_after = len(list(store.ranges.in_order()))
                report.integrity_ok = integrity_report(store).ok
                if not report.integrity_ok:
                    raise StoreCorruptError("full-log rebuild fails integrity")
                catalog = store.checkpoint()
                device.close()
                os.replace(rebuild_path, device_path)
                _write_catalog(catalog_path, catalog)
            finally:
                wal.close()
        except ReproError as error:
            _log.warning(
                "full-log rebuild of %s failed (%s); falling back to salvage",
                path,
                error,
            )
            if os.path.exists(rebuild_path):
                os.remove(rebuild_path)
        else:
            if os.path.exists(sidecar_path):
                os.remove(sidecar_path)
            record_directory_incident(
                path, "repair", {"report": report.to_dict()}, config=config
            )
            return report

    # -- strategy 2: structural salvage ------------------------------------
    if not (os.path.exists(catalog_path) and os.path.exists(device_path)):
        raise StoreCorruptError(
            f"{path}: no usable WAL and no catalog+device to salvage"
        )
    with open(catalog_path, "rb") as handle:
        catalog = handle.read()
    device = InstrumentedDevice(
        FileBlockDevice(device_path, block_size=config.page_size)
    )
    wal = WriteAheadLog(wal_path) if os.path.exists(wal_path) else WriteAheadLog()
    try:
        store = XMLStore.from_catalog(device, catalog, config=config, wal=wal)
        try:
            tail = wal.records_after_last_checkpoint()
        except ReproError:
            tail = []
        report = repair_store(store, wal_records=tail)
        _write_catalog(catalog_path, store.checkpoint())
    finally:
        wal.close()
        device.close()
    if report.degraded:
        with open(sidecar_path, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
    elif os.path.exists(sidecar_path):
        os.remove(sidecar_path)
    record_directory_incident(
        path, "repair", {"report": report.to_dict()}, config=config
    )
    return report
