"""EXPLAIN: per-operation access-path attribution.

The paper's Table 5 shows that *which access path an operation takes* —
eager full-index probe, coarse range scan with id regeneration, or lazy
partial-index hit — dominates its cost.  This module answers that
question for one concrete operation, in the spirit of a relational
``EXPLAIN ANALYZE``:

    with ExplainRecorder(store, "read", ["42"]) as recorder:
        store.read(42)
    print(recorder.report.render())

:class:`ExplainRecorder` brackets the operation: it snapshots every
always-on statistics object before, runs the work, and assembles an
:class:`ExplainReport` from the deltas, the tracing spans opened inside
the window, and the structured events (:mod:`repro.obs.events`) the
components emitted.  Everything comes from instrumentation that already
exists — the recorder adds no probes of its own to the hot path.

``repro ... explain <op>`` runs the plain ``<op>`` command inside a
recorder.  So ``explain xpath`` serializes every match, as ``xpath``
does: the per-node reads are where the partial-index-vs-scan
distinction shows up, since the evaluator's view build is always one
sequential pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.clock import perf_seconds
from repro.obs.events import Event


@dataclass
class ExplainReport:
    """Everything one operation did, attributed to its access paths."""

    operation: str
    argv: List[str]
    op_id: int
    #: "partial-hit" | "full-probe" | "range-scan" | "none" | "mixed(...)"
    access_path: str
    #: resolutions by path: {"partial": n, "full": n, "scan": n}
    resolutions: Dict[str, int]
    #: partial-index probe outcomes in the window (None = no partial index)
    partial: Optional[Dict[str, int]]
    #: range-index floor lookups performed
    range_lookups: int
    #: ranges scanned for id regeneration (from locator scan events)
    ranges_scanned: List[Dict[str, object]]
    #: tokens replayed by locate scans (id regeneration cost, §4.3)
    tokens_replayed: int
    #: tokens decoded for serialization
    tokens_emitted: int
    #: B+-tree entries decoded (range + full index)
    index_entries_loaded: int
    blocks_read: int
    blocks_written: int
    buffer_hits: int
    buffer_misses: int
    wal_appends: int
    wal_fsyncs: int
    #: wall seconds spent inside wal.append spans
    wal_seconds: float
    #: wall seconds spent inside lock.wait spans
    lock_wait_seconds: float
    simulated_seconds: float
    wall_seconds: float
    #: per-span-name cost breakdown within the window (nested spans each
    #: count their own totals)
    stages: List[Dict[str, object]] = field(default_factory=list)
    #: fault-injection and recovery events in the window (source "fault"
    #: from :mod:`repro.storage.faults`, "recovery" from WAL replay) —
    #: how EXPLAIN attributes post-crash work to torn writes and replay
    faults: List[Dict[str, object]] = field(default_factory=list)
    #: structured events emitted during the window
    events: List[Event] = field(default_factory=list)

    def to_dict(self, include_events: bool = True) -> Dict[str, object]:
        """JSON-ready dict.  ``include_events=False`` replaces the event
        list with its length (for compact attachments, e.g. bench rows)."""
        from repro.obs.schema import SCHEMA_VERSION

        out: Dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "operation": self.operation,
            "argv": self.argv,
            "op_id": self.op_id,
            "access_path": self.access_path,
            "resolutions": self.resolutions,
            "range_lookups": self.range_lookups,
            "ranges_scanned": self.ranges_scanned,
            "tokens_replayed": self.tokens_replayed,
            "tokens_emitted": self.tokens_emitted,
            "index_entries_loaded": self.index_entries_loaded,
            "blocks_read": self.blocks_read,
            "blocks_written": self.blocks_written,
            "buffer_hits": self.buffer_hits,
            "buffer_misses": self.buffer_misses,
            "wal_appends": self.wal_appends,
            "wal_fsyncs": self.wal_fsyncs,
            "wal_seconds": self.wal_seconds,
            "lock_wait_seconds": self.lock_wait_seconds,
            "simulated_seconds": self.simulated_seconds,
            "wall_seconds": self.wall_seconds,
            "stages": self.stages,
            "faults": self.faults,
        }
        if include_events:
            out["events"] = [event.to_dict() for event in self.events]
        else:
            out["events"] = len(self.events)
        if self.partial is not None:
            out["partial"] = self.partial
        return out

    def render(self) -> str:
        """Human-readable report (the CLI's ``explain`` output)."""
        res = self.resolutions
        lines = [
            f"EXPLAIN {self.operation} {' '.join(self.argv)}".rstrip(),
            (
                f"access path: {self.access_path}"
                f" (partial={res['partial']} full={res['full']} scan={res['scan']})"
            ),
        ]
        if self.partial is not None:
            p = self.partial
            lines.append(
                f"partial index: probes={p['probes']} hits={p['hits']}"
                f" misses={p['misses']} stale={p['stale_hits']}"
            )
        for scan in self.ranges_scanned:
            interval = (
                f"[{scan['start_id']}..{scan['end_id']}]"
                if scan.get("start_id") is not None
                else "(empty)"
            )
            lines.append(
                f"scanned range {scan['range_id']} {interval}"
                f" tokens={scan['tokens']} for node {scan['node_id']}"
            )
        lines.append(
            f"tokens: replayed={self.tokens_replayed}"
            f" emitted={self.tokens_emitted}"
            f"  index entries loaded={self.index_entries_loaded}"
        )
        lines.append(
            f"blocks: read={self.blocks_read} written={self.blocks_written}"
            f"  buffer: hits={self.buffer_hits} misses={self.buffer_misses}"
        )
        lines.append(
            f"wal: appends={self.wal_appends} fsyncs={self.wal_fsyncs}"
            f" seconds={self.wal_seconds:.6f}"
            f"  lock wait={self.lock_wait_seconds:.6f}s"
        )
        for fault in self.faults:
            detail = " ".join(
                f"{key}={value}"
                for key, value in fault.items()
                if key not in ("source", "kind")
            )
            lines.append(f"{fault['source']}: {fault['kind']} {detail}".rstrip())
        lines.append(
            f"cost: simulated={self.simulated_seconds:.6f}s"
            f" wall={self.wall_seconds:.6f}s"
        )
        if self.stages:
            lines.append("stages (wall-heaviest first):")
            for stage in self.stages:
                lines.append(
                    f"  {stage['stage']:<20} count={stage['count']:>4}"
                    f" wall={stage['wall_seconds']:.6f}s"
                    f" simulated={stage['simulated_seconds']:.6f}s"
                )
        lines.append(f"events: {len(self.events)} (--json for full detail)")
        return "\n".join(lines)


class ExplainRecorder:
    """Context manager assembling an :class:`ExplainReport` around one
    store operation.  The report is available as ``.report`` after exit."""

    def __init__(self, store, operation: str, argv: Sequence[str] = ()) -> None:
        self.store = store
        self.operation = operation
        self.argv = [str(a) for a in argv]
        self.report: Optional[ExplainReport] = None

    def __enter__(self) -> "ExplainRecorder":
        store = self.store
        locator = store.locator.stats
        self._locator_before = (
            locator.partial_resolutions,
            locator.full_resolutions,
            locator.scan_resolutions,
            locator.tokens_scanned,
        )
        if store.partial_index is not None:
            partial = store.partial_index.stats
            self._partial_before = (
                partial.hits,
                partial.misses,
                partial.stale_hits,
            )
        else:
            self._partial_before = None
        self._range_lookups_before = store.range_index.lookups
        disk = getattr(store.device, "stats", None)
        self._disk_before = disk.snapshot() if disk is not None else None
        buffer = store.pool.stats
        self._buffer_before = (buffer.hits, buffer.misses)
        self._wal_before = (store.wal.appends, store.wal.fsyncs)
        self._simulated_before = store.simulated_seconds
        self._emitted_before = store.tokens_emitted
        self._entries_before = store.index_entries_loaded
        self._event_seq_before = store.event_log.next_seq
        self._span_seq_before = store.telemetry.tracer.next_seq
        self._op_id = store.event_log.begin_op(self.operation)
        self._wall_start = perf_seconds()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall_seconds = perf_seconds() - self._wall_start
        store = self.store
        store.event_log.end_op()
        if exc_type is not None:
            return  # propagate; no report for a failed operation
        locator = store.locator.stats
        partial_delta = locator.partial_resolutions - self._locator_before[0]
        full_delta = locator.full_resolutions - self._locator_before[1]
        scan_delta = locator.scan_resolutions - self._locator_before[2]
        resolutions = {
            "partial": partial_delta,
            "full": full_delta,
            "scan": scan_delta,
        }
        partial: Optional[Dict[str, int]] = None
        if self._partial_before is not None:
            stats = store.partial_index.stats
            hits = stats.hits - self._partial_before[0]
            misses = stats.misses - self._partial_before[1]
            stale = stats.stale_hits - self._partial_before[2]
            partial = {
                "probes": hits + misses + stale,
                "hits": hits,
                "misses": misses,
                "stale_hits": stale,
            }
        disk = getattr(store.device, "stats", None)
        if disk is not None and self._disk_before is not None:
            disk_delta = disk.delta(self._disk_before)
            blocks_read, blocks_written = disk_delta.reads, disk_delta.writes
        else:
            blocks_read = blocks_written = 0
        buffer = store.pool.stats
        spans = [
            event
            for event in store.telemetry.events()
            if event.seq >= self._span_seq_before
        ]
        events = store.event_log.events(
            since=self._event_seq_before, op_id=self._op_id
        )
        self.report = ExplainReport(
            operation=self.operation,
            argv=self.argv,
            op_id=self._op_id,
            access_path=_classify(partial_delta, full_delta, scan_delta),
            resolutions=resolutions,
            partial=partial,
            range_lookups=store.range_index.lookups - self._range_lookups_before,
            ranges_scanned=[
                dict(event.fields)
                for event in events
                if event.source == "locator" and event.kind == "scan"
            ],
            tokens_replayed=locator.tokens_scanned - self._locator_before[3],
            tokens_emitted=store.tokens_emitted - self._emitted_before,
            index_entries_loaded=store.index_entries_loaded - self._entries_before,
            blocks_read=blocks_read,
            blocks_written=blocks_written,
            buffer_hits=buffer.hits - self._buffer_before[0],
            buffer_misses=buffer.misses - self._buffer_before[1],
            wal_appends=store.wal.appends - self._wal_before[0],
            wal_fsyncs=store.wal.fsyncs - self._wal_before[1],
            wal_seconds=sum(
                s.wall_seconds for s in spans if s.name == "wal.append"
            ),
            lock_wait_seconds=sum(
                s.wall_seconds for s in spans if s.name == "lock.wait"
            ),
            simulated_seconds=store.simulated_seconds - self._simulated_before,
            wall_seconds=wall_seconds,
            stages=_stage_breakdown(spans),
            faults=[
                {"source": event.source, "kind": event.kind, **event.fields}
                for event in events
                if event.source in ("fault", "recovery")
            ],
            events=events,
        )


def _classify(partial: int, full: int, scan: int) -> str:
    paths = []
    if partial:
        paths.append("partial-hit")
    if full:
        paths.append("full-probe")
    if scan:
        paths.append("range-scan")
    if not paths:
        return "none"
    if len(paths) == 1:
        return paths[0]
    return "mixed(" + "+".join(paths) + ")"


def _stage_breakdown(spans) -> List[Dict[str, object]]:
    stages: Dict[str, Dict[str, object]] = {}
    for span in spans:
        stage = stages.setdefault(
            span.name,
            {"stage": span.name, "count": 0, "wall_seconds": 0.0,
             "simulated_seconds": 0.0},
        )
        stage["count"] += 1
        stage["wall_seconds"] += span.wall_seconds
        stage["simulated_seconds"] += span.simulated_seconds
    return sorted(stages.values(), key=lambda s: -s["wall_seconds"])
