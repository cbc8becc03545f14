"""EXPLAIN: per-operation access-path attribution.

The paper's Table 5 shows that *which access path an operation takes* —
eager full-index probe, coarse range scan with id regeneration, or lazy
partial-index hit — dominates its cost.  This module answers that
question for one concrete operation, in the spirit of a relational
``EXPLAIN ANALYZE``:

    with Window(store, "read") as window:
        store.read(42)
    print(explain_report(window, ["42"]).render())

:func:`explain_report` reads a closed :class:`~repro.obs.window.Window`
opened with an operation: the counter deltas, the tracing spans opened
inside the window, and the structured events (:mod:`repro.obs.events`)
the components emitted under the window's op id.  Everything comes from
instrumentation that already exists.

``repro ... explain <op>`` runs the plain ``<op>`` command inside a
window.  So ``explain xpath`` serializes every match, as ``xpath``
does: the per-node reads are where the partial-index-vs-scan
distinction shows up, since the evaluator's view build is always one
sequential pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence

from repro.obs.events import Event
from repro.obs.profiler import span_totals


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

        out: Dict[str, object] = {"schema_version": SCHEMA_VERSION}
        for f in fields(self):
            if f.name not in ("partial", "events"):
                out[f.name] = getattr(self, f.name)
        out["events"] = (
            [event.to_dict() for event in self.events]
            if include_events
            else len(self.events)
        )
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


def explain_report(window, argv: Sequence[str] = ()) -> ExplainReport:
    """The :class:`ExplainReport` of a closed :class:`~repro.obs.window.Window`
    opened with an ``operation``."""
    counts, spans, events, disk = (
        window.counts, window.spans, window.events, window.disk
    )
    partial, full, scan = (
        counts[f"{path}_resolutions"] for path in ("partial", "full", "scan")
    )
    return ExplainReport(
        operation=window.operation,
        argv=[str(a) for a in argv],
        op_id=window.op_id,
        access_path=_classify(partial, full, scan),
        resolutions={"partial": partial, "full": full, "scan": scan},
        partial=window.partial,
        range_lookups=counts["range_lookups"],
        ranges_scanned=[
            dict(event.fields)
            for event in events
            if event.source == "locator" and event.kind == "scan"
        ],
        tokens_replayed=counts["tokens_scanned"],
        tokens_emitted=counts["tokens_emitted"],
        index_entries_loaded=(
            counts["range_entries_loaded"] + counts["full_entries_loaded"]
        ),
        blocks_read=disk.reads if disk is not None else 0,
        blocks_written=disk.writes if disk is not None else 0,
        buffer_hits=counts["buffer_hits"],
        buffer_misses=counts["buffer_misses"],
        wal_appends=counts["wal_appends"],
        wal_fsyncs=counts["wal_fsyncs"],
        wal_seconds=sum(s.wall_seconds for s in spans if s.name == "wal.append"),
        lock_wait_seconds=sum(
            s.wall_seconds for s in spans if s.name == "lock.wait"
        ),
        simulated_seconds=counts["simulated_seconds"],
        wall_seconds=window.wall_seconds,
        stages=[
            {"stage": name, **totals}
            for name, totals in sorted(
                span_totals(spans).items(),
                key=lambda item: -item[1]["wall_seconds"],
            )
        ],
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

