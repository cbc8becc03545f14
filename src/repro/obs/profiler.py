"""Deterministic cost profiles: where each operation's cost went.

EXPLAIN (:mod:`repro.obs.explain`) answers *which access path* one
operation took; this module answers *what fraction of the cost* each
component consumed, along the store's two clocks at once:

* the **simulated axis** — disk seconds plus the per-token and
  per-index-entry CPU charges (:meth:`XMLStore.simulated_seconds`).
  Fully deterministic: the same workload produces byte-identical
  profiles, which is what makes flamegraphs diffable across commits;
* the **wall axis** — real seconds from the observability clock, the
  ground truth the calibration gate (:mod:`repro.obs.calibration`)
  compares the model against.

A :class:`ProfileRecorder` brackets a window of work exactly like an
``ExplainRecorder``: it snapshots the always-on counters before, runs
the work, and folds the tracing spans finished inside the window into a
:class:`CostProfile` — a merged call tree (siblings with the same span
name coalesce, flamegraph-style) plus a per-component cost table derived
from the *same* counter deltas and cost constants the store's clock
uses, so the component totals reconcile exactly (±0) with the metrics
registry.  The recorder adds no probes of its own: everything comes from
instrumentation PR 1 and PR 2 already put on the hot path, and with
profiling disabled nothing here runs at all.

Exports (collapsed stacks, speedscope JSON, a pstats-style top table)
live in :mod:`repro.obs.profile_export`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.clock import perf_seconds
from repro.obs.tracing import SpanEvent

#: span-name prefixes attributed to a component on the wall axis
_SPAN_COMPONENTS = {
    "locator": "token-replay",
    "wal": "wal",
    "xpath": "xpath",
}


def component_of_span(name: str) -> str:
    """The component a span name belongs to ("wal.append" -> "wal");
    unprefixed Table-1 operation spans belong to the store itself."""
    head = name.split(".", 1)[0]
    return _SPAN_COMPONENTS.get(head, "store")


@dataclass
class CallNode:
    """One frame of the merged call tree: all spans with the same name
    under the same (merged) parent, with totals along both axes."""

    name: str
    count: int = 0
    wall_seconds: float = 0.0
    simulated_seconds: float = 0.0
    children: "Dict[str, CallNode]" = field(default_factory=dict)

    def child(self, name: str) -> "CallNode":
        node = self.children.get(name)
        if node is None:
            node = CallNode(name)
            self.children[name] = node
        return node

    @property
    def self_wall_seconds(self) -> float:
        """Wall time not covered by child spans (clamped at zero: float
        subtraction of nested windows can go an ulp negative)."""
        inner = sum(c.wall_seconds for c in self.children.values())
        return max(0.0, self.wall_seconds - inner)

    @property
    def self_simulated_seconds(self) -> float:
        inner = sum(c.simulated_seconds for c in self.children.values())
        return max(0.0, self.simulated_seconds - inner)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "count": self.count,
            "wall_seconds": self.wall_seconds,
            "simulated_seconds": self.simulated_seconds,
            "self_wall_seconds": self.self_wall_seconds,
            "self_simulated_seconds": self.self_simulated_seconds,
            "children": [c.to_dict() for c in self.children.values()],
        }


def fold_spans(spans: Sequence[SpanEvent]) -> CallNode:
    """Merge span events into a call tree keyed by name paths.

    Each span is inserted at the path of names from its outermost
    recorded ancestor down to itself (the parent chain is rebuilt from
    the ``parent`` sequence numbers; a parent outside the window — or
    evicted from the ring — makes its subtree root-level).  Insertion
    order follows span start order (``seq``), so sibling ordering, and
    therefore every export, is deterministic.
    """
    by_seq = {event.seq: event for event in spans}
    root = CallNode("")

    def path(event: SpanEvent) -> List[str]:
        names: List[str] = []
        cursor: Optional[SpanEvent] = event
        while cursor is not None:
            names.append(cursor.name)
            cursor = (
                by_seq.get(cursor.parent) if cursor.parent is not None else None
            )
        names.reverse()
        return names

    for event in sorted(spans, key=lambda e: e.seq):
        node = root
        for name in path(event):
            node = node.child(name)
        node.count += 1
        node.wall_seconds += event.wall_seconds
        node.simulated_seconds += event.simulated_seconds
    return root


def span_totals(spans: Sequence[SpanEvent]) -> Dict[str, Dict[str, float]]:
    """Per-span-name totals, accumulated in ring (finish) order.

    Finish order is the order the tracer fed the very same values into
    the ``repro_span_*`` histograms, so these float sums are *bitwise*
    equal to the registry's ``_sum`` samples — the reconciliation the
    acceptance test pins at ±0.
    """
    totals: Dict[str, Dict[str, float]] = {}
    for event in spans:  # ring order, do not sort
        entry = totals.setdefault(
            event.name,
            {"count": 0, "wall_seconds": 0.0, "simulated_seconds": 0.0},
        )
        entry["count"] += 1
        entry["wall_seconds"] += event.wall_seconds
        entry["simulated_seconds"] += event.simulated_seconds
    return totals


@dataclass
class ComponentCost:
    """One component's share of the window, on both axes.

    ``simulated_seconds`` is computed as counter-delta x the store's own
    cost constant (the exact multiplication the simulated clock
    performs), so it reconciles with the registry without tolerance.
    ``wall_seconds`` is the wall total of the component's spans, or None
    when no span covers the component.
    """

    component: str
    simulated_seconds: float
    wall_seconds: Optional[float]
    counts: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "component": self.component,
            "simulated_seconds": self.simulated_seconds,
            "wall_seconds": self.wall_seconds,
            "counts": self.counts,
        }


@dataclass
class CostProfile:
    """A window of work, attributed: call tree + component cost table."""

    operation: str
    wall_seconds: float
    #: store-clock delta over the window (the authoritative total; the
    #: component rows decompose it, up to float re-association)
    simulated_seconds: float
    root: CallNode
    span_totals: Dict[str, Dict[str, float]]
    components: List[ComponentCost]
    #: spans evicted from the tracer ring during the window; when > 0 the
    #: tree under-reports and every renderer says so (no silent caps)
    spans_dropped: int = 0

    def component(self, name: str) -> Optional[ComponentCost]:
        for row in self.components:
            if row.component == name:
                return row
        return None

    def to_dict(self, include_tree: bool = True) -> Dict[str, object]:
        from repro.obs.schema import SCHEMA_VERSION

        out: Dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "operation": self.operation,
            "wall_seconds": self.wall_seconds,
            "simulated_seconds": self.simulated_seconds,
            "span_totals": self.span_totals,
            "components": [row.to_dict() for row in self.components],
            "spans_dropped": self.spans_dropped,
        }
        if include_tree:
            out["tree"] = [c.to_dict() for c in self.root.children.values()]
        return out


class ProfileRecorder:
    """Context manager assembling a :class:`CostProfile` around a window
    of store work.  The profile is available as ``.profile`` after exit.

    Requires the store's telemetry to be live (``profiling_enabled`` or
    ``telemetry_enabled``); against disabled telemetry the tree is empty but
    the component table — built from always-on counters — still works.
    """

    def __init__(self, store, operation: str = "profile") -> None:
        self.store = store
        self.operation = operation
        self.profile: Optional[CostProfile] = None

    def __enter__(self) -> "ProfileRecorder":
        store = self.store
        self._scanned_before = store.locator.stats.tokens_scanned
        self._emitted_before = store.tokens_emitted
        self._range_entries_before = store.range_index._tree.entries_loaded
        self._range_lookups_before = store.range_index.lookups
        self._full_entries_before = (
            store.full_index._tree.entries_loaded
            if store.full_index is not None
            else 0
        )
        disk = getattr(store.device, "stats", None)
        self._disk_before = disk.snapshot() if disk is not None else None
        buffer = store.pool.stats
        self._buffer_before = (buffer.hits, buffer.misses)
        self._wal_before = (store.wal.appends, store.wal.fsyncs)
        if store.partial_index is not None:
            partial = store.partial_index.stats
            self._partial_before = (
                partial.hits, partial.misses, partial.stale_hits
            )
        else:
            self._partial_before = None
        self._simulated_before = store.simulated_seconds
        tracer = store.telemetry.tracer
        self._span_seq_before = tracer.next_seq
        self._dropped_before = tracer.dropped
        self._wall_start = perf_seconds()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall_seconds = perf_seconds() - self._wall_start
        if exc_type is not None:
            return  # propagate; no profile for a failed window
        from repro.core.store import (
            CPU_COST_PER_INDEX_ENTRY,
            CPU_COST_PER_SCAN_TOKEN,
            CPU_COST_PER_TOKEN,
        )

        store = self.store
        tracer = store.telemetry.tracer
        spans = [
            event for event in tracer.events()
            if event.seq >= self._span_seq_before
        ]
        totals = span_totals(spans)

        def span_wall(*names: str) -> Optional[float]:
            covered = [totals[n]["wall_seconds"] for n in names if n in totals]
            return sum(covered) if covered else None

        scanned = store.locator.stats.tokens_scanned - self._scanned_before
        emitted = store.tokens_emitted - self._emitted_before
        range_entries = (
            store.range_index._tree.entries_loaded - self._range_entries_before
        )
        components = [
            ComponentCost(
                "token-replay",
                scanned * CPU_COST_PER_SCAN_TOKEN,
                span_wall("locator.scan"),
                {"tokens_scanned": scanned},
            ),
            ComponentCost(
                "token-emit",
                emitted * CPU_COST_PER_TOKEN,
                None,
                {"tokens_emitted": emitted},
            ),
            ComponentCost(
                "range-index",
                range_entries * CPU_COST_PER_INDEX_ENTRY,
                None,
                {
                    "entries_loaded": range_entries,
                    "lookups": store.range_index.lookups
                    - self._range_lookups_before,
                },
            ),
        ]
        if store.full_index is not None:
            full_entries = (
                store.full_index._tree.entries_loaded - self._full_entries_before
            )
            components.append(
                ComponentCost(
                    "full-index",
                    full_entries * CPU_COST_PER_INDEX_ENTRY,
                    None,
                    {"entries_loaded": full_entries},
                )
            )
        if self._partial_before is not None:
            stats = store.partial_index.stats
            hits = stats.hits - self._partial_before[0]
            misses = stats.misses - self._partial_before[1]
            stale = stats.stale_hits - self._partial_before[2]
            components.append(
                ComponentCost(
                    "partial-index",
                    0.0,  # memory-resident: free on the simulated clock (§5)
                    None,
                    {
                        "probes": hits + misses + stale,
                        "hits": hits,
                        "misses": misses,
                        "stale_hits": stale,
                    },
                )
            )
        disk = getattr(store.device, "stats", None)
        if disk is not None and self._disk_before is not None:
            delta = disk.delta(self._disk_before)
            components.append(
                ComponentCost(
                    "disk",
                    delta.simulated_seconds,
                    None,
                    {
                        "blocks_read": delta.reads,
                        "blocks_written": delta.writes,
                        "sequential_reads": delta.sequential_reads,
                        "sequential_writes": delta.sequential_writes,
                    },
                )
            )
        buffer = store.pool.stats
        components.append(
            ComponentCost(
                "buffer",
                0.0,  # pool hits cost nothing on the simulated clock
                None,
                {
                    "hits": buffer.hits - self._buffer_before[0],
                    "misses": buffer.misses - self._buffer_before[1],
                },
            )
        )
        components.append(
            ComponentCost(
                "wal",
                0.0,  # the WAL is not charged by the disk model
                span_wall("wal.append", "wal.fsync"),
                {
                    "appends": store.wal.appends - self._wal_before[0],
                    "fsyncs": store.wal.fsyncs - self._wal_before[1],
                },
            )
        )
        if "xpath" in totals:
            components.append(
                ComponentCost(
                    "xpath",
                    0.0,  # its disk/token costs are attributed above
                    span_wall("xpath"),
                    {"evaluations": totals["xpath"]["count"]},
                )
            )
        self.profile = CostProfile(
            operation=self.operation,
            wall_seconds=wall_seconds,
            simulated_seconds=store.simulated_seconds - self._simulated_before,
            root=fold_spans(spans),
            span_totals=totals,
            components=components,
            spans_dropped=tracer.dropped - self._dropped_before,
        )


def reconcile_with_metrics(
    profile: CostProfile, values: Dict[str, float]
) -> List[str]:
    """Cross-check a *whole-store-lifetime* profile against a registry
    snapshot (:func:`repro.obs.bridge.metrics_snapshot` ``.values``).

    Every comparison is exact (``!=``, no tolerance): the profile's
    counts are the same integers the projection counters hold, its
    component costs are the same count-x-constant products, and its span
    sums were accumulated in the same order as the histogram sums.  Only
    meaningful when the profile window covers the store's entire life
    (otherwise the registry's since-birth counters are ahead).
    Returns human-readable mismatches; empty means reconciled.
    """
    out: List[str] = []

    def check(label: str, ours: float, key: str) -> None:
        theirs = values.get(key)
        if theirs is None:
            out.append(f"{label}: registry sample {key} missing")
        elif ours != theirs:
            out.append(f"{label}: profile {ours!r} != registry {key} {theirs!r}")

    replay = profile.component("token-replay")
    if replay is not None:
        check(
            "token-replay tokens",
            replay.counts["tokens_scanned"],
            "repro_locator_tokens_scanned_total",
        )
    emit = profile.component("token-emit")
    if emit is not None:
        check(
            "token-emit tokens",
            emit.counts["tokens_emitted"],
            "repro_store_tokens_emitted_total",
        )
    entries = sum(
        row.counts.get("entries_loaded", 0)
        for row in profile.components
        if row.component in ("range-index", "full-index")
    )
    check("index entries", entries, "repro_store_index_entries_loaded_total")
    disk = profile.component("disk")
    if disk is not None:
        check(
            "disk simulated seconds",
            disk.simulated_seconds,
            "repro_disk_simulated_seconds_total",
        )
    wal = profile.component("wal")
    if wal is not None:
        check("wal appends", wal.counts["appends"], "repro_wal_appends_total")
        check("wal fsyncs", wal.counts["fsyncs"], "repro_wal_fsyncs_total")
    for name, totals in profile.span_totals.items():
        check(
            f"span {name} simulated sum",
            totals["simulated_seconds"],
            f'repro_span_simulated_seconds_sum{{span="{name}"}}',
        )
        check(
            f"span {name} count",
            float(totals["count"]),
            f'repro_spans_total{{span="{name}"}}',
        )
    return out
