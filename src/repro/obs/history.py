"""Workload history: the store's append-only telemetry timeline.

Live metrics answer "what is the store doing *now*"; the adaptive
questions of the paper — has the workload *changed*, is the current
configuration still the right one — need the past.  This module records
it: a bounded, store-local sequence of :class:`HistorySnapshot` rows,
each one the *delta* of every deterministic counter since the previous
row (operation mix, access-path resolutions, buffer traffic, WAL and
range activity) plus cumulative partial-index efficacy and a compact
block-heat summary.

Capture points, all through the store's one watch tick
(:meth:`~repro.core.store.XMLStore.watch`), which hands every observer it
feeds the same metric capture:

* every :data:`DEFAULT_INTERVAL` Table-1 operations;
* every checkpoint (so a closed store's file always ends on a complete
  picture);
* explicitly, from the bench harness (one snapshot per phase, labeled).

Each capture is a ``history`` row of the store's journal
(:mod:`repro.obs.journal`), restored from it on reopen.  Retention is
bounded by :data:`DEFAULT_CAPACITY`: on overflow the two *oldest* rows
merge (deltas summed, the rest kept from the later row, ``seq`` too) and
the journal is rewritten, so old history loses resolution gradually
instead of vanishing — the standard telemetry-downsampling trade.

The contract of :mod:`repro.obs` holds: everything here only *reads*
counters and never touches the simulated clock, a history built with
``enabled=False`` (no rows restored, none recorded) keeps the hot path at one
attribute check because every capture site guards on it, and —
for the CI determinism gate — snapshots exclude every wall-clock-derived
sample (span wall seconds), so two identical runs write identical
history byte-for-byte.

Consumers: :mod:`repro.obs.fingerprint` (drift detection over snapshot
windows) and :mod:`repro.obs.advisor` (evidence-backed tuning
recommendations).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.obs.journal import Journal, as_row, from_row

DEFAULT_CAPACITY = 256
DEFAULT_INTERVAL = 64

#: Hottest blocks listed per heat summary.
_HEAT_TOP = 5


@dataclass
class HistorySnapshot:
    """One row of the workload timeline."""

    #: The journal row's ``seq`` (survives reopen via the journal).
    seq: int
    #: Why this row exists: "interval", "checkpoint", a bench phase
    #: label, or "compacted" after retention merged older rows.
    label: str
    #: Cumulative Table-1 operations at capture time.
    operations: int
    #: Cumulative simulated clock at capture time (read, never advanced).
    simulated_seconds: float
    #: Per-window counter deltas (gauges: value at capture), keyed by
    #: flat sample name — see :func:`repro.obs.metrics.sample_key`.
    deltas: Dict[str, float] = field(default_factory=dict)
    #: Cumulative partial-index efficacy (None when the policy keeps no
    #: partial index) — same shape as the heatmap report's section.
    partial_index: Optional[Dict[str, object]] = None
    #: Block-heat summary (None when the heatmap is disabled).
    heatmap: Optional[Dict[str, object]] = None
    #: How many raw captures this row aggregates (retention merging).
    merged: int = 1

    def delta(self, key: str, default: float = 0.0) -> float:
        return self.deltas.get(key, default)


def _heat_summary(store) -> Optional[Dict[str, object]]:
    """Compress the block heatmap into the numbers drift/advice need:
    how many blocks the workload touches, how concentrated the heat is
    (share of the hottest decile), and how many blocks cover 80% of all
    touches (the working set the buffer pool must hold)."""
    if not store.heatmap.enabled:
        return None
    counts = store.heatmap.counts()
    touches = sorted(
        ((heat.touches, block) for block, heat in counts.items()), reverse=True
    )
    total = sum(t for t, _ in touches)
    if not total:
        return {
            "blocks_touched": len(counts),
            "touches": 0,
            "hot80_blocks": 0,
            "top_decile_share": 0.0,
            "top_blocks": [],
        }
    hot80 = 0
    running = 0
    for value, _ in touches:
        running += value
        hot80 += 1
        if running >= 0.8 * total:
            break
    decile = max(1, len(touches) // 10)
    decile_share = sum(t for t, _ in touches[:decile]) / total
    return {
        "blocks_touched": len(counts),
        "touches": total,
        "hot80_blocks": hot80,
        "top_decile_share": decile_share,
        "top_blocks": [
            {"block": block, "touches": value}
            for value, block in touches[:_HEAT_TOP]
        ],
    }


class WorkloadHistory:
    """History recorder (see the module docstring for the design)."""

    def __init__(
        self,
        journal: Optional[Journal] = None,
        capacity: int = DEFAULT_CAPACITY,
        interval: int = DEFAULT_INTERVAL,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        #: the journal rows are appended to (a disabled history restores
        #: none and records none)
        self.journal = journal if journal is not None else Journal(enabled=enabled)
        self.capacity = capacity
        #: Table-1 operations between the watch tick's interval captures
        self.interval = interval
        self._last_metrics = None  # MetricsSnapshot of the previous capture
        #: lifetime capture/compaction counters (exported by the bridge)
        self.captures = 0
        self.compactions = 0
        self._snapshots: List[HistorySnapshot] = [
            from_row(HistorySnapshot, row)
            for row in (self.journal.restored if enabled else ())
            if row["kind"] == "history"
        ]

    # ------------------------------------------------------------- recording --

    def capture(self, store, label: str, current) -> Optional[HistorySnapshot]:
        """Record one row from ``current``, the tick's deterministic
        :class:`~repro.obs.bridge.MetricsSnapshot` of ``store``."""
        from repro.obs.heatmap import _partial_efficacy

        if not self.journal.enabled:
            return None
        last, self._last_metrics = self._last_metrics, current
        deltas = dict(current.values) if last is None else current.delta(last)
        row = self.journal.append(
            "history", store.operations.total, store.simulated_seconds,
            {"label": label, "deltas": deltas, "partial_index": _partial_efficacy(store),
             "heatmap": _heat_summary(store), "merged": 1},
            # a retention merge rewrites the journal instead
            write=len(self._snapshots) < self.capacity,
        )
        snapshot = from_row(HistorySnapshot, row)
        self._snapshots.append(snapshot)
        self.captures += 1
        if self._enforce_capacity():
            self.journal.rewrite(
                "history", [as_row("history", row) for row in self._snapshots]
            )
        return snapshot

    def _enforce_capacity(self) -> bool:
        """Merge oldest adjacent rows until within capacity; True when
        anything merged (the journal must then be rewritten)."""
        merged = False
        while len(self._snapshots) > self.capacity:
            first, second = self._snapshots[0], self._snapshots[1]
            deltas = dict(first.deltas)
            for key, value in second.deltas.items():
                deltas[key] = deltas.get(key, 0.0) + value
            self._snapshots[0:2] = [
                replace(
                    second,
                    label="compacted",
                    deltas=deltas,
                    merged=first.merged + second.merged,
                )
            ]
            self.compactions += 1
            merged = True
        return merged

    # ---------------------------------------------------------------- reading --

    def snapshots(self) -> List[HistorySnapshot]:
        return list(self._snapshots)

    def __len__(self) -> int:
        return len(self._snapshots)

