"""Workload history: the store's append-only telemetry timeline.

Live metrics answer "what is the store doing *now*"; the adaptive
questions of the paper — has the workload *changed*, is the current
configuration still the right one — need the past.  This module records
it: a bounded, store-local sequence of :class:`HistorySnapshot` rows,
each one the *delta* of every deterministic counter since the previous
row (operation mix, access-path resolutions, buffer traffic, WAL and
range activity) plus cumulative partial-index efficacy and a compact
block-heat summary.

Capture points:

* every ``history_interval`` Table-1 operations (wired into
  ``XMLStore._observe``, the same hook the adaptive controller uses);
* every checkpoint (so a closed store's file always ends on a complete
  picture);
* explicitly, from the bench harness (one snapshot per phase, labeled).

Persistence is an optional JSONL file next to the store's device file
(one stamped snapshot per line, ``schema_version`` checked on read).
Retention is bounded by ``history_capacity``: when the sequence
overflows, the two *oldest* rows merge into one (deltas summed,
cumulatives kept from the later row), so old history loses resolution
gradually instead of vanishing — the standard telemetry-downsampling
trade.

The contract of :mod:`repro.obs` holds: everything here only *reads*
counters and never touches the simulated clock, the disabled twin
:data:`NOOP_HISTORY` keeps the hot path at one attribute check, and —
for the CI determinism gate — snapshots exclude every wall-clock-derived
sample (span wall seconds), so two identical runs write identical
history byte-for-byte.

Consumers: :mod:`repro.obs.fingerprint` (drift detection over snapshot
windows) and :mod:`repro.obs.advisor` (evidence-backed tuning
recommendations).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ObservabilityError

DEFAULT_CAPACITY = 256
DEFAULT_INTERVAL = 64

#: Hottest blocks listed per heat summary.
_HEAT_TOP = 5


@dataclass
class HistorySnapshot:
    """One row of the workload timeline."""

    #: Monotonic capture number (survives reopen via the JSONL file).
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

    def to_dict(self) -> Dict[str, object]:
        from repro.obs.schema import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "seq": self.seq,
            "label": self.label,
            "operations": self.operations,
            "simulated_seconds": self.simulated_seconds,
            "deltas": dict(self.deltas),
            "partial_index": self.partial_index,
            "heatmap": self.heatmap,
            "merged": self.merged,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "HistorySnapshot":
        try:
            return cls(
                seq=int(payload["seq"]),  # type: ignore[arg-type]
                label=str(payload["label"]),
                operations=int(payload["operations"]),  # type: ignore[arg-type]
                simulated_seconds=float(payload["simulated_seconds"]),  # type: ignore[arg-type]
                deltas={
                    str(k): float(v)
                    for k, v in dict(payload.get("deltas") or {}).items()
                },
                partial_index=payload.get("partial_index"),  # type: ignore[arg-type]
                heatmap=payload.get("heatmap"),  # type: ignore[arg-type]
                merged=int(payload.get("merged", 1)),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ObservabilityError(
                f"malformed history snapshot: {error}"
            ) from error

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
    """Live history recorder (see the module docstring for the design)."""

    enabled = True

    def __init__(
        self,
        path: Optional[str] = None,
        capacity: int = DEFAULT_CAPACITY,
        interval: int = DEFAULT_INTERVAL,
    ) -> None:
        self.path = path
        self.capacity = capacity
        self.interval = interval
        self._snapshots: List[HistorySnapshot] = []
        self._ops_since_capture = 0
        self._last_metrics = None  # MetricsSnapshot of the previous capture
        #: lifetime capture/compaction counters (exported by the bridge)
        self.captures = 0
        self.compactions = 0
        if path is not None and os.path.exists(path):
            self._snapshots = [
                HistorySnapshot.from_dict(row) for row in read_history(path)
            ]

    # ------------------------------------------------------------- recording --

    def observe(self, store, is_read: bool) -> None:
        """Per-operation hook (``XMLStore._observe``): capture one
        snapshot every ``interval`` operations."""
        self._ops_since_capture += 1
        if self._ops_since_capture >= self.interval:
            self.capture(store, "interval")

    def capture(
        self, store, label: str, skip_if_idle: bool = False
    ) -> Optional[HistorySnapshot]:
        """Capture one snapshot now.  ``skip_if_idle`` suppresses the
        capture when no operation ran since the last one (the checkpoint
        hook uses it, so closing an untouched store adds no row)."""
        if skip_if_idle and self._ops_since_capture == 0:
            return None
        from repro.obs.bridge import deterministic_snapshot
        from repro.obs.heatmap import _partial_efficacy

        current = deterministic_snapshot(store)
        if self._last_metrics is not None:
            deltas = current.delta(self._last_metrics)
        else:
            deltas = dict(current.values)
        snapshot = HistorySnapshot(
            seq=self._next_seq(),
            label=label,
            operations=store.operations.read_ops + store.operations.updates,
            simulated_seconds=store.simulated_seconds,
            deltas=deltas,
            partial_index=_partial_efficacy(store),
            heatmap=_heat_summary(store),
        )
        self._last_metrics = current
        self._ops_since_capture = 0
        self._snapshots.append(snapshot)
        self.captures += 1
        compacted = self._enforce_capacity()
        if self.path is not None:
            if compacted:
                self._rewrite_file()
            else:
                self._append_line(snapshot)
        return snapshot

    def _next_seq(self) -> int:
        return self._snapshots[-1].seq + 1 if self._snapshots else 0

    def _enforce_capacity(self) -> bool:
        """Merge oldest adjacent rows until within capacity; True when
        anything merged (the file must then be rewritten)."""
        merged = False
        while len(self._snapshots) > self.capacity:
            first, second = self._snapshots[0], self._snapshots[1]
            deltas = dict(first.deltas)
            for key, value in second.deltas.items():
                deltas[key] = deltas.get(key, 0.0) + value
            self._snapshots[0:2] = [
                HistorySnapshot(
                    seq=second.seq,
                    label="compacted",
                    operations=second.operations,
                    simulated_seconds=second.simulated_seconds,
                    deltas=deltas,
                    partial_index=second.partial_index,
                    heatmap=second.heatmap,
                    merged=first.merged + second.merged,
                )
            ]
            self.compactions += 1
            merged = True
        return merged

    # ----------------------------------------------------------- persistence --

    def _append_line(self, snapshot: HistorySnapshot) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(snapshot.to_dict(), sort_keys=True) + "\n")

    def _rewrite_file(self) -> None:
        temporary = self.path + ".tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            for snapshot in self._snapshots:
                handle.write(
                    json.dumps(snapshot.to_dict(), sort_keys=True) + "\n"
                )
        os.replace(temporary, self.path)

    # ---------------------------------------------------------------- reading --

    def snapshots(self) -> List[HistorySnapshot]:
        return list(self._snapshots)

    def __len__(self) -> int:
        return len(self._snapshots)


class NoopHistory:
    """Disabled history: recording is a no-op, reads are empty."""

    __slots__ = ()
    enabled = False
    captures = 0
    compactions = 0
    capacity = DEFAULT_CAPACITY
    interval = DEFAULT_INTERVAL
    path = None

    def observe(self, store, is_read: bool) -> None:
        pass

    def capture(self, store, label: str, skip_if_idle: bool = False):
        return None

    def snapshots(self) -> List[HistorySnapshot]:
        return []

    def __len__(self) -> int:
        return 0


NOOP_HISTORY = NoopHistory()


def create_history(
    enabled: bool,
    path: Optional[str] = None,
    capacity: int = DEFAULT_CAPACITY,
    interval: int = DEFAULT_INTERVAL,
):
    """The configured history: live when enabled, shared no-op otherwise."""
    if not enabled:
        return NOOP_HISTORY
    return WorkloadHistory(path=path, capacity=capacity, interval=interval)


def read_history(path: str) -> List[Dict[str, object]]:
    """Reader API: parse one history JSONL file into snapshot dicts,
    checking every line's ``schema_version`` stamp."""
    from repro.obs.schema import check_schema_version

    rows: List[Dict[str, object]] = []
    try:
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except ValueError as error:
                    raise ObservabilityError(
                        f"{path}:{number}: malformed history line ({error})"
                    ) from error
                check_schema_version(payload, f"{path}:{number}")
                rows.append(payload)
    except OSError as error:
        raise ObservabilityError(f"cannot read {path}: {error}") from error
    return rows


def load_snapshots(path: str) -> List[HistorySnapshot]:
    """:func:`read_history`, decoded into :class:`HistorySnapshot` rows."""
    return [HistorySnapshot.from_dict(row) for row in read_history(path)]
