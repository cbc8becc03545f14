"""Workload fingerprints and drift detection over history windows.

The paper's adaptivity argument (§2.1, §9) is that the right storage
configuration is a function of the *workload*, and workloads change.
This module gives that argument a measurable form: a window of
:class:`~repro.obs.history.HistorySnapshot` rows compresses into a
:class:`WorkloadFingerprint` — a handful of bounded, deterministic
components describing the read/write mix, which access paths answered
lookups, how deep scans ran, buffer locality and block-heat skew — and
:func:`drift_score` compares two fingerprints into one number in
``[0, 1]``: 0 means the same workload, 1 means every component moved as
far as it can.

Every component is a ratio of *deterministic counters* (the simulated
side of the telemetry), so the same operation stream always produces
the same fingerprints and the same drift scores — which is what lets CI
diff two advisor runs byte-for-byte.

Unbounded rates (scan depth, WAL pressure) are squashed into ``[0, 1)``
with ``x / (x + scale)`` before comparison, the standard trick for
folding a long-tailed magnitude into a bounded similarity component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.obs.history import HistorySnapshot

#: Squash scale for average scan depth (tokens per scan resolution): a
#: 256-token average scan maps to 0.5.
SCAN_DEPTH_SCALE = 256.0

#: Squash scale for WAL appends per operation.
WAL_RATE_SCALE = 2.0

# flat sample keys (see repro.obs.bridge / repro.core.stats)
K_READS = 'repro_store_operations_total{op="read"}'
K_NODE_READS = 'repro_store_operations_total{op="node_read"}'
K_LOADS = 'repro_store_operations_total{op="load"}'
K_INSERTS = 'repro_store_operations_total{op="insert"}'
K_DELETES = 'repro_store_operations_total{op="delete"}'
K_REPLACES = 'repro_store_operations_total{op="replace"}'
K_PATH_PARTIAL = 'repro_locator_resolutions_total{path="partial"}'
K_PATH_FULL = 'repro_locator_resolutions_total{path="full"}'
K_PATH_SCAN = 'repro_locator_resolutions_total{path="scan"}'
K_TOKENS_SCANNED = "repro_locator_tokens_scanned_total"
K_BUFFER_HITS = 'repro_buffer_accesses_total{result="hit"}'
K_BUFFER_MISSES = 'repro_buffer_accesses_total{result="miss"}'
K_WAL_APPENDS = "repro_wal_appends_total"


def _squash(value: float, scale: float) -> float:
    return value / (value + scale) if value > 0 else 0.0


@dataclass
class WorkloadFingerprint:
    """Bounded workload descriptors for one snapshot window."""

    #: operations the window covers (reads + updates)
    operations: float
    #: fraction of operations that were reads
    read_fraction: float
    #: lookup resolutions answered by each path, as fractions
    path_partial: float
    path_full: float
    path_scan: float
    #: average tokens scanned per scan resolution, squashed to [0, 1)
    scan_depth: float
    #: buffer-pool hit fraction within the window
    locality: float
    #: block-heat skew: share of touches on the hottest decile (latest
    #: snapshot's heat summary; 0 when the heatmap is off)
    heat_concentration: float
    #: WAL appends per operation, squashed to [0, 1)
    write_pressure: float

    #: components drift is computed over (all bounded to [0, 1])
    COMPONENTS = (
        "read_fraction",
        "path_partial",
        "path_full",
        "path_scan",
        "scan_depth",
        "locality",
        "heat_concentration",
        "write_pressure",
    )

    def to_dict(self) -> Dict[str, float]:
        out = {"operations": self.operations}
        for name in self.COMPONENTS:
            out[name] = getattr(self, name)
        return out


def fingerprint_window(
    snapshots: Sequence[HistorySnapshot],
) -> Optional[WorkloadFingerprint]:
    """Fold a window of snapshots into one fingerprint; None for an
    empty window (no snapshots, or no operations in them)."""
    if not snapshots:
        return None

    def total(key: str) -> float:
        return sum(snap.delta(key) for snap in snapshots)

    reads = total(K_READS) + total(K_NODE_READS)
    updates = (
        total(K_LOADS) + total(K_INSERTS) + total(K_DELETES) + total(K_REPLACES)
    )
    operations = reads + updates
    if operations <= 0:
        return None
    resolutions = total(K_PATH_PARTIAL) + total(K_PATH_FULL) + total(K_PATH_SCAN)
    scans = total(K_PATH_SCAN)
    hits = total(K_BUFFER_HITS)
    misses = total(K_BUFFER_MISSES)
    accesses = hits + misses
    heat = 0.0
    for snap in reversed(snapshots):
        if snap.heatmap is not None:
            heat = float(snap.heatmap.get("top_decile_share", 0.0))
            break
    return WorkloadFingerprint(
        operations=operations,
        read_fraction=reads / operations,
        path_partial=total(K_PATH_PARTIAL) / resolutions if resolutions else 0.0,
        path_full=total(K_PATH_FULL) / resolutions if resolutions else 0.0,
        path_scan=scans / resolutions if resolutions else 0.0,
        scan_depth=_squash(
            total(K_TOKENS_SCANNED) / scans if scans else 0.0, SCAN_DEPTH_SCALE
        ),
        locality=hits / accesses if accesses else 0.0,
        heat_concentration=heat,
        write_pressure=_squash(
            total(K_WAL_APPENDS) / operations, WAL_RATE_SCALE
        ),
    )


def drift_score(
    earlier: Optional[WorkloadFingerprint],
    later: Optional[WorkloadFingerprint],
) -> float:
    """Mean absolute movement across the bounded components, in [0, 1].
    A missing fingerprint (idle window) scores 0 against anything —
    absence of evidence is not drift."""
    if earlier is None or later is None:
        return 0.0
    components = WorkloadFingerprint.COMPONENTS
    total = sum(
        abs(getattr(later, name) - getattr(earlier, name))
        for name in components
    )
    return total / len(components)


def _drift_point(
    snapshots: Sequence[HistorySnapshot], index: int, window: int
) -> Dict[str, object]:
    """The window ending at snapshot ``index`` against the one before it."""
    earlier = fingerprint_window(
        snapshots[max(0, index - 2 * window) : index - window + 1]
    )
    later = fingerprint_window(snapshots[index - window + 1 : index + 1])
    return {
        "seq": snapshots[index].seq,
        "drift": drift_score(earlier, later),
        "fingerprint": later.to_dict() if later is not None else None,
    }


def drift_series(
    snapshots: Sequence[HistorySnapshot], window: int = 4
) -> List[Dict[str, object]]:
    """Rolling drift over a snapshot timeline: each point compares the
    window ending at snapshot ``i`` against the window just before it.
    Returns ``[{seq, drift, fingerprint}, ...]`` (deterministic)."""
    if window < 1:
        raise ValueError("window must be at least 1")
    return [
        _drift_point(snapshots, index, window)
        for index in range(window, len(snapshots))
    ]


def latest_drift(
    snapshots: Sequence[HistorySnapshot], window: int = 4
) -> float:
    """The drift of :func:`drift_series`' last point (0.0 when it has
    none), fingerprinting only that point's two windows — what a
    periodic evaluation over a long retained history should pay."""
    if window < 1:
        raise ValueError("window must be at least 1")
    if len(snapshots) <= window:
        return 0.0
    return _drift_point(snapshots, len(snapshots) - 1, window)["drift"]
