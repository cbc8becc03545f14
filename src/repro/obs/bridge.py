"""Bridge between the always-on dataclass stats and the metrics registry.

The store keeps its cheap dataclass counters (:mod:`repro.core.stats`)
unconditionally — they cost a few integer adds and the benchmarks depend
on them.  This module *projects* those counters into a fresh
:class:`~repro.obs.metrics.MetricsRegistry` on demand, so exporters see
one uniform metric surface whether telemetry is enabled or not:

* :func:`store_registry` — a registry holding the projection of every
  layer's counters plus store-level gauges (simulated seconds, tokens
  emitted, WAL appends, partial-index size, ...);
* :func:`store_families` — the projection *merged with* the live span
  metrics when telemetry is enabled;
* :func:`metrics_snapshot` / :class:`MetricsSnapshot` — flat
  ``{key: value}`` captures with a ``delta()`` for the bench harness,
  so every ``BENCH_*.json`` row can carry an exact per-phase breakdown;
* :func:`deterministic_snapshot` — the same capture without the
  wall-derived families, which is what workload history, the alert
  engine and the flight recorder persist.

Both captures read the registries' cached keys
(:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`): same keys, order
and kinds as flattening :func:`store_families`, without building it.

Keeping the projection separate from the live registry means span
metrics are never double-counted against the dataclass counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List

from repro.obs.metrics import MetricFamily, MetricsRegistry
from repro.obs.tracing import SPAN_SECONDS

#: Families whose values derive from the wall clock — the one
#: nondeterministic series the store's metric surface holds
#: (``repro_span_simulated_seconds`` is *not* one).  Artifacts that CI
#: diffs byte for byte are built from snapshots that skip them.
WALL_FAMILIES = frozenset({SPAN_SECONDS})


def stats_registry(stats) -> MetricsRegistry:
    """Project a :class:`~repro.core.stats.StoreStatistics` bundle into
    a fresh registry (no store-level gauges; see :func:`store_registry`)."""
    registry = MetricsRegistry()
    stats.register_metrics(registry)
    return registry


def store_registry(store) -> MetricsRegistry:
    """Project a live store — layer counters plus store-level series."""
    registry = stats_registry(store.stats)

    wal_appends = registry.counter(
        "repro_wal_appends_total", "Records appended to the write-ahead log."
    )
    wal_appends.inc(store.wal.appends)
    wal_fsyncs = registry.counter(
        "repro_wal_fsyncs_total", "fsync calls issued by the write-ahead log."
    )
    wal_fsyncs.inc(store.wal.fsyncs)
    registry.counter(
        "repro_wal_sync_barriers_total",
        "Durability barriers (flushes) issued by the write-ahead log.",
    ).inc(store.wal.sync_barriers)
    registry.counter(
        "repro_wal_group_commits_total",
        "Group-commit batches drained (many commits, one sync barrier).",
    ).inc(store.wal.group_commits)
    if store.wal.group_commit_batches:
        batch_sizes = registry.histogram(
            "repro_wal_group_commit_batch_size",
            "Frames drained per group-commit barrier.",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
        )
        for batch in store.wal.group_commit_batches:
            batch_sizes.observe(float(batch))

    registry.gauge(
        "repro_store_simulated_seconds",
        "Total simulated cost (disk + CPU model) accumulated by the store.",
    ).set(store.simulated_seconds)
    registry.counter(
        "repro_store_tokens_emitted_total", "Tokens written into the store."
    ).inc(store.tokens_emitted)
    registry.counter(
        "repro_store_index_entries_loaded_total",
        "Full-index entries created by loads and updates.",
    ).inc(store.index_entries_loaded)
    registry.gauge(
        "repro_buffer_cached_pages", "Pages currently resident in the buffer pool."
    ).set(store.pool.cached_pages)
    registry.gauge(
        "repro_wal_size_bytes", "Bytes currently in the write-ahead log stream."
    ).set(float(store.wal.size_bytes))
    registry.gauge(
        "repro_storage_quarantined_blocks",
        "Blocks currently quarantined after failed checksum verification.",
    ).set(float(len(store.pool.quarantined_blocks())))
    registry.counter(
        "repro_storage_scrub_completions_total",
        "Scrub passes completed over this store instance.",
    ).inc(store.scrub_completions)
    last_scrub = store.operations_at_last_scrub
    operations = store.operations.read_ops + store.operations.updates
    registry.gauge(
        "repro_storage_scrub_age_operations",
        "Table-1 operations since the last completed scrub pass "
        "(-1 = never scrubbed).",
    ).set(
        float(operations - last_scrub) if last_scrub is not None else -1.0
    )
    if store.partial_index is not None:
        registry.gauge(
            "repro_partial_index_size", "Entries currently memoized."
        ).set(len(store.partial_index))
    if store.history.enabled:
        registry.counter(
            "repro_history_captures_total",
            "Workload-history snapshots captured.",
        ).inc(store.history.captures)
        registry.counter(
            "repro_history_compactions_total",
            "Workload-history retention merges (two oldest rows into one).",
        ).inc(store.history.compactions)
        registry.gauge(
            "repro_history_snapshots",
            "Workload-history snapshots currently retained.",
        ).set(len(store.history))
    if store.recorder.enabled:
        registry.counter(
            "repro_recorder_dropped_total",
            "Flight-recorder entries evicted from the bounded ring.",
        ).inc(store.recorder.dropped)
    server = getattr(store, "server", None)
    if server is not None:
        # the serving layer's deterministic counters (admission,
        # shedding, conflict handling, snapshot reads)
        for name, value in sorted(server.stats.to_dict().items()):
            registry.counter(
                f"repro_server_{name}_total",
                f"Serving layer: {name.replace('_', ' ')}.",
            ).inc(value)
        registry.gauge(
            "repro_server_backlog_sessions",
            "Sessions waiting in the admission backlog.",
        ).set(float(len(server.backlog)))
        registry.counter(
            "repro_server_snapshot_materializations_total",
            "Snapshot views materialized (lazy promotions + eager opens).",
        ).inc(server.snapshots.materializations)
    replication = getattr(store, "replication", None)
    if replication is not None:
        # primary-side replication projection (registry + replica
        # checkpoints); the gauges exist only on stores with replicas
        # configured, so the absence rule reads 0 everywhere else
        view = replication.snapshot()
        registry.gauge(
            "repro_replication_replicas",
            "Replicas registered on this primary.",
        ).set(float(view["replicas"]))
        registry.gauge(
            "repro_replication_lag_ops",
            "Largest replica lag behind the primary's change stream, "
            "in committed operations.",
        ).set(float(view["lag_ops"]))
        registry.counter(
            "repro_replication_applied_total",
            "Change records applied across every registered replica "
            "(sum of checkpoint cursors).",
        ).inc(view["applied_total"])
        registry.gauge(
            "repro_replication_apply_progress",
            "Replication liveness: -1 when a configured replica's "
            "checkpoint is stale, 1 + applied records otherwise.",
        ).set(float(view["apply_progress"]))
    if store.incidents.enabled:
        incidents_total = registry.counter(
            "repro_incidents_total",
            "Incidents recorded (bundles dumped on directory stores), "
            "by trigger kind.",
            labelnames=("kind",),
        )
        for kind, count in sorted(store.incidents.counts.items()):
            incidents_total.labels(kind=kind).inc(count)
    return registry


def store_families(store) -> List[MetricFamily]:
    """Projection families plus, when telemetry is enabled, the live span
    metrics.  Names never collide: the live registry only holds span
    series and the scan-length histogram."""
    families = store_registry(store).collect()
    if store.telemetry.enabled:
        families.extend(store.telemetry.collect())
    return families


@dataclass
class MetricsSnapshot:
    """Flat capture of every sample at one instant."""

    values: Dict[str, float] = field(default_factory=dict)
    kinds: Dict[str, str] = field(default_factory=dict)

    def delta(self, earlier: "MetricsSnapshot") -> Dict[str, float]:
        """Per-phase view: counters and histogram samples subtract the
        earlier capture; gauges report their current value."""
        out: Dict[str, float] = {}
        for key, value in self.values.items():
            if self.kinds.get(key) == "gauge":
                out[key] = value
            else:
                out[key] = value - earlier.values.get(key, 0.0)
        return out


def metrics_snapshot(store, skip: Collection[str] = ()) -> MetricsSnapshot:
    """Capture every sample :func:`store_families` would export (minus
    the families named in ``skip``) for before/after deltas."""
    kinds: Dict[str, str] = {}
    values = store_registry(store).snapshot(kinds, skip)
    if store.telemetry.enabled:
        values.update(store.telemetry.registry.snapshot(kinds, skip))
    return MetricsSnapshot(values, kinds)


def deterministic_snapshot(store) -> MetricsSnapshot:
    """:func:`metrics_snapshot` without :data:`WALL_FAMILIES`: a pure
    function of the operation sequence."""
    return metrics_snapshot(store, skip=WALL_FAMILIES)
