"""Observability: metrics registry, tracing spans, and exporters.

See DESIGN.md ("Observability") for the architecture.  Quick tour:

* :mod:`repro.obs.metrics` — thread-safe counters/gauges/histograms
  with labeled children, plus the shared no-op twins;
* :mod:`repro.obs.tracing` — nested context-manager spans recording
  wall-clock *and* simulated disk seconds into a bounded ring buffer;
* :mod:`repro.obs.telemetry` — the facade the store holds
  (:func:`create_telemetry` picks live vs. no-op from configuration);
* :mod:`repro.obs.bridge` — projects the always-on dataclass stats
  into a registry and snapshots it for the bench harness;
* :mod:`repro.obs.exporters` — Prometheus text, JSON-lines events,
  a ``top``-style view, and the classic summary renderer;
* :mod:`repro.obs.events` — the structured event log components emit
  into (op-id and span-correlated, bounded, JSONL-exportable);
* :mod:`repro.obs.heatmap` — per-block access counters and the
  hot-block / hot-range / partial-index-efficacy reports;
* :mod:`repro.obs.explain` — per-operation EXPLAIN reports assembled
  from the event log, spans and component counters;
* :mod:`repro.obs.history` — the workload-history timeline: periodic
  counter-delta snapshots, bounded retention, JSONL persistence;
* :mod:`repro.obs.fingerprint` — workload fingerprints over history
  windows and the deterministic drift score between them;
* :mod:`repro.obs.advisor` — the rule-based tuning advisor: evidence-
  backed recommendations with what-if simulated-cost estimates;
* :mod:`repro.obs.schema` — the ``schema_version`` stamp every exported
  JSON artifact carries, and its reader-side check;
* :mod:`repro.obs.clock` — the only legal wall-clock source
  (enforced by :func:`~repro.obs.clock.check_clock_discipline`).
"""

from repro.obs.advisor import (
    AdvisorReport,
    Evidence,
    Recommendation,
    WhatIf,
    advise,
    apply_recommendations,
)
from repro.obs.bridge import (
    MetricsSnapshot,
    deterministic_snapshot,
    metrics_snapshot,
    stats_registry,
    store_families,
    store_registry,
)
from repro.obs.clock import check_clock_discipline, perf_seconds
from repro.obs.events import (
    DEFAULT_EVENT_CAPACITY,
    Event,
    EventLog,
    NOOP_EVENT_LOG,
    NoopEventLog,
    create_event_log,
    events_log_jsonl,
)
from repro.obs.explain import (
    EXPLAINABLE_OPS,
    ExplainRecorder,
    ExplainReport,
    explain_operation,
    run_operation,
)
from repro.obs.exporters import (
    events_jsonl,
    prometheus_text,
    render_classic_summary,
    render_top,
)
from repro.obs.fingerprint import (
    WorkloadFingerprint,
    drift_score,
    drift_series,
    fingerprint_window,
)
from repro.obs.heatmap import (
    BlockHeat,
    BlockHeatmap,
    NOOP_HEATMAP,
    NoopHeatmap,
    create_heatmap,
    heatmap_json,
    heatmap_report,
    render_heatmap,
)
from repro.obs.history import (
    HistorySnapshot,
    NOOP_HISTORY,
    NoopHistory,
    WorkloadHistory,
    create_history,
    load_snapshots,
    read_history,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricFamily,
    MetricsRegistry,
    NOOP_METRIC,
    NOOP_REGISTRY,
    NoopRegistry,
    SIMULATED_COST_BUCKETS,
    Sample,
    TOKEN_COUNT_BUCKETS,
    format_value,
    sample_key,
)
from repro.obs.schema import SCHEMA_VERSION, check_schema_version, stamp
from repro.obs.telemetry import (
    NOOP_TELEMETRY,
    NoopTelemetry,
    Telemetry,
    create_telemetry,
)
from repro.obs.tracing import (
    DEFAULT_RING_CAPACITY,
    NOOP_SPAN,
    NOOP_TRACER,
    NoopTracer,
    Span,
    SpanEvent,
    Tracer,
)

__all__ = [
    "AdvisorReport",
    "BlockHeat",
    "BlockHeatmap",
    "Counter",
    "DEFAULT_EVENT_CAPACITY",
    "DEFAULT_RING_CAPACITY",
    "EXPLAINABLE_OPS",
    "Event",
    "EventLog",
    "Evidence",
    "ExplainRecorder",
    "ExplainReport",
    "Gauge",
    "Histogram",
    "HistorySnapshot",
    "LATENCY_BUCKETS",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NOOP_EVENT_LOG",
    "NOOP_HEATMAP",
    "NOOP_HISTORY",
    "NOOP_METRIC",
    "NOOP_REGISTRY",
    "NOOP_SPAN",
    "NOOP_TELEMETRY",
    "NOOP_TRACER",
    "NoopEventLog",
    "NoopHeatmap",
    "NoopHistory",
    "NoopRegistry",
    "NoopTelemetry",
    "NoopTracer",
    "Recommendation",
    "SCHEMA_VERSION",
    "SIMULATED_COST_BUCKETS",
    "Sample",
    "Span",
    "SpanEvent",
    "TOKEN_COUNT_BUCKETS",
    "Telemetry",
    "Tracer",
    "WhatIf",
    "WorkloadFingerprint",
    "WorkloadHistory",
    "advise",
    "apply_recommendations",
    "check_clock_discipline",
    "check_schema_version",
    "create_event_log",
    "create_heatmap",
    "create_history",
    "create_telemetry",
    "deterministic_snapshot",
    "drift_score",
    "drift_series",
    "events_jsonl",
    "events_log_jsonl",
    "explain_operation",
    "fingerprint_window",
    "format_value",
    "heatmap_json",
    "heatmap_report",
    "load_snapshots",
    "metrics_snapshot",
    "perf_seconds",
    "prometheus_text",
    "read_history",
    "render_classic_summary",
    "render_heatmap",
    "render_top",
    "run_operation",
    "sample_key",
    "stamp",
    "stats_registry",
    "store_families",
    "store_registry",
]
