"""Composite health verdict: one poll, one word, one exit code.

A supervisor watching a store daemon should not have to interpret a
metrics dump.  :func:`health_report` folds every liveness signal the
repo already produces — structural integrity, block quarantine,
checksum errors, the degraded-repair sidecar, scrub recency, WAL
growth, workload drift, and the simulated-axis SLO statuses — into one
report whose components each carry a ``healthy`` / ``degraded`` /
``unhealthy`` status, collapsed to the worst as the verdict.

The verdict maps onto the same exit-code scheme ``verify`` uses (and
:mod:`repro.errors` encodes): 0 healthy, 1 degraded
(:class:`~repro.errors.StoreDegradedError`), 2 unhealthy
(:class:`~repro.errors.StoreCorruptError`).

Determinism: every component reads deterministic counters or on-disk
state only — no wall clock, and the SLO section is restricted to the
simulated axis — so ``health --json`` from two identical runs is
byte-identical (CI diffs it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

HEALTHY = "healthy"
DEGRADED = "degraded"
UNHEALTHY = "unhealthy"

_ORDER = {HEALTHY: 0, DEGRADED: 1, UNHEALTHY: 2}

#: A store that has run this many Table-1 operations without a completed
#: scrub pass is considered overdue (small test stores stay healthy).
DEFAULT_SCRUB_OVERDUE_OPERATIONS = 65536

#: WAL records pending past the last checkpoint before the WAL
#: component degrades (checkpointing is overdue).
DEFAULT_WAL_PENDING_BOUND = 10000

#: Workload-drift score above which the drift component degrades.
DEFAULT_DRIFT_BOUND = 0.75


@dataclass
class HealthComponent:
    """One signal folded into the verdict."""

    name: str
    status: str
    summary: str
    detail: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "status": self.status,
            "summary": self.summary,
            "detail": dict(self.detail),
        }


@dataclass
class HealthReport:
    """All components plus the collapsed verdict."""

    components: List[HealthComponent]

    @property
    def verdict(self) -> str:
        worst = HEALTHY
        for component in self.components:
            if _ORDER[component.status] > _ORDER[worst]:
                worst = component.status
        return worst

    @property
    def exit_code(self) -> int:
        return _ORDER[self.verdict]

    def failed(self) -> List[HealthComponent]:
        return [
            component
            for component in self.components
            if component.status != HEALTHY
        ]

    def to_dict(self) -> Dict[str, object]:
        from repro.obs.schema import stamp

        return stamp(
            {
                "verdict": self.verdict,
                "exit_code": self.exit_code,
                "components": [
                    component.to_dict() for component in self.components
                ],
            }
        )

    def render(self) -> str:
        lines = [f"health: {self.verdict} (exit {self.exit_code})"]
        for component in self.components:
            marker = {HEALTHY: "ok", DEGRADED: "WARN", UNHEALTHY: "FAIL"}[
                component.status
            ]
            lines.append(f"  [{marker:>4}] {component.name}: {component.summary}")
        return "\n".join(lines) + "\n"


def _integrity_component(store) -> HealthComponent:
    from repro.core.integrity import integrity_report

    report = integrity_report(store)
    failed = report.failed()
    if not failed:
        return HealthComponent(
            "integrity",
            HEALTHY,
            f"all {len(report.checks)} checks passed",
            {"checks": len(report.checks), "failed": []},
        )
    return HealthComponent(
        "integrity",
        UNHEALTHY,
        f"{len(failed)} of {len(report.checks)} checks failed: "
        + ", ".join(check.name for check in failed),
        {
            "checks": len(report.checks),
            "failed": [check.name for check in failed],
        },
    )


def _quarantine_component(store) -> HealthComponent:
    blocks = store.pool.quarantined_blocks()
    if not blocks:
        return HealthComponent(
            "quarantine", HEALTHY, "no quarantined blocks", {"blocks": []}
        )
    return HealthComponent(
        "quarantine",
        UNHEALTHY,
        f"{len(blocks)} block(s) quarantined pending repair",
        {"blocks": list(blocks)},
    )


def _checksum_component(store) -> HealthComponent:
    errors = store.stats.buffer.checksum_errors
    accesses = store.stats.buffer.accesses
    detail = {"errors": errors, "accesses": accesses}
    if errors == 0:
        return HealthComponent(
            "checksum-errors", HEALTHY, "no checksum errors", detail
        )
    return HealthComponent(
        "checksum-errors",
        DEGRADED,
        f"{errors} checksum error(s) over {accesses} buffer accesses",
        detail,
    )


def _repair_component(store_path: Optional[str]) -> HealthComponent:
    if store_path is None:
        return HealthComponent(
            "repair",
            HEALTHY,
            "in-memory store (no repair sidecar possible)",
            {"sidecar": None},
        )
    from repro.core.repair import read_sidecar

    sidecar = read_sidecar(store_path)
    if sidecar is None:
        return HealthComponent(
            "repair", HEALTHY, "no degraded-repair sidecar", {"sidecar": None}
        )
    lost = sidecar.get("lost_operations", sidecar.get("dropped", None))
    return HealthComponent(
        "repair",
        DEGRADED,
        "degraded-repair sidecar present: reads may omit salvaged-over data",
        {"sidecar": sidecar, "lost": lost},
    )


def _scrub_component(store, overdue_operations: int) -> HealthComponent:
    operations = store.operations.total
    completions = store.scrub_completions
    last = store.operations_at_last_scrub
    age = operations - last if last is not None else None
    detail = {
        "completions": completions,
        "operations": operations,
        "age_operations": age,
        "overdue_after": overdue_operations,
    }
    if not store.config.checksums_enabled:
        return HealthComponent(
            "scrub",
            HEALTHY,
            "checksums disabled; scrubbing not applicable",
            detail,
        )
    if last is None:
        if operations < overdue_operations:
            return HealthComponent(
                "scrub", HEALTHY, "no completed scrub yet (store is young)",
                detail,
            )
        return HealthComponent(
            "scrub",
            DEGRADED,
            f"no scrub has completed in {operations} operations",
            detail,
        )
    if age >= overdue_operations:
        return HealthComponent(
            "scrub",
            DEGRADED,
            f"last scrub was {age} operations ago",
            detail,
        )
    return HealthComponent(
        "scrub", HEALTHY, f"last scrub {age} operation(s) ago", detail
    )


def _wal_component(store, pending_bound: int) -> HealthComponent:
    from repro.errors import ReproError

    size = store.wal.size_bytes
    try:
        pending = len(store.wal.records_after_last_checkpoint())
    except ReproError:
        pending = -1
    detail = {"size_bytes": size, "pending_records": pending}
    if pending > pending_bound:
        return HealthComponent(
            "wal",
            DEGRADED,
            f"{pending} records pending past the last checkpoint",
            detail,
        )
    return HealthComponent(
        "wal",
        HEALTHY,
        f"{size} bytes, {pending} record(s) past the last checkpoint",
        detail,
    )


def _drift_component(store, drift_bound: float) -> HealthComponent:
    from repro.obs.fingerprint import latest_drift

    if not store.history.enabled:
        return HealthComponent(
            "drift", HEALTHY, "workload history disabled", {"drift": None}
        )
    drift = latest_drift(store.history.snapshots())
    detail = {"drift": drift, "bound": drift_bound}
    if drift > drift_bound:
        return HealthComponent(
            "drift",
            DEGRADED,
            f"workload drifted (score {drift:.2f} > {drift_bound:.2f})",
            detail,
        )
    return HealthComponent(
        "drift", HEALTHY, f"drift score {drift:.2f}", detail
    )


def _slo_component(store) -> HealthComponent:
    from repro.obs.slo import DETERMINISTIC_AXES, SLOTracker

    tracker = store.slo if store.slo.enabled else SLOTracker()
    report = tracker.evaluate(store, axes=DETERMINISTIC_AXES)
    breached = [status for status in report.statuses if not status.met]
    detail = {
        "statuses": [status.to_dict() for status in report.statuses],
        "budget_floor": report.budget_floor(),
    }
    if breached:
        return HealthComponent(
            "slo",
            DEGRADED,
            "simulated-latency objectives breached: "
            + ", ".join(status.target.operation for status in breached),
            detail,
        )
    return HealthComponent(
        "slo",
        HEALTHY,
        f"all {len(report.statuses)} simulated objectives met",
        detail,
    )


def _replication_component(store, store_path: Optional[str]) -> HealthComponent:
    from repro.replication.service import (
        STALE_AFTER_OPS,
        ReplicationMonitor,
        list_replicas,
    )

    if store_path is None or not list_replicas(store_path):
        return HealthComponent(
            "replication",
            HEALTHY,
            "no replicas configured",
            {"replicas": []},
        )
    monitor = getattr(store, "replication", None)
    if monitor is None:
        monitor = ReplicationMonitor(store, store_path)
    lags = monitor.replica_lags()
    detail = {
        "head": monitor.head(),
        "stale_after_ops": STALE_AFTER_OPS,
        "replicas": [
            {
                "name": lag.name,
                "cursor": lag.cursor,
                "lag": lag.lag,
                "stale": lag.stale,
                "has_checkpoint": lag.has_checkpoint,
            }
            for lag in lags
        ],
    }
    stale = [lag for lag in lags if lag.stale]
    if stale:
        return HealthComponent(
            "replication",
            DEGRADED,
            f"{len(stale)} of {len(lags)} replica(s) stale: "
            + ", ".join(f"{lag.name} (lag {lag.lag})" for lag in stale),
            detail,
        )
    max_lag = max((lag.lag for lag in lags), default=0)
    return HealthComponent(
        "replication",
        HEALTHY,
        f"{len(lags)} replica(s), max lag {max_lag} op(s)",
        detail,
    )


def health_report(
    store,
    store_path: Optional[str] = None,
    scrub_overdue_operations: int = DEFAULT_SCRUB_OVERDUE_OPERATIONS,
    wal_pending_bound: int = DEFAULT_WAL_PENDING_BOUND,
    drift_bound: float = DEFAULT_DRIFT_BOUND,
) -> HealthReport:
    """Evaluate every component against a live store.  ``store_path``
    (the directory, when there is one) enables the repair-sidecar check."""
    # scrub recency is read BEFORE the integrity walk: integrity's
    # block-checksum invariant runs a full scrub pass itself, which
    # would reset the very recency marks this component judges
    scrub = _scrub_component(store, scrub_overdue_operations)
    return HealthReport(
        components=[
            _integrity_component(store),
            _quarantine_component(store),
            _checksum_component(store),
            _repair_component(store_path),
            scrub,
            _wal_component(store, wal_pending_bound),
            _drift_component(store, drift_bound),
            _slo_component(store),
            _replication_component(store, store_path),
        ]
    )
