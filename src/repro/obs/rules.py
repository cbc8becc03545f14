"""One verdict: every judgement the store makes about itself, as one table.

"Is an alert firing?", "is the store healthy?" and "is this an incident?"
read the same signals, so each judgement is one row of :data:`RULES` and
one evaluator (:func:`evaluate_rule`) runs them all.  A row declares its
signal, kind, bound, severity and ``clear_after`` hysteresis, and where
its verdict goes:

* ``alert`` — one of :class:`AlertEngine`'s state machines.  A row whose
  condition holds emits one ``fired`` transition and stays silently
  active; it emits ``cleared`` after ``clear_after`` consecutive
  evaluations with the condition false.  Transitions are ``alert`` rows
  of the store's journal (:mod:`repro.obs.journal`), restored on reopen.
  A live store evaluates on its watch tick
  (:meth:`~repro.core.store.XMLStore.watch`), every
  :data:`DEFAULT_INTERVAL` operations and at checkpoints;
* ``component`` — a component of :func:`health_report`, degraded while
  the row fires;
* ``incident`` — the trigger kind (:mod:`repro.obs.incident`) that a
  fired alert of the row raises.

Kinds: ``threshold`` compares one sample (or a ``+``-joined sum) to
``bound``; ``ratio`` compares ``numerator / denominator``, quiet below
``min_denominator`` so cold stores stay quiet; ``delta`` sums a sample's
per-snapshot deltas over the last ``window`` history rows (a rate without
a wall clock); ``absence`` fires when a sample is still ≤ ``bound`` after
``min_operations`` Table-1 operations; ``budget`` compares the least error
budget left among the row's :class:`Objective`\\ s, each read from its live
span-histogram child.  An objective asks that ``target_fraction`` of an
operation's spans finish within ``objective_seconds``.  Compliance is
conservative: an observation is within only when its bucket's upper bound
is ≤ the objective, so objectives sit on bucket bounds.

Determinism: rows read deterministic samples, the simulated span axis and
on-disk state only, so identical runs write byte-identical alert logs and
``health --json`` (CI diffs both); the objectives' wall axis reaches only
the Prometheus exposition (:func:`slo_families`).  The health verdict is
the worst component and maps onto ``verify``'s exit codes: 0 healthy,
1 degraded, 2 unhealthy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError, ReproError
from repro.obs.fingerprint import latest_drift
from repro.obs.history import HistorySnapshot
from repro.obs.journal import Journal, from_row
from repro.obs.metrics import MetricFamily, MetricsRegistry
from repro.obs.schema import read_sidecar, stamp

DEFAULT_INTERVAL = 64
DEFAULT_CLEAR_AFTER = 2

SEVERITIES = ("info", "warning", "critical")
KINDS = ("threshold", "ratio", "delta", "absence", "budget")
_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}

HEALTHY, DEGRADED, UNHEALTHY = "healthy", "degraded", "unhealthy"
_ORDER = {HEALTHY: 0, DEGRADED: 1, UNHEALTHY: 2}

#: The pseudo-sample every view carries: the latest workload drift score.
DRIFT_KEY = "repro_workload_drift"

#: Histogram family per objective axis.
AXIS_FAMILIES = {
    "simulated": "repro_span_simulated_seconds",
    "wall": "repro_span_seconds",
}


def _check(where: str, problems) -> None:
    """Raise on the first ``(broken, why)`` pair that is broken."""
    for broken, why in problems:
        if broken:
            raise ObservabilityError(f"{where}{why}")


# ------------------------------------------------------------- objectives --


@dataclass(frozen=True)
class Objective:
    """``target_fraction`` of ``operation`` spans must finish within
    ``objective_seconds`` on ``axis``."""

    operation: str
    objective_seconds: float
    target_fraction: float = 0.95
    axis: str = "simulated"

    def __post_init__(self) -> None:
        _check("", (
            (self.axis not in AXIS_FAMILIES, f"unknown SLO axis {self.axis!r} "
             f"(choose from {sorted(AXIS_FAMILIES)})"),
            (not 0.0 < self.target_fraction <= 1.0,
             f"target_fraction must be in (0, 1], got {self.target_fraction}"),
            (self.objective_seconds <= 0, "objective_seconds must be positive"),
        ))


#: Objectives sit on SIMULATED_COST_BUCKETS / LATENCY_BUCKETS bounds so
#: the conservative bucket compliance is exact, not pessimistic.
OBJECTIVES: Tuple[Objective, ...] = (
    Objective("node_read", 0.25),
    Objective("xpath", 2.5),
    Objective("insert_into_last", 0.25),
    Objective("node_read", 0.025, axis="wall"),
    Objective("xpath", 0.25, axis="wall"),
    Objective("insert_into_last", 0.025, axis="wall"),
)

#: ``(family, operation)`` → cumulative ``(upper_bound, count)`` pairs
#: and the total count.
BucketSource = Callable[[str, str], Tuple[List[Tuple[float, float]], int]]


@dataclass(frozen=True)
class ObjectiveStatus:
    """One objective against its operation's histogram."""

    objective: Objective
    count: int
    #: observations NOT within the objective (rounded against compliance)
    violations: int
    #: violations the target fraction tolerates at this count
    allowed: float
    #: the upper bucket bound at the target fraction (None: no data)
    percentile_estimate: Optional[float]
    #: 1.0 = untouched budget, 0.0 = exactly spent, negative = breached
    budget_remaining: float

    @property
    def met(self) -> bool:
        return self.violations <= self.allowed

    def to_dict(self) -> Dict[str, object]:
        out = asdict(self.objective)
        for name in ("count", "violations", "allowed", "percentile_estimate",
                     "budget_remaining", "met"):
            out[name] = getattr(self, name)
        return out


def evaluate_objective(
    objective: Objective, buckets: List[Tuple[float, float]], count: int
) -> ObjectiveStatus:
    """One objective against its operation's cumulative ``(upper_bound,
    count)`` pairs and total count (a pure function)."""
    if count == 0:
        return ObjectiveStatus(objective, 0, 0, 0.0, None, 1.0)
    compliant = 0.0
    for bound, cumulative in buckets:
        if bound > objective.objective_seconds:
            break
        compliant = cumulative
    violations = int(count - compliant)
    allowed = (1.0 - objective.target_fraction) * count
    if allowed > 0:
        budget = 1.0 - violations / allowed
    else:
        budget = 1.0 if violations == 0 else -1.0
    needed = objective.target_fraction * count
    estimate = next((bound for bound, total in buckets if total >= needed), None)
    return ObjectiveStatus(
        objective, count, violations, allowed,
        None if estimate is None or math.isinf(estimate) else estimate,
        # clamped: a fully breached budget reads the same past -1
        max(-1.0, min(1.0, budget)),
    )


def live_buckets(store) -> BucketSource:
    """A live store's bucket source: each objective's own histogram child,
    which it never creates (evaluating must not add a series to the
    exposition).  The histograms exist only with telemetry on."""
    registry = store.telemetry.registry

    def buckets(family: str, operation: str):
        histogram = registry.get(family)
        child = histogram.existing(span=operation) if histogram is not None else None
        if child is None:
            return [], 0
        pairs = child.bucket_counts()
        return pairs, pairs[-1][1]

    return buckets


def objective_statuses(
    objectives: Sequence[Objective], buckets: Optional[BucketSource]
) -> List[ObjectiveStatus]:
    """Every objective against ``buckets`` (None: no histograms, so every
    objective sees no data)."""
    return [
        evaluate_objective(objective, *(
            buckets(AXIS_FAMILIES[objective.axis], objective.operation)
            if buckets is not None else ([], 0)
        ))
        for objective in objectives
    ]


def budget_floor(statuses: Sequence[ObjectiveStatus]) -> float:
    """The least budget left (1.0 when there is no objective)."""
    return min((status.budget_remaining for status in statuses), default=1.0)


def slo_families(store) -> List[MetricFamily]:
    """Prometheus exposition: per-objective budget, violation and met
    gauges on both axes (a scrape is wall-clock territory already)."""
    registry = MetricsRegistry()
    gauges = [
        registry.gauge(name, text, labelnames=("operation", "axis"))
        for name, text in (
            ("repro_slo_budget_remaining",
             "Error budget left per objective (1 untouched, <0 breached)."),
            ("repro_slo_violations", "Observations outside the objective, per target."),
            ("repro_slo_met", "1 when the objective currently holds, 0 when breached."),
        )
    ]
    for status in objective_statuses(OBJECTIVES, live_buckets(store)):
        labels = dict(operation=status.objective.operation, axis=status.objective.axis)
        values = (status.budget_remaining, float(status.violations), float(status.met))
        for gauge, value in zip(gauges, values):
            gauge.labels(**labels).set(value)
    return registry.collect()


# ------------------------------------------------------------------ rules --


@dataclass(frozen=True)
class Rule:
    """One row of :data:`RULES` (see the module docstring for kinds)."""

    name: str
    severity: str
    kind: str
    summary: str
    #: threshold/delta/absence: the sample key (``a+b`` sums samples)
    metric: str = ""
    op: str = ">"
    bound: float = 0.0
    #: ratio only
    numerator: str = ""
    denominator: str = ""
    min_denominator: float = 1.0
    #: delta only: history snapshots summed
    window: int = 4
    #: absence only: operations before the rule may fire
    min_operations: int = 0
    #: budget only: the objectives whose least budget is compared
    objectives: Tuple[Objective, ...] = ()
    #: consecutive false evaluations before an active alert clears
    clear_after: int = DEFAULT_CLEAR_AFTER
    #: where the verdict goes: the alert log; a health component, which
    #: ``describe(view, rule, firing)`` words as ``(summary, detail)``;
    #: an incident trigger kind
    alert: bool = True
    component: str = ""
    describe: Optional[Callable[..., Tuple[str, Dict[str, object]]]] = None
    incident: str = ""

    def __post_init__(self) -> None:
        _check(f"rule {self.name!r}: ", (
            (self.severity not in SEVERITIES, f"unknown severity {self.severity!r}"),
            (self.kind not in KINDS, f"unknown kind {self.kind!r}"),
            (self.op not in _COMPARE, f"unknown comparison {self.op!r}"),
            (self.kind == "ratio" and not (self.numerator and self.denominator),
             "ratio rules need numerator/denominator"),
            (self.kind == "budget" and not self.objectives, "budget rules need objectives"),
            (self.kind not in ("ratio", "budget") and not self.metric,
             f"{self.kind} rules need a metric"),
            (self.window < 1, "window must be >= 1"),
            (self.clear_after < 1, "clear_after must be >= 1"),
            (bool(self.component) != (self.describe is not None),
             "a health component needs describe, and only one does"),
        ))


@dataclass
class View:
    """What one evaluation sees: deterministic sample values, the history
    rows (for delta rules), the operation totals, and the span histograms
    budget rows read (None: no histograms)."""

    values: Dict[str, float] = field(default_factory=dict)
    snapshots: List[HistorySnapshot] = field(default_factory=list)
    operations: int = 0
    simulated_seconds: float = 0.0
    buckets: Optional[BucketSource] = None

    def value(self, expression: str) -> float:
        """A sample value, or the sum of ``+``-joined samples; missing
        samples read as 0 so rules work on cold stores."""
        return sum(self.values.get(key.strip(), 0.0) for key in expression.split("+"))

    def __getitem__(self, key: str):
        return self.values[key]


def evaluate_rule(rule: Rule, view: View) -> Tuple[bool, float]:
    """One row against one view → (condition holds, observed value)."""
    if rule.kind == "ratio":
        denominator = view.value(rule.denominator)
        if denominator < rule.min_denominator:
            return False, 0.0
        value = view.value(rule.numerator) / denominator
    elif rule.kind == "delta":
        keys = [key.strip() for key in rule.metric.split("+")]
        value = sum(
            sum(snapshot.delta(key) for key in keys)
            for snapshot in view.snapshots[-rule.window:]
        )
    elif rule.kind == "budget":
        value = budget_floor(objective_statuses(rule.objectives, view.buckets))
    else:
        value = view.value(rule.metric)
        if rule.kind == "absence":
            return view.operations >= rule.min_operations and value <= rule.bound, value
    return _COMPARE[rule.op](value, rule.bound), value


def store_view(store, current) -> View:
    """A live store's view: the samples of ``current``, the tick's
    :class:`~repro.obs.bridge.MetricsSnapshot` (shared with the other
    observers, so the drift score goes into a copy), and its histograms."""
    snapshots = store.history.snapshots()
    values = dict(current.values)
    values[DRIFT_KEY] = latest_drift(snapshots)
    return View(values, snapshots, store.operations.total,
                store.simulated_seconds, live_buckets(store))


def cumulative_values(snapshots: Sequence[HistorySnapshot]) -> Dict[str, float]:
    """Reconstruct cumulative sample values from history deltas (the
    offline path ``watch`` uses — no store open).  Counter-like samples
    (``*_total``/histogram ``_bucket``/``_sum``/``_count``) sum their
    deltas; everything else is a gauge and keeps its last value."""
    totals: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    for snapshot in snapshots:
        for key, value in snapshot.deltas.items():
            if key.split("{", 1)[0].endswith(("_total", "_bucket", "_sum", "_count")):
                totals[key] = totals.get(key, 0.0) + value
            else:
                gauges[key] = value
    totals.update(gauges)
    return totals


def history_view(snapshots: Sequence[HistorySnapshot]) -> View:
    """The view rebuilt from persisted history alone (no histograms)."""
    values = cumulative_values(snapshots)
    values[DRIFT_KEY] = latest_drift(snapshots)
    last = snapshots[-1] if snapshots else None
    return View(values, list(snapshots), last.operations if last else 0,
                last.simulated_seconds if last else 0.0)


# -- how the judgement rows word their health components ----------------------


def _describe_checksums(view: View, rule: Rule, firing: bool):
    errors, accesses = view[rule.metric], view["buffer_accesses"]
    summary = (f"{errors} checksum error(s) over {accesses} buffer accesses"
               if firing else "no checksum errors")
    return summary, {"errors": errors, "accesses": accesses}


def _describe_scrub(view: View, rule: Rule, firing: bool):
    age, operations = view["scrub_age"], view["operations"]
    detail = {"completions": view["scrub_completions"], "operations": operations,
              "age_operations": age, "overdue_after": rule.bound}
    if view[rule.metric] is None:
        return "checksums disabled; scrubbing not applicable", detail
    if age is None:
        return (f"no scrub has completed in {operations} operations" if firing
                else "no completed scrub yet (store is young)"), detail
    return (f"last scrub was {age} operations ago" if firing
            else f"last scrub {age} operation(s) ago"), detail


def _describe_wal(view: View, rule: Rule, firing: bool):
    size, pending = view["wal_size_bytes"], view[rule.metric]
    summary = (f"{pending} records pending past the last checkpoint" if firing
               else f"{size} bytes, {pending} record(s) past the last checkpoint")
    return summary, {"size_bytes": size, "pending_records": pending}


def _describe_drift(view: View, rule: Rule, firing: bool):
    drift = view[rule.metric]
    if drift is None:
        return "workload history disabled", {"drift": None}
    summary = (f"workload drifted (score {drift:.2f} > {rule.bound:.2f})" if firing
               else f"drift score {drift:.2f}")
    return summary, {"drift": drift, "bound": rule.bound}


def _describe_slo(view: View, rule: Rule, firing: bool):
    statuses = objective_statuses(rule.objectives, view.buckets)
    detail = {"statuses": [status.to_dict() for status in statuses],
              "budget_floor": budget_floor(statuses)}
    if firing:
        return "simulated-latency objectives breached: " + ", ".join(
            status.objective.operation for status in statuses if not status.met
        ), detail
    return f"all {len(statuses)} simulated objectives met", detail


#: Every judgement, once.  Alert rows evaluate (and journal) in this order.
RULES: Tuple[Rule, ...] = (
    Rule("checksum-errors", "critical", "threshold",
         "block images failed checksum verification on fetch",
         metric="repro_storage_checksum_errors_total", op=">", bound=0,
         component="checksum-errors", describe=_describe_checksums,
         incident="critical-alert"),
    Rule("quarantined-blocks", "critical", "threshold",
         "blocks are quarantined pending repair",
         metric="repro_storage_quarantined_blocks", op=">", bound=0,
         incident="critical-alert"),
    Rule("slo-budget-exhausted", "warning", "budget",
         "a simulated-latency objective has spent its error budget",
         objectives=tuple(o for o in OBJECTIVES if o.axis == "simulated"),
         op="<", bound=0.0, component="slo", describe=_describe_slo,
         incident="slo-budget-exhausted"),
    Rule("workload-drift", "info", "threshold",
         "the workload fingerprint drifted from the recent window",
         metric=DRIFT_KEY, op=">", bound=0.5),
    Rule("drift", "info", "threshold",
         "the workload drifted far enough to degrade the store's health",
         metric=DRIFT_KEY, op=">", bound=0.75,
         alert=False, component="drift", describe=_describe_drift),
    Rule("buffer-thrash", "warning", "ratio",
         "buffer pool miss rate is high over a warm store",
         numerator='repro_buffer_accesses_total{result="miss"}',
         denominator=('repro_buffer_accesses_total{result="hit"}'
                      '+repro_buffer_accesses_total{result="miss"}'),
         op=">", bound=0.9, min_denominator=256),
    Rule("wal-surge", "info", "delta",
         "WAL append rate surged over the recent history window",
         metric="repro_wal_appends_total", op=">", bound=4096, window=4),
    Rule("wal", "info", "threshold",
         "WAL records pile up past the last checkpoint (checkpointing is overdue)",
         metric="wal_pending_records", op=">", bound=10_000,
         alert=False, component="wal", describe=_describe_wal),
    Rule("scrub-overdue", "info", "absence",
         "no scrub pass has completed on this store instance",
         metric="repro_storage_scrub_completions_total", min_operations=100_000),
    Rule("scrub", "info", "threshold",
         "the last scrub pass, or the store's whole life, is too long ago",
         metric="scrub_due", op=">=", bound=65_536,
         alert=False, component="scrub", describe=_describe_scrub),
    Rule("session-shedding", "warning", "threshold",
         "the serving layer is shedding sessions (admission overload)",
         metric="repro_server_sessions_shed_total", op=">", bound=0),
    Rule("replication-lag", "warning", "threshold",
         "a replica lags the primary's change stream",
         metric="repro_replication_lag_ops", op=">", bound=256),
    # the liveness gauge is absent (reads 0) on stores without replicas,
    # -1 when a configured replica's checkpoint is stale, and >= 1 while
    # replicas make progress — so only the stale state can reach the bound
    Rule("replication-stale", "warning", "absence",
         "a configured replica's checkpoint shows no apply progress",
         metric="repro_replication_apply_progress", bound=-1.0, min_operations=1),
)


# ------------------------------------------------------------------ alerts --


@dataclass(frozen=True)
class AlertEvent:
    """One state transition (an ``alert`` row of the journal)."""

    seq: int
    state: str  # "fired" | "cleared"
    rule: str
    severity: str
    summary: str
    value: float
    bound: float
    #: evaluation trigger: "interval", "checkpoint", "cli", "watch", ...
    label: str
    operations: int
    simulated_seconds: float

    def render(self) -> str:
        return (f"[{self.severity}] {self.state} {self.rule}: {self.summary} (value "
                f"{self.value:g}, bound {self.bound:g}, at op {self.operations})")


class AlertEngine:
    """The alert rows' state machines (every alert row of :data:`RULES`
    unless ``rules`` names others); their transitions go to the journal.
    A disabled engine restores, evaluates and records nothing."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None,
                 journal: Optional[Journal] = None, interval: int = DEFAULT_INTERVAL,
                 enabled: bool = True) -> None:
        self.enabled = enabled
        self.rules: Tuple[Rule, ...] = tuple(
            rules if rules is not None else (rule for rule in RULES if rule.alert)
        )
        self._by_name = {rule.name: rule for rule in self.rules}
        if len(self._by_name) != len(self.rules):
            raise ObservabilityError("alert rule names must be unique")
        self.journal = journal if journal is not None else Journal(enabled=enabled)
        #: Table-1 operations between the watch tick's interval evaluations
        self.interval = interval
        self.evaluations = 0
        self._active: Dict[str, AlertEvent] = {}
        self._ok_streak: Dict[str, int] = {}
        #: events emitted (or restored) through this engine instance
        self._events: List[AlertEvent] = []
        for row in self.journal.restored if enabled else ():
            if row["kind"] == "alert":
                self._note(from_row(AlertEvent, row))

    def _note(self, event: AlertEvent) -> None:
        self._events.append(event)
        if event.state == "fired":
            self._active[event.rule] = event
        else:
            self._active.pop(event.rule, None)

    def rule(self, name: str) -> Rule:
        return self._by_name[name]

    def evaluate(self, view: View, label: str = "manual") -> List[AlertEvent]:
        """Run every rule's state machine; returns the transitions, each
        appended to the journal in rule order."""
        if not self.journal.enabled:
            return []
        self.evaluations += 1
        transitions: List[AlertEvent] = []
        for rule in self.rules:
            firing, value = evaluate_rule(rule, view)
            state = None
            if firing:
                self._ok_streak[rule.name] = 0
                if rule.name not in self._active:
                    state = "fired"
            elif rule.name in self._active:
                streak = self._ok_streak.get(rule.name, 0) + 1
                cleared = streak >= rule.clear_after
                self._ok_streak[rule.name] = 0 if cleared else streak
                state = "cleared" if cleared else None
            if state is not None:
                row = self.journal.append(
                    "alert", view.operations, view.simulated_seconds,
                    {"state": state, "rule": rule.name, "severity": rule.severity,
                     "summary": rule.summary, "value": value, "bound": rule.bound,
                     "label": label},
                )
                transitions.append(from_row(AlertEvent, row))
                self._note(transitions[-1])
        return transitions

    def active(self) -> List[AlertEvent]:
        """Currently-firing alerts, oldest first."""
        return sorted(self._active.values(), key=lambda event: event.seq)

    def events(self) -> List[AlertEvent]:
        """Every transition this instance has seen (including restored)."""
        return list(self._events)

    def worst_active_severity(self) -> Optional[str]:
        severities = (event.severity for event in self._active.values())
        return max(severities, key=SEVERITIES.index, default=None)

    def __len__(self) -> int:
        return len(self._events)


# ------------------------------------------------------------------ health --


@dataclass
class HealthComponent:
    """One signal folded into the verdict."""

    name: str
    status: str
    summary: str
    detail: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class HealthReport:
    """All components plus the collapsed verdict."""

    components: List[HealthComponent]

    @property
    def verdict(self) -> str:
        statuses = (component.status for component in self.components)
        return max(statuses, key=_ORDER.__getitem__, default=HEALTHY)

    @property
    def exit_code(self) -> int:
        return _ORDER[self.verdict]

    def failed(self) -> List[HealthComponent]:
        return [component for component in self.components if component.status != HEALTHY]

    def to_dict(self) -> Dict[str, object]:
        return stamp({"verdict": self.verdict, "exit_code": self.exit_code,
                      "components": [c.to_dict() for c in self.components]})

    def render(self) -> str:
        lines = [f"health: {self.verdict} (exit {self.exit_code})"]
        for component in self.components:
            marker = {HEALTHY: "ok", DEGRADED: "WARN", UNHEALTHY: "FAIL"}[component.status]
            lines.append(f"  [{marker:>4}] {component.name}: {component.summary}")
        return "\n".join(lines) + "\n"


#: The report's components in order: the judgement rows' ``component``s
#: and the checks of on-disk state (:data:`_ON_DISK`).
COMPONENTS = ("integrity", "quarantine", "checksum-errors", "repair", "scrub",
              "wal", "drift", "slo", "replication")


def _integrity(store, store_path) -> HealthComponent:
    from repro.core.integrity import integrity_report

    report = integrity_report(store)
    failed = [check.name for check in report.failed()]
    detail = {"checks": len(report.checks), "failed": failed}
    if not failed:
        return HealthComponent("integrity", HEALTHY,
                               f"all {len(report.checks)} checks passed", detail)
    return HealthComponent(
        "integrity", UNHEALTHY,
        f"{len(failed)} of {len(report.checks)} checks failed: " + ", ".join(failed),
        detail,
    )


def _quarantine(store, store_path) -> HealthComponent:
    blocks = store.pool.quarantined_blocks()
    if not blocks:
        return HealthComponent("quarantine", HEALTHY, "no quarantined blocks",
                               {"blocks": []})
    return HealthComponent("quarantine", UNHEALTHY,
                           f"{len(blocks)} block(s) quarantined pending repair",
                           {"blocks": list(blocks)})


def _repair(store, store_path) -> HealthComponent:
    if store_path is None:
        return HealthComponent("repair", HEALTHY,
                               "in-memory store (no repair sidecar possible)",
                               {"sidecar": None})
    sidecar = read_sidecar(store_path)
    if sidecar is None:
        return HealthComponent("repair", HEALTHY, "no degraded-repair sidecar",
                               {"sidecar": None})
    return HealthComponent(
        "repair", DEGRADED,
        "degraded-repair sidecar present: reads may omit salvaged-over data",
        # a RepairReport's dict; an unreadable sidecar's stand-in has none
        {"sidecar": sidecar, "lost": sidecar.get("lost_ids")},
    )


def _replication(store, store_path) -> HealthComponent:
    from repro.replication.service import STALE_AFTER_OPS, ReplicationMonitor, list_replicas

    if store_path is None or not list_replicas(store_path):
        return HealthComponent("replication", HEALTHY, "no replicas configured",
                               {"replicas": []})
    monitor = getattr(store, "replication", None)
    if monitor is None:
        monitor = ReplicationMonitor(store, store_path)
    lags = monitor.replica_lags()
    detail = {
        "head": monitor.head(),
        "stale_after_ops": STALE_AFTER_OPS,
        "replicas": [
            {"name": lag.name, "cursor": lag.cursor, "lag": lag.lag,
             "stale": lag.stale, "has_checkpoint": lag.has_checkpoint}
            for lag in lags
        ],
    }
    stale = [lag for lag in lags if lag.stale]
    if stale:
        return HealthComponent(
            "replication", DEGRADED,
            f"{len(stale)} of {len(lags)} replica(s) stale: "
            + ", ".join(f"{lag.name} (lag {lag.lag})" for lag in stale),
            detail,
        )
    max_lag = max((lag.lag for lag in lags), default=0)
    return HealthComponent("replication", HEALTHY,
                           f"{len(lags)} replica(s), max lag {max_lag} op(s)", detail)


#: The components that check on-disk state rather than judge a row.
_ON_DISK = {"integrity": _integrity, "quarantine": _quarantine,
            "repair": _repair, "replication": _replication}


def _judge(rule: Rule, view: View) -> HealthComponent:
    """A judgement row as a health component, degraded while it fires.  A
    signal of None means "not applicable here": the row never fires."""
    firing = view.values.get(rule.metric, 0.0) is not None and evaluate_rule(rule, view)[0]
    summary, detail = rule.describe(view, rule, firing)
    return HealthComponent(rule.component, DEGRADED if firing else HEALTHY, summary, detail)


def health_report(store, store_path: Optional[str] = None) -> HealthReport:
    """Every component against a live store.  ``store_path`` (the
    directory, when there is one) enables the sidecar and replica checks."""
    # scrub recency is read BEFORE the integrity walk: integrity's
    # block-checksum invariant runs a full scrub pass itself, which
    # would reset the very recency marks the scrub row judges
    operations = store.operations.total
    last = store.operations_at_last_scrub
    age = operations - last if last is not None else None
    values = {
        "operations": operations,
        "scrub_completions": store.scrub_completions,
        "scrub_age": age,
        "scrub_due": ((operations if age is None else age)
                      if store.config.checksums_enabled else None),
    }
    parts = {"integrity": _integrity(store, store_path)}
    try:
        pending = len(store.wal.records_after_last_checkpoint())
    except ReproError:
        pending = -1
    values.update({
        "repro_storage_checksum_errors_total": store.stats.buffer.checksum_errors,
        "buffer_accesses": store.stats.buffer.accesses,
        "wal_size_bytes": store.wal.size_bytes,
        "wal_pending_records": pending,
        DRIFT_KEY: latest_drift(store.history.snapshots()) if store.history.enabled else None,
    })
    view = View(values, operations=operations, buckets=live_buckets(store))
    for rule in RULES:
        if rule.component:
            parts[rule.component] = _judge(rule, view)
    for name, check in _ON_DISK.items():
        if name not in parts:
            parts[name] = check(store, store_path)
    return HealthReport([parts[name] for name in COMPONENTS])
