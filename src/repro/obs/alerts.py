"""Deterministic alert engine over the store's metric surface.

Every observability layer so far is pull-style: run a workload, then
dump artifacts.  Operations needs push-style signals — "checksum errors
appeared", "the buffer pool is thrashing", "no scrub has completed in a
long time" — without a human staring at ``stats``.  This module is that
rule engine, built on the same contract as the rest of :mod:`repro.obs`:

* **deterministic** — rules only see deterministic samples (the same
  wall-clock-free snapshot workload history captures),
  plus pseudo-metrics derived from them (workload drift, the simulated
  SLO budget floor).  Two identical runs write byte-identical alert
  logs, which CI diffs;
* **zero-cost when off** — an engine built with ``enabled=False`` (no
  log restored, nothing evaluated) keeps the hot path at one attribute
  check, and evaluation itself only *reads* counters (the simulated
  clock never moves);
* **append-only JSONL** — state *transitions* (fired / cleared), one
  stamped line each, in ``store.alerts.jsonl`` next to the device file
  (:func:`~repro.obs.schema.read_jsonl` / :func:`~repro.obs.schema.write_jsonl`).
  Steady state writes nothing; the active set and the sequence number
  are restored from the file on reopen.

A live store evaluates on its watch tick
(:meth:`~repro.core.store.XMLStore.watch`), every :data:`DEFAULT_INTERVAL`
operations and at checkpoints, over the same capture workload history
just recorded.

Rule kinds:

``threshold``
    compare one sample (or a ``+``-joined sum of samples) to a bound;
``ratio``
    compare ``numerator / denominator`` (each a ``+``-joined sum),
    suppressed below ``min_denominator`` so cold stores stay quiet;
``delta``
    compare the sum of a sample's per-snapshot deltas over the last
    ``window`` history snapshots — rate-of-change without a wall clock;
``absence``
    fire when a sample is still ≤ ``bound`` after ``min_operations``
    Table-1 operations (e.g. "no scrub ever completed").

Dedup and hysteresis: a rule whose condition holds emits one ``fired``
event and then stays silently active; it emits ``cleared`` only after
``clear_after`` consecutive evaluations with the condition false.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.obs.fingerprint import latest_drift
from repro.obs.history import HistorySnapshot
from repro.obs.schema import read_jsonl, stamp, write_jsonl

DEFAULT_INTERVAL = 64
DEFAULT_CLEAR_AFTER = 2

SEVERITIES = ("info", "warning", "critical")
KINDS = ("threshold", "ratio", "delta", "absence")
OPS = (">", ">=", "<", "<=")

#: Pseudo-metric keys the engine injects into every view (derived from
#: deterministic inputs, so they are themselves deterministic).
DRIFT_KEY = "repro_workload_drift"
SLO_BUDGET_KEY = "repro_slo_budget_floor"


@dataclass(frozen=True)
class AlertRule:
    """One declarative rule (see the module docstring for kinds)."""

    name: str
    severity: str
    kind: str
    summary: str
    #: threshold/delta/absence: the sample key (``a+b`` sums samples).
    metric: str = ""
    op: str = ">"
    bound: float = 0.0
    #: ratio only.
    numerator: str = ""
    denominator: str = ""
    min_denominator: float = 1.0
    #: delta only: history snapshots summed.
    window: int = 4
    #: absence only: operations before the rule may fire.
    min_operations: int = 0
    #: consecutive false evaluations before an active alert clears.
    clear_after: int = DEFAULT_CLEAR_AFTER

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ObservabilityError(
                f"rule {self.name!r}: unknown severity {self.severity!r}"
            )
        if self.kind not in KINDS:
            raise ObservabilityError(
                f"rule {self.name!r}: unknown kind {self.kind!r}"
            )
        if self.op not in OPS:
            raise ObservabilityError(
                f"rule {self.name!r}: unknown comparison {self.op!r}"
            )
        if self.kind == "ratio" and not (self.numerator and self.denominator):
            raise ObservabilityError(
                f"rule {self.name!r}: ratio rules need numerator/denominator"
            )
        if self.kind != "ratio" and not self.metric:
            raise ObservabilityError(
                f"rule {self.name!r}: {self.kind} rules need a metric"
            )
        if self.window < 1:
            raise ObservabilityError(
                f"rule {self.name!r}: window must be >= 1"
            )
        if self.clear_after < 1:
            raise ObservabilityError(
                f"rule {self.name!r}: clear_after must be >= 1"
            )


@dataclass
class AlertView:
    """What one evaluation sees: deterministic cumulative sample values,
    the history snapshots (for delta rules), and the operation totals."""

    values: Dict[str, float] = field(default_factory=dict)
    snapshots: List[HistorySnapshot] = field(default_factory=list)
    operations: int = 0
    simulated_seconds: float = 0.0

    def value(self, expression: str) -> float:
        """A sample value, or the sum of ``+``-joined samples; missing
        samples read as 0 so rules work on cold stores."""
        return sum(
            self.values.get(key.strip(), 0.0)
            for key in expression.split("+")
        )


def _compare(value: float, op: str, bound: float) -> bool:
    if op == ">":
        return value > bound
    if op == ">=":
        return value >= bound
    if op == "<":
        return value < bound
    return value <= bound


def evaluate_rule(rule: AlertRule, view: AlertView) -> Tuple[bool, float]:
    """One rule against one view → (condition holds, observed value)."""
    if rule.kind == "threshold":
        value = view.value(rule.metric)
        return _compare(value, rule.op, rule.bound), value
    if rule.kind == "ratio":
        denominator = view.value(rule.denominator)
        if denominator < rule.min_denominator:
            return False, 0.0
        value = view.value(rule.numerator) / denominator
        return _compare(value, rule.op, rule.bound), value
    if rule.kind == "delta":
        recent = view.snapshots[-rule.window:]
        value = sum(
            sum(
                snapshot.delta(key.strip())
                for key in rule.metric.split("+")
            )
            for snapshot in recent
        )
        return _compare(value, rule.op, rule.bound), value
    # absence
    value = view.value(rule.metric)
    if view.operations < rule.min_operations:
        return False, value
    return value <= rule.bound, value


def store_view(store, current) -> AlertView:
    """The evaluation view of a live store: the samples of ``current``,
    its deterministic :class:`~repro.obs.bridge.MetricsSnapshot`, plus
    the drift and SLO-budget pseudo-metrics.  The capture is shared with
    the other observers, so the pseudo-metrics go into a copy."""
    values = dict(current.values)
    snapshots = store.history.snapshots()
    values[DRIFT_KEY] = latest_drift(snapshots)
    values[SLO_BUDGET_KEY] = store.slo.budget_floor(store)
    return AlertView(
        values=values,
        snapshots=snapshots,
        operations=store.operations.total,
        simulated_seconds=store.simulated_seconds,
    )


def cumulative_values(
    snapshots: Sequence[HistorySnapshot],
) -> Dict[str, float]:
    """Reconstruct cumulative sample values from history deltas (the
    offline path ``watch`` uses — no store open).  Counter-like samples
    (``*_total``/histogram ``_bucket``/``_sum``/``_count``) sum their
    deltas; everything else is a gauge and keeps its last value."""
    totals: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    for snapshot in snapshots:
        for key, value in snapshot.deltas.items():
            name = key.split("{", 1)[0]
            if name.endswith(("_total", "_bucket", "_sum", "_count")):
                totals[key] = totals.get(key, 0.0) + value
            else:
                gauges[key] = value
    totals.update(gauges)
    return totals


def history_view(snapshots: Sequence[HistorySnapshot]) -> AlertView:
    """Evaluation view rebuilt from persisted history alone."""
    values = cumulative_values(snapshots)
    values[DRIFT_KEY] = latest_drift(snapshots)
    last = snapshots[-1] if snapshots else None
    return AlertView(
        values=values,
        snapshots=list(snapshots),
        operations=last.operations if last else 0,
        simulated_seconds=last.simulated_seconds if last else 0.0,
    )


@dataclass(frozen=True)
class AlertEvent:
    """One state transition, as persisted to ``store.alerts.jsonl``."""

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

    def to_dict(self) -> Dict[str, object]:
        return stamp(
            {
                "seq": self.seq,
                "state": self.state,
                "rule": self.rule,
                "severity": self.severity,
                "summary": self.summary,
                "value": self.value,
                "bound": self.bound,
                "label": self.label,
                "operations": self.operations,
                "simulated_seconds": self.simulated_seconds,
            }
        )

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "AlertEvent":
        try:
            return cls(
                seq=int(payload["seq"]),  # type: ignore[arg-type]
                state=str(payload["state"]),
                rule=str(payload["rule"]),
                severity=str(payload["severity"]),
                summary=str(payload["summary"]),
                value=float(payload["value"]),  # type: ignore[arg-type]
                bound=float(payload["bound"]),  # type: ignore[arg-type]
                label=str(payload["label"]),
                operations=int(payload["operations"]),  # type: ignore[arg-type]
                simulated_seconds=float(
                    payload["simulated_seconds"]  # type: ignore[arg-type]
                ),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ObservabilityError(
                f"malformed alert event: {error}"
            ) from error

    def render(self) -> str:
        return (
            f"[{self.severity}] {self.state} {self.rule}: {self.summary} "
            f"(value {self.value:g}, bound {self.bound:g}, "
            f"at op {self.operations})"
        )


def default_rules() -> Tuple[AlertRule, ...]:
    """The built-in rule set the CLI evaluates."""
    return (
        AlertRule(
            "checksum-errors",
            "critical",
            "threshold",
            "block images failed checksum verification on fetch",
            metric="repro_storage_checksum_errors_total",
            op=">",
            bound=0,
        ),
        AlertRule(
            "quarantined-blocks",
            "critical",
            "threshold",
            "blocks are quarantined pending repair",
            metric="repro_storage_quarantined_blocks",
            op=">",
            bound=0,
        ),
        AlertRule(
            "slo-budget-exhausted",
            "warning",
            "threshold",
            "a simulated-latency objective has spent its error budget",
            metric=SLO_BUDGET_KEY,
            op="<",
            bound=0.0,
        ),
        AlertRule(
            "workload-drift",
            "info",
            "threshold",
            "the workload fingerprint drifted from the recent window",
            metric=DRIFT_KEY,
            op=">",
            bound=0.5,
        ),
        AlertRule(
            "buffer-thrash",
            "warning",
            "ratio",
            "buffer pool miss rate is high over a warm store",
            numerator='repro_buffer_accesses_total{result="miss"}',
            denominator=(
                'repro_buffer_accesses_total{result="hit"}'
                '+repro_buffer_accesses_total{result="miss"}'
            ),
            op=">",
            bound=0.9,
            min_denominator=256,
        ),
        AlertRule(
            "wal-surge",
            "info",
            "delta",
            "WAL append rate surged over the recent history window",
            metric="repro_wal_appends_total",
            op=">",
            bound=4096,
            window=4,
        ),
        AlertRule(
            "scrub-overdue",
            "info",
            "absence",
            "no scrub pass has completed on this store instance",
            metric="repro_storage_scrub_completions_total",
            min_operations=100_000,
        ),
        AlertRule(
            "session-shedding",
            "warning",
            "threshold",
            "the serving layer is shedding sessions (admission overload)",
            metric="repro_server_sessions_shed_total",
            op=">",
            bound=0,
        ),
        AlertRule(
            "replication-lag",
            "warning",
            "threshold",
            "a replica lags the primary's change stream",
            metric="repro_replication_lag_ops",
            op=">",
            bound=256,
        ),
        AlertRule(
            "replication-stale",
            "warning",
            "absence",
            "a configured replica's checkpoint shows no apply progress",
            # the liveness gauge is absent (reads 0) on stores without
            # replicas, -1 when a configured replica's checkpoint is
            # stale, and >= 1 while replicas make progress — so only the
            # stale state can reach the bound
            metric="repro_replication_apply_progress",
            bound=-1.0,
            min_operations=1,
        ),
    )


class AlertEngine:
    """Rule state machines plus the append-only log."""

    def __init__(
        self,
        rules: Optional[Sequence[AlertRule]] = None,
        path: Optional[str] = None,
        interval: int = DEFAULT_INTERVAL,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.rules: Tuple[AlertRule, ...] = (
            tuple(rules) if rules is not None else default_rules()
        )
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ObservabilityError("alert rule names must be unique")
        #: a disabled engine neither restores nor appends to its log
        self.path = path if enabled else None
        #: Table-1 operations between the watch tick's interval evaluations
        self.interval = interval
        self.evaluations = 0
        self._next_seq = 0
        self._active: Dict[str, AlertEvent] = {}
        self._ok_streak: Dict[str, int] = {}
        #: events emitted (or restored) through this engine instance
        self._events: List[AlertEvent] = []
        if self.path is not None:
            for event in load_events(self.path):
                self._next_seq = event.seq + 1
                self._events.append(event)
                if event.state == "fired":
                    self._active[event.rule] = event
                else:
                    self._active.pop(event.rule, None)

    # ------------------------------------------------------------- recording --

    def evaluate(
        self, view: AlertView, label: str = "manual"
    ) -> List[AlertEvent]:
        """Run every rule's state machine; returns the transitions."""
        self.evaluations += 1
        transitions: List[AlertEvent] = []
        for rule in self.rules:
            firing, value = evaluate_rule(rule, view)
            if firing:
                self._ok_streak[rule.name] = 0
                if rule.name not in self._active:
                    event = self._emit(rule, "fired", value, label, view)
                    self._active[rule.name] = event
                    transitions.append(event)
            elif rule.name in self._active:
                streak = self._ok_streak.get(rule.name, 0) + 1
                self._ok_streak[rule.name] = streak
                if streak >= rule.clear_after:
                    del self._active[rule.name]
                    self._ok_streak[rule.name] = 0
                    transitions.append(
                        self._emit(rule, "cleared", value, label, view)
                    )
        return transitions

    def _emit(
        self,
        rule: AlertRule,
        state: str,
        value: float,
        label: str,
        view: AlertView,
    ) -> AlertEvent:
        event = AlertEvent(
            seq=self._next_seq,
            state=state,
            rule=rule.name,
            severity=rule.severity,
            summary=rule.summary,
            value=value,
            bound=rule.bound,
            label=label,
            operations=view.operations,
            simulated_seconds=view.simulated_seconds,
        )
        self._next_seq += 1
        self._events.append(event)
        if self.path is not None:
            write_jsonl(self.path, [event.to_dict()])
        return event

    # ---------------------------------------------------------------- reading --

    def active(self) -> List[AlertEvent]:
        """Currently-firing alerts, oldest first."""
        return sorted(self._active.values(), key=lambda event: event.seq)

    def events(self) -> List[AlertEvent]:
        """Every transition this instance has seen (including restored)."""
        return list(self._events)

    def worst_active_severity(self) -> Optional[str]:
        worst = None
        for event in self._active.values():
            if worst is None or SEVERITIES.index(event.severity) > (
                SEVERITIES.index(worst)
            ):
                worst = event.severity
        return worst

    def __len__(self) -> int:
        return len(self._events)


def load_events(path: str) -> List[AlertEvent]:
    """One alert JSONL file (:func:`~repro.obs.schema.read_jsonl`),
    decoded into :class:`AlertEvent` rows."""
    return [AlertEvent.from_dict(row) for row in read_jsonl(path)]
