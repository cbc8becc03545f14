"""Service-level objectives over the span histograms.

The tracing layer already records every operation twice — once on the
wall clock (``repro_span_seconds``) and once on the simulated disk/CPU
model (``repro_span_simulated_seconds``).  This module turns those
histograms into *objectives*: "95% of ``node_read`` operations finish
within 0.25 simulated seconds", with classic error-budget accounting
(how many violations the target fraction allows, how much of that
allowance is spent).

Everything is computed from cumulative bucket counts, so evaluation is
a pure read — no clock is touched, and on the simulated axis the
result is a deterministic function of the operation sequence.  That
split matters downstream:

* the **simulated** axis feeds alert rules, the health verdict, and
  byte-diffed CI artifacts (two identical runs → identical statuses);
* the **wall** axis is real latency and therefore nondeterministic —
  it appears in human-readable reports and the Prometheus exposition,
  never in history snapshots or determinism-gated JSON.

Percentiles are histogram estimates: the reported quantile is the
smallest bucket bound whose cumulative count covers the requested
fraction (the same upper-bound estimate Prometheus' ``histogram_quantile``
would give at bucket resolution).  Compliance is conservative: an
observation counts as within-objective only when it landed in a bucket
whose upper bound is ≤ the objective, so objectives should sit on
bucket bounds (the defaults do).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricFamily, MetricsRegistry

#: Histogram family per axis.
AXIS_FAMILIES = {
    "simulated": "repro_span_simulated_seconds",
    "wall": "repro_span_seconds",
}

#: Axes whose statuses are deterministic functions of the operation
#: sequence (safe for byte-diffed artifacts).
DETERMINISTIC_AXES = ("simulated",)


@dataclass(frozen=True)
class SLOTarget:
    """One objective: ``target_fraction`` of ``operation`` spans must
    finish within ``objective_seconds`` on ``axis``."""

    operation: str
    objective_seconds: float
    target_fraction: float = 0.95
    axis: str = "simulated"

    def __post_init__(self) -> None:
        if self.axis not in AXIS_FAMILIES:
            raise ObservabilityError(
                f"unknown SLO axis {self.axis!r} (choose from "
                f"{sorted(AXIS_FAMILIES)})"
            )
        if not 0.0 < self.target_fraction <= 1.0:
            raise ObservabilityError(
                f"target_fraction must be in (0, 1], got {self.target_fraction}"
            )
        if self.objective_seconds <= 0:
            raise ObservabilityError("objective_seconds must be positive")


#: Objectives sit on SIMULATED_COST_BUCKETS / LATENCY_BUCKETS bounds so
#: the conservative bucket compliance is exact, not pessimistic.
DEFAULT_TARGETS: Tuple[SLOTarget, ...] = (
    SLOTarget("node_read", 0.25, 0.95, "simulated"),
    SLOTarget("xpath", 2.5, 0.95, "simulated"),
    SLOTarget("insert_into_last", 0.25, 0.95, "simulated"),
    SLOTarget("node_read", 0.025, 0.95, "wall"),
    SLOTarget("xpath", 0.25, 0.95, "wall"),
    SLOTarget("insert_into_last", 0.025, 0.95, "wall"),
)


@dataclass(frozen=True)
class SLOStatus:
    """One target evaluated against the current histograms."""

    target: SLOTarget
    #: Spans observed on this axis for this operation.
    count: int
    #: Observations NOT within the objective (conservative: bucket
    #: granularity rounds against compliance).
    violations: int
    #: Violations the target fraction tolerates at this count.
    allowed: float
    #: Histogram estimate of the latency at the target fraction
    #: (upper bucket bound; None when no data).
    percentile_estimate: Optional[float]
    #: 1.0 = untouched budget, 0.0 = exactly spent, negative = breached.
    budget_remaining: float

    @property
    def met(self) -> bool:
        return self.violations <= self.allowed

    def to_dict(self) -> Dict[str, object]:
        return {
            "operation": self.target.operation,
            "axis": self.target.axis,
            "objective_seconds": self.target.objective_seconds,
            "target_fraction": self.target.target_fraction,
            "count": self.count,
            "violations": self.violations,
            "allowed": self.allowed,
            "percentile_estimate": self.percentile_estimate,
            "budget_remaining": self.budget_remaining,
            "met": self.met,
        }


@dataclass
class SLOReport:
    """All statuses from one evaluation."""

    statuses: List[SLOStatus]

    @property
    def met(self) -> bool:
        return all(status.met for status in self.statuses)

    def worst(self) -> Optional[SLOStatus]:
        """The status with the least budget left (None when empty)."""
        if not self.statuses:
            return None
        return min(self.statuses, key=lambda status: status.budget_remaining)

    def budget_floor(self) -> float:
        """Minimum budget_remaining across statuses (1.0 when empty)."""
        worst = self.worst()
        return 1.0 if worst is None else worst.budget_remaining

    def to_dict(self) -> Dict[str, object]:
        from repro.obs.schema import stamp

        return stamp(
            {
                "met": self.met,
                "budget_floor": self.budget_floor(),
                "statuses": [status.to_dict() for status in self.statuses],
            }
        )

    def render(self) -> str:
        if not self.statuses:
            return "no SLO targets configured\n"
        lines = [
            f"{'operation':<18} {'axis':<10} {'objective':>10} "
            f"{'p-target':>9} {'count':>7} {'viol':>6} {'budget':>8}  status"
        ]
        for status in self.statuses:
            target = status.target
            estimate = (
                "-"
                if status.percentile_estimate is None
                else f"{status.percentile_estimate:g}s"
            )
            lines.append(
                f"{target.operation:<18} {target.axis:<10} "
                f"{target.objective_seconds:>9g}s {estimate:>9} "
                f"{status.count:>7} {status.violations:>6} "
                f"{status.budget_remaining:>8.2f}  "
                f"{'met' if status.met else 'BREACHED'}"
            )
        return "\n".join(lines) + "\n"


def _bucket_counts(
    families: Iterable[MetricFamily], family_name: str, operation: str
) -> Tuple[List[Tuple[float, float]], int]:
    """Cumulative ``(upper_bound, count)`` pairs and the total count for
    one operation's histogram, parsed from exported families."""
    buckets: List[Tuple[float, float]] = []
    total = 0
    for family in families:
        if family.name != family_name or family.kind != "histogram":
            continue
        for sample in family.samples:
            labels = dict(sample.labels)
            if labels.get("span") != operation:
                continue
            if sample.name == family_name + "_bucket":
                bound = float(labels["le"])
                buckets.append((bound, sample.value))
            elif sample.name == family_name + "_count":
                total = int(sample.value)
    buckets.sort(key=lambda pair: pair[0])
    return buckets, total


def _live_bucket_counts(
    registry, family_name: str, operation: str
) -> Tuple[List[Tuple[float, float]], int]:
    """:func:`_bucket_counts` read straight off a live registry's
    histogram child — which it never creates: evaluating an objective
    must not add a series to the exposition."""
    histogram = registry.get(family_name)
    child = histogram.existing(span=operation) if histogram is not None else None
    if child is None:
        return [], 0
    buckets = child.bucket_counts()
    return buckets, buckets[-1][1]


def _evaluate_target(
    target: SLOTarget, buckets: List[Tuple[float, float]], count: int
) -> SLOStatus:
    """One target against its operation's cumulative ``(upper_bound,
    count)`` pairs and total count."""
    if count == 0:
        return SLOStatus(
            target=target,
            count=0,
            violations=0,
            allowed=0.0,
            percentile_estimate=None,
            budget_remaining=1.0,
        )
    # conservative compliance: within-objective = landed in a bucket
    # whose upper bound does not exceed the objective
    compliant = 0.0
    for bound, cumulative in buckets:
        if bound <= target.objective_seconds:
            compliant = cumulative
        else:
            break
    violations = int(count - compliant)
    allowed = (1.0 - target.target_fraction) * count
    if allowed > 0:
        budget = 1.0 - violations / allowed
    else:
        budget = 1.0 if violations == 0 else -1.0
    # clamp: a fully-breached budget reads the same past -1
    budget = max(-1.0, min(1.0, budget))
    needed = target.target_fraction * count
    estimate = None
    for bound, cumulative in buckets:
        if cumulative >= needed:
            estimate = bound if not math.isinf(bound) else None
            break
    return SLOStatus(
        target=target,
        count=count,
        violations=violations,
        allowed=allowed,
        percentile_estimate=estimate,
        budget_remaining=budget,
    )


class SLOTracker:
    """Evaluates targets against a store's span metrics.  A tracker built
    with ``enabled=False`` is the store's "SLOs off" state: callers check
    ``enabled`` before asking it anything."""

    def __init__(
        self,
        targets: Optional[Sequence[SLOTarget]] = None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.targets: Tuple[SLOTarget, ...] = (
            tuple(targets) if targets is not None else DEFAULT_TARGETS
        )

    def _report(self, axes: Sequence[str], bucket_counts) -> SLOReport:
        """Every target on ``axes`` against ``bucket_counts(family_name,
        operation)``."""
        return SLOReport(
            statuses=[
                _evaluate_target(
                    target,
                    *bucket_counts(AXIS_FAMILIES[target.axis], target.operation),
                )
                for target in self.targets
                if target.axis in axes
            ]
        )

    def evaluate_families(
        self,
        families: Sequence[MetricFamily],
        axes: Sequence[str] = DETERMINISTIC_AXES,
    ) -> SLOReport:
        """Evaluate against exported families (an offline scrape)."""
        return self._report(axes, partial(_bucket_counts, families))

    def evaluate(
        self, store, axes: Sequence[str] = DETERMINISTIC_AXES
    ) -> SLOReport:
        """Evaluate against a live store: reads each target's own
        histogram child (nothing is collected or parsed; the span
        histograms exist only when telemetry is enabled)."""
        return self._report(
            axes, partial(_live_bucket_counts, store.telemetry.registry)
        )

    def budget_floor(self, store) -> float:
        """Minimum simulated-axis budget_remaining — the alert-rule feed."""
        return self.evaluate(store, axes=DETERMINISTIC_AXES).budget_floor()

    def families(
        self, store, axes: Sequence[str] = DETERMINISTIC_AXES
    ) -> List[MetricFamily]:
        """Prometheus exposition: per-target budget/violation gauges."""
        registry = MetricsRegistry()
        budget = registry.gauge(
            "repro_slo_budget_remaining",
            "Error budget left per objective (1 untouched, <0 breached).",
            labelnames=("operation", "axis"),
        )
        violations = registry.gauge(
            "repro_slo_violations",
            "Observations outside the objective, per target.",
            labelnames=("operation", "axis"),
        )
        met = registry.gauge(
            "repro_slo_met",
            "1 when the objective currently holds, 0 when breached.",
            labelnames=("operation", "axis"),
        )
        for status in self.evaluate(store, axes=axes).statuses:
            labels = dict(
                operation=status.target.operation, axis=status.target.axis
            )
            budget.labels(**labels).set(status.budget_remaining)
            violations.labels(**labels).set(float(status.violations))
            met.labels(**labels).set(1.0 if status.met else 0.0)
        return registry.collect()
