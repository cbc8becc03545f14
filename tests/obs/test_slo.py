"""SLO objectives, error budgets, and percentile estimates (the budget
rows of repro.obs.rules)."""

from types import SimpleNamespace

import pytest

from repro.core.config import StoreConfig
from repro.core.store import XMLStore
from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry
from repro.obs.rules import (
    OBJECTIVES,
    RULES,
    AlertEngine,
    Objective,
    budget_floor,
    health_report,
    live_buckets,
    objective_statuses,
    slo_families,
)


def _buckets(observations, buckets=(0.25, 2.5)):
    """The live bucket source of a registry holding the simulated span
    histogram of (operation, value) pairs."""
    registry = MetricsRegistry()
    histogram = registry.histogram(
        "repro_span_simulated_seconds",
        "Simulated span cost.",
        labelnames=("span",),
        buckets=buckets,
    )
    for operation, value in observations:
        histogram.labels(span=operation).observe(value)
    return live_buckets(SimpleNamespace(telemetry=SimpleNamespace(registry=registry)))


class TestTargetValidation:
    def test_unknown_axis_rejected(self):
        with pytest.raises(ObservabilityError, match="axis"):
            Objective("read", 0.25, axis="lunar")

    def test_fraction_bounds(self):
        with pytest.raises(ObservabilityError, match="target_fraction"):
            Objective("read", 0.25, target_fraction=0.0)
        with pytest.raises(ObservabilityError, match="target_fraction"):
            Objective("read", 0.25, target_fraction=1.5)
        Objective("read", 0.25, target_fraction=1.0)  # inclusive top

    def test_objective_must_be_positive(self):
        with pytest.raises(ObservabilityError, match="positive"):
            Objective("read", 0.0)

    def test_defaults_sit_on_bucket_bounds(self):
        from repro.obs.metrics import LATENCY_BUCKETS, SIMULATED_COST_BUCKETS

        for objective in OBJECTIVES:
            buckets = (
                SIMULATED_COST_BUCKETS
                if objective.axis == "simulated"
                else LATENCY_BUCKETS
            )
            assert objective.objective_seconds in buckets, objective


class TestEvaluation:
    def _status(self, observations, target=None):
        statuses = objective_statuses(
            (target or Objective("node_read", 0.25, 0.95),),
            _buckets(observations),
        )
        assert len(statuses) == 1
        return statuses[0]

    def test_no_data_means_met_with_full_budget(self):
        status = self._status([])
        assert status.count == 0
        assert status.met is True
        assert status.budget_remaining == 1.0
        assert status.percentile_estimate is None

    def test_all_within_objective(self):
        status = self._status([("node_read", 0.1)] * 10)
        assert (status.count, status.violations) == (10, 0)
        assert status.met is True
        assert status.budget_remaining == 1.0
        assert status.percentile_estimate == 0.25

    def test_violations_spend_the_budget(self):
        # 97 of 100 within 0.25s: 3 violations against an allowance of 5
        observations = [("node_read", 0.1)] * 97 + [("node_read", 10.0)] * 3
        status = self._status(observations)
        assert (status.count, status.violations) == (100, 3)
        assert status.allowed == pytest.approx(5.0)
        assert status.met is True
        assert status.budget_remaining == pytest.approx(1.0 - 3 / 5)

    def test_breach_and_clamped_budget(self):
        # 20 violations against an allowance of 5: breached, floor at -1
        observations = [("node_read", 0.1)] * 80 + [("node_read", 10.0)] * 20
        status = self._status(observations)
        assert status.met is False
        assert status.budget_remaining == -1.0

    def test_perfect_fraction_with_one_violation_breaches(self):
        target = Objective("node_read", 0.25, target_fraction=1.0)
        status = self._status(
            [("node_read", 0.1), ("node_read", 10.0)], target=target
        )
        assert status.allowed == 0.0
        assert status.met is False
        assert status.budget_remaining == -1.0

    def test_percentile_estimate_is_the_covering_bound(self):
        # p95 needs 95 of 100; the 0.25 bucket holds only 90, the 2.5
        # bucket holds 98 — the estimate is the first covering bound
        observations = (
            [("node_read", 0.1)] * 90
            + [("node_read", 1.0)] * 8
            + [("node_read", 10.0)] * 2
        )
        status = self._status(observations)
        assert status.percentile_estimate == 2.5

    def test_other_operations_do_not_leak_in(self):
        observations = [("node_read", 0.1)] * 3 + [("xpath", 10.0)] * 3
        status = self._status(observations)
        assert status.count == 3
        assert status.violations == 0

    def test_axis_filter_drops_wall_targets(self):
        # the budget row judges the simulated objectives only; the wall
        # ones reach the exposition alone
        (budget,) = [rule for rule in RULES if rule.kind == "budget"]
        simulated = tuple(o for o in OBJECTIVES if o.axis == "simulated")
        assert budget.objectives == simulated
        assert len(simulated) < len(OBJECTIVES)


class TestReport:
    def _report(self):
        observations = (
            [("node_read", 0.1)] * 97 + [("node_read", 10.0)] * 3
            + [("xpath", 1.0)] * 4
        )
        return objective_statuses(
            (Objective("node_read", 0.25, 0.95), Objective("xpath", 2.5, 0.95)),
            _buckets(observations),
        )

    def test_worst_and_budget_floor(self):
        statuses = self._report()
        assert all(status.met for status in statuses)
        worst = min(statuses, key=lambda status: status.budget_remaining)
        assert worst.objective.operation == "node_read"
        assert budget_floor(statuses) == pytest.approx(0.4)

    def test_empty_report_floor_is_full(self):
        assert objective_statuses((), None) == []
        assert budget_floor([]) == 1.0

    def test_to_dict_is_stamped(self):
        # statuses reach JSON through the stamped health report
        store = XMLStore.open(
            StoreConfig(telemetry_enabled=True, alerts_enabled=True)
        )
        root = store.load_document("<r><a>x</a></r>")
        store.read(root + 1)
        payload = health_report(store).to_dict()
        assert payload["schema_version"] == 1
        (slo,) = [c for c in payload["components"] if c["name"] == "slo"]
        assert slo["status"] == "healthy"
        assert len(slo["detail"]["statuses"]) == 3
        first = slo["detail"]["statuses"][0]
        assert (first["operation"], first["met"], first["count"]) == ("node_read", True, 1)


class TestTrackerOnStores:
    def test_live_store_evaluation_is_deterministic(self):
        def run():
            store = XMLStore.open(
                StoreConfig(telemetry_enabled=True, alerts_enabled=True)
            )
            root = store.load_document("<r><a>x</a><b>y</b></r>")
            for _ in range(5):
                store.read(root + 1)
            simulated = [o for o in OBJECTIVES if o.axis == "simulated"]
            statuses = objective_statuses(simulated, live_buckets(store))
            return [status.to_dict() for status in statuses]

        assert run() == run()

    def test_budget_floor_without_telemetry_is_full(self):
        # no span histograms exist: every objective sees zero data
        store = XMLStore.open(StoreConfig(alerts_enabled=True))
        store.load_document("<r/>")
        statuses = objective_statuses(OBJECTIVES, live_buckets(store))
        assert budget_floor(statuses) == 1.0

    def test_families_export_gauges_per_target(self):
        from repro.obs.exporters import prometheus_text

        store = XMLStore.open(
            StoreConfig(telemetry_enabled=True, alerts_enabled=True)
        )
        root = store.load_document("<r><a>x</a></r>")
        store.read(root + 1)
        text = prometheus_text(slo_families(store))
        assert "# TYPE repro_slo_budget_remaining gauge" in text
        assert "# TYPE repro_slo_violations gauge" in text
        assert "# TYPE repro_slo_met gauge" in text
        assert 'operation="node_read"' in text
        assert 'axis="wall"' in text


class TestDisabledTracker:
    def test_enabled_is_a_constructor_argument(self):
        # budgets are judged by the alert engine, whose switch is its own
        assert AlertEngine().enabled is True
        assert AlertEngine(enabled=False).enabled is False
        store = XMLStore.open(StoreConfig(alerts_enabled=True))
        assert store.alerts.enabled is True
        assert XMLStore.open(StoreConfig()).alerts.enabled is False

    def test_disabled_store_sees_no_observations_and_an_untouched_budget(self):
        store = XMLStore.open(StoreConfig())
        store.load_document("<r><a/></r>")
        store.read(2)
        assert store.alerts.enabled is False
        statuses = objective_statuses(OBJECTIVES, live_buckets(store))
        assert statuses and all(status.count == 0 for status in statuses)
        assert budget_floor(statuses) == 1.0
        assert store.alerts.evaluations == 0
