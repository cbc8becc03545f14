"""SLO targets, error budgets, and percentile estimates (repro.obs.slo)."""

import pytest

from repro.core.config import StoreConfig
from repro.core.store import XMLStore
from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    DEFAULT_TARGETS,
    SLOReport,
    SLOTarget,
    SLOTracker,
)


def _families(observations, buckets=(0.25, 2.5)):
    """Span-histogram families from (operation, value) pairs."""
    registry = MetricsRegistry()
    histogram = registry.histogram(
        "repro_span_simulated_seconds",
        "Simulated span cost.",
        labelnames=("span",),
        buckets=buckets,
    )
    for operation, value in observations:
        histogram.labels(span=operation).observe(value)
    return registry.collect()


class TestTargetValidation:
    def test_unknown_axis_rejected(self):
        with pytest.raises(ObservabilityError, match="axis"):
            SLOTarget("read", 0.25, axis="lunar")

    def test_fraction_bounds(self):
        with pytest.raises(ObservabilityError, match="target_fraction"):
            SLOTarget("read", 0.25, target_fraction=0.0)
        with pytest.raises(ObservabilityError, match="target_fraction"):
            SLOTarget("read", 0.25, target_fraction=1.5)
        SLOTarget("read", 0.25, target_fraction=1.0)  # inclusive top

    def test_objective_must_be_positive(self):
        with pytest.raises(ObservabilityError, match="positive"):
            SLOTarget("read", 0.0)

    def test_defaults_sit_on_bucket_bounds(self):
        from repro.obs.metrics import LATENCY_BUCKETS, SIMULATED_COST_BUCKETS

        for target in DEFAULT_TARGETS:
            buckets = (
                SIMULATED_COST_BUCKETS
                if target.axis == "simulated"
                else LATENCY_BUCKETS
            )
            assert target.objective_seconds in buckets, target


class TestEvaluation:
    def _status(self, observations, target=None):
        tracker = SLOTracker(
            targets=(target or SLOTarget("node_read", 0.25, 0.95),)
        )
        report = tracker.evaluate_families(_families(observations))
        assert len(report.statuses) == 1
        return report.statuses[0]

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
        target = SLOTarget("node_read", 0.25, target_fraction=1.0)
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
        tracker = SLOTracker()
        report = tracker.evaluate_families(_families([]), axes=("simulated",))
        assert all(s.target.axis == "simulated" for s in report.statuses)
        both = tracker.evaluate_families(
            _families([]), axes=("simulated", "wall")
        )
        assert len(both.statuses) == len(DEFAULT_TARGETS)


class TestReport:
    def _report(self):
        tracker = SLOTracker(targets=(
            SLOTarget("node_read", 0.25, 0.95),
            SLOTarget("xpath", 2.5, 0.95),
        ))
        observations = (
            [("node_read", 0.1)] * 97 + [("node_read", 10.0)] * 3
            + [("xpath", 1.0)] * 4
        )
        return tracker.evaluate_families(_families(observations))

    def test_worst_and_budget_floor(self):
        report = self._report()
        assert report.met is True
        assert report.worst().target.operation == "node_read"
        assert report.budget_floor() == pytest.approx(0.4)

    def test_empty_report_floor_is_full(self):
        report = SLOReport(statuses=[])
        assert report.met is True
        assert report.worst() is None
        assert report.budget_floor() == 1.0

    def test_to_dict_is_stamped(self):
        payload = self._report().to_dict()
        assert payload["schema_version"] == 1
        assert payload["met"] is True
        assert len(payload["statuses"]) == 2
        assert payload["statuses"][0]["operation"] == "node_read"

    def test_render_lists_every_target(self):
        text = self._report().render()
        assert "node_read" in text
        assert "xpath" in text
        assert "met" in text

    def test_render_empty(self):
        assert "no SLO targets" in SLOReport(statuses=[]).render()


class TestTrackerOnStores:
    def test_live_store_evaluation_is_deterministic(self):
        def run():
            store = XMLStore.open(
                StoreConfig(telemetry_enabled=True, alerts_enabled=True)
            )
            root = store.load_document("<r><a>x</a><b>y</b></r>")
            for _ in range(5):
                store.read(root + 1)
            return store.slo.evaluate(store).to_dict()

        assert run() == run()

    def test_budget_floor_without_telemetry_is_full(self):
        # no span histograms exist: every target sees zero data
        store = XMLStore.open(StoreConfig(alerts_enabled=True))
        store.load_document("<r/>")
        assert store.slo.budget_floor(store) == 1.0

    def test_families_export_gauges_per_target(self):
        from repro.obs.exporters import prometheus_text

        store = XMLStore.open(
            StoreConfig(telemetry_enabled=True, alerts_enabled=True)
        )
        root = store.load_document("<r><a>x</a></r>")
        store.read(root + 1)
        text = prometheus_text(
            store.slo.families(store, axes=("simulated", "wall"))
        )
        assert "# TYPE repro_slo_budget_remaining gauge" in text
        assert "# TYPE repro_slo_violations gauge" in text
        assert "# TYPE repro_slo_met gauge" in text
        assert 'operation="node_read"' in text
        assert 'axis="wall"' in text


class TestDisabledTracker:
    def test_enabled_is_a_constructor_argument(self):
        assert SLOTracker().enabled is True
        assert SLOTracker(enabled=False).enabled is False

    def test_disabled_store_sees_no_observations_and_an_untouched_budget(self):
        store = XMLStore.open(StoreConfig())
        store.load_document("<r><a/></r>")
        store.read(2)
        assert store.slo.enabled is False
        statuses = store.slo.evaluate(store, axes=("simulated", "wall")).statuses
        assert statuses and all(status.count == 0 for status in statuses)
        assert store.slo.budget_floor(store) == 1.0
