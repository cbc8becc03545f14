"""The deterministic alert engine (repro.obs.alerts)."""

import json

import pytest

from repro.core.config import StoreConfig
from repro.core.store import XMLStore
from repro.errors import ChecksumError, ObservabilityError
from repro.obs.alerts import (
    DEFAULT_INTERVAL,
    DRIFT_KEY,
    SLO_BUDGET_KEY,
    AlertEngine,
    AlertEvent,
    AlertRule,
    AlertView,
    cumulative_values,
    default_rules,
    evaluate_rule,
    history_view,
    load_events,
    store_view,
)
from repro.obs.bridge import deterministic_snapshot
from repro.obs.history import HistorySnapshot
from repro.obs.schema import ALERTS_FILE
from repro.obs.schema import read_jsonl as read_alert_log


def _snapshot(seq, deltas, operations=0, simulated=0.0):
    return HistorySnapshot(
        seq=seq,
        label="interval",
        operations=operations,
        simulated_seconds=simulated,
        deltas=deltas,
    )


class TestRuleValidation:
    def test_unknown_severity_rejected(self):
        with pytest.raises(ObservabilityError, match="severity"):
            AlertRule("r", "fatal", "threshold", "s", metric="m")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ObservabilityError, match="kind"):
            AlertRule("r", "info", "gradient", "s", metric="m")

    def test_unknown_op_rejected(self):
        with pytest.raises(ObservabilityError, match="comparison"):
            AlertRule("r", "info", "threshold", "s", metric="m", op="!=")

    def test_ratio_needs_numerator_and_denominator(self):
        with pytest.raises(ObservabilityError, match="numerator"):
            AlertRule("r", "info", "ratio", "s", numerator="a")

    def test_non_ratio_needs_a_metric(self):
        with pytest.raises(ObservabilityError, match="metric"):
            AlertRule("r", "info", "delta", "s")

    def test_window_and_clear_after_bounds(self):
        with pytest.raises(ObservabilityError, match="window"):
            AlertRule("r", "info", "delta", "s", metric="m", window=0)
        with pytest.raises(ObservabilityError, match="clear_after"):
            AlertRule("r", "info", "threshold", "s", metric="m", clear_after=0)


class TestEvaluateRule:
    def test_threshold_ops(self):
        view = AlertView(values={"m": 5.0})
        for op, bound, expected in (
            (">", 4.0, True), (">", 5.0, False),
            (">=", 5.0, True), ("<", 6.0, True), ("<=", 5.0, True),
        ):
            rule = AlertRule("r", "info", "threshold", "s",
                             metric="m", op=op, bound=bound)
            firing, value = evaluate_rule(rule, view)
            assert firing is expected
            assert value == 5.0

    def test_plus_joined_metrics_are_summed(self):
        view = AlertView(values={"a": 2.0, "b": 3.0})
        rule = AlertRule("r", "info", "threshold", "s",
                         metric="a + b", op=">", bound=4.0)
        assert evaluate_rule(rule, view) == (True, 5.0)

    def test_missing_samples_read_as_zero(self):
        rule = AlertRule("r", "info", "threshold", "s",
                         metric="absent", op=">", bound=0.0)
        assert evaluate_rule(rule, AlertView()) == (False, 0.0)

    def test_ratio_suppressed_below_min_denominator(self):
        rule = AlertRule("r", "warning", "ratio", "s",
                         numerator="miss", denominator="hit+miss",
                         op=">", bound=0.5, min_denominator=100)
        cold = AlertView(values={"miss": 10.0, "hit": 10.0})
        assert evaluate_rule(rule, cold) == (False, 0.0)
        warm = AlertView(values={"miss": 90.0, "hit": 10.0})
        firing, value = evaluate_rule(rule, warm)
        assert firing is True
        assert value == 0.9

    def test_delta_sums_over_the_window(self):
        rule = AlertRule("r", "info", "delta", "s",
                         metric="wal", op=">", bound=10.0, window=2)
        snapshots = [
            _snapshot(0, {"wal": 100.0}),  # outside the window
            _snapshot(1, {"wal": 8.0}),
            _snapshot(2, {"wal": 8.0}),
        ]
        firing, value = evaluate_rule(rule, AlertView(snapshots=snapshots))
        assert firing is True
        assert value == 16.0

    def test_delta_quiet_without_snapshots(self):
        rule = AlertRule("r", "info", "delta", "s",
                         metric="wal", op=">", bound=0.0)
        assert evaluate_rule(rule, AlertView()) == (False, 0.0)

    def test_absence_gated_on_min_operations(self):
        rule = AlertRule("r", "info", "absence", "s",
                         metric="scrubs", min_operations=100)
        young = AlertView(values={}, operations=50)
        assert evaluate_rule(rule, young)[0] is False
        old = AlertView(values={}, operations=100)
        assert evaluate_rule(rule, old)[0] is True
        scrubbed = AlertView(values={"scrubs": 1.0}, operations=100)
        assert evaluate_rule(rule, scrubbed)[0] is False


def _low_rule(name="fires", bound=-1.0, severity="info", clear_after=2):
    """A threshold rule on a metric the tests control directly."""
    return AlertRule(name, severity, "threshold", "test rule",
                     metric="m", op=">", bound=bound, clear_after=clear_after)


class TestStateMachine:
    def test_fires_once_then_stays_silently_active(self):
        engine = AlertEngine(rules=(_low_rule(),))
        view = AlertView(values={"m": 1.0})
        assert [e.state for e in engine.evaluate(view)] == ["fired"]
        assert engine.evaluate(view) == []
        assert engine.evaluate(view) == []
        assert [e.rule for e in engine.active()] == ["fires"]
        assert len(engine) == 1

    def test_clears_only_after_consecutive_ok_evaluations(self):
        engine = AlertEngine(rules=(_low_rule(clear_after=2),))
        firing = AlertView(values={"m": 1.0})
        quiet = AlertView(values={"m": -5.0})
        engine.evaluate(firing)
        assert engine.evaluate(quiet) == []  # streak 1 of 2
        cleared = engine.evaluate(quiet)
        assert [e.state for e in cleared] == ["cleared"]
        assert engine.active() == []

    def test_refiring_resets_the_ok_streak(self):
        engine = AlertEngine(rules=(_low_rule(clear_after=2),))
        firing = AlertView(values={"m": 1.0})
        quiet = AlertView(values={"m": -5.0})
        engine.evaluate(firing)
        engine.evaluate(quiet)   # streak 1
        engine.evaluate(firing)  # condition back: streak resets, no new event
        assert engine.evaluate(quiet) == []  # streak 1 again
        assert [e.state for e in engine.evaluate(quiet)] == ["cleared"]
        # fired, cleared: exactly two transitions total
        assert [e.state for e in engine.events()] == ["fired", "cleared"]

    def test_worst_active_severity(self):
        engine = AlertEngine(rules=(
            _low_rule("a", severity="info"),
            _low_rule("b", severity="critical"),
            _low_rule("c", severity="warning"),
        ))
        assert engine.worst_active_severity() is None
        engine.evaluate(AlertView(values={"m": 1.0}))
        assert engine.worst_active_severity() == "critical"

    def test_rule_names_must_be_unique(self):
        with pytest.raises(ObservabilityError, match="unique"):
            AlertEngine(rules=(_low_rule("dup"), _low_rule("dup")))


class TestPersistence:
    def test_transitions_append_stamped_jsonl_lines(self, tmp_path):
        path = str(tmp_path / "alerts.jsonl")
        engine = AlertEngine(rules=(_low_rule(),), path=path)
        engine.evaluate(AlertView(values={"m": 1.0}), label="test")
        engine.evaluate(AlertView(values={"m": 1.0}))  # steady: no write
        engine.evaluate(AlertView(values={"m": -1.0}))
        engine.evaluate(AlertView(values={"m": -1.0}))
        lines = (tmp_path / "alerts.jsonl").read_text().splitlines()
        assert len(lines) == 2  # fired + cleared, nothing for steady state
        for line in lines:
            payload = json.loads(line)
            assert payload["schema_version"] == 1
        assert json.loads(lines[0])["state"] == "fired"
        assert json.loads(lines[0])["label"] == "test"
        assert json.loads(lines[1])["state"] == "cleared"

    def test_reopen_restores_active_set_and_sequence(self, tmp_path):
        path = str(tmp_path / "alerts.jsonl")
        first = AlertEngine(rules=(_low_rule(),), path=path)
        first.evaluate(AlertView(values={"m": 1.0}))
        second = AlertEngine(rules=(_low_rule(),), path=path)
        assert [e.rule for e in second.active()] == ["fires"]
        # the restored engine continues the sequence instead of reusing 0
        second.evaluate(AlertView(values={"m": -1.0}))
        cleared = second.evaluate(AlertView(values={"m": -1.0}))
        assert cleared[0].seq == 1

    def test_load_events_round_trips(self, tmp_path):
        path = str(tmp_path / "alerts.jsonl")
        engine = AlertEngine(rules=(_low_rule(),), path=path)
        emitted = engine.evaluate(AlertView(values={"m": 1.0}, operations=7))
        assert load_events(path) == emitted

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ObservabilityError, match="malformed"):
            read_alert_log(str(path))

    def test_unstamped_line_rejected(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        path.write_text('{"seq": 0}\n')
        with pytest.raises(ObservabilityError, match="schema_version"):
            read_alert_log(str(path))

    def test_torn_final_line_is_dropped_and_the_next_append_starts_fresh(
        self, tmp_path
    ):
        """A crash mid-append leaves an unterminated last line: the engine
        reopens over the complete lines and its next transition replaces it."""
        path = tmp_path / "alerts.jsonl"
        AlertEngine(rules=(_low_rule(),), path=str(path)).evaluate(
            AlertView(values={"m": 1.0})
        )
        with open(path, "a") as handle:
            handle.write('{"seq": 1, "lab')
        reopened = AlertEngine(rules=(_low_rule(),), path=str(path))
        assert [e.state for e in reopened.events()] == ["fired"]
        reopened.evaluate(AlertView(values={"m": -1.0}))
        reopened.evaluate(AlertView(values={"m": -1.0}))
        assert [row["state"] for row in read_alert_log(str(path))] == [
            "fired", "cleared",
        ]
        assert path.read_text().endswith("\n")

    def test_event_render_mentions_rule_and_value(self):
        event = AlertEvent(0, "fired", "r", "warning", "sum", 2.0, 1.0,
                           "cli", 12, 0.5)
        text = event.render()
        assert "[warning] fired r" in text
        assert "value 2" in text
        assert "at op 12" in text


def _evaluate(store):
    """One alert evaluation through the store's watch tick; its transitions."""
    seen = len(store.alerts)
    store.watch("test", ["alerts"])
    return store.alerts.events()[seen:]


class TestStoreIntegration:
    def test_quarantine_fires_the_critical_rule(self):
        store = XMLStore.open(StoreConfig(alerts_enabled=True))
        root = store.load_document("<r><a>x</a></r>")
        store.read(root + 1)
        assert _evaluate(store) == []
        store.pool.quarantine(0, ChecksumError("bad", block_no=0))
        fired = _evaluate(store)
        assert "quarantined-blocks" in [e.rule for e in fired]
        assert store.alerts.worst_active_severity() == "critical"

    def test_store_view_is_deterministic_only(self):
        store = XMLStore.open(
            StoreConfig(alerts_enabled=True, telemetry_enabled=True)
        )
        root = store.load_document("<r><a>x</a></r>")
        store.read(root + 1)
        view = store_view(store, deterministic_snapshot(store))
        assert not any(
            key.startswith("repro_span_seconds") for key in view.values
        )
        assert any(
            key.startswith("repro_span_simulated_seconds")
            for key in view.values
        )
        assert DRIFT_KEY in view.values
        assert view.values[SLO_BUDGET_KEY] == 1.0
        assert view.operations == store.operations.total

    def test_interval_evaluation_via_observe(self):
        store = XMLStore.open(StoreConfig(alerts_enabled=True))
        store.alerts.interval = 4
        root = store.load_document("<r><a>x</a></r>")
        before = store.alerts.evaluations
        for _ in range(8):
            store.read(root + 1)
        assert store.alerts.evaluations >= before + 2

    def test_checkpoint_skips_evaluation_when_idle(self):
        store = XMLStore.open(StoreConfig(alerts_enabled=True))
        store.load_document("<r/>")
        store.checkpoint()
        evaluations = store.alerts.evaluations
        store.checkpoint()  # no operations since the last one
        assert store.alerts.evaluations == evaluations

    def test_identical_runs_write_byte_identical_logs(self, tmp_path):
        def run(name):
            path = str(tmp_path / name)
            rules = (
                AlertRule("tokens-flowed", "info", "threshold", "s",
                          metric="repro_store_tokens_emitted_total",
                          op=">", bound=0.0),
            )
            store = XMLStore.open(StoreConfig())
            engine = AlertEngine(rules=rules, path=path)
            root = store.load_document("<r><a>x</a><b>y</b></r>")
            for _ in range(3):
                store.read(root + 1)
                engine.evaluate(
                    store_view(store, deterministic_snapshot(store)), "tick"
                )
            return (tmp_path / name).read_bytes()

        assert run("a.jsonl") == run("b.jsonl")

    def test_directory_store_persists_alert_state(self, tmp_path):
        from repro.core.filestore import close_directory, open_directory

        path = str(tmp_path / "store")
        config = StoreConfig(alerts_enabled=True)
        store = open_directory(path, config=config)
        store.load_document("<r><a>x</a></r>")
        store.pool.quarantine(0, ChecksumError("bad", block_no=0))
        _evaluate(store)
        close_directory(path, store)
        assert (tmp_path / "store" / ALERTS_FILE).exists()
        reopened = open_directory(path, config=config)
        try:
            assert "quarantined-blocks" in [
                e.rule for e in reopened.alerts.active()
            ]
        finally:
            reopened.wal.close()
            reopened.device.close()


class TestOfflineViews:
    def test_cumulative_values_counters_sum_gauges_keep_last(self):
        snapshots = [
            _snapshot(0, {"repro_wal_appends_total": 4.0,
                          "repro_buffer_cached_pages": 2.0}),
            _snapshot(1, {"repro_wal_appends_total": 6.0,
                          "repro_buffer_cached_pages": 5.0}),
        ]
        values = cumulative_values(snapshots)
        assert values["repro_wal_appends_total"] == 10.0
        assert values["repro_buffer_cached_pages"] == 5.0

    def test_history_view_carries_last_snapshot_totals(self):
        snapshots = [
            _snapshot(0, {"repro_wal_appends_total": 4.0},
                      operations=10, simulated=0.5),
            _snapshot(1, {"repro_wal_appends_total": 6.0},
                      operations=30, simulated=1.25),
        ]
        view = history_view(snapshots)
        assert view.operations == 30
        assert view.simulated_seconds == 1.25
        assert DRIFT_KEY in view.values

    def test_history_view_of_nothing_is_empty(self):
        view = history_view([])
        assert view.operations == 0
        assert view.value("anything") == 0.0


class TestFactoryAndDefaults:
    def test_disabled_engine_neither_restores_nor_writes_its_log(self, tmp_path):
        path = str(tmp_path / "a.jsonl")
        rule = AlertRule("r", "info", "threshold", "s", metric="m", bound=1.0)
        live = AlertEngine(rules=[rule], path=path)
        live.evaluate(AlertView(values={"m": 5.0}))
        assert len(AlertEngine(path=path)) == 1
        disabled = AlertEngine(path=path, enabled=False)
        assert disabled.enabled is False and disabled.path is None
        assert disabled.events() == [] and disabled.active() == []
        assert disabled.worst_active_severity() is None
        assert disabled.evaluations == 0

    def test_engine_is_enabled_by_default(self, tmp_path):
        engine = AlertEngine(path=str(tmp_path / "a.jsonl"))
        assert engine.enabled is True
        assert engine.interval == DEFAULT_INTERVAL

    def test_default_rules_are_valid_and_unique(self):
        rules = default_rules()
        names = [rule.name for rule in rules]
        assert len(set(names)) == len(names)
        assert {"checksum-errors", "quarantined-blocks",
                "slo-budget-exhausted", "buffer-thrash",
                "wal-surge", "scrub-overdue"} <= set(names)
        AlertEngine(rules=rules)  # constructs cleanly

    def test_default_rules_stay_quiet_on_a_clean_store(self):
        store = XMLStore.open(StoreConfig(alerts_enabled=True))
        root = store.load_document("<r><a>x</a></r>")
        store.read(root + 1)
        assert _evaluate(store) == []
