"""The alert rows of the rule table and their engine (repro.obs.rules)."""

import json

import pytest

from repro.core.config import StoreConfig
from repro.core.store import XMLStore
from repro.errors import ChecksumError, ObservabilityError
from repro.obs.bridge import deterministic_snapshot
from repro.obs.history import HistorySnapshot
from repro.obs.journal import JOURNAL_FILE, Journal, from_row, read_journal
from repro.obs.rules import (
    DEFAULT_INTERVAL,
    DRIFT_KEY,
    RULES,
    SCRUB_DUE_KEY,
    AlertEngine,
    AlertEvent,
    Objective,
    Rule,
    View,
    cumulative_values,
    evaluate_rule,
    history_view,
    store_view,
)
from repro.storage.scrub import scrub_store


def read_alert_log(path):
    """The journal's alert rows."""
    return [row for row in read_journal(path) if row["kind"] == "alert"]


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
            Rule("r", "fatal", "threshold", "s", metric="m")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ObservabilityError, match="kind"):
            Rule("r", "info", "gradient", "s", metric="m")

    def test_unknown_op_rejected(self):
        with pytest.raises(ObservabilityError, match="comparison"):
            Rule("r", "info", "threshold", "s", metric="m", op="!=")

    def test_ratio_needs_numerator_and_denominator(self):
        with pytest.raises(ObservabilityError, match="numerator"):
            Rule("r", "info", "ratio", "s", numerator="a")

    def test_non_ratio_needs_a_metric(self):
        with pytest.raises(ObservabilityError, match="metric"):
            Rule("r", "info", "delta", "s")

    def test_budget_needs_objectives(self):
        with pytest.raises(ObservabilityError, match="objectives"):
            Rule("r", "info", "budget", "s")

    def test_a_component_needs_describe(self):
        with pytest.raises(ObservabilityError, match="describe"):
            Rule("r", "info", "threshold", "s", metric="m", component="c")

    def test_window_and_clear_after_bounds(self):
        with pytest.raises(ObservabilityError, match="window"):
            Rule("r", "info", "delta", "s", metric="m", window=0)
        with pytest.raises(ObservabilityError, match="clear_after"):
            Rule("r", "info", "threshold", "s", metric="m", clear_after=0)


class TestEvaluateRule:
    def test_threshold_ops(self):
        view = View(values={"m": 5.0})
        for op, bound, expected in (
            (">", 4.0, True), (">", 5.0, False),
            (">=", 5.0, True), ("<", 6.0, True), ("<=", 5.0, True),
        ):
            rule = Rule("r", "info", "threshold", "s",
                             metric="m", op=op, bound=bound)
            firing, value = evaluate_rule(rule, view)
            assert firing is expected
            assert value == 5.0

    def test_plus_joined_metrics_are_summed(self):
        view = View(values={"a": 2.0, "b": 3.0})
        rule = Rule("r", "info", "threshold", "s",
                         metric="a + b", op=">", bound=4.0)
        assert evaluate_rule(rule, view) == (True, 5.0)

    def test_missing_samples_read_as_zero(self):
        rule = Rule("r", "info", "threshold", "s",
                         metric="absent", op=">", bound=0.0)
        assert evaluate_rule(rule, View()) == (False, 0.0)

    def test_ratio_suppressed_below_min_denominator(self):
        rule = Rule("r", "warning", "ratio", "s",
                         numerator="miss", denominator="hit+miss",
                         op=">", bound=0.5, min_denominator=100)
        cold = View(values={"miss": 10.0, "hit": 10.0})
        assert evaluate_rule(rule, cold) == (False, 0.0)
        warm = View(values={"miss": 90.0, "hit": 10.0})
        firing, value = evaluate_rule(rule, warm)
        assert firing is True
        assert value == 0.9

    def test_delta_sums_over_the_window(self):
        rule = Rule("r", "info", "delta", "s",
                         metric="wal", op=">", bound=10.0, window=2)
        snapshots = [
            _snapshot(0, {"wal": 100.0}),  # outside the window
            _snapshot(1, {"wal": 8.0}),
            _snapshot(2, {"wal": 8.0}),
        ]
        firing, value = evaluate_rule(rule, View(snapshots=snapshots))
        assert firing is True
        assert value == 16.0

    def test_delta_quiet_without_snapshots(self):
        rule = Rule("r", "info", "delta", "s",
                         metric="wal", op=">", bound=0.0)
        assert evaluate_rule(rule, View()) == (False, 0.0)

    def test_budget_compares_the_least_budget_left(self):
        rule = Rule("r", "warning", "budget", "s", op="<", bound=0.0,
                    objectives=(Objective("a", 0.25), Objective("b", 0.25)))
        buckets = {
            "a": ([(0.25, 97.0), (float("inf"), 100.0)], 100),
            "b": ([(0.25, 80.0), (float("inf"), 100.0)], 100),
        }
        view = View(buckets=lambda family, operation: buckets[operation])
        assert evaluate_rule(rule, view) == (True, -1.0)
        # no histograms to read: every objective untouched
        assert evaluate_rule(rule, View()) == (False, 1.0)

    def test_absence_gated_on_min_operations(self):
        rule = Rule("r", "info", "absence", "s",
                         metric="scrubs", min_operations=100)
        young = View(values={}, operations=50)
        assert evaluate_rule(rule, young)[0] is False
        old = View(values={}, operations=100)
        assert evaluate_rule(rule, old)[0] is True
        scrubbed = View(values={"scrubs": 1.0}, operations=100)
        assert evaluate_rule(rule, scrubbed)[0] is False


def _low_rule(name="fires", bound=-1.0, severity="info", clear_after=2):
    """A threshold rule on a metric the tests control directly."""
    return Rule(name, severity, "threshold", "test rule",
                     metric="m", op=">", bound=bound, clear_after=clear_after)


class TestStateMachine:
    def test_fires_once_then_stays_silently_active(self):
        engine = AlertEngine(rules=(_low_rule(),))
        view = View(values={"m": 1.0})
        assert [e.state for e in engine.evaluate(view)] == ["fired"]
        assert engine.evaluate(view) == []
        assert engine.evaluate(view) == []
        assert [e.rule for e in engine.active()] == ["fires"]
        assert len(engine) == 1

    def test_clears_only_after_consecutive_ok_evaluations(self):
        engine = AlertEngine(rules=(_low_rule(clear_after=2),))
        firing = View(values={"m": 1.0})
        quiet = View(values={"m": -5.0})
        engine.evaluate(firing)
        assert engine.evaluate(quiet) == []  # streak 1 of 2
        cleared = engine.evaluate(quiet)
        assert [e.state for e in cleared] == ["cleared"]
        assert engine.active() == []

    def test_refiring_resets_the_ok_streak(self):
        engine = AlertEngine(rules=(_low_rule(clear_after=2),))
        firing = View(values={"m": 1.0})
        quiet = View(values={"m": -5.0})
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
        engine.evaluate(View(values={"m": 1.0}))
        assert engine.worst_active_severity() == "critical"

    def test_rule_names_must_be_unique(self):
        with pytest.raises(ObservabilityError, match="unique"):
            AlertEngine(rules=(_low_rule("dup"), _low_rule("dup")))


class TestPersistence:
    def test_transitions_append_stamped_jsonl_lines(self, tmp_path):
        path = str(tmp_path / JOURNAL_FILE)
        engine = AlertEngine(rules=(_low_rule(),), journal=Journal(path))
        engine.evaluate(View(values={"m": 1.0}), label="test")
        engine.evaluate(View(values={"m": 1.0}))  # steady: no write
        engine.evaluate(View(values={"m": -1.0}))
        engine.evaluate(View(values={"m": -1.0}))
        lines = (tmp_path / JOURNAL_FILE).read_text().splitlines()
        assert len(lines) == 2  # fired + cleared, nothing for steady state
        for line in lines:
            payload = json.loads(line)
            assert payload["schema_version"] == 1
        assert json.loads(lines[0])["state"] == "fired"
        assert json.loads(lines[0])["label"] == "test"
        assert json.loads(lines[1])["state"] == "cleared"

    def test_reopen_restores_active_set_and_sequence(self, tmp_path):
        path = str(tmp_path / JOURNAL_FILE)
        first = AlertEngine(rules=(_low_rule(),), journal=Journal(path))
        first.evaluate(View(values={"m": 1.0}))
        second = AlertEngine(rules=(_low_rule(),), journal=Journal(path))
        assert [e.rule for e in second.active()] == ["fires"]
        # the restored engine continues the sequence instead of reusing 0
        second.evaluate(View(values={"m": -1.0}))
        cleared = second.evaluate(View(values={"m": -1.0}))
        assert cleared[0].seq == 1

    def test_load_events_round_trips(self, tmp_path):
        path = str(tmp_path / JOURNAL_FILE)
        engine = AlertEngine(rules=(_low_rule(),), journal=Journal(path))
        emitted = engine.evaluate(View(values={"m": 1.0}, operations=7))
        rows = read_alert_log(path)
        assert [from_row(AlertEvent, row) for row in rows] == emitted
        assert rows[0]["op"] == 7

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / JOURNAL_FILE
        path.write_text("{not json\n")
        with pytest.raises(ObservabilityError, match="malformed"):
            read_alert_log(str(path))

    def test_unstamped_line_rejected(self, tmp_path):
        path = tmp_path / JOURNAL_FILE
        path.write_text('{"seq": 0}\n')
        with pytest.raises(ObservabilityError, match="schema_version"):
            read_alert_log(str(path))

    def test_torn_final_line_is_dropped_and_the_next_append_starts_fresh(
        self, tmp_path
    ):
        """A crash mid-append leaves an unterminated last line: the engine
        reopens over the complete lines and its next transition replaces it."""
        path = tmp_path / JOURNAL_FILE
        AlertEngine(rules=(_low_rule(),), journal=Journal(str(path))).evaluate(
            View(values={"m": 1.0})
        )
        with open(path, "a") as handle:
            handle.write('{"seq": 1, "lab')
        reopened = AlertEngine(rules=(_low_rule(),), journal=Journal(str(path)))
        assert [e.state for e in reopened.events()] == ["fired"]
        reopened.evaluate(View(values={"m": -1.0}))
        reopened.evaluate(View(values={"m": -1.0}))
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
        # the budget row reads the live span histograms: a met floor
        budget = next(rule for rule in RULES if rule.kind == "budget")
        assert evaluate_rule(budget, view) == (False, 1.0)
        assert view.operations == store.operations.total

    def test_scrub_overdue_fires_once_the_last_scrub_is_old(self):
        # one completed pass must not silence the row for good: it judges
        # the pass's age, as the health row does
        store = XMLStore.open(StoreConfig(alerts_enabled=True))
        store.alerts.interval = 1 << 30  # evaluate only when asked
        root = store.load_document("<r><a>x</a></r>")
        scrub_store(store)
        for _ in range(99_999):
            store.read(root + 1)
        assert "scrub-overdue" not in [e.rule for e in _evaluate(store)]
        store.read(root + 1)
        fired = _evaluate(store)
        assert [e.value for e in fired if e.rule == "scrub-overdue"] == [100_000]
        scrub_store(store)
        _evaluate(store)
        assert "scrub-overdue" in [e.rule for e in _evaluate(store) if e.state == "cleared"]

    def test_scrub_due_is_derived_from_the_age_gauge(self):
        never = {"repro_storage_scrub_age_operations": -1.0}
        rule = next(rule for rule in RULES if rule.name == "scrub-overdue")
        assert history_view([_snapshot(0, never, operations=100_000)]).values[
            SCRUB_DUE_KEY] == 100_000
        aged = {"repro_storage_scrub_age_operations": 99_999.0}
        assert evaluate_rule(rule, history_view(
            [_snapshot(0, aged, operations=250_000)])) == (False, 99_999.0)

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
            (tmp_path / name).mkdir()
            path = str(tmp_path / name / JOURNAL_FILE)
            rules = (
                Rule("tokens-flowed", "info", "threshold", "s",
                          metric="repro_store_tokens_emitted_total",
                          op=">", bound=0.0),
            )
            store = XMLStore.open(StoreConfig())
            engine = AlertEngine(rules=rules, journal=Journal(path))
            root = store.load_document("<r><a>x</a><b>y</b></r>")
            for _ in range(3):
                store.read(root + 1)
                engine.evaluate(
                    store_view(store, deterministic_snapshot(store)), "tick"
                )
            return (tmp_path / name / JOURNAL_FILE).read_bytes()

        assert run("a") == run("b")

    def test_directory_store_persists_alert_state(self, tmp_path):
        from repro.core.filestore import close_directory, open_directory

        path = str(tmp_path / "store")
        config = StoreConfig(alerts_enabled=True)
        store = open_directory(path, config=config)
        store.load_document("<r><a>x</a></r>")
        store.pool.quarantine(0, ChecksumError("bad", block_no=0))
        _evaluate(store)
        close_directory(path, store)
        assert read_alert_log(str(tmp_path / "store" / JOURNAL_FILE))
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
        path = str(tmp_path / JOURNAL_FILE)
        rule = Rule("r", "info", "threshold", "s", metric="m", bound=1.0)
        live = AlertEngine(rules=[rule], journal=Journal(path))
        live.evaluate(View(values={"m": 5.0}))
        assert len(AlertEngine(journal=Journal(path))) == 1
        disabled = AlertEngine(
            journal=Journal(path, enabled=False), enabled=False
        )
        assert disabled.enabled is False and disabled.journal.path is None
        assert disabled.events() == [] and disabled.active() == []
        assert disabled.worst_active_severity() is None
        assert disabled.evaluate(View(values={"m": 5.0})) == []
        assert disabled.evaluations == 0
        assert len(read_alert_log(path)) == 1

    def test_engine_is_enabled_by_default(self, tmp_path):
        engine = AlertEngine(journal=Journal(str(tmp_path / JOURNAL_FILE)))
        assert engine.enabled is True
        assert engine.interval == DEFAULT_INTERVAL

    def test_default_rules_are_valid_and_unique(self):
        names = [rule.name for rule in RULES]
        assert len(set(names)) == len(names)
        rules = AlertEngine().rules
        assert [rule.name for rule in rules] == [
            "checksum-errors", "quarantined-blocks", "slo-budget-exhausted",
            "workload-drift", "buffer-thrash", "wal-surge", "scrub-overdue",
            "session-shedding", "replication-lag", "replication-stale",
        ]
        assert all(rule.alert for rule in rules)

    def test_default_rules_stay_quiet_on_a_clean_store(self):
        store = XMLStore.open(StoreConfig(alerts_enabled=True))
        root = store.load_document("<r><a>x</a></r>")
        store.read(root + 1)
        assert _evaluate(store) == []
