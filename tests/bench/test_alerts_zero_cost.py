"""Alerts and SLOs must be free when off — and invisible when on.

The same contract every observability subsystem signs
(tests/bench/test_history_zero_cost.py is the template):

* alerts **off** (the default) adds nothing to the Table 5 path —
  ``Table5Config.alerts`` defaults to False, so the committed numbers
  never depend on the rule engine or the SLO tracker;
* alerts **on** only *reads* counters — evaluations never advance the
  simulated clock — so the Table 5 output is byte-identical either way.
"""

from repro.bench.reporting import format_table5
from repro.bench.table5 import Table5Config, run_table5
from repro.core.config import StoreConfig
from repro.core.store import XMLStore
from repro.obs.alerts import NOOP_ALERTS
from repro.obs.slo import NOOP_SLO

#: Same micro preset as tests/bench/test_history_zero_cost.py: big enough
#: that all four approaches take distinct access paths, small enough to
#: run the table twice in a test.
MICRO = dict(
    base_orders=16,
    items_per_order=3,
    insert_orders=4,
    random_reads=40,
    hot_fraction=0.1,
    pool_capacity=8,
    granular_tokens=64,
)


def test_simulated_table_is_byte_identical_with_alerts_on():
    plain = run_table5(Table5Config(**MICRO))
    watched = run_table5(Table5Config(alerts=True, **MICRO))
    # the simulated-clock table (the paper's numbers) must not move at all
    assert format_table5(plain) == format_table5(watched)
    # and not merely after rounding: the raw simulated seconds are exact
    for plain_row, watched_row in zip(plain, watched):
        for phase in ("insert", "seq_scan", "random_reads"):
            assert (
                getattr(plain_row, phase).simulated_seconds
                == getattr(watched_row, phase).simulated_seconds
            ), f"{plain_row.approach} / {phase} simulated cost drifted"


def test_default_table5_run_uses_the_noop_twins():
    assert Table5Config(**MICRO).alerts is False
    from repro.bench.table5 import APPROACHES, build_store

    approach, policy, granularity = APPROACHES[0]
    store, _ = build_store(policy, granularity, Table5Config(**MICRO))
    assert store.alerts is NOOP_ALERTS
    assert store.slo is NOOP_SLO


def test_alert_evaluation_reads_but_never_advances_the_clock():
    store = XMLStore.open(
        StoreConfig(alerts_enabled=True, telemetry_enabled=True)
    )
    root = store.load_document("<r><a>x</a></r>")
    store.read(root + 1)
    before = store.simulated_seconds
    store.alerts.evaluate_store(store, "manual")
    store.slo.evaluate(store)
    store.slo.budget_floor(store)
    assert store.simulated_seconds == before


def test_interval_evaluations_do_not_charge_the_workload():
    def run(enabled):
        store = XMLStore.open(StoreConfig(alerts_enabled=enabled))
        if enabled:
            store.alerts.interval = 2
        root = store.load_document("<r><a>x</a><b>y</b></r>")
        for _ in range(10):
            store.read(root + 1)
        return store.simulated_seconds

    assert run(False) == run(True)
