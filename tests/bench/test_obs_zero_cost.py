"""Observability must be free when off — and invisible when on.

One contract, signed by every facility the Table 5 run can switch on
(event log + telemetry, cost profiler, workload history, alerts + SLOs,
flight recorder + incidents):

* **off** (the default) the store holds each facility disabled, and every
  recording call site guards on ``enabled`` — so the committed numbers
  never depend on any of them;
* **on**, a facility only *reads* counters and the simulated clock —
  captures, evaluations and frames never advance it — so the Table 5
  output is byte-identical either way, one facility at a time and all
  of them together.
"""

from functools import lru_cache

import pytest

from repro.bench.harness import insert_phase, random_read_phase
from repro.bench.reporting import format_table5
from repro.bench.table5 import APPROACHES, Table5Config, build_store, run_table5
from repro.core.config import StoreConfig
from repro.core.store import XMLStore

#: A micro preset: big enough that all four approaches take distinct
#: access paths, small enough to run the table once per case.
MICRO = dict(
    base_orders=16,
    items_per_order=3,
    insert_orders=4,
    random_reads=40,
    hot_fraction=0.1,
    pool_capacity=8,
    granular_tokens=64,
)

PHASES = ("insert", "seq_scan", "random_reads")

#: ``Table5Config`` switches per case
CASES = {
    "events": dict(events_enabled=True),
    "profile": dict(profile=True),
    "history": dict(history=True),
    "alerts": dict(alerts=True),
    "recorder": dict(recorder=True),
}
CASES["all"] = {key: value for case in CASES.values() for key, value in case.items()}

#: ``StoreConfig`` switches per periodic observer (the SLO budget reads
#: span histograms, the recorder tees events)
STORE_SWITCHES = {
    "history": dict(history_enabled=True),
    "alerts": dict(alerts_enabled=True, telemetry_enabled=True),
    "recorder": dict(recorder_enabled=True, events_enabled=True, telemetry_enabled=True),
}


@pytest.fixture(scope="module")
def plain():
    return run_table5(Table5Config(**MICRO))


@lru_cache(maxsize=None)
def watched(case: str):
    return run_table5(Table5Config(**CASES[case], **MICRO))


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulated_table_is_byte_identical(plain, case):
    rows = watched(case)
    # the simulated-clock table (the paper's numbers) must not move at all
    assert format_table5(plain) == format_table5(rows)
    # and not merely after rounding: the raw simulated seconds are exact
    for plain_row, row in zip(plain, rows):
        for phase in PHASES:
            assert (
                getattr(plain_row, phase).simulated_seconds
                == getattr(row, phase).simulated_seconds
            ), f"{case}: {plain_row.approach} / {phase} simulated cost drifted"


def test_default_table5_store_has_every_facility_disabled():
    config = Table5Config(**MICRO)
    assert not any(getattr(config, key) for key in CASES["all"])
    _, policy, granularity = APPROACHES[0]
    store, _ = build_store(policy, granularity, config)
    for name in ("telemetry", "event_log", "heatmap", "history", "slo",
                 "alerts", "recorder", "incidents"):
        assert getattr(store, name).enabled is False, name


def test_plain_run_attaches_nothing(plain):
    for row in plain:
        for phase in PHASES:
            assert getattr(row, phase).explain is None
            assert getattr(row, phase).profile is None


def test_events_run_attaches_explain_reports():
    for row in watched("events"):
        for phase in PHASES:
            explain = getattr(row, phase).explain
            assert explain is not None
            assert explain["access_path"]
            assert "resolutions" in explain


def test_profiled_run_attaches_cost_profiles():
    for row in watched("profile"):
        for phase in PHASES:
            profile = getattr(row, phase).profile
            assert profile is not None, f"{row.approach} / {phase}"
            assert profile["components"]
            assert profile["span_totals"]
            assert profile["simulated_seconds"] > 0
            # the attached profile window is the phase window
            assert (
                profile["simulated_seconds"]
                == getattr(row, phase).simulated_seconds
            )


def test_harness_phases_capture_labeled_snapshots():
    store = XMLStore.open(StoreConfig(history_enabled=True))
    root = store.load_document("<r><a>x</a></r>")
    insert_phase(store, root, ["<b>y</b>", "<c>z</c>"])
    random_read_phase(store, [root + 1])
    labels = [snap.label for snap in store.history.snapshots()]
    assert "insert" in labels
    assert "random-reads" in labels


def _observe_now(store, facility: str) -> None:
    if facility == "history":
        store.history.capture(store, "manual")
    elif facility == "alerts":
        store.alerts.evaluate_store(store, "manual")
        store.slo.evaluate(store)
        store.slo.budget_floor(store)
    else:
        store.recorder.frame(store, "manual")
        store.event_log.emit("test", "poke", severity="info")
        store.recorder.to_dict()


@pytest.mark.parametrize("facility", sorted(STORE_SWITCHES))
def test_observing_reads_but_never_advances_the_clock(facility):
    store = XMLStore.open(StoreConfig(**STORE_SWITCHES[facility]))
    root = store.load_document("<r><a>x</a></r>")
    store.read(root + 1)
    before = store.simulated_seconds
    _observe_now(store, facility)
    assert store.simulated_seconds == before


@pytest.mark.parametrize("facility", sorted(STORE_SWITCHES))
def test_interval_observers_do_not_charge_the_workload(facility):
    def run(enabled):
        switches = STORE_SWITCHES[facility] if enabled else {}
        store = XMLStore.open(StoreConfig(**switches))
        if enabled:
            getattr(store, facility).interval = 2
        root = store.load_document("<r><a>x</a><b>y</b></r>")
        for _ in range(10):
            store.read(root + 1)
        return store.simulated_seconds

    assert run(False) == run(True)
