"""The flight recorder must be free when off — and invisible when on.

The same contract every observability subsystem signs
(tests/bench/test_alerts_zero_cost.py is the template):

* recorder **off** (the default) adds nothing to the Table 5 path —
  ``Table5Config.recorder`` defaults to False, so the committed numbers
  never depend on the ring or the incident manager;
* recorder **on** only *reads* counters and copies events — recording
  never advances the simulated clock — so the Table 5 output is
  byte-identical either way.
"""

from repro.bench.reporting import format_table5
from repro.bench.table5 import Table5Config, run_table5
from repro.core.config import StoreConfig
from repro.core.store import XMLStore
from repro.obs.incident import NOOP_INCIDENTS
from repro.obs.recorder import NOOP_RECORDER

#: Same micro preset as tests/bench/test_alerts_zero_cost.py: big enough
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


def test_simulated_table_is_byte_identical_with_recorder_on():
    plain = run_table5(Table5Config(**MICRO))
    recorded = run_table5(Table5Config(recorder=True, **MICRO))
    # the simulated-clock table (the paper's numbers) must not move at all
    assert format_table5(plain) == format_table5(recorded)
    # and not merely after rounding: the raw simulated seconds are exact
    for plain_row, recorded_row in zip(plain, recorded):
        for phase in ("insert", "seq_scan", "random_reads"):
            assert (
                getattr(plain_row, phase).simulated_seconds
                == getattr(recorded_row, phase).simulated_seconds
            ), f"{plain_row.approach} / {phase} simulated cost drifted"


def test_default_table5_run_uses_the_noop_twins():
    assert Table5Config(**MICRO).recorder is False
    from repro.bench.table5 import APPROACHES, build_store

    approach, policy, granularity = APPROACHES[0]
    store, _ = build_store(policy, granularity, Table5Config(**MICRO))
    assert store.recorder is NOOP_RECORDER
    assert store.incidents is NOOP_INCIDENTS


def test_recording_reads_but_never_advances_the_clock():
    store = XMLStore.open(
        StoreConfig(
            recorder_enabled=True,
            events_enabled=True,
            telemetry_enabled=True,
        )
    )
    root = store.load_document("<r><a>x</a></r>")
    store.read(root + 1)
    before = store.simulated_seconds
    store.recorder.frame(store, "manual")
    store.event_log.emit("test", "poke", severity="info")
    store.recorder.to_dict()
    assert store.simulated_seconds == before


def test_interval_frames_do_not_charge_the_workload():
    def run(enabled):
        store = XMLStore.open(
            StoreConfig(recorder_enabled=enabled, events_enabled=True)
        )
        if enabled:
            store.recorder.interval = 2
        root = store.load_document("<r><a>x</a><b>y</b></r>")
        for _ in range(10):
            store.read(root + 1)
        return store.simulated_seconds

    assert run(False) == run(True)
