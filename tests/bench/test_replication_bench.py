"""Replication's zero-cost pin and its catch-up throughput phase.

A store that never replicates pays nothing: the Table 5 bench stays
byte-identical with the replication package loaded, tailing the WAL as a
change stream moves no primary bytes and no simulated time.  When
replication *is* used, catch-up
throughput is a bench phase, deterministic per seed.
"""

import repro.replication  # noqa: F401  — the zero-cost pin is with this loaded
from repro.bench.reporting import format_table5
from repro.bench.table5 import Table5Config, run_table5
from repro.core.store import XMLStore
from repro.replication.changestream import ChangeStream
from repro.replication.channel import ChannelFaultConfig, ReplicationChannel
from repro.replication.replica import Replica
from repro.replication.service import catch_up

#: Same micro preset as tests/bench/test_group_commit_bench.py.
MICRO = dict(
    base_orders=16,
    items_per_order=3,
    insert_orders=4,
    random_reads=40,
    hot_fraction=0.1,
    pool_capacity=8,
    granular_tokens=64,
)

CHANGES = 32


def _primary():
    store = XMLStore.open()
    store.load_document("<bench/>")
    for index in range(CHANGES - 1):
        store.insert_into_last(1, f"<row>{index}</row>")
    return store


def _catch_up_phase():
    """One honest catch-up run → its simulated cost and throughput."""
    primary = _primary()
    replica = Replica(XMLStore.open())
    channel = ReplicationChannel(
        ChangeStream(primary.wal), ChannelFaultConfig()
    )
    report = catch_up(channel, replica, primary_store=primary)
    assert report.converged and report.digest_match
    simulated = replica.store.simulated_seconds
    kilobytes = len(primary.wal.to_bytes()) / 1024.0
    return {
        "simulated_seconds": simulated,
        "kb_per_second": kilobytes / simulated,
    }


class TestZeroCost:
    def test_table5_is_byte_identical_with_replication_loaded(self):
        config = Table5Config(**MICRO)
        assert format_table5(run_table5(config)) == format_table5(
            run_table5(config)
        )

    def test_tailing_the_stream_costs_the_primary_nothing(self):
        primary = _primary()
        image_before = primary.wal.to_bytes()
        seconds_before = primary.simulated_seconds
        records = list(ChangeStream(primary.wal).records())
        assert len(records) == CHANGES
        assert primary.wal.to_bytes() == image_before
        assert primary.simulated_seconds == seconds_before


class TestCatchUpThroughput:
    def test_catch_up_cost_is_deterministic(self):
        first = _catch_up_phase()
        second = _catch_up_phase()
        assert first == second
        assert first["simulated_seconds"] > 0
        assert first["kb_per_second"] > 0
