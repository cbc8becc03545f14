"""Group commit's headline saving — and its zero-cost pin.

Eight concurrent writers through the serving layer must share sync
barriers: at an equal committed-op count, group commit pays at least 4×
fewer barriers than the per-commit baseline, and pricing barriers via
``DiskCostModel.sync_seconds`` makes the saving visible in simulated
seconds.  Meanwhile a single session with the server disabled (and the
Table 5 path, which never touches the server) stays byte-identical —
the serving layer costs nothing until it is used.
"""

import pytest

from repro.bench.reporting import format_table5
from repro.bench.table5 import Table5Config, run_table5
from repro.core.config import StoreConfig
from repro.core.store import XMLStore
from repro.server.sessions import SessionOp, XMLServer
from repro.storage.disk import DiskCostModel, InstrumentedDevice
from repro.storage.wal import WriteAheadLog
from tests.bench.test_obs_zero_cost import MICRO

WRITERS = 8
BASE = "<lib>" + "".join(f"<s{i}>seed</s{i}>" for i in range(1, WRITERS + 1)) + "</lib>"
#: One subtree per writer: element ids 2, 4, 6, ... (text nodes take the
#: odd ids in between).
SUBTREES = tuple(range(2, 2 * WRITERS + 1, 2))


def run_writers(group_commit: bool, sync_seconds: float = 0.0):
    config = StoreConfig(
        server_group_commit=group_commit,
        server_group_commit_max_batch=WRITERS,
    )
    # the device carries the cost model, sync pricing included
    device = InstrumentedDevice(cost_model=DiskCostModel(sync_seconds=sync_seconds))
    store = XMLStore.open(config, device=device)
    store.load_document(BASE)
    barriers_before = store.wal.sync_barriers
    server = XMLServer(store)
    sessions = [
        server.submit([SessionOp("insert_into_last", SUBTREES[i], f"<w{i}>x</w{i}>")])
        for i in range(WRITERS)
    ]
    server.run()
    assert all(s.outcome == "committed" for s in sessions)
    committed_ops = sum(s.ops_executed for s in sessions)
    return store, committed_ops, store.wal.sync_barriers - barriers_before


class TestBarrierReduction:
    def test_eight_writers_pay_at_least_4x_fewer_barriers(self):
        grouped_store, grouped_ops, grouped_barriers = run_writers(group_commit=True)
        percommit_store, percommit_ops, percommit_barriers = run_writers(
            group_commit=False
        )
        # the comparison is fair: both runs committed the same work
        assert grouped_ops == percommit_ops == WRITERS
        assert grouped_store.read() == percommit_store.read()
        assert percommit_barriers == WRITERS  # one fsync per commit
        assert grouped_barriers * 4 <= percommit_barriers, (
            f"group commit paid {grouped_barriers} barriers vs "
            f"{percommit_barriers} per-commit — less than a 4x reduction"
        )

    def test_priced_barriers_surface_the_saving_in_simulated_seconds(self):
        sync_cost = 0.008
        grouped_store, _, grouped_barriers = run_writers(
            group_commit=True, sync_seconds=sync_cost
        )
        percommit_store, _, percommit_barriers = run_writers(
            group_commit=False, sync_seconds=sync_cost
        )
        saved_barriers = percommit_barriers - grouped_barriers
        assert saved_barriers > 0
        assert (
            percommit_store.wal.simulated_sync_seconds
            - grouped_store.wal.simulated_sync_seconds
        ) == pytest.approx(sync_cost * saved_barriers)

    def test_grouped_run_remains_durable(self):
        store, _, _ = run_writers(group_commit=True)
        recovered = XMLStore.recover(WriteAheadLog.from_bytes(store.wal.to_bytes()))
        assert recovered.read() == store.read()


class TestZeroCostPin:
    def test_sync_pricing_defaults_to_zero(self):
        # pre-server benchmarks never priced barriers; the default must
        # not start charging them
        assert DiskCostModel().sync_seconds == 0.0
        assert XMLStore.open().wal.sync_cost == 0.0

    def test_single_session_matches_direct_store_ops(self):
        # the same program, served and unserved: identical document and
        # identical node ids (the transaction layer pays for its own
        # undo capture, so simulated cost is compared on the raw path
        # in test_sync_pricing_defaults_to_zero, not here)
        program = [
            SessionOp("insert_into_last", 2, "<x>one</x>"),
            SessionOp("replace_content", 4, "TWO"),
            SessionOp("read", 2),
        ]
        served_store = XMLStore.open(StoreConfig(server_group_commit=False))
        served_store.load_document(BASE)
        server = XMLServer(served_store)
        session = server.submit(list(program))
        server.run()
        assert session.outcome == "committed"

        direct_store = XMLStore.open()
        direct_store.load_document(BASE)
        direct_results = [
            direct_store.insert_into_last(2, "<x>one</x>"),
            direct_store.replace_content(4, "TWO"),
            direct_store.read(2),
        ]
        assert served_store.read() == direct_store.read()
        assert session.results == direct_results
        # and the served WAL recovers to the same document the direct
        # store holds — the commit frame is equivalent to the op stream
        recovered = XMLStore.recover(
            WriteAheadLog.from_bytes(served_store.wal.to_bytes())
        )
        assert recovered.read() == direct_store.read()

    def test_table5_micro_run_is_stable_with_the_serving_layer_loaded(self):
        # importing/serving never perturbs the committed Table 5 numbers:
        # two runs of the micro preset are byte-identical
        first = format_table5(run_table5(Table5Config(**MICRO)))
        second = format_table5(run_table5(Table5Config(**MICRO)))
        assert first == second
