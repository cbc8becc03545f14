"""Health, alerts, SLO samples and incident bundles, pinned by hash.

Each scenario below drives a seeded store into one operational state and
records, at each step, what the store's judgements say about it:

* ``health_report(...).to_dict()``;
* the ``alerts --json`` payload and its exit code;
* the simulated-axis ``repro_slo_*`` lines of ``stats --prometheus``;
* the incidents recorded so far, and the ``health`` payload of every
  incident bundle dumped on disk.

Every field is a function of deterministic counters and on-disk state,
so a change to *how* the judgements are declared or evaluated must leave
each scenario's digest as it is.  Set ``REPRO_PRINT_PINS=1`` to print the
current digests.
"""

import dataclasses
import hashlib
import json
import os
import random
from argparse import Namespace

import pytest

from repro.cli import _alerts, _cli_store_config, _stats, run
from repro.core.filestore import close_directory, open_directory
from repro.core.repair import RepairReport
from repro.core.store import XMLStore
from repro.errors import ChecksumError, ReproError, SessionLimitError
from repro.obs.incident import bundle_files
from repro.obs.journal import JOURNAL_FILE, Journal
from repro.obs.rules import health_report
from repro.obs.schema import INCIDENTS_DIR, SIDECAR_FILE
from repro.replication.service import STALE_AFTER_OPS
from repro.server.sessions import SessionOp, XMLServer
from repro.storage.disk import DiskCostModel, InstrumentedDevice
from repro.workloads import purchase_orders_document

SEED = 5

PINNED = {
    "clean": (
        "2fb7b57f42214275ce6df3c91efd9601"
        "ce4a7ac116229ab9e16d90d8cc812e56"
    ),
    "quarantine": (
        "d43da2a1584a6d957992e77a2894ebd4"
        "2e445fc12d8a5c73f3830d54628422ac"
    ),
    "checksum": (
        "cd3ffd3faad744bbc9fd1e28e4fc49be"
        "eb44cfe56438f0b644027bca51914481"
    ),
    "sidecar": (
        "c5c334a37f191e370dc9342bc1992635"
        "d0407eb34fed02bd4e84908d1426fb5b"
    ),
    "scrub": (
        "a9b4640416b8bd1f80d8fc2358df55e6"
        "cd75b7f2cdfa3cc4158ce630a4564da5"
    ),
    "wal": (
        "9edfb8a3651696adfd44c498717fc00c"
        "cc1adfc7bc7d2e924bc23111997fecdc"
    ),
    "drift": (
        "5738a7ea8c00cbd5ae8088c7779926e3"
        "b00ecb1b8dda6cc4610b947ca45e25ad"
    ),
    "slo": (
        "1b28e92e63bc6a3c28fdbd89179e3ba6"
        "d0f1d84ec993cef3565729446592aa10"
    ),
    "stale-replica": (
        "4b44b49618e4cedac80ceb9cf69ffd4e"
        "9e5bbf6fbc888678889f89976ed64b14"
    ),
    "shed": (
        "3c04418d62de78e3370c8a5422840936"
        "15a5c6377f42e4a91639b4c62aa0886b"
    ),
}


def _orders(store):
    return [n.node_id for n in store.xpath("/purchase-orders/purchase-order")]


def _loaded(store, orders=40):
    store.load_document(purchase_orders_document(orders, 3, seed=SEED))
    rng = random.Random(SEED)
    ids = _orders(store)
    for _ in range(20):
        store.read(rng.choice(ids))
    return ids


def _observe(store, store_path=None, tmp_path=None):
    """One step's record.  Alerts first: the health report's integrity walk
    runs a scrub pass, which resets the scrub recency the rules judge."""
    target = os.path.join(str(tmp_path), "alerts.json")
    try:
        _alerts(Namespace(json=True, output=target), store, None)
        code = 0
    except ReproError as error:
        code = error.exit_code
    with open(target) as handle:
        alerts = json.load(handle)
    prometheus = _stats(
        Namespace(json=False, prometheus=True, top=False), store, None
    )
    slo = [
        line for line in prometheus.splitlines()
        if line.startswith("repro_slo_") and 'axis="simulated"' in line
    ]
    record = {
        "alerts": alerts,
        "alerts_exit": code,
        "slo": slo,
        "health": health_report(store, store_path=store_path).to_dict(),
        "incidents": [
            [row["trigger"], row["key"], row["detail"]]
            for row in store.incidents.incidents()
        ],
    }
    if store_path is not None:
        directory = os.path.join(store_path, INCIDENTS_DIR)
        bundles = []
        for name in bundle_files(directory):
            with open(os.path.join(directory, name)) as handle:
                bundles.append(json.load(handle)["health"])
        record["bundle_health"] = bundles
    return record


def _in_memory(**overrides):
    return XMLStore.open(dataclasses.replace(_cli_store_config(), **overrides))


# -- scenarios: each returns the list of step records ------------------------


def scenario_clean(tmp_path):
    store = _in_memory()
    _loaded(store)
    return [_observe(store, tmp_path=tmp_path)]


def scenario_quarantine(tmp_path):
    path = str(tmp_path / "store")
    store = open_directory(path, _cli_store_config())
    try:
        _loaded(store)
        steps = [_observe(store, path, tmp_path)]
        store.pool.quarantine(0, ChecksumError("bad", block_no=0))
        steps.append(_observe(store, path, tmp_path))
        store.pool.clear_quarantine()
        for _ in range(3):
            steps.append(_observe(store, path, tmp_path))
    finally:
        close_directory(path, store)
    return steps


def scenario_checksum(tmp_path):
    path = str(tmp_path / "store")
    store = open_directory(path, _cli_store_config())
    try:
        _loaded(store)
        store.stats.buffer.checksum_errors += 1
        steps = [_observe(store, path, tmp_path)]
    finally:
        close_directory(path, store)
    return steps


def scenario_sidecar(tmp_path):
    path = str(tmp_path / "store")
    store = open_directory(path, _cli_store_config())
    try:
        _loaded(store)
        report = RepairReport(
            mode="salvage", bad_blocks=[3], records_kept=40,
            lost_intervals=[(17, 19), (30, 30)], ranges_before=2, ranges_after=1,
        )
        with open(os.path.join(path, SIDECAR_FILE), "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        steps = [_observe(store, path, tmp_path)]
    finally:
        close_directory(path, store)
    return steps


def scenario_scrub(tmp_path):
    """Health's overdue bound, then the alert's, each met exactly on a
    fresh store: the health report's own integrity walk scrubs."""
    steps = []
    for total in (65_536, 100_000):
        store = _in_memory()
        _loaded(store)
        store.operations.reads += total - store.operations.total
        steps.append(_observe(store, tmp_path=tmp_path))
        # ageing past the bound again after that scrub
        store.operations.reads += 70_000
        steps.append(_observe(store, tmp_path=tmp_path))
    return steps


def scenario_wal(tmp_path):
    from repro.storage.wal import RecordType

    store = _in_memory()
    ids = _loaded(store)
    steps = [_observe(store, tmp_path=tmp_path)]
    for _ in range(10_001):
        store.wal.append(RecordType.INSERT_INTO_LAST, b"", sync=False)
    store.wal.sync()
    steps.append(_observe(store, tmp_path=tmp_path))
    store.read(ids[0])
    store.checkpoint()
    steps.append(_observe(store, tmp_path=tmp_path))
    return steps


def _history_row(journal, operations, deltas, heat):
    journal.append(
        "history", operations, 0.0,
        {"label": "interval", "deltas": deltas, "partial_index": None,
         "heatmap": {"top_decile_share": heat}, "merged": 1},
    )


def scenario_drift(tmp_path):
    """A journal whose history moves from hot partial-index reads to deep
    scanning inserts: drift above the alert's bound without the heat
    component, above health's bound with it."""
    path = str(tmp_path / "store")
    store = open_directory(path, _cli_store_config())
    try:
        _loaded(store)
    finally:
        close_directory(path, store)
    journal = Journal(os.path.join(path, JOURNAL_FILE))
    reads = {
        'repro_store_operations_total{op="node_read"}': 64.0,
        'repro_locator_resolutions_total{path="partial"}': 64.0,
        'repro_buffer_accesses_total{result="hit"}': 64.0,
    }
    writes = {
        'repro_store_operations_total{op="insert"}': 64.0,
        'repro_locator_resolutions_total{path="scan"}': 64.0,
        "repro_locator_tokens_scanned_total": 64.0 * 8192,
        'repro_buffer_accesses_total{result="miss"}': 64.0,
        "repro_wal_appends_total": 640.0,
    }
    steps = []
    operations = 1000
    for heat in (0.0, 1.0):
        for deltas in (reads,) * 5 + (writes,) * 4:
            operations += 64
            _history_row(journal, operations, deltas, heat if deltas is writes else 0.0)
        store = open_directory(path, _cli_store_config())
        try:
            steps.append(_observe(store, path, tmp_path))
        finally:
            close_directory(path, store)
    return steps


def scenario_slo(tmp_path):
    """Costly seeks and a four-frame pool breach the simulated node_read
    objective; hot re-reads then earn the budget back."""
    store = XMLStore.open(
        dataclasses.replace(_cli_store_config(), buffer_pool_capacity=4),
        device=InstrumentedDevice(cost_model=DiskCostModel(seek_seconds=0.1)),
    )
    store.load_document(purchase_orders_document(200, 3, seed=SEED))
    ids = _orders(store)
    rng = random.Random(SEED)
    for _ in range(40):
        store.read(rng.choice(ids))
    steps = [_observe(store, tmp_path=tmp_path)]
    for _ in range(8):
        for _ in range(10):
            store.read(ids[0])
        steps.append(_observe(store, tmp_path=tmp_path))
    return steps


def scenario_stale_replica(tmp_path):
    primary, replica = str(tmp_path / "primary"), str(tmp_path / "replica")
    store = open_directory(primary, _cli_store_config())
    try:
        _loaded(store)
    finally:
        close_directory(primary, store)
    run([primary, "replicate", replica])
    store = open_directory(primary, _cli_store_config())
    try:
        steps = [_observe(store, primary, tmp_path)]
        ids = _orders(store)
        for index in range(STALE_AFTER_OPS + 2):
            store.insert_into_last(ids[index % len(ids)], f"<note>{index}</note>")
        steps.append(_observe(store, primary, tmp_path))
    finally:
        close_directory(primary, store)
    return steps


def scenario_shed(tmp_path):
    store = _in_memory()
    ids = _loaded(store)
    server = XMLServer(store)
    config = server.config
    try:
        for _ in range(config.server_max_sessions + config.server_max_queue_depth + 1):
            server.submit([SessionOp("read", ids[0])], read_only=True)
    except SessionLimitError:
        pass
    server.run(seed=SEED)
    server.retire_finished()
    return [_observe(store, tmp_path=tmp_path)]


SCENARIOS = {
    "clean": scenario_clean,
    "quarantine": scenario_quarantine,
    "checksum": scenario_checksum,
    "sidecar": scenario_sidecar,
    "scrub": scenario_scrub,
    "wal": scenario_wal,
    "drift": scenario_drift,
    "slo": scenario_slo,
    "stale-replica": scenario_stale_replica,
    "shed": scenario_shed,
}


def digest(steps) -> str:
    text = json.dumps(steps, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_verdicts_are_pinned(name, tmp_path):
    value = digest(SCENARIOS[name](tmp_path))
    if os.environ.get("REPRO_PRINT_PINS"):
        print(f"\n{name}: {value}")
    assert value == PINNED[name]
