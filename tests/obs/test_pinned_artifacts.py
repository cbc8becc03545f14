"""Pinned observability artifacts: the periodic observers' output, by hash.

``history``, ``alerts`` and ``recorder`` each read the metric surface every
32nd/64th operation and record what they saw as rows of the store's
journal.  The rows are a pure function of the seeded workload, so a change
to *how* the surface is read (cached keys, a flat snapshot path, SLO
reading its histograms directly) must leave them identical.

The journal file itself is pinned by ``JOURNAL_SHA256``.  The three older
constants pin the shapes the rows had when each observer kept its own
trail (``store.history.jsonl``, ``store.alerts.jsonl`` and the recorder's
ring dump): the journal's rows are projected back to those shapes here
(per-kind ``seq`` renumbered, ``op``/``sim`` renamed), so the constants
prove that no row's content moved when the trails became one journal.  The constants below were generated
on the commit before the flat snapshot path existed, and regenerated twice
since: once when index entries began to survive range splits (the partial-index
hit counters, the simulated clock the alert lines carry and the recorder's
event ring all moved with that), and again when an update stopped probing
the partial index a second time after its own locate (the history's probe
and hit-rate values, and the recorder's probe events, its dropped count
and the metric frames' hit counters moved; the alert log did not); the
workload runs
``repro serve``'s store config on a directory store, drives part of its
ops through ``XMLServer`` sessions (so the group-commit batch histogram
and the serving counters are on the surface), shifts from reads to
writes half way, and once overfills the admission backlog (so the ``session-shedding`` alert
fires and its transition reaches the log and the ring).
"""

import hashlib
import json
import os
import random

from repro.cli import _cli_store_config
from repro.core.filestore import close_directory, open_directory
from repro.errors import SessionLimitError
from repro.obs.journal import JOURNAL_FILE
from repro.server.sessions import SessionOp, XMLServer
from repro.workloads import purchase_orders_document

OPS = 400
SEED = 11
#: op index before which the admission backlog is overfilled once
BURST_AT = 100

JOURNAL_SHA256 = "e8cd84e340b385b462004859c965cd0ce1ee2c57a4bc9460252d89d62c011960"
HISTORY_SHA256 = "dfd7ab43b53572f36a07a94721d32ebcb384575b135ae467b0ac4b7d68dc9e35"
ALERTS_SHA256 = "96e4aef545506c86bb6b66ea3897099cd7513d240a7180364541c29c2ad923ab"
RECORDER_SHA256 = "4154bfe865b6b5d65c4c6f612263e52bf75abf0e7906e6694d09de0c9916e7e8"


def _overfill_backlog(server, rng, items) -> None:
    """Submit one session more than slots + backlog hold; the last is shed."""
    config = server.config
    try:
        for _ in range(config.server_max_sessions + config.server_max_queue_depth + 1):
            server.submit([SessionOp("read", rng.choice(items))], read_only=True)
    except SessionLimitError:
        pass
    server.run(seed=BURST_AT)
    server.retire_finished()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_pinned_workload(directory: str):
    """400 seeded ops; returns ``(journal bytes, ring dump)`` as the store
    left them."""
    rng = random.Random(SEED)
    store = open_directory(directory, _cli_store_config())
    try:
        store.load_document(purchase_orders_document(40, 3, seed=SEED))
        orders = [n.node_id for n in store.xpath("/purchase-orders/purchase-order")]
        items = [n.node_id for n in store.xpath("/purchase-orders/purchase-order/item")]
        server = XMLServer(store)
        for index in range(OPS):
            if index == BURST_AT:
                _overfill_backlog(server, rng, items)
            # reads first, then mostly writes: the fingerprint drifts
            write = rng.random() < (0.05 if index < OPS // 2 else 0.9)
            through_server = index % 5 == 0
            if write:
                order = rng.choice(orders)
                xml = f'<item sku="pin-{index}"><qty>{rng.randrange(9)}</qty></item>'
                if through_server:
                    server.submit([SessionOp("insert_into_last", order, xml)])
                    server.submit([SessionOp("insert_into_last", rng.choice(orders), xml)])
                    server.run(seed=index)
                    server.retire_finished()
                else:
                    store.insert_into_last(order, xml)
            elif through_server:
                server.submit([SessionOp("read", rng.choice(items))], read_only=True)
                server.run(seed=index)
                server.retire_finished()
            elif index % 7 == 0:
                store.xpath("/purchase-orders/purchase-order/item")
            else:
                store.read(rng.choice(items))
        ring = store.recorder.to_dict()
    finally:
        close_directory(directory, store)
    with open(os.path.join(directory, JOURNAL_FILE), "rb") as handle:
        return handle.read(), ring


# -- projections back to the shapes of the three former trails --------------


def _history_line(index, row):
    return {
        "schema_version": row["schema_version"],
        "seq": index,
        "label": row["label"],
        "operations": row["op"],
        "simulated_seconds": row["sim"],
        "deltas": row["deltas"],
        "partial_index": row["partial_index"],
        "heatmap": row["heatmap"],
        "merged": row["merged"],
    }


def _alert_payload(index, row):
    return {
        "seq": index,
        "state": row["state"],
        "rule": row["rule"],
        "severity": row["severity"],
        "summary": row["summary"],
        "value": row["value"],
        "bound": row["bound"],
        "label": row["label"],
        "operations": row["op"],
        "simulated_seconds": row["sim"],
    }


def _jsonl(lines) -> bytes:
    return "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines).encode()


def project_trails(journal: bytes):
    """The journal's rows as the history and alert trails wrote them."""
    rows = [json.loads(line) for line in journal.splitlines()]
    history = [row for row in rows if row["kind"] == "history"]
    alerts = [row for row in rows if row["kind"] == "alert"]
    return (
        _jsonl(_history_line(index, row) for index, row in enumerate(history)),
        _jsonl(
            {"schema_version": row["schema_version"], **_alert_payload(index, row)}
            for index, row in enumerate(alerts)
        ),
    )


def project_ring(ring, journal: bytes) -> bytes:
    """The ring dump as the recorder's own rows and counter shaped it."""
    alert_index = {
        row["seq"]: index
        for index, row in enumerate(
            row for row in map(json.loads, journal.splitlines()) if row["kind"] == "alert"
        )
    }

    def entry(index, row):
        if row["kind"] == "event":
            source, label, payload = row["source"], row["label"], row["payload"]
        elif row["kind"] == "alert":
            source, label = row["rule"], row["state"]
            payload = _alert_payload(alert_index[row["seq"]], row)
        else:
            source, label = "recorder", row["label"]
            payload = {"operations": row["op"], "deltas": row["deltas"]}
        return {
            "seq": ring["dropped"] + index,
            "kind": row["kind"],
            "source": source,
            "label": label,
            "simulated": row["sim"],
            "payload": payload,
        }

    dump = {
        "capacity": ring["capacity"],
        "interval": ring["interval"],
        "dropped": ring["dropped"],
        "entries": [entry(index, row) for index, row in enumerate(ring["entries"])],
        "schema_version": ring["schema_version"],
    }
    return json.dumps(dump).encode("utf-8")


def test_periodic_observer_artifacts_are_byte_pinned(tmp_path):
    journal, ring = run_pinned_workload(str(tmp_path / "store"))
    history, alerts = project_trails(journal)
    recorder = project_ring(ring, journal)
    # the run must actually exercise all three observers
    assert history.count(b"\n") >= OPS // 64
    assert b'"state": "fired"' in alerts
    assert b'"kind": "metrics"' in recorder
    assert b"repro_wal_group_commit_batch_size_bucket" in history
    # the ring overflowed, so its old numbering is offset by the drops
    assert ring["dropped"] > 0
    assert _sha256(journal) == JOURNAL_SHA256
    assert _sha256(history) == HISTORY_SHA256
    assert _sha256(alerts) == ALERTS_SHA256
    assert _sha256(recorder) == RECORDER_SHA256
