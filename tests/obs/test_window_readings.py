"""EXPLAIN, PROFILE and bench-phase readings, pinned by hash.

All three read the same window of store work: counter deltas, the spans
and events opened inside it, the device's I/O.  A change to *how* the
window is taken must leave every simulated-axis field of every reading
byte-identical, so each scenario below is hashed with the wall-clock
fields dropped (keys ending in ``wall_seconds``, ``wal_seconds`` or
``lock_wait_seconds``; ``stages`` ordered by name, since their order is
by wall time; the ``repro_span_seconds`` wall histogram family left out of
a phase's metrics delta).
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.bench.harness import insert_phase, random_read_phase, sequential_scan_phase
from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.store import XMLStore
from repro.obs.explain import explain_report
from repro.obs.profiler import cost_profile
from repro.obs.window import Window

DOCUMENT = (
    "<r>"
    + "".join(f"<a n='{i}'><b>text{i}</b></a>" for i in range(16))
    + "</r>"
)
QUERY = "/r/a[@n='5']"
READ_IDS = (2, 5, 8, 2, 5, 2)

WALL_KEYS = ("wall_seconds", "wal_seconds", "lock_wait_seconds")

PINNED = {
    "explain-full": (
        "d69310ddef502ad63ae4636dba164995"
        "d1071f715c6c9b3e0af82a374ea8cf79"
    ),
    "explain-range": (
        "94a224589ef68c0003b232b6b2214dc2"
        "862350f09dad7ae1772ac6ec8fbddd98"
    ),
    "explain-range+partial": (
        "e65fddab2f377ba8d6a6bff9a6c462b0"
        "2b432fe72f04b5c24a07d273a0ca9266"
    ),
    "explain-adaptive": (
        "e65fddab2f377ba8d6a6bff9a6c462b0"
        "2b432fe72f04b5c24a07d273a0ca9266"
    ),
    "profile-on": (
        "10df0a3063f3c0d14600ec8d2c8171af"
        "9dde9b123bdcf247fe8e16814b7e249a"
    ),
    "profile-off": (
        "7ba6cc46410a97b64eb59d483f9e56ee"
        "dd4c599ec7de6a4bb6079ca3c30f6a34"
    ),
    "phases-events0-profiling0": (
        "bf179ad5d8380d3681e5302aeff18b50"
        "37e5b374007ab7626524f246236e1310"
    ),
    "phases-events0-profiling1": (
        "ab002f96fd047111778315958fad9c48"
        "ec9ce24ab6d045b81036c6397845bcdb"
    ),
    "phases-events1-profiling0": (
        "b5fd39e5d60b54bf21ab671f1edc485b"
        "1d460919e4c5379fab689e8523ed83f7"
    ),
    "phases-events1-profiling1": (
        "06f48247b75303436ebf6d3c9e5c6d26"
        "58b6d1068c7f071b3436a9c627407fb0"
    ),
}


def _scrub(value):
    if isinstance(value, dict):
        return {
            key: _scrub(item)
            for key, item in value.items()
            if not (isinstance(key, str) and key.endswith(WALL_KEYS))
        }
    if isinstance(value, list):
        return [_scrub(item) for item in value]
    return value


def _digest(readings) -> str:
    text = json.dumps(readings, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _explain(store, operation, argv, work):
    with Window(store, operation) as window:
        work()
    reading = _scrub(explain_report(window, argv).to_dict(include_events=False))
    reading["stages"] = sorted(reading["stages"], key=lambda s: s["stage"])
    return reading


def _profile(store, operation, work):
    with Window(store) as window:
        work()
    return _scrub(cost_profile(window, operation).to_dict())


def _store(**config) -> XMLStore:
    return XMLStore.open(
        StoreConfig(buffer_pool_capacity=8, max_range_tokens=32, **config)
    )


def _explain_readings(policy):
    store = _store(policy=policy, telemetry_enabled=True, events_enabled=True)
    readings = []
    root = []
    readings.append(
        _explain(store, "load", [], lambda: root.append(store.load_document(DOCUMENT)))
    )

    def query(expression):
        return lambda: [node.xml() for node in store.xpath(expression)]

    readings.append(_explain(store, "xpath", [QUERY], query(QUERY)))
    readings.append(_explain(store, "xpath", [QUERY], query(QUERY)))
    readings.append(_explain(store, "xpath", ["//b"], query("//b")))
    for node_id in READ_IDS:
        readings.append(
            _explain(store, "read", [str(node_id)], lambda: store.read(node_id))
        )
    readings.append(
        _explain(
            store, "insert-last", [str(root[0]), "<extra/>"],
            lambda: store.insert_into_last(root[0], "<extra/>"),
        )
    )
    readings.append(
        _explain(store, "delete", ["8"], lambda: store.delete_node(8))
    )
    readings.append(_explain(store, "checkpoint", [], store.checkpoint))
    return readings


def _profile_readings(profiling):
    store = _store(
        policy=IndexingPolicy.RANGE_PLUS_PARTIAL, profiling_enabled=profiling
    )

    def work():
        root = store.load_document(DOCUMENT)
        for node_id in READ_IDS:
            store.read(node_id)
        store.insert_into_last(root, "<extra/>")
        [node.xml() for node in store.xpath(QUERY)]

    return [_profile(store, "workload", work)]


def _phase_readings(events, profiling):
    store = _store(
        policy=IndexingPolicy.RANGE_PLUS_PARTIAL,
        telemetry_enabled=True,
        events_enabled=events,
        profiling_enabled=profiling,
    )
    store.load_document(DOCUMENT)
    rows = [
        insert_phase(store, 1, ["<a/>", "<b>t</b>", "<c/>"]),
        sequential_scan_phase(store),
        random_read_phase(store, [2, 2, 4, 40, 2]),
    ]
    readings = []
    for row in rows:
        reading = asdict(row)
        reading["metrics"] = {
            key: value
            for key, value in reading["metrics"].items()
            if not key.startswith("repro_span_seconds")
        }
        if reading["explain"] is not None:
            stages = reading["explain"]["stages"]
            reading["explain"]["stages"] = sorted(stages, key=lambda s: s["stage"])
        readings.append(_scrub(reading))
    return readings


def _scenario(name):
    kind, _, rest = name.partition("-")
    if kind == "explain":
        return _explain_readings(IndexingPolicy(rest))
    if kind == "profile":
        return _profile_readings(rest == "on")
    events, profiling = rest.split("-")
    return _phase_readings(events == "events1", profiling == "profiling1")


@pytest.mark.parametrize("name", sorted(PINNED))
def test_readings_are_pinned(name):
    assert _digest(_scenario(name)) == PINNED[name]


def test_readings_are_not_trivially_empty():
    explain = _explain_readings(IndexingPolicy.RANGE_PLUS_PARTIAL)
    assert [r["access_path"] for r in explain[1:3]] == ["range-scan", "partial-hit"]
    assert any(r["faults"] == [] and r["wal_appends"] for r in explain)
    profile = _profile_readings(True)[0]
    assert profile["tree"] and profile["simulated_seconds"] > 0
    phases = _phase_readings(True, True)
    assert all(r["explain"] and r["profile"] for r in phases)
    assert phases[1]["device_reads"] > 0
