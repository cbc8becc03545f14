"""Unit tests for the benchmark harness and reporting."""

import hashlib
import json

import pytest

from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.store import XMLStore
from repro.bench.harness import (
    PhaseResult,
    insert_phase,
    make_cold,
    random_read_phase,
    run_phase,
    sequential_scan_phase,
)
from repro.bench.reporting import format_csv, format_table, phase_dict


PINNED_METRICS_DIGESTS = [
    # re-pinned once since: the insert row's only moved key is
    # ``repro_partial_index_inserts_total`` 5 -> 2 (an ``insert_into_last``
    # no longer re-remembers the target's entry after its own split)
    "c82c0e40f39316946f5ea5813401a962fb4b66e42d3ea09597cbf5f075c85567",
    "e225076d3ad45afdcf44a5abf9d2c6c02680596a80f07b6070ec7f65e3681108",
    "e470283ef236a7adea866a3e89f87c03098a259926709044a15d070d498812fe",
]


def small_store(**kwargs):
    store = XMLStore.open(StoreConfig(buffer_pool_capacity=8, **kwargs))
    store.load_document("<r>" + "".join(f"<x>{i}</x>" for i in range(100)) + "</r>")
    return store


class TestPhases:
    def test_run_phase_accounts_bytes_and_time(self):
        store = small_store()
        result = run_phase(store, "noop-read", lambda: len(store.read()), 1)
        assert result.xml_bytes > 0
        assert result.simulated_seconds > 0
        assert result.kb_per_second > 0
        assert result.label == "noop-read"

    def test_cold_phase_reads_from_device(self):
        store = small_store()
        store.read()  # warm the pool
        result = sequential_scan_phase(store)
        assert result.device_reads > 0

    def test_insert_phase_counts_fragments(self):
        store = small_store()
        result = insert_phase(store, 1, ["<a/>", "<b/>", "<c/>"])
        assert result.operations == 3
        assert result.xml_bytes == len("<a/>") * 3
        assert "<c/>" in store.read()

    def test_random_read_phase(self):
        store = small_store()
        result = random_read_phase(store, [2, 2, 4])
        assert result.operations == 3
        assert result.xml_bytes > 0

    def test_make_cold_empties_pool(self):
        store = small_store()
        store.read()
        make_cold(store)
        assert store.pool.num_cached == 0

    def test_simulated_time_includes_cpu(self):
        # a phase that only scans cached pages must still cost time
        store = XMLStore.open(StoreConfig(buffer_pool_capacity=64))
        store.load_document("<r>" + "<x/>" * 200 + "</r>")
        store.read()  # everything cached now
        result = run_phase(store, "cpu-only", lambda: len(store.read()), 1)
        assert result.device_reads == 0
        assert result.simulated_seconds > 0  # per-token CPU cost

    def test_kb_per_second_guard_against_zero_time(self):
        result = PhaseResult("x", 1, 1024, 0.0, 0.0, 0, 0, 0)
        assert result.kb_per_second > 0
        assert result.wall_kb_per_second > 0

    def test_str_rendering(self):
        result = PhaseResult("p", 2, 2048, 0.5, 0.1, 3, 4, 5)
        assert "p:" in str(result)

    def test_run_phase_attaches_metrics_delta(self):
        store = small_store()
        result = run_phase(store, "scan", lambda: len(store.read()), 1)
        assert result.metrics is not None
        assert result.metrics['repro_store_operations_total{op="read"}'] == 1
        # deltas cover the phase only, not the setup load
        assert result.metrics['repro_store_operations_total{op="load"}'] == 0

    def test_metrics_delta_rows_are_pinned(self):
        # keys, key order, values and their int/float types of a row's
        # ``metrics`` delta, hashed; constants generated before
        # ``metrics_snapshot`` moved to the cached-key flat path.  Span
        # wall seconds are the one nondeterministic family: left out.
        store = small_store(
            policy=IndexingPolicy.RANGE_PLUS_PARTIAL, telemetry_enabled=True
        )
        rows = [
            insert_phase(store, 1, ["<a/>", "<b>t</b>", "<c/>"]),
            random_read_phase(store, [2, 2, 4, 40, 2]),
            sequential_scan_phase(store),
        ]
        digests = [
            hashlib.sha256(
                json.dumps(
                    [
                        (key, value)
                        for key, value in row.metrics.items()
                        if not key.startswith("repro_span_seconds")
                    ]
                ).encode("utf-8")
            ).hexdigest()
            for row in rows
        ]
        assert digests == PINNED_METRICS_DIGESTS
        assert any(
            key.startswith("repro_span_seconds_bucket{")
            for key in rows[0].metrics
        )

    def test_metrics_default_none_for_hand_built_results(self):
        result = PhaseResult("p", 2, 2048, 0.5, 0.1, 3, 4, 5)
        assert result.metrics is None


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"],
            [("alpha", 1.5), ("b", 22.25)],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1.50" in text and "22.25" in text

    def test_format_table_empty(self):
        text = format_table(["a", "b"], [])
        assert "a" in text

    def test_format_csv(self):
        text = format_csv(["a", "b"], [("x,y", 1.5)])
        assert text.splitlines()[0] == "a,b"
        assert '"x,y"' in text

    def test_format_csv_quotes(self):
        text = format_csv(["v"], [('say "hi"',)])
        assert '"say ""hi"""' in text

    def test_phase_dict_carries_metrics(self):
        result = PhaseResult(
            "p", 2, 2048, 0.5, 0.1, 3, 4, 5,
            metrics={"repro_wal_appends_total": 2.0},
        )
        data = phase_dict(result)
        assert data["label"] == "p"
        assert data["metrics"]["repro_wal_appends_total"] == 2.0

    def test_phase_dict_omits_absent_metrics(self):
        data = phase_dict(PhaseResult("p", 2, 2048, 0.5, 0.1, 3, 4, 5))
        assert "metrics" not in data
