"""Crash-consistency torture harness (repro.testing.torture).

The acceptance bar: exhaustive crash-point enumeration over the Table-5
insert workload recovers verify-clean at **100%** of points, and the
fault layer costs nothing when disabled.
"""

import json

import pytest

from repro.storage.faults import FaultConfig, FaultyDisk, build_fault_harness
from repro.storage.disk import InstrumentedDevice, MemoryBlockDevice
from repro.testing.reference import ReferenceStore
from repro.testing.torture import (
    TortureConfig,
    apply_op,
    generate_workload,
    run_baseline,
    run_crash_point,
    run_torture,
    select_points,
    shrink_failing,
)


class TestWorkloadGeneration:
    def test_same_seed_same_ops(self):
        config = TortureConfig(seed=11, ops=12)
        assert generate_workload(config) == generate_workload(config)

    def test_different_seeds_differ(self):
        a = generate_workload(TortureConfig(seed=1, ops=12))
        b = generate_workload(TortureConfig(seed=2, ops=12))
        assert a != b

    def test_insert_workload_is_the_table5_stream(self):
        config = TortureConfig(seed=3, ops=9, workload="insert")
        ops = generate_workload(config)
        kinds = [op[0] for op in ops]
        assert kinds[0] == "load_document"
        assert set(kinds[1:]) <= {"insert_into_last", "checkpoint", "compact"}
        assert "checkpoint" in kinds  # checkpoint_every=7 < 9 ops

    def test_mixed_workload_replays_on_the_reference(self):
        """Every generated op is applicable in sequence — the guarantee
        that makes per-crash-point replays deterministic."""
        config = TortureConfig(seed=5, ops=25)
        model = ReferenceStore()
        for kind, args in generate_workload(config):
            if kind in ("checkpoint", "compact"):
                continue
            getattr(model, kind)(*args)

    def test_unknown_workload_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            generate_workload(TortureConfig(workload="chaos"))


class TestBaseline:
    def test_oracle_snapshots_line_up_with_ops(self):
        config = TortureConfig(seed=2, ops=10)
        trace = run_baseline(config)
        assert len(trace.snapshots) == len(trace.ops) + 1
        assert len(trace.appends_after) == len(trace.ops)
        assert trace.appends_after == sorted(trace.appends_after)
        assert trace.snapshots[0] == ""

    def test_fault_layer_is_pass_through(self):
        trace = run_baseline(TortureConfig(seed=2, ops=10))
        assert trace.passthrough_identical
        assert trace.oracle_simulated_seconds == trace.faulty_simulated_seconds

    def test_every_point_is_labelled(self):
        trace = run_baseline(TortureConfig(seed=2, ops=10))
        assert len(trace.point_labels) == trace.total_points
        sites = {label.split(":")[0] for label in trace.point_labels}
        assert sites <= {"write", "sync", "wal"}
        assert "wal" in sites  # ops always log


class TestExhaustiveEnumeration:
    def test_insert_workload_recovers_at_every_point(self):
        """The acceptance criterion: the Table-5 insert workload crashes
        at every WAL-record and page-write boundary and recovers
        verify-clean at 100% of them."""
        report = run_torture(TortureConfig(seed=0, ops=10, workload="insert"))
        assert report.tested_points == report.total_points > 0
        assert report.failures == []
        assert report.passthrough_identical
        assert report.ok
        sites = {result.label.split(":")[0] for result in report.results}
        assert sites == {"write", "sync", "wal"}

    def test_mixed_workload_recovers_at_every_point(self):
        report = run_torture(TortureConfig(seed=1, ops=10, workload="mixed"))
        assert report.tested_points == report.total_points > 0
        assert report.ok
        # checkpoints make the catalog-recovery path reachable too
        assert report.catalog_checked_points > 0

    def test_crash_point_is_reproducible(self):
        config = TortureConfig(seed=4, ops=8)
        trace = run_baseline(config)
        first = run_crash_point(config, 3, trace)
        second = run_crash_point(config, 3, trace)
        assert first.to_dict() == second.to_dict()

    def test_durable_ops_never_exceed_issued_ops(self):
        config = TortureConfig(seed=6, ops=8)
        trace = run_baseline(config)
        for point in range(0, trace.total_points, 5):
            result = run_crash_point(config, point, trace)
            assert 0 <= result.durable_ops <= len(trace.ops)
            assert result.ok


class TestSampling:
    def test_select_all_when_uncapped(self):
        assert select_points(5, None, seed=0) == [0, 1, 2, 3, 4]
        assert select_points(5, 9, seed=0) == [0, 1, 2, 3, 4]

    def test_capped_sample_is_seeded_and_sorted(self):
        sample = select_points(100, 10, seed=3)
        assert sample == select_points(100, 10, seed=3)
        assert sample == sorted(sample)
        assert len(sample) == 10
        assert select_points(100, 10, seed=4) != sample

    def test_cap_flows_through_run_torture(self):
        report = run_torture(TortureConfig(seed=0, ops=10, crash_points=5))
        assert report.tested_points == 5
        assert report.total_points > 5
        assert report.ok


class TestReportShape:
    def test_to_dict_is_json_ready(self):
        report = run_torture(TortureConfig(seed=0, ops=6, crash_points=4))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert payload["seed"] == 0
        assert payload["total_points"] == report.total_points
        assert payload["failures"] == []
        assert set(payload["fault_classes"]) == {
            "torn_page_writes", "torn_wal_appends", "reorder_sync",
            "bitrot", "lost_writes", "misdirected_writes",
        }

    def test_render_summarizes_the_run(self):
        report = run_torture(TortureConfig(seed=0, ops=6, crash_points=4))
        text = report.render()
        assert "crash points" in text
        assert "byte-identical" in text
        assert "verify-clean" in text

    def test_render_names_failures(self):
        from repro.testing.torture import CrashPointResult, TortureReport

        report = TortureReport(
            config=TortureConfig(seed=9), total_points=10, tested_points=10,
            results=[
                CrashPointResult(
                    point=4, label="wal:frame=2", durable_ops=2,
                    full_restore_ok=False, catalog_checked=False,
                    catalog_ok=True, error="boom",
                )
            ],
        )
        assert not report.ok
        text = report.render()
        assert "FAILING" in text and "boom" in text
        assert "reproduce with" in text

    def test_shrink_returns_a_config_no_larger(self):
        # an all-passing run cannot shrink: the original comes back
        config = TortureConfig(seed=0, ops=4, crash_points=3)
        assert shrink_failing(config, rounds=1) == config


class TestFaultClassToggles:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(torn_page_writes=False),
            dict(torn_wal_appends=False),
            dict(reorder_sync=False),
            dict(
                torn_page_writes=False,
                torn_wal_appends=False,
                reorder_sync=False,
            ),
        ],
    )
    def test_each_class_subset_still_recovers(self, kwargs):
        report = run_torture(
            TortureConfig(seed=2, ops=8, crash_points=12, **kwargs)
        )
        assert report.ok


class TestZeroCostWhenDisabled:
    """Table-5 simulated numbers are byte-identical over a pass-through
    fault layer (ISSUE acceptance: 'fault layer zero-cost when disabled')."""

    MICRO = dict(
        base_orders=16,
        items_per_order=3,
        insert_orders=4,
        random_reads=40,
        hot_fraction=0.1,
        pool_capacity=8,
        granular_tokens=64,
    )

    def test_table5_numbers_are_byte_identical_over_a_faulty_disk(self):
        from repro.bench.reporting import format_table5
        from repro.bench.table5 import Table5Config, run_table5

        def faulty_backend(store_config):
            harness = build_fault_harness(
                FaultConfig(seed=0),
                MemoryBlockDevice(block_size=store_config.page_size),
            )
            return harness.device

        plain = run_table5(Table5Config(**self.MICRO))
        faulted = run_table5(
            Table5Config(backend_factory=faulty_backend, **self.MICRO)
        )
        assert format_table5(plain) == format_table5(faulted)
        for plain_row, faulted_row in zip(plain, faulted):
            for phase in ("insert", "seq_scan", "random_reads"):
                assert (
                    getattr(plain_row, phase).simulated_seconds
                    == getattr(faulted_row, phase).simulated_seconds
                ), f"{plain_row.approach} / {phase} drifted under the fault layer"

    def test_store_over_pass_through_disk_reads_identically(self):
        from repro.core.config import StoreConfig
        from repro.core.store import XMLStore

        config = StoreConfig(page_size=512, buffer_pool_capacity=8)
        plain = XMLStore.open(config)
        harness = build_fault_harness(
            FaultConfig(seed=0),
            MemoryBlockDevice(block_size=512),
        )
        faulted = XMLStore.open(config, device=harness.device)
        for store in (plain, faulted):
            root = store.load_document("<r/>")
            for index in range(20):
                store.insert_into_last(root, f"<e n='{index}'/>")
            store.checkpoint()
        assert faulted.read() == plain.read()
        assert faulted.simulated_seconds == plain.simulated_seconds


class TestMediaTorture:
    """Silent-corruption mode: the three-verdict media rounds."""

    def test_bitrot_rounds_pass_with_strict_content_equality(self):
        config = TortureConfig(
            seed=0, ops=8, bitrot=True, media_fault_rate=0.25, media_rounds=2
        )
        report = run_torture(config)
        assert report.ok
        assert report.failures == []
        assert report.tested_points == 2
        assert report.passthrough_identical

    def test_all_three_media_classes_pass(self):
        config = TortureConfig(
            seed=1, ops=8,
            bitrot=True, lost_writes=True, misdirected_writes=True,
            media_fault_rate=0.2, media_rounds=2,
        )
        report = run_torture(config)
        assert report.ok

    def test_dispatch_is_keyed_on_the_media_toggles(self):
        from repro.testing.torture import MediaTortureReport, TortureReport

        media = run_torture(
            TortureConfig(seed=0, ops=6, bitrot=True, media_rounds=1)
        )
        crash = run_torture(TortureConfig(seed=0, ops=6, crash_points=3))
        assert isinstance(media, MediaTortureReport)
        assert isinstance(crash, TortureReport)

    def test_media_report_shape_is_json_ready(self):
        config = TortureConfig(
            seed=3, ops=6, bitrot=True, media_fault_rate=0.25, media_rounds=2
        )
        payload = json.loads(json.dumps(run_torture(config).to_dict()))
        assert payload["mode"] == "media"
        assert payload["ok"] is True
        assert payload["failures"] == []
        assert payload["rounds"] and len(payload["rounds"]) == 2
        for round_payload in payload["rounds"]:
            assert {"round", "media_seed", "injected", "ok"} <= set(round_payload)
        assert payload["fault_classes"]["bitrot"] is True
        assert payload["fault_classes"]["lost_writes"] is False

    def test_media_render_names_the_verdict(self):
        config = TortureConfig(
            seed=3, ops=6, bitrot=True, media_fault_rate=0.25, media_rounds=1
        )
        text = run_torture(config).render()
        assert "no silent corruption reached a reader" in text

    def test_media_mode_requires_a_media_class(self):
        from repro.errors import StoreError
        from repro.testing.torture import run_media_torture

        with pytest.raises(StoreError):
            run_media_torture(TortureConfig(seed=0, ops=6))

    def test_rounds_are_reproducible(self):
        from repro.testing.torture import run_media_round

        config = TortureConfig(
            seed=5, ops=6, bitrot=True, media_fault_rate=0.25, media_rounds=1
        )
        from repro.testing.torture import run_baseline
        from dataclasses import replace

        trace = run_baseline(
            replace(config, bitrot=False, lost_writes=False,
                    misdirected_writes=False)
        )
        first = run_media_round(config, 0, trace)
        second = run_media_round(config, 0, trace)
        assert first.to_dict() == second.to_dict()

    def test_media_seed_flows_into_the_fault_config(self):
        config = TortureConfig(seed=2, ops=6, bitrot=True)
        assert config.fault_config(None).seed == 2
        assert config.fault_config(None, media_seed=77).seed == 77
        assert config.fault_config(None).bitrot
        assert not config.fault_config(None).lost_writes
