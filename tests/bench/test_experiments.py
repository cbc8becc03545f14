"""Integration tests: each experiment runs (at toy scale) and the headline
shape properties hold where they are scale-independent."""

import pytest

from repro.bench.sweeps import (
    run_adaptive_mixed,
    run_granularity_sweep,
    run_id_scheme_comparison,
    run_lazy_vs_eager,
    run_partial_capacity_sweep,
)
from repro.bench.table5 import APPROACHES, Table5Config, run_row
from repro.bench.reporting import format_table5


class TestTable5Machinery:
    def test_single_row_runs(self):
        config = Table5Config(
            base_orders=15, insert_orders=3, random_reads=20, pool_capacity=8
        )
        approach, policy, granularity = APPROACHES[3]
        row = run_row(approach, policy, granularity, config)
        assert row.insert.kb_per_second > 0
        assert row.seq_scan.kb_per_second > 0
        assert row.random_reads.kb_per_second > 0

    def test_format_table5(self):
        config = Table5Config(
            base_orders=10, insert_orders=2, random_reads=10, pool_capacity=8
        )
        approach, policy, granularity = APPROACHES[2]
        row = run_row(approach, policy, granularity, config)
        text = format_table5([row])
        assert "Indexing approach" in text
        assert "coarse" in text


class TestGranularitySweep:
    def test_range_counts_track_granularity(self):
        points = run_granularity_sweep(
            range_sizes=(32, None), base_orders=20, insert_orders=2, reads=10,
            pool_capacity=8,
        )
        granular, coarse = points
        assert granular.ranges > coarse.ranges
        assert coarse.ranges == 1


class TestPartialCapacitySweep:
    def test_hit_rate_grows_with_capacity(self):
        points = run_partial_capacity_sweep(
            capacities=(0, 4, None), base_orders=30, reads=100, pool_capacity=8
        )
        rates = [p.hit_rate for p in points]
        assert rates[0] == 0.0
        assert rates[2] >= rates[1] >= 0.0
        assert rates[2] > 0.3

    def test_unbounded_capacity_beats_none(self):
        points = run_partial_capacity_sweep(
            capacities=(0, None), base_orders=40, reads=150, pool_capacity=8
        )
        none_cap, unbounded = points
        assert (
            unbounded.random_reads.kb_per_second
            > none_cap.random_reads.kb_per_second
        )


class TestLazyVsEager:
    def test_lazy_beats_eager_full(self):
        points = run_lazy_vs_eager(segment_counts=(10,))
        point = points[0]
        assert point.lazy_advantage > 1.5
        assert (
            point.lazy_insert.kb_per_second
            > point.eager_memory_insert.kb_per_second
        )

    def test_lazy_advantage_grows_with_segments(self):
        points = run_lazy_vs_eager(segment_counts=(10, 60))
        assert points[1].lazy_advantage > points[0].lazy_advantage


class TestIdSchemeComparison:
    def test_relabeling_costs(self):
        results = {r.scheme: r for r in run_id_scheme_comparison(
            siblings=50, middle_inserts=10)}
        assert results["sequential (store)"].labels_changed == 0
        assert results["ordpath"].labels_changed == 0
        assert results["dewey"].labels_changed > 0
        assert results["prepost"].labels_changed > 0
        # pre/post pays at least order-of of dewey's cost on flat siblings
        assert results["prepost"].labels_changed >= results["dewey"].labels_changed // 2


class TestAdaptiveMixed:
    def test_adaptive_tracks_best_policy(self):
        points = run_adaptive_mixed(
            read_fractions=(0.1, 0.9), operations=60, base_orders=15,
            pool_capacity=8,
        )
        by_key = {(p.read_fraction, p.policy): p.simulated_seconds for p in points}
        for fraction in (0.1, 0.9):
            # the best *lazy* fixed policy: the eager strawman's entries now
            # survive the inserts, and it populated them at load time,
            # outside the window measured here
            best_lazy = min(
                by_key[(fraction, "range")],
                by_key[(fraction, "range+partial")],
            )
            adaptive = by_key[(fraction, "adaptive")]
            assert adaptive <= best_lazy * 1.5  # tracks the winner
            assert by_key[(fraction, "eager-partial")] < by_key[(fraction, "range")]

    def test_partial_beats_plain_range_on_update_heavy_mix(self):
        """The Table-5 insight: updates also need lookups."""
        points = run_adaptive_mixed(
            read_fractions=(0.1,), operations=60, base_orders=15, pool_capacity=8
        )
        by_policy = {p.policy: p.simulated_seconds for p in points}
        assert by_policy["range+partial"] < by_policy["range"]
