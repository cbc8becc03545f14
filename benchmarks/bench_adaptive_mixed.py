"""Benchmark: Ablation E — adaptivity across read/update mixes (§2.1).

Sweeps the read fraction of a mixed workload under fixed policies and the
adaptive controller.  Writes ``bench_results/adaptive_mixed.csv``.
Expected shape: the adaptive policy tracks the best fixed policy across
the whole sweep.
"""

from collections import defaultdict

from repro.bench.reporting import format_csv
from repro.bench.sweeps import run_adaptive_mixed

from conftest import write_artifact

READ_FRACTIONS = (0.05, 0.25, 0.5, 0.75, 0.95)


def test_adaptive_mixed_sweep(benchmark, results_dir):
    points = benchmark.pedantic(
        run_adaptive_mixed,
        kwargs={
            "read_fractions": READ_FRACTIONS,
            "operations": 200,
            "base_orders": 60,
            "pool_capacity": 16,
        },
        rounds=1,
        iterations=1,
    )
    by_fraction = defaultdict(dict)
    for p in points:
        by_fraction[p.read_fraction][p.policy] = p.simulated_seconds
    rows = [
        (
            fraction,
            round(policies["range"], 4),
            round(policies["range+partial"], 4),
            round(policies["eager-partial"], 4),
            round(policies["adaptive"], 4),
        )
        for fraction, policies in sorted(by_fraction.items())
    ]
    write_artifact(
        results_dir,
        "adaptive_mixed.csv",
        format_csv(
            [
                "read_fraction",
                "range_s",
                "range_partial_s",
                "eager_partial_s",
                "adaptive_s",
            ],
            rows,
        ),
    )
    for fraction, policies in sorted(by_fraction.items()):
        benchmark.extra_info[str(fraction)] = {
            name: round(seconds, 4) for name, seconds in policies.items()
        }
        # shape: adaptive within 1.5x of the best *lazy* fixed policy
        # everywhere (the eager strawman's entries survive inserts, and it
        # populated them at load time, outside the measured window)
        best_lazy = min(policies["range"], policies["range+partial"])
        assert policies["adaptive"] <= best_lazy * 1.5
    # and the lazy partial index beats the plain range index on both ends
    assert by_fraction[0.05]["range+partial"] < by_fraction[0.05]["range"]
    assert by_fraction[0.95]["range+partial"] < by_fraction[0.95]["range"]
