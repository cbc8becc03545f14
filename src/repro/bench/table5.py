"""Table 5 reproduction: lazy indexing vs. the full-index strawman.

Paper (Table 5, kb/s on a 2005 Pentium 4 + MySQL prototype)::

    Indexing approach                              Insert  Seq.scan  Random
    Full Index (max. granularity)                   27.97   1150.59  672.22
    Range Index (many, granular entries)            97.xx   1496.47  136.98
    Range Index (few, coarse, large entries)        91.xx   1496.47   33.41
    Range Index (coarse) + Partial Index (memory)  182.xx   1496.47  994.36

Expected *shape* (what this reproduction checks — see EXPERIMENTS.md):

* full-index inserts are the slowest by a wide margin (index maintenance
  per node);
* range-index inserts are several times faster; coarse vs granular are in
  the same ballpark;
* adding the partial index makes inserts the *fastest* (target lookups
  are memoized) — the paper's headline;
* random reads: coarse alone is the slowest (scan per lookup), granular
  is several times better, full index is fast, coarse+partial is at least
  as fast as the full index;
* sequential scans are insensitive to range granularity and somewhat
  slower under the full index (its pages interleave with the data,
  breaking sequentiality).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.store import XMLStore
from repro.bench.harness import (
    PhaseResult,
    insert_phase,
    random_read_phase,
    sequential_scan_phase,
)
from repro.workloads.generator import purchase_order_stream, purchase_orders_document
from repro.workloads.operations import hot_cold_choices


@dataclass
class Table5Config:
    """Scale knobs for the Table 5 run."""

    #: orders in the bulk-loaded base document
    base_orders: int = 200
    #: items per order (~14 tokens each)
    items_per_order: int = 5
    #: orders appended during the insert phase
    insert_orders: int = 50
    #: point reads in the random-read phase.  The paper's partial index
    #: pays off on *repeated* access to the same logical positions ("a
    #: repeated search for the same logical position will benefit", §5),
    #: so the stream must be long relative to its hot set.
    random_reads: int = 400
    #: fraction of the id population that is "hot"
    hot_fraction: float = 0.02
    #: probability a read hits the hot set
    hot_probability: float = 0.95
    #: buffer pool frames — deliberately smaller than the document, so
    #: the full index's "very high storage requirements" (§4.1) show up
    #: as cache pollution, as they did on the paper's testbed
    pool_capacity: int = 24
    #: tokens per range in the "many, granular entries" row
    granular_tokens: int = 512
    #: profile each phase (telemetry + event log + EXPLAIN attachment on
    #: the phase rows).  Off by default: the disabled path must leave the
    #: simulated numbers byte-identical.
    events_enabled: bool = False
    #: attach a cost profile (call tree + component attribution, see
    #: :mod:`repro.obs.profiler`) to every phase row.  Same contract as
    #: ``events_enabled``: off by default, byte-identical numbers when on.
    profile: bool = False
    #: build each row's block device from this ``StoreConfig -> BlockDevice``
    #: callable instead of the default in-memory device.  The crash-
    #: consistency tests use it to run Table 5 over a pass-through
    #: :class:`~repro.storage.faults.FaultyDisk` and pin the numbers
    #: byte-identical (the fault layer's zero-cost contract).
    backend_factory: Optional[object] = None
    #: record workload-history snapshots (one per phase, plus the
    #: periodic interval captures; see :mod:`repro.obs.history`).  Off by
    #: default under the usual contract: history on or off, the simulated
    #: numbers are byte-identical (tests/bench/test_obs_zero_cost.py).
    history: bool = False
    #: evaluate the alert rows, SLO budgets among them (see
    #: :mod:`repro.obs.rules`), during the run.  Off by default under the
    #: same contract: alerts on or off, the simulated numbers are
    #: byte-identical (tests/bench/test_obs_zero_cost.py).
    alerts: bool = False
    #: keep the black-box flight recorder (see :mod:`repro.obs.recorder`)
    #: during the run.  Off by default under the same contract: recorder
    #: on or off, the simulated numbers are byte-identical
    #: (tests/bench/test_obs_zero_cost.py).
    recorder: bool = False
    #: write checksum-framed pages (see :mod:`repro.storage.pages`).  Off
    #: here — unlike the store default — so the benchmark numbers stay
    #: comparable with the committed pre-checksum baseline; the robustness
    #: tests flip it on and bound the overhead with the bench_compare
    #: tolerance instead (tests/bench/test_checksum_cost.py).
    checksums: bool = False
    seed: int = 7

    @classmethod
    def small(cls) -> "Table5Config":
        """A fast preset (≈10 s) that still reproduces the shape."""
        return cls(
            base_orders=120,
            insert_orders=12,
            random_reads=200,
            hot_fraction=0.02,
            pool_capacity=16,
            granular_tokens=256,
        )


@dataclass
class Table5Row:
    approach: str
    insert: PhaseResult
    seq_scan: PhaseResult
    random_reads: PhaseResult

    def cells(self) -> Tuple[str, float, float, float]:
        return (
            self.approach,
            self.insert.kb_per_second,
            self.seq_scan.kb_per_second,
            self.random_reads.kb_per_second,
        )


#: (row label, indexing policy, max_range_tokens) for the four approaches.
APPROACHES: List[Tuple[str, IndexingPolicy, Optional[str]]] = [
    ("Full Index (max. granularity)", IndexingPolicy.FULL, None),
    ("Range Index (many, granular entries)", IndexingPolicy.RANGE, "granular"),
    ("Range Index (few, coarse, large entries)", IndexingPolicy.RANGE, None),
    (
        "Range Index (coarse) + Partial Index (memory)",
        IndexingPolicy.RANGE_PLUS_PARTIAL,
        None,
    ),
]


def build_store(
    policy: IndexingPolicy, granularity: Optional[str], config: Table5Config
) -> Tuple[XMLStore, int]:
    """A store bulk-loaded with the base document under the row's config;
    returns (store, root id)."""
    store_config = StoreConfig(
        policy=policy,
        buffer_pool_capacity=config.pool_capacity,
        max_range_tokens=(
            config.granular_tokens if granularity == "granular" else None
        ),
        telemetry_enabled=config.events_enabled,
        events_enabled=config.events_enabled,
        profiling_enabled=config.profile,
        history_enabled=config.history,
        alerts_enabled=config.alerts,
        recorder_enabled=config.recorder,
        checksums_enabled=config.checksums,
    )
    device = (
        config.backend_factory(store_config)
        if config.backend_factory is not None
        else None
    )
    store = XMLStore.open(store_config, device=device)
    document = purchase_orders_document(
        config.base_orders, config.items_per_order, seed=config.seed
    )
    root = store.load_document(document)
    assert root is not None
    return store, root


def sample_read_ids(store: XMLStore, config: Table5Config) -> List[int]:
    """Node ids of "small pieces": the items of the base document, with a
    hot/cold skew so repeated lookups occur (what the partial index
    memoizes)."""
    item_ids = [node.node_id for node in store.xpath("/purchase-orders/purchase-order/item")]
    assert item_ids
    rng = random.Random(config.seed)
    rng.shuffle(item_ids)
    return hot_cold_choices(
        item_ids,
        config.random_reads,
        hot_fraction=config.hot_fraction,
        hot_probability=config.hot_probability,
        seed=config.seed,
    )


def run_row(
    approach: str,
    policy: IndexingPolicy,
    granularity: Optional[str],
    config: Table5Config,
) -> Table5Row:
    """Run the three phases for one indexing approach."""
    # --- insert phase (fresh store, bulk base, then measured appends)
    store, root = build_store(policy, granularity, config)
    fragments = list(
        purchase_order_stream(
            config.insert_orders,
            config.items_per_order,
            seed=config.seed + 1,
            start_no=config.base_orders,
        )
    )
    insert_result = insert_phase(store, root, fragments)
    # --- sequential scan (fresh store so inserts don't change the data)
    store, _ = build_store(policy, granularity, config)
    scan_result = sequential_scan_phase(store)
    # --- random reads (same store, cold cache, skewed id stream)
    read_ids = sample_read_ids(store, config)
    read_result = random_read_phase(store, read_ids)
    return Table5Row(approach, insert_result, scan_result, read_result)


def run_table5(config: Optional[Table5Config] = None) -> List[Table5Row]:
    """Regenerate all four rows of Table 5."""
    config = config if config is not None else Table5Config()
    return [
        run_row(approach, policy, granularity, config)
        for approach, policy, granularity in APPROACHES
    ]


def check_shape(rows: List[Table5Row]) -> List[str]:
    """Validate the paper's qualitative claims; returns violated claims
    (empty = the shape reproduces)."""
    by_name = {row.approach: row for row in rows}
    full = by_name["Full Index (max. granularity)"]
    granular = by_name["Range Index (many, granular entries)"]
    coarse = by_name["Range Index (few, coarse, large entries)"]
    partial = by_name["Range Index (coarse) + Partial Index (memory)"]
    claims = [
        (
            "full-index inserts are the slowest",
            full.insert.kb_per_second
            < min(r.insert.kb_per_second for r in (granular, coarse, partial)),
        ),
        (
            "partial index gives the fastest inserts",
            partial.insert.kb_per_second
            > max(r.insert.kb_per_second for r in (full, granular, coarse)),
        ),
        (
            "coarse ranges alone give the slowest random reads",
            coarse.random_reads.kb_per_second
            < min(
                r.random_reads.kb_per_second for r in (full, granular, partial)
            ),
        ),
        (
            "granular ranges beat coarse on random reads",
            granular.random_reads.kb_per_second
            > coarse.random_reads.kb_per_second,
        ),
        (
            "partial index random reads at least match the full index",
            partial.random_reads.kb_per_second
            >= full.random_reads.kb_per_second,
        ),
        (
            "sequential scans are insensitive to range granularity (±25%)",
            abs(
                granular.seq_scan.kb_per_second - coarse.seq_scan.kb_per_second
            )
            <= 0.25 * coarse.seq_scan.kb_per_second,
        ),
        (
            "full index does not beat range variants on sequential scan",
            full.seq_scan.kb_per_second
            <= 1.10 * coarse.seq_scan.kb_per_second,
        ),
    ]
    return [name for name, holds in claims if not holds]
