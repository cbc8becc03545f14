"""Store configuration: the adaptivity knobs the paper argues for.

The paper's thesis is that one fixed indexing strategy cannot fit every
XML usage pattern (§2.1), so the store must expose *which* structures it
maintains — and how eagerly — as configuration, with an adaptive mode that
tunes itself to the observed workload.  :class:`IndexingPolicy` names the
four strategies compared in Table 5 plus the adaptive controller, and
:class:`StoreConfig` carries the knobs the benchmarks and the CLI turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


class IndexingPolicy(Enum):
    """Which location structures the store maintains.

    ``FULL``
        Every node id is indexed eagerly in a disk-based B+-tree (the
        paper's strawman, Table 5 row 1): fastest random reads, slowest
        inserts, highest storage overhead.
    ``RANGE``
        Only the coarse Range Index (Table 5 rows 2–3): one entry per
        insert unit.  Cheap updates; random reads pay a range scan.
    ``RANGE_PLUS_PARTIAL``
        Range Index plus the lazy, memory-based Partial Index (Table 5
        row 4): lookup results are memoized so repeated access to the same
        logical positions skips the scan — "the advantages of the full
        index, but only when needed" (§5).
    ``ADAPTIVE``
        Starts as RANGE_PLUS_PARTIAL and switches partial-index population
        on/off based on the observed read/update mix (§2.1, §9).
    """

    FULL = "full"
    RANGE = "range"
    RANGE_PLUS_PARTIAL = "range+partial"
    ADAPTIVE = "adaptive"


@dataclass
class StoreConfig:
    """The store's tuning knobs, with paper-faithful defaults.

    Each field is set by some non-test caller (the CLI, a benchmark, an
    example; ``tests/test_config_knobs.py`` checks).  A value nothing
    varies is a constant in the one module that uses it instead.
    """

    #: Block/page size in bytes for data, range-index and full-index pages.
    page_size: int = 4096

    #: Buffer-pool frames shared by data blocks and index blocks.
    buffer_pool_capacity: int = 64

    #: Which index structures to maintain (see :class:`IndexingPolicy`).
    policy: IndexingPolicy = IndexingPolicy.RANGE_PLUS_PARTIAL

    #: Maximum entries held by the (memory-based) partial index; the
    #: least-recently-used entry is evicted beyond this.  ``None`` = unbounded.
    partial_index_capacity: Optional[int] = 4096

    #: Populate partial-index entries for *every* node at insert time
    #: instead of lazily on first lookup.  This is the "eager segment
    #: indexing" strawman of Ablation C (Catania et al. comparison, §8);
    #: the paper's store keeps it False.
    eager_partial_index: bool = False

    #: Split bulk inserts into ranges of at most this many tokens.  ``None``
    #: keeps the paper's rule — one insert operation, one range.  The
    #: granularity sweep (Ablation A) sets it explicitly.
    max_range_tokens: Optional[int] = None

    #: Frame every block image with a self-verifying checksum header
    #: (CRC32 over payload + block number; see
    #: :class:`repro.storage.pages.PageCodec`).  Catches bit rot and
    #: misdirected writes on fetch at the cost of 8 payload bytes per
    #: block.  The on-page format of a persisted store is recorded in its
    #: catalog; this flag only chooses the format for *new* stores, and a
    #: legacy (pre-checksum) catalog always opens via the raw read path.
    checksums_enabled: bool = True

    #: ADAPTIVE policy: number of recent operations considered.
    adaptive_window: int = 256

    #: Record tracing spans and span metrics (see :mod:`repro.obs`).
    #: Off by default: the benchmarks must measure the store, not the
    #: telemetry, so the disabled facade hands out shared null spans.
    telemetry_enabled: bool = False

    #: Record structured events (see :mod:`repro.obs.events`): the per-
    #: operation fact stream EXPLAIN reports are assembled from.  Off by
    #: default for the same reason as telemetry.
    events_enabled: bool = False

    #: Record per-block access counts in the buffer pool (see
    #: :mod:`repro.obs.heatmap`).  Off by default.
    heatmap_enabled: bool = False

    #: Build deterministic cost profiles (see :mod:`repro.obs.profiler`).
    #: Implies live telemetry spans (the profiler folds them into its
    #: call tree).  Off by default under the same contract as the rest of
    #: :mod:`repro.obs`: the simulated numbers are byte-identical with
    #: profiling on or off (``tests/bench/test_obs_zero_cost.py``).
    profiling_enabled: bool = False

    #: Record workload-history snapshots (see :mod:`repro.obs.history`):
    #: the longitudinal telemetry the drift detector and tuning advisor
    #: read.  Off by default under the same zero-cost contract as the
    #: rest of :mod:`repro.obs`.
    history_enabled: bool = False

    #: Evaluate the deterministic alert rows of :mod:`repro.obs.rules`,
    #: SLO budgets among them, on the watch tick.  Off by default
    #: under the same zero-cost contract as the rest of
    #: :mod:`repro.obs`: evaluation only reads counters, and the
    #: disabled engine keeps the hot path at one attribute check.
    alerts_enabled: bool = False

    #: Keep a black-box flight recorder (see :mod:`repro.obs.recorder`):
    #: a bounded ring of recent events, alert transitions and metric
    #: counter-delta frames that incident bundles dump on failure.  Off
    #: by default under the zero-cost contract (the disabled recorder
    #: keeps the hot path at one attribute check).
    recorder_enabled: bool = False

    #: Directory the observers persist into: the journal
    #: (:mod:`repro.obs.journal`) and the incident bundles.  ``None``
    #: keeps both in memory; :func:`repro.core.filestore.open_directory`
    #: and the CLI's repair-mode open point it at the store's own
    #: directory.
    artifacts_dir: Optional[str] = None

    #: Serving layer (:mod:`repro.server`): logical sessions allowed to
    #: run concurrently under the cooperative scheduler.
    server_max_sessions: int = 8

    #: Sessions allowed to wait in the admission backlog once every slot
    #: is taken; beyond this, submissions are shed deterministically with
    #: :class:`repro.errors.SessionLimitError` (counted in
    #: ``repro_server_sessions_shed_total``).
    server_max_queue_depth: int = 16

    #: Group-commit WAL batching: committing transactions defer their
    #: frame's sync and share one barrier per batch.  False reverts to
    #: the per-commit discipline (every commit pays its own barrier) —
    #: the baseline the group-commit bench compares against.
    server_group_commit: bool = True

    #: Commits absorbed into one batch before the group flushes eagerly
    #: (it also flushes whenever no session is runnable).
    server_group_commit_max_batch: int = 8

    #: Read-only sessions pin lock-free snapshot views instead of taking
    #: S locks (see :mod:`repro.server.snapshot`).  False makes them
    #: ordinary transactions that queue behind writers.
    server_snapshot_reads: bool = True

    #: Change records fetched per channel round trip during catch-up.
    replication_batch_size: int = 64

    def __post_init__(self) -> None:
        if self.page_size < 256:
            raise ValueError("page_size must be at least 256 bytes")
        if self.buffer_pool_capacity < 4:
            raise ValueError("buffer_pool_capacity must be at least 4")
        if self.partial_index_capacity is not None and self.partial_index_capacity < 1:
            raise ValueError("partial_index_capacity must be positive or None")
        if self.max_range_tokens is not None and self.max_range_tokens < 4:
            raise ValueError("max_range_tokens must be at least 4 or None")
        if self.server_max_sessions < 1:
            raise ValueError("server_max_sessions must be at least 1")
        if self.server_max_queue_depth < 0:
            raise ValueError("server_max_queue_depth must be >= 0")
        if self.server_group_commit_max_batch < 1:
            raise ValueError("server_group_commit_max_batch must be at least 1")
        if self.replication_batch_size < 1:
            raise ValueError("replication_batch_size must be at least 1")
