"""The benchmark's fixed vocabulary: workloads, metrics, bounds.

``BENCHMARK.json`` at the repo root is the driver-facing copy of this
catalogue (the self-test keeps the two in step); ``README.md`` explains
every row.  Nothing here measures anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: End-to-end: share of the base median by which the metric may worsen
    #: before ``compare`` calls it a regression.  None for per-layer metrics.
    bound: Optional[float] = None
    #: A deterministic function of (workload, seed, seconds): two runs with
    #: the same arguments must print the identical value.
    exact: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    policy: str               # IndexingPolicy member name
    pool_frames: int
    max_range_tokens: Optional[int]
    read_fraction: float
    hot_fraction: float
    hot_probability: float
    #: Mix-window ops per trial, per second of ``--seconds``: the work is
    #: fixed by the arguments and sized so that on this commit the timed
    #: windows of a run add up to about ``--seconds`` on a quiet host.
    mix_ops_per_s: float
    #: Whole-document reads of the scan window per trial, likewise.
    scan_passes_per_s: float
    served: bool = False


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="coarse_scan_reads",
        why="Range index only, coarse ranges, pool smaller than the data: "
            "locator scan, token decode and page decode-on-miss do the work",
        policy="RANGE", pool_frames=32, max_range_tokens=4096,
        read_fraction=0.8, hot_fraction=0.02, hot_probability=0.8,
        mix_ops_per_s=100.0, scan_passes_per_s=0.67,
    ),
    Workload(
        name="full_index_updates",
        why="Full index, 50/50 reads and inserts: per-node B+-tree upkeep, "
            "evictions and dirty write-backs sit beside the read path",
        policy="FULL", pool_frames=64, max_range_tokens=None,
        read_fraction=0.5, hot_fraction=0.10, hot_probability=0.8,
        mix_ops_per_s=80.0, scan_passes_per_s=0.67,
    ),
    Workload(
        name="lazy_partial_hot",
        why="Range plus lazy partial index, document fits the pool, hot set: "
            "p50 is a partial-index hit (fixed per-op cost), p95 the scan fallback",
        policy="RANGE_PLUS_PARTIAL", pool_frames=256, max_range_tokens=None,
        read_fraction=0.85, hot_fraction=0.02, hot_probability=0.95,
        mix_ops_per_s=133.4, scan_passes_per_s=0.67,
    ),
    Workload(
        name="served_replicated",
        why="repro serve's config on real files over a 127.0.0.1 socket, then "
            "replica catch-up: server, WAL fsync, obs and replication all run",
        policy="RANGE_PLUS_PARTIAL", pool_frames=64, max_range_tokens=None,
        read_fraction=0.85, hot_fraction=0.02, hot_probability=0.95,
        mix_ops_per_s=89.4, scan_passes_per_s=0.67,
        served=True,
    ),
)

WORKLOADS_BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "ops/s", "higher", 0.25),
    Metric("read_p50_ms", "ms", "lower", 0.25),
    Metric("read_p95_ms", "ms", "lower", 0.25),
    Metric("write_p50_ms", "ms", "lower", 0.25),
    Metric("write_p95_ms", "ms", "lower", 0.25),
    Metric("scan_tokens_per_s", "tokens/s", "higher", 0.25),
    Metric("sim_s", "s", "lower", 0.05, exact=True),
    Metric("stored_bytes_per_xml_byte", "ratio", "lower", 0.05, exact=True),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: End-to-end too, but in the benchmark's own report only — the driver's
#: list must hold metrics that every workload reports and that are never 0.
#: The catch-up rate exists on ``served_replicated`` alone (the driver sees
#: it as per-layer ``replication.catchup_ops_per_s``); the failure ratio is
#: 0 on a healthy run (the driver sees it as ``failed`` / ``attempted``).
REPLICA_CATCHUP = Metric("replica_catchup_ops_per_s", "ops/s", "higher", 0.25)
FAILED_OPS_RATIO = Metric("failed_ops_ratio", "ratio", "lower", 0.0, exact=True)


def _layer(name: str, unit: str, better: str = "lower", exact: bool = False) -> Metric:
    return Metric(name, unit, better, None, exact)


PER_LAYER: Tuple[Metric, ...] = (
    # xmltoken
    _layer("xmltoken.parse_self_s", "s"),
    _layer("xmltoken.serialize_self_s", "s"),
    _layer("xmltoken.decode_us_per_token", "us/token"),
    _layer("xmltoken.encode_us_per_token", "us/token"),
    _layer("xmltoken.tokens_decoded", "count", exact=True),
    # storage.pages
    _layer("pages.decode_self_s", "s"),
    _layer("pages.encode_self_s", "s"),
    _layer("pages.decodes", "count", exact=True),
    _layer("pages.from_bytes_us_per_page", "us/page"),
    _layer("pages.crc_us_per_page", "us/page"),
    # storage.buffer
    _layer("buffer.fetches", "count", exact=True),
    _layer("buffer.hit_ratio", "ratio", "higher", exact=True),
    _layer("buffer.evictions", "count", exact=True),
    _layer("buffer.dirty_writebacks", "count", exact=True),
    _layer("buffer.fetch_self_s", "s"),
    # storage.disk
    _layer("disk.reads", "count", exact=True),
    _layer("disk.writes", "count", exact=True),
    _layer("disk.bytes_written_per_xml_byte", "ratio", exact=True),
    _layer("disk.self_s", "s"),
    # storage.heap
    _layer("heap.records_self_s", "s"),
    _layer("heap.insert_self_s", "s"),
    _layer("heap.block_splits", "count", exact=True),
    # storage.wal
    _layer("wal.appends", "count", exact=True),
    _layer("wal.bytes_per_xml_byte", "ratio", exact=True),
    _layer("wal.sync_barriers", "count", exact=True),
    _layer("wal.append_self_s", "s"),
    _layer("wal.sync_self_s", "s"),
    _layer("wal.replay_ops_per_s", "ops/s", "higher"),
    # index.bptree
    _layer("bptree.probes", "count", exact=True),
    _layer("bptree.nodes_per_probe", "ratio", exact=True),
    _layer("bptree.entries_decoded", "count", exact=True),
    _layer("bptree.probe_self_s", "s"),
    _layer("bptree.update_self_s", "s"),
    _layer("bptree.leaf_decode_us_per_node", "us/node"),
    # core.locator
    _layer("locator.locates", "count", exact=True),
    _layer("locator.path_share.partial", "ratio", "higher", exact=True),
    _layer("locator.path_share.full", "ratio", "higher", exact=True),
    _layer("locator.path_share.scan", "ratio", exact=True),
    _layer("locator.tokens_scanned_per_locate", "ratio", exact=True),
    _layer("locator.scan_self_s", "s"),
    # core.partial_index
    _layer("partial.probes", "count", exact=True),
    _layer("partial.hit_ratio", "ratio", "higher", exact=True),
    _layer("partial.evictions", "count", exact=True),
    _layer("partial.probe_self_s", "s"),
    # core.range_index / core.full_index
    _layer("range_index.locate_self_s", "s"),
    _layer("full_index.lookup_self_s", "s"),
    _layer("full_index.update_self_s", "s"),
    _layer("full_index.entries_written_per_insert", "ratio", exact=True),
    # ids
    _layer("ids.next_id_us_per_token", "us/token"),
    # core.store
    _layer("store.read_self_s", "s"),
    _layer("store.write_self_s", "s"),
    _layer("store.ranges", "count", exact=True),
    _layer("store.range_splits", "count", exact=True),
    # server / concurrency
    _layer("server.request_self_s", "s"),
    _layer("server.snapshot_self_s", "s"),
    _layer("server.lock_waits", "count", exact=True),
    _layer("server.commits_per_barrier", "ratio", "higher", exact=True),
    _layer("server.sched_ops_per_s", "ops/s", "higher"),
    _layer("net.request_self_s", "s"),
    _layer("net.ping_rtt_ms", "ms"),
    _layer("net.bytes_per_request", "bytes", exact=True),
    # replication
    _layer("replication.records", "count", exact=True),
    _layer("replication.fetches", "count", exact=True),
    _layer("replication.catchup_ops_per_s", "ops/s", "higher"),
    _layer("replication.wire_encode_us_per_record", "us/record"),
    _layer("replication.wire_decode_us_per_record", "us/record"),
    _layer("replication.apply_self_s", "s"),
    _layer("replication.digest_self_s", "s"),
    # obs
    _layer("obs.on_over_off_ratio", "ratio"),
    _layer("obs.events_emitted", "count", exact=True),
    # the benchmark itself
    _layer("trace.overhead_ratio", "ratio"),
    _layer("trace.coverage_ratio", "ratio", "higher"),
    _layer("host.calib_loop_s", "s"),
)

END_TO_END_BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END}
PER_LAYER_BY_NAME: Dict[str, Metric] = {m.name: m for m in PER_LAYER}
