"""Catch-up orchestration: retries, lag trace, divergence, resync.

:func:`catch_up` drives one replica to the primary's stream head through
a (possibly hostile) channel.  Each round fetches one batch from the
replica's cursor, heals what it can locally (duplicates are skipped by
the idempotent apply, a shuffled batch is re-sequenced, a truncated one
applies its intact prefix) and counts everything else as a retry against
the bounded policy — backoff accumulates on the *simulated* clock, so
the whole driver is wall-clock free and the lag trace is byte-identical
across runs of the same seed.

When the replica reaches the head and a primary store is available the
state digests are compared; a mismatch is a *divergence* — healed
automatically by re-seeding from the primary's committed WAL image (and
verified again), or raised as :class:`repro.errors.ReplicaDivergenceError`
when auto-resync is off.

The primary side keeps a small registry (``store.replicas.json``) of
configured replicas; :class:`ReplicationMonitor` projects registry +
per-replica checkpoints into the metrics the alert rules and the health
component read.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import (
    ReplicaDivergenceError,
    ReplicationChannelError,
    ReplicationGapError,
    ReplicationTimeoutError,
)
from repro.obs.schema import check_schema_version, stamp
from repro.replication.changestream import ChangeStream, decode_frames
from repro.replication.channel import ReplicationChannel, RetryPolicy
from repro.replication.digest import state_digest
from repro.replication.replica import Replica, read_checkpoint

#: Primary-side registry of configured replicas.
REPLICAS_FILE = "store.replicas.json"

#: A replica whose checkpoint trails the stream head by more operations is
#: *stale*: alert ``replication-stale``, health, ``repro lag``, diagnose.
STALE_AFTER_OPS = 128


# ---------------------------------------------------------------------------
# The replica registry (primary side)
# ---------------------------------------------------------------------------

def list_replicas(primary_dir: str) -> List[Dict[str, str]]:
    """Replicas registered on the primary in ``primary_dir``."""
    path = os.path.join(primary_dir, REPLICAS_FILE)
    if not os.path.exists(path):
        return []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return []
    check_schema_version(payload, f"replica registry {path}", required=False)
    return list(payload.get("replicas", []))


def register_replica(primary_dir: str, name: str, replica_dir: str) -> None:
    """Add (or update) one replica in the primary's registry, atomically."""
    replicas = [r for r in list_replicas(primary_dir) if r.get("name") != name]
    replicas.append({"name": name, "path": replica_dir})
    replicas.sort(key=lambda r: r["name"])
    payload = stamp({"replicas": replicas})
    path = os.path.join(primary_dir, REPLICAS_FILE)
    temporary = path + ".tmp"
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)


def stream_head_of(primary_dir: str) -> Optional[int]:
    """The primary's stream head, read from its WAL file without opening
    the store (the discipline diagnose/health follow: files only)."""
    from repro.core.filestore import WAL_FILE
    from repro.storage.wal import WriteAheadLog

    wal_path = os.path.join(primary_dir, WAL_FILE)
    if not os.path.exists(wal_path):
        return None
    with open(wal_path, "rb") as handle:
        image = handle.read()
    return ChangeStream(WriteAheadLog.from_bytes(image)).length()


# ---------------------------------------------------------------------------
# Catch-up
# ---------------------------------------------------------------------------

@dataclass
class CatchUpReport:
    """What one catch-up run did — stamped, byte-deterministic."""

    replica: str = "replica"
    started_cursor: int = 0
    final_cursor: int = 0
    head: int = 0
    applied: int = 0
    duplicates_skipped: int = 0
    gaps_detected: int = 0
    retries: int = 0
    backoff_seconds: float = 0.0
    fetches: int = 0
    faults_injected: int = 0
    faults_by_class: Dict[str, int] = field(default_factory=dict)
    resyncs: int = 0
    converged: bool = False
    digest_checked: bool = False
    digest_match: Optional[bool] = None
    lag_trace: List[Dict[str, float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return stamp(
            {
                "replica": self.replica,
                "started_cursor": self.started_cursor,
                "final_cursor": self.final_cursor,
                "head": self.head,
                "applied": self.applied,
                "duplicates_skipped": self.duplicates_skipped,
                "gaps_detected": self.gaps_detected,
                "retries": self.retries,
                "backoff_seconds": round(self.backoff_seconds, 9),
                "fetches": self.fetches,
                "faults_injected": self.faults_injected,
                "faults_by_class": dict(sorted(self.faults_by_class.items())),
                "resyncs": self.resyncs,
                "converged": self.converged,
                "digest_checked": self.digest_checked,
                "digest_match": self.digest_match,
                "lag_trace": self.lag_trace,
            }
        )


def catch_up(
    channel: ReplicationChannel,
    replica: Replica,
    primary_store=None,
    *,
    batch_size: int = 64,
    retry: Optional[RetryPolicy] = None,
    auto_resync: bool = True,
    source: str = "",
) -> CatchUpReport:
    """Drive ``replica`` to the channel's stream head; returns the report.

    Raises :class:`repro.errors.ReplicationTimeoutError` when one batch
    exhausts the retry budget without progress (the replica's checkpoint
    is already committed — a later run resumes from it), and
    :class:`repro.errors.ReplicaDivergenceError` when the digests differ
    and auto-resync is off or failed.  Raised errors carry the partial
    report on their ``report`` attribute.
    """
    retry = retry or RetryPolicy()
    report = CatchUpReport(
        replica=replica.name,
        started_cursor=replica.cursor,
        final_cursor=replica.cursor,
    )
    applied_before = replica.applied
    duplicates_before = replica.duplicates_skipped
    attempt = 0
    round_no = 0
    while True:
        head = channel.head()
        report.head = head
        if replica.cursor >= head:
            break
        round_no += 1
        progressed = False
        try:
            records, _clean = decode_frames(channel.fetch(replica.cursor, batch_size))
        except ReplicationChannelError:
            records = []
        # re-sequence: a shuffled or duplicated batch is healed locally;
        # only records genuinely missing below the highest delivered seq
        # remain as a gap
        records = sorted(
            {record.seq: record for record in records}.values(),
            key=lambda record: record.seq,
        )
        for record in records:
            try:
                if replica.apply(record):
                    progressed = True
            except ReplicationGapError:
                report.gaps_detected += 1
                break
        report.applied = replica.applied - applied_before
        report.duplicates_skipped = replica.duplicates_skipped - duplicates_before
        report.final_cursor = replica.cursor
        report.lag_trace.append(
            {
                "round": round_no,
                "cursor": replica.cursor,
                "head": head,
                "lag": head - replica.cursor,
                "retries": report.retries,
                "backoff_seconds": round(report.backoff_seconds, 9),
            }
        )
        if progressed:
            attempt = 0
            replica.write_checkpoint(source=source)
            continue
        attempt += 1
        report.retries += 1
        if attempt >= retry.max_attempts:
            _finish_counters(report, channel)
            error = ReplicationTimeoutError(
                f"replica {replica.name!r} made no progress in "
                f"{retry.max_attempts} attempts at cursor {replica.cursor} "
                f"(head {head}) — checkpoint committed, rerun to resume"
            )
            error.report = report
            raise error
        report.backoff_seconds += retry.delay(attempt)

    _finish_counters(report, channel)
    report.converged = True
    if primary_store is not None:
        report.digest_checked = True
        report.digest_match = state_digest(primary_store) == state_digest(
            replica.store
        )
        if not report.digest_match:
            if not auto_resync:
                error = ReplicaDivergenceError(
                    f"replica {replica.name!r} diverged from the primary at "
                    f"cursor {replica.cursor} and auto-resync is disabled"
                )
                error.report = report
                raise error
            report.resyncs += 1
            replica.reseed(primary_store.wal.to_bytes(), source=source)
            report.final_cursor = replica.cursor
            report.digest_match = state_digest(primary_store) == state_digest(
                replica.store
            )
            if not report.digest_match:
                error = ReplicaDivergenceError(
                    f"replica {replica.name!r} still diverges after resync — "
                    f"the primary's WAL no longer reproduces its state"
                )
                error.report = report
                raise error
    replica.write_checkpoint(source=source)
    return report


def _finish_counters(report: CatchUpReport, channel: ReplicationChannel) -> None:
    report.fetches = channel.fetches
    report.faults_injected = channel.faults_injected
    report.faults_by_class = {
        name: count
        for name, count in channel.injected_by_class.items()
        if count
    }


# ---------------------------------------------------------------------------
# Observability projection (primary side)
# ---------------------------------------------------------------------------

@dataclass
class ReplicaLag:
    name: str
    path: str
    cursor: int
    lag: int
    stale: bool
    has_checkpoint: bool


class ReplicationMonitor:
    """Projects registry + checkpoints into metric-shaped numbers.

    Attached to a primary store as ``store.replication`` (by
    :func:`repro.core.filestore.open_directory` when the store has a
    replica registry), mirroring how the serving layer hangs off
    ``store.server``.  Everything is recomputed per call from the
    in-process WAL and the replicas' persisted checkpoints — no caches
    to go stale.
    """

    def __init__(self, store, primary_dir: str) -> None:
        self.store = store
        self.primary_dir = primary_dir

    def head(self) -> int:
        return ChangeStream(self.store.wal).length()

    def replica_lags(self) -> List[ReplicaLag]:
        head = self.head()
        lags: List[ReplicaLag] = []
        for entry in list_replicas(self.primary_dir):
            checkpoint = read_checkpoint(entry.get("path", ""))
            cursor = int(checkpoint["cursor"]) if checkpoint else 0
            lag = max(0, head - cursor)
            lags.append(
                ReplicaLag(
                    name=entry.get("name", "?"),
                    path=entry.get("path", ""),
                    cursor=cursor,
                    lag=lag,
                    stale=lag > STALE_AFTER_OPS,
                    has_checkpoint=checkpoint is not None,
                )
            )
        return lags

    def snapshot(self) -> dict:
        """The numbers the bridge exports.

        ``apply_progress`` encodes three states for the absence rule:
        no replicas configured → the gauge is absent (reads 0, above the
        rule's -1.0 bound); configured but some replica stale → -1.0
        (fires); all replicas progressing → 1 + total applied (clears).
        """
        lags = self.replica_lags()
        applied_total = sum(lag.cursor for lag in lags)
        max_lag = max((lag.lag for lag in lags), default=0)
        stalled = any(lag.stale for lag in lags)
        return {
            "replicas": len(lags),
            "lag_ops": max_lag,
            "applied_total": applied_total,
            "apply_progress": -1.0 if stalled else 1.0 + applied_total,
            "stalled": stalled,
        }
