"""Correctness checks: oracle, durability, replica convergence.

Each returns the number of failures it found, so every one of them counts
into ``failed_ops_ratio``; none is timed as part of a window.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

from repro.core.config import StoreConfig
from repro.core.filestore import close_directory, open_directory
from repro.core.store import XMLStore
from repro.errors import NodeNotFoundError, ReproError
from repro.replication import ChangeStream, Replica, ReplicationChannel, catch_up
from repro.storage.wal import WriteAheadLog
from repro.testing.reference import ReferenceStore

from perfbench.workload import READ, Op, marker


class Oracle(ReferenceStore):
    """The reference store, with its linear id search done by ``list.index``
    (same answer; the oracle replays thousands of ops per run)."""

    def _find(self, node_id: int) -> int:
        try:
            return self.ids.index(node_id)
        except ValueError:
            raise NodeNotFoundError(str(node_id)) from None


def check_oracle(
    document: str, warm_up: str, ops: Sequence[Op], outcomes: Sequence[object], final: str
) -> Tuple[int, str, List[str]]:
    """Mirror every executed op into the reference store.

    Returns ``(failures, expected final document, markers of acknowledged
    writes)``.  A read whose result differs from the oracle's is a failure;
    so is a warm-up or final whole-document read that differs.  Ops that
    already failed in the window (outcome ``None``) were counted there and
    are not mirrored.
    """
    oracle = Oracle()
    oracle.load_document(document)
    failures = 0
    if warm_up != oracle.read():
        failures += 1
    acknowledged: List[str] = []
    for index, ((kind, node, xml), outcome) in enumerate(zip(ops, outcomes)):
        if outcome is None:
            continue
        if kind == READ:
            if outcome != oracle.read(node):
                failures += 1
        else:
            oracle.insert_into_last(node, xml)
            acknowledged.append(marker(index))
    expected = oracle.read()
    if final != expected:
        failures += 1
    return failures, expected, acknowledged


def missing_writes(document: str, expected: str, acknowledged: Sequence[str]) -> int:
    """Acknowledged writes absent from ``document`` (each is a failure); a
    document that holds them all but still differs counts once."""
    missing = sum(1 for mark in acknowledged if mark not in document)
    if missing == 0 and document != expected:
        return 1
    return missing


@dataclass
class RecoveryCheck:
    failures: int
    records: int
    wall_s: float

    @property
    def replay_ops_per_s(self) -> float:
        return self.records / self.wall_s if self.wall_s > 0 else 0.0


def check_recovery(
    wal_image: bytes, config: StoreConfig, expected: str, acknowledged: Sequence[str]
) -> RecoveryCheck:
    """Crash recovery from only the bytes the WAL holds: every acknowledged
    write must be in the recovered document."""
    wal = WriteAheadLog.from_bytes(wal_image)
    records = ChangeStream(wal).length()
    start = perf_counter()
    try:
        document = XMLStore.recover(wal, config=config).read()
    except ReproError:
        return RecoveryCheck(max(1, len(acknowledged)), records, perf_counter() - start)
    wall_s = perf_counter() - start
    return RecoveryCheck(missing_writes(document, expected, acknowledged), records, wall_s)


def check_reopen(
    directory: str, store: XMLStore, config: StoreConfig, expected: str,
    acknowledged: Sequence[str],
) -> int:
    """Clean close, then re-open the directory: the same document."""
    close_directory(directory, store)
    reopened = open_directory(directory, config)
    try:
        return missing_writes(reopened.read(), expected, acknowledged)
    finally:
        close_directory(directory, reopened)


@dataclass
class CatchUp:
    failures: int
    applied: int
    fetches: int
    wall_s: float
    replica_document: str

    @property
    def ops_per_s(self) -> float:
        return self.applied / self.wall_s if self.wall_s > 0 else 0.0


def replica_catch_up(
    primary: XMLStore, config: StoreConfig, replica_dir: Optional[str]
) -> CatchUp:
    """A fresh replica catches up through the primary's change stream with
    no channel faults; accepted only if it converged with a matching digest.

    ``replica_dir`` set: a directory replica opened with ``config`` (the
    serve config), as ``repro replicate`` makes.  ``None``: an in-memory
    replica with the default config — the embedded workloads' stand-in, so
    the same metric exists on every workload at a bounded cost.
    """
    if replica_dir is not None:
        replica_store = open_directory(replica_dir, config)
    else:
        replica_store = XMLStore.open(StoreConfig())
    replica = Replica(replica_store, directory=replica_dir)
    channel = ReplicationChannel(ChangeStream(primary.wal))
    start = perf_counter()
    try:
        report = catch_up(
            channel, replica, primary_store=primary,
            batch_size=config.replication_batch_size, auto_resync=False,
        )
        wall_s = perf_counter() - start
        accepted = report.converged and report.digest_match
        document = replica.store.read()
        return CatchUp(0 if accepted else 1, report.applied, report.fetches, wall_s, document)
    except ReproError:
        return CatchUp(1, replica.applied, channel.fetches, perf_counter() - start, "")
    finally:
        if replica_dir is not None:
            close_directory(replica_dir, replica.store)
