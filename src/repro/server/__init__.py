"""Concurrent serving layer: sessions, group commit, snapshot reads.

The server multiplexes N logical clients over one
:class:`~repro.core.store.XMLStore` without threads: sessions are
generators advanced by a deterministic cooperative scheduler
(:mod:`repro.server.scheduler`), writers share sync barriers through
group commit (:mod:`repro.server.group_commit`), and read-only sessions
pin consistent lock-free views (:mod:`repro.server.snapshot`).  The
asyncio adapter (:mod:`repro.server.netadapter`) exposes the same core
over a real socket for ``repro serve`` / ``repro client``.
"""

from repro.concurrency.recorddoc import RecordDocument
from repro.server.group_commit import GroupCommitQueue, PerCommitQueue
from repro.server.scheduler import CooperativeScheduler, ScheduleStep
from repro.server.sessions import (
    MUTATING_OPS,
    READER_OPS,
    WRITER_OPS,
    ServerReport,
    ServerStats,
    Session,
    SessionOp,
    XMLServer,
)
from repro.server.snapshot import Snapshot, SnapshotManager

__all__ = [
    "CooperativeScheduler",
    "GroupCommitQueue",
    "MUTATING_OPS",
    "PerCommitQueue",
    "READER_OPS",
    "RecordDocument",
    "ScheduleStep",
    "ServerReport",
    "ServerStats",
    "Session",
    "SessionOp",
    "Snapshot",
    "SnapshotManager",
    "WRITER_OPS",
    "XMLServer",
]
