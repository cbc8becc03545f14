"""Group commit: many committing transactions, one sync barrier.

Under redo buffering a commit appends exactly one ``TXN_COMMIT`` frame
with ``sync=False`` — volatile until a barrier.  Committing sessions
park here; the scheduler flushes the queue when the batch is full or
when nothing else can run (the classic group-commit policy: absorb
commits while there is other work to do, then pay one barrier for the
whole batch).  The WAL tracks ``group_commits`` and the drained batch
sizes, which the bridge exports as ``repro_wal_group_commits_total``
and the ``repro_wal_group_commit_batch_size`` histogram.
"""

from __future__ import annotations

from typing import List


class GroupCommitQueue:
    """Parks committing sessions until the shared barrier."""

    def __init__(self, wal, max_batch: int = 8) -> None:
        self.wal = wal
        self.max_batch = max_batch
        self.waiting: List[object] = []
        #: Barriers issued by :meth:`flush` (≥1 frame drained).
        self.flushes = 0

    def enqueue(self, session) -> bool:
        """Register a committed session awaiting durability.

        Returns True when the session must wait for the barrier; False
        when it is already durable (it wrote nothing, or its frame was
        synced eagerly by the per-commit discipline)."""
        if self.wal.pending_frames == 0:
            session.durable = True
            return False
        self.waiting.append(session)
        return True

    @property
    def should_flush(self) -> bool:
        return len(self.waiting) >= self.max_batch

    def flush(self, reason: str = "idle") -> int:
        """Pay one barrier for everything pending; wake the waiters."""
        frames = self.wal.sync()
        batch = len(self.waiting)
        for session in self.waiting:
            session.durable = True
        self.waiting.clear()
        if frames:
            self.flushes += 1
            # the WAL's event log is the store's (the store attaches it)
            if self.wal.event_log.enabled:
                self.wal.event_log.emit(
                    "server", "group_commit_flush",
                    frames=frames, sessions=batch, reason=reason,
                )
        return frames


class PerCommitQueue:
    """The degenerate discipline (``server_group_commit=False``): every
    commit synced its own frame already, so nobody ever waits.  Exists so
    the bench can compare barrier counts at equal committed work."""

    max_batch = 1

    def __init__(self, wal) -> None:
        self.wal = wal
        self.waiting: List[object] = []
        self.flushes = 0

    def enqueue(self, session) -> bool:
        # commit_sync=True already paid the barrier inside append()
        self.wal.sync()
        session.durable = True
        return False

    @property
    def should_flush(self) -> bool:
        return False

    def flush(self, reason: str = "idle") -> int:
        return self.wal.sync()
