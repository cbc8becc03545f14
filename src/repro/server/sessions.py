"""Sessions and the serving front-end.

A :class:`Session` is one logical client: a program of
:class:`SessionOp` steps executed inside one transaction (writers) or
one snapshot (read-only sessions).  Sessions are coroutines — plain
generators — advanced one step at a time by the cooperative scheduler,
which is what makes every interleaving deterministic and replayable.

The writer loop implements the queued-wait discipline end to end: a
conflicting lock raises :class:`LockWaitError`, the session suspends
(its request stays in the lock manager's FIFO), and the scheduler
resumes it once the grant arrives, at which point the operation is
retried (the lock manager dedupes the re-request).  ``DeadlockError``
aborts the session deterministically — the victim is always the
requester whose enqueue closed the cycle.

:class:`XMLServer` multiplexes N sessions over one ``XMLStore`` with
admission control: up to ``server_max_sessions`` run concurrently,
up to ``server_max_queue_depth`` wait in the backlog, and everything
beyond that is shed with :class:`SessionLimitError` (counted, so the
alert engine sees overload as ``repro_server_sessions_shed_total``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.concurrency.transactions import TransactionManager
from repro.errors import (
    ConcurrencyError,
    DeadlockError,
    LockWaitError,
    SessionLimitError,
    StorageError,
    StoreError,
    TransactionStateError,
)

#: What a session op may fail with and still leave the server healthy:
#: logical store errors (missing nodes, invalid targets) and storage
#: degradation (quarantined blocks) — both abort the session, never the
#: scheduler.
_SESSION_OP_ERRORS = (StoreError, StorageError)
from repro.server.group_commit import GroupCommitQueue, PerCommitQueue
from repro.server.snapshot import SnapshotManager


@dataclass(frozen=True)
class SessionOp:
    """One step of a client program."""

    op: str
    node_id: Optional[int] = None
    xml: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {"op": self.op, "node_id": self.node_id, "xml": self.xml}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SessionOp":
        return cls(
            op=str(data.get("op", "")),
            node_id=data.get("node_id"),
            xml=str(data.get("xml", "")),
        )


#: Ops that change the store — the server materializes lazy snapshots
#: just before the first of these runs.
MUTATING_OPS = frozenset(
    {
        "load_document",
        "insert_before",
        "insert_after",
        "insert_into_first",
        "insert_into_last",
        "delete_node",
        "replace_node",
        "replace_content",
    }
)

#: Everything a writer program may contain.
WRITER_OPS = MUTATING_OPS | {"read", "xpath", "abort"}

#: Everything a read-only (snapshot) program may contain.
READER_OPS = frozenset({"read", "exists"})


class Session:
    """One logical client, driven step-by-step by the scheduler."""

    def __init__(
        self,
        server: "XMLServer",
        session_id: int,
        program,
        read_only: bool = False,
    ) -> None:
        self.server = server
        self.session_id = session_id
        self.program: List[SessionOp] = list(program)
        self.read_only = read_only
        self.txn = None
        self.snapshot = None
        self.results: List[object] = []
        #: None while running; "committed" / "aborted" / "deadlock" /
        #: "error" / "shed" once finished.
        self.outcome: Optional[str] = None
        self.error: Optional[str] = None
        #: Resource the session is suspended on (queued lock request).
        self.blocked_on: Optional[tuple] = None
        self.durable = False
        self.awaiting_durable = False
        self.ops_executed = 0
        self.lock_waits = 0
        self._gen = self._run()

    # -- scheduler interface ---------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.outcome is not None

    def runnable(self) -> bool:
        """Whether the scheduler may advance this session right now."""
        if self.finished:
            return False
        if self.awaiting_durable:
            return self.durable
        if self.blocked_on is not None and self.txn is not None:
            # suspended on a lock: resumable once the FIFO grant arrived
            return not self.server.transactions.locks.waiting_resources(
                self.txn.txn_id
            )
        return True

    def step(self) -> str:
        """Advance one scheduling step; returns a status label for the
        trace ("open" / "op" / "blocked" / "await-durable" / "done")."""
        try:
            return next(self._gen)
        except StopIteration:
            return "done"

    # -- the session program --------------------------------------------------

    def _run(self):
        if self.read_only and self.server.config.server_snapshot_reads:
            yield from self._run_snapshot_reader()
        else:
            yield from self._run_writer()

    def _run_snapshot_reader(self):
        server = self.server
        self.snapshot = server.snapshots.open(server.transactions.active.values())
        server.emit(
            "session_open",
            session=self.session_id,
            snapshot=True,
            materialized=self.snapshot.materialized,
        )
        yield "open"
        for op in self.program:
            try:
                if op.op == "read":
                    self.results.append(self.snapshot.read(op.node_id))
                elif op.op == "exists":
                    self.results.append(self.snapshot.exists(op.node_id))
                else:
                    raise ConcurrencyError(
                        f"op {op.op!r} is not valid in a read-only session"
                    )
            except _SESSION_OP_ERRORS as exc:
                # absence, never wrong answers: degraded/missing reads
                # surface as explicit error results
                self.results.append(("error", type(exc).__name__))
            self.ops_executed += 1
            server.stats.snapshot_reads += 1
            yield "op"
        self.snapshot.close()
        self._finish("committed")

    def _run_writer(self):
        server = self.server
        self.txn = server.transactions.begin()
        server.emit(
            "session_open",
            session=self.session_id,
            snapshot=False,
            txn=self.txn.txn_id,
        )
        yield "open"
        for op in self.program:
            if op.op == "abort":
                self._rollback(None, "aborted")
                return
            while True:
                try:
                    result = self._execute(op)
                    break
                except LockWaitError as exc:
                    self.blocked_on = exc.resource
                    self.lock_waits += 1
                    server.stats.lock_waits += 1
                    server.emit(
                        "session_blocked",
                        session=self.session_id,
                        txn=self.txn.txn_id,
                        resource=str(exc.resource),
                    )
                    yield "blocked"
                    self.blocked_on = None
                except DeadlockError as exc:
                    server.stats.deadlocks += 1
                    self._rollback(exc, "deadlock")
                    return
                except _SESSION_OP_ERRORS as exc:
                    server.stats.errors += 1
                    self._rollback(exc, "error")
                    return
            self.results.append(result)
            self.ops_executed += 1
            yield "op"
        wrote = self.txn.has_changes
        self.txn.commit()
        if wrote and server.group_commit.enqueue(self):
            self.awaiting_durable = True
            while not self.durable:
                yield "await-durable"
            self.awaiting_durable = False
        else:
            self.durable = True
        self._finish("committed")

    def _execute(self, op: SessionOp):
        if op.op not in WRITER_OPS:
            raise ConcurrencyError(f"unknown session op {op.op!r}")
        if op.op in MUTATING_OPS:
            # the live store is about to diverge from the committed
            # state: promote lazy snapshots while the two still agree
            self.server.snapshots.before_mutation()
        txn = self.txn
        if op.op == "read":
            return txn.read(op.node_id)
        if op.op == "xpath":
            return txn.xpath(op.xml)
        if op.op == "load_document":
            return txn.load_document(op.xml)
        if op.op == "delete_node":
            txn.delete_node(op.node_id)
            return None
        return getattr(txn, op.op)(op.node_id, op.xml)

    def _rollback(self, exc: Optional[Exception], outcome: str) -> None:
        try:
            if self.txn.has_changes:
                # defensive: lazy snapshots cannot coexist with a dirty
                # transaction, but undo does mutate the store
                self.server.snapshots.before_mutation()
            self.txn.abort()
        except TransactionStateError:  # pragma: no cover - defensive
            pass
        if exc is not None:
            self.error = f"{type(exc).__name__}: {exc}"
        self._finish(outcome)

    def _finish(self, outcome: str) -> None:
        self.outcome = outcome
        stats = self.server.stats
        stats.ops_executed += self.ops_executed
        if outcome == "committed":
            stats.sessions_committed += 1
        else:
            stats.sessions_aborted += 1
        self.server.emit(
            "session_close",
            severity="info",
            session=self.session_id,
            outcome=outcome,
            ops=self.ops_executed,
            error=self.error or "",
        )


@dataclass
class ServerStats:
    """Deterministic counters; the bridge exports them as
    ``repro_server_*`` metrics."""

    sessions_submitted: int = 0
    sessions_admitted: int = 0
    sessions_queued: int = 0
    sessions_shed: int = 0
    sessions_committed: int = 0
    sessions_aborted: int = 0
    deadlocks: int = 0
    errors: int = 0
    lock_waits: int = 0
    ops_executed: int = 0
    snapshot_reads: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class ServerReport:
    """What one scheduler run produced (see :meth:`XMLServer.run`)."""

    seed: int
    steps: int
    outcomes: Dict[int, str]
    results: Dict[int, List[object]]
    stats: Dict[str, int]
    group_commits: int
    group_commit_batches: List[int]
    sync_barriers: int
    trace: List[Tuple[int, int, str]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": "repro.server.report/v1",
            "seed": self.seed,
            "steps": self.steps,
            "outcomes": {str(k): v for k, v in self.outcomes.items()},
            "stats": self.stats,
            "group_commits": self.group_commits,
            "group_commit_batches": list(self.group_commit_batches),
            "sync_barriers": self.sync_barriers,
        }


class XMLServer:
    """Session front-end multiplexing logical clients over one store."""

    def __init__(self, store) -> None:
        self.store = store
        self.config = store.config
        self.transactions = TransactionManager(
            store, wait_on_conflict=True, redo_buffering=True
        )
        self.snapshots = SnapshotManager(store)
        if self.config.server_group_commit:
            # commits defer their barrier to the shared group flush
            self.transactions.commit_sync = False
            self.group_commit = GroupCommitQueue(
                store.wal, max_batch=self.config.server_group_commit_max_batch
            )
        else:
            self.group_commit = PerCommitQueue(store.wal)
        self.stats = ServerStats()
        #: Admitted sessions, scheduler-visible.
        self.sessions: List[Session] = []
        #: Submitted but waiting for a free slot.
        self.backlog: List[Session] = []
        self._next_session_id = 1
        # let the metrics bridge and EXPLAIN find the serving counters
        store.server = self

    # -- admission -------------------------------------------------------------

    @property
    def active_sessions(self) -> int:
        return sum(1 for s in self.sessions if not s.finished)

    def submit(self, program, read_only: bool = False) -> Session:
        """Admit (or queue, or shed) one client program."""
        self.stats.sessions_submitted += 1
        session = Session(self, self._next_session_id, program, read_only=read_only)
        self._next_session_id += 1
        if self.active_sessions < self.config.server_max_sessions:
            self.sessions.append(session)
            self.stats.sessions_admitted += 1
        elif len(self.backlog) < self.config.server_max_queue_depth:
            self.backlog.append(session)
            self.stats.sessions_queued += 1
        else:
            self.stats.sessions_shed += 1
            session.outcome = "shed"
            self.emit(
                "session_shed",
                severity="warning",
                session=session.session_id,
                active=self.active_sessions,
                backlog=len(self.backlog),
            )
            raise SessionLimitError(
                f"session {session.session_id} shed: "
                f"{self.active_sessions} active (max "
                f"{self.config.server_max_sessions}), backlog full "
                f"(max {self.config.server_max_queue_depth})"
            )
        return session

    def admit_from_backlog(self) -> None:
        while self.backlog and self.active_sessions < self.config.server_max_sessions:
            session = self.backlog.pop(0)
            self.sessions.append(session)
            self.stats.sessions_admitted += 1

    def retire_finished(self) -> None:
        """Forget sessions that have run to an outcome.

        :meth:`run` calls this once its report is built, so a long-lived
        server's admission, scheduling and reporting stay O(batch)
        instead of O(every session ever served).  The caller keeps the
        :class:`Session` objects it submitted, outcome and results
        included.
        """
        self.sessions = [s for s in self.sessions if not s.finished]

    # -- execution -------------------------------------------------------------

    def run(self, seed: int = 0, script=None, max_steps: int = 100_000) -> ServerReport:
        """Drive every admitted (and backlogged) session to completion
        under the cooperative scheduler; returns the run report.  The
        sessions it finished are retired afterwards, also when the
        scheduler raises, so each report covers one run."""
        from repro.server.scheduler import CooperativeScheduler

        scheduler = CooperativeScheduler(self, seed=seed, script=script)
        try:
            scheduler.run(max_steps=max_steps)
            return self.report(seed=seed, steps=scheduler.steps, trace=scheduler.trace)
        finally:
            self.retire_finished()

    def report(self, seed: int = 0, steps: int = 0, trace=None) -> ServerReport:
        wal = self.store.wal
        return ServerReport(
            seed=seed,
            steps=steps,
            outcomes={s.session_id: s.outcome for s in self.sessions},
            results={s.session_id: list(s.results) for s in self.sessions},
            stats=self.stats.to_dict(),
            group_commits=wal.group_commits,
            group_commit_batches=list(wal.group_commit_batches),
            sync_barriers=wal.sync_barriers,
            trace=list(trace or []),
        )

    # -- plumbing ----------------------------------------------------------------

    def emit(self, kind: str, severity: str = "debug", **fields) -> None:
        if self.store.event_log.enabled:
            self.store.event_log.emit("server", kind, severity=severity, **fields)
