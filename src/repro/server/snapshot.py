"""Snapshot reads: a consistent committed view that never takes locks.

Read-only sessions must not queue behind writers' X locks (the whole
point of serving mixed traffic), so instead of S-locking their way
through the store they pin the *committed* state as of snapshot open:

* If no active transaction holds uncommitted changes, the live store
  **is** the committed state — the snapshot stays *lazy* (zero copy) and
  serves reads straight from the store until the moment a writer is
  about to mutate it, at which point the server's ``before_mutation``
  hook materializes the view (the lazy discipline the paper's title
  endorses: copy only when someone actually writes).
* If writers do hold changes, the snapshot materializes eagerly: it
  captures the live record sequence (with the real node ids, regenerated
  per range exactly like the locator does) and applies the writers'
  logical undo entries — the same inverses ``Transaction.abort`` runs —
  to a private :class:`~repro.concurrency.recorddoc.RecordDocument`,
  yielding the committed content.

Reads over the materialized model are exact in content *and* ids: the
undo entries record the original ids of any content they re-create, so
nodes a writer had deleted reappear in the snapshot under their
committed ids.

Degraded interaction: capturing walks real blocks, so a quarantined
block raises ``ChecksumError`` (the snapshot fails loudly rather than
fabricate content), and reads of ids a repair could not salvage raise
``NodeNotFoundError`` — absence, never wrong answers.
"""

from __future__ import annotations

from typing import List, Optional

from repro.concurrency.recorddoc import RecordDocument, capture_document

__all__ = ["Snapshot", "SnapshotManager"]


class Snapshot:
    """One read-only session's pinned view."""

    def __init__(self, manager: "SnapshotManager", model: Optional[RecordDocument]) -> None:
        self._manager = manager
        self._model = model
        self.closed = False

    @property
    def materialized(self) -> bool:
        return self._model is not None

    def _materialize_from_live(self) -> None:
        """Called by the manager the moment a writer is about to mutate:
        the live store still equals the committed state this snapshot
        pinned, so a plain capture suffices."""
        if self._model is None:
            self._model = capture_document(self._manager.store)

    def read(self, node_id: Optional[int] = None) -> str:
        if self._model is not None:
            return self._model.read(node_id)
        return self._manager.store.read(node_id)

    def exists(self, node_id: int) -> bool:
        if self._model is not None:
            return self._model.exists(node_id)
        return self._manager.store.exists(node_id)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._manager._forget(self)


class SnapshotManager:
    """Hands out snapshots and materializes the lazy ones just in time."""

    def __init__(self, store) -> None:
        self.store = store
        self._lazy: List[Snapshot] = []
        #: Materializations performed (lazy promotions + eager opens) —
        #: the "how often did laziness pay off" counter.
        self.materializations = 0
        self.lazy_opens = 0
        self.eager_opens = 0

    def open(self, active_transactions) -> Snapshot:
        """Pin the committed state.  ``active_transactions`` is the live
        transaction set (the manager's ``active`` dict values)."""
        dirty = [txn for txn in active_transactions if txn.has_changes]
        if not dirty:
            self.lazy_opens += 1
            snapshot = Snapshot(self, None)
            self._lazy.append(snapshot)
            return snapshot
        self.eager_opens += 1
        self.materializations += 1
        model = capture_document(self.store)
        # newest transaction's inverses first: under strict 2PL the
        # write sets are disjoint, so cross-transaction order cannot
        # matter, but a deterministic order keeps runs byte-identical
        for txn in sorted(dirty, key=lambda t: t.txn_id, reverse=True):
            for entry in reversed(txn.undo_entries):
                entry.apply(model, log=False)
        return Snapshot(self, model)

    def before_mutation(self) -> None:
        """A writer is about to change the store: promote every lazy
        snapshot to a materialized view of the still-committed state."""
        if not self._lazy:
            return
        for snapshot in self._lazy:
            snapshot._materialize_from_live()
            self.materializations += 1
        self._lazy.clear()

    def _forget(self, snapshot: Snapshot) -> None:
        if snapshot in self._lazy:
            self._lazy.remove(snapshot)
