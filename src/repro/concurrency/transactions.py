"""Transactions over the store: strict 2PL + logical undo (paper §9).

A :class:`TransactionManager` wraps one :class:`~repro.core.store.XMLStore`
with the hierarchical lock manager.  Each :class:`Transaction` offers the
store's Table-1 operations; reads take S locks on the ranges they touch,
updates take X locks, and every operation records its logical inverse so
``abort()`` restores the store's *content* (note: aborting restores
content, not node identifiers — replacements re-allocate ids, which the
paper's stable-id contract permits since ids are never reused).

Locks are held until commit/abort (strict two-phase locking).  Two
conflict disciplines exist:

* ``wait_on_conflict=False`` (the default) fails fast with
  :class:`ConcurrencyError`, matching the deterministic single-threaded
  test harness;
* ``wait_on_conflict=True`` queues the request in the lock manager's
  FIFO (with deadlock detection) and raises :class:`LockWaitError` —
  the caller suspends and retries the operation once the grant arrives.
  The serving layer's cooperative scheduler drives exactly this loop.

Logging disciplines also come in two flavors.  By default every store
operation appends (and syncs) its own WAL record as it executes.  Under
``redo_buffering=True`` — what the server's group commit needs — active
transactions log nothing; at commit the whole operation list becomes one
``TXN_COMMIT`` frame (see :mod:`repro.storage.txnlog`), so a crashed
group commit can only lose whole transactions.  Aborted transactions
append their do+undo pair, which is a content no-op but reproduces the
id allocation exactly, keeping recovery's replay byte-compatible with
the live store.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.errors import LockWaitError, TransactionStateError
from repro.concurrency.locks import (
    LockManager,
    LockMode,
    STORE_RESOURCE,
    range_resource,
)
from repro.concurrency.tokendoc import TokenDocument, capture_subtree
from repro.core.store import XMLStore
from repro.storage.recovery import encode_op_payload
from repro.storage.txnlog import CommitOp, encode_commit
from repro.storage.wal import RecordType
from repro.xmltoken.binary import DEPTH_STEP, KIND_MASK, STARTS_NODE
from repro.xmltoken.parser import parse_records


class TxnState(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(frozen=True)
class UndoEntry:
    """One logical inverse, as data.

    ``kind`` + ``args`` describe the inverse operation abstractly so
    consumers other than :meth:`Transaction.abort` — the snapshot-read
    materializer in :mod:`repro.server.snapshot` — can apply it to their
    own document model:

    * ``("uninsert", (top_ids,))`` — delete each inserted top-level node;
    * ``("reinsert", (xml, anchor_kind, anchor_id, ids))`` — put a deleted
      subtree back (before a sibling / as last child / at top level);
    * ``("unreplace", (new_id, old_xml, ids))`` — swap a replacement back;
    * ``("restore_content", (node_id, old_content, ids))`` — restore an
      element's children.

    Entries that re-create content also record the original node ids of
    that content (document order).  The live store ignores them — ids
    are never reused, so an abort re-allocates — but consumers replaying
    the inverse over a :class:`~repro.concurrency.tokendoc.TokenDocument`
    (the snapshot materializer, and the transaction's own undo
    composition) restore the content under its exact original ids, which
    is what lets *later* entries keep addressing nodes by id.
    """

    kind: str
    args: tuple
    description: str

    def apply(self, store, log: bool = True) -> None:
        """Run the inverse against a live store or a TokenDocument."""
        with_ids = getattr(store, "accepts_ids", False)
        if self.kind == "uninsert":
            (top_ids,) = self.args
            for top_id in top_ids:
                store.delete_node(top_id, log=log)
        elif self.kind == "reinsert":
            xml_text, anchor_kind, anchor_id, ids = self.args
            kwargs = {"ids": ids} if with_ids else {}
            if anchor_kind == "before" and anchor_id is not None:
                store.insert_before(anchor_id, xml_text, log=log, **kwargs)
            elif anchor_kind == "into_last" and anchor_id is not None:
                store.insert_into_last(anchor_id, xml_text, log=log, **kwargs)
            else:
                store.load_document(xml_text, log=log, **kwargs)
        elif self.kind == "unreplace":
            new_id, old_xml, ids = self.args
            kwargs = {"ids": ids} if with_ids else {}
            store.replace_node(new_id, old_xml, log=log, **kwargs)
        elif self.kind == "restore_content":
            node_id, old_content, ids = self.args
            kwargs = {"ids": ids} if with_ids else {}
            store.replace_content(node_id, old_content, log=log, **kwargs)
        else:  # pragma: no cover - defensive
            raise TransactionStateError(f"unknown undo kind {self.kind!r}")

    def as_ops(self) -> List[Tuple[int, int, str]]:
        """The inverse as (record_type, node_id, xml) store calls — what
        redo buffering appends for aborted transactions."""
        if self.kind == "uninsert":
            (top_ids,) = self.args
            return [(RecordType.DELETE_NODE, top_id, "") for top_id in top_ids]
        if self.kind == "reinsert":
            xml_text, anchor_kind, anchor_id = self.args[:3]
            if anchor_kind == "before" and anchor_id is not None:
                return [(RecordType.INSERT_BEFORE, anchor_id, xml_text)]
            if anchor_kind == "into_last" and anchor_id is not None:
                return [(RecordType.INSERT_INTO_LAST, anchor_id, xml_text)]
            return [(RecordType.LOAD_DOCUMENT, 0, xml_text)]
        if self.kind == "unreplace":
            new_id, old_xml = self.args[:2]
            return [(RecordType.REPLACE_NODE, new_id, old_xml)]
        if self.kind == "restore_content":
            node_id, old_content = self.args[:2]
            return [(RecordType.REPLACE_CONTENT, node_id, old_content)]
        raise TransactionStateError(f"unknown undo kind {self.kind!r}")


class Transaction:
    """One transaction; create via :meth:`TransactionManager.begin`."""

    def __init__(self, manager: "TransactionManager", txn_id: int) -> None:
        self._manager = manager
        self.txn_id = txn_id
        self.state = TxnState.ACTIVE
        self._undo: List[UndoEntry] = []
        #: Redo buffer (redo_buffering only): the ops this transaction
        #: will publish as one TXN_COMMIT frame.
        self._redo: List[CommitOp] = []

    # -- reads ---------------------------------------------------------------

    def read(self, node_id: Optional[int] = None) -> str:
        self._check_active()
        if node_id is None:
            self._lock(STORE_RESOURCE, LockMode.S)
            return self._store.read()
        self._lock_node(node_id, LockMode.S)
        return self._store.read(node_id)

    def xpath(self, expression: str):
        self._check_active()
        self._lock(STORE_RESOURCE, LockMode.S)
        return self._store.xpath(expression)

    # -- updates ---------------------------------------------------------------

    def load_document(self, xml_text: str) -> Optional[int]:
        self._check_active()
        self._lock(STORE_RESOURCE, LockMode.X)
        first_id = self._apply(RecordType.LOAD_DOCUMENT, "load_document", None, xml_text)
        if first_id is not None:
            self._push_undo_delete_inserted(xml_text, first_id)
        return first_id

    def insert_before(self, node_id: int, xml_text: str) -> Optional[int]:
        return self._insert(RecordType.INSERT_BEFORE, "insert_before", node_id, xml_text)

    def insert_after(self, node_id: int, xml_text: str) -> Optional[int]:
        return self._insert(RecordType.INSERT_AFTER, "insert_after", node_id, xml_text)

    def insert_into_first(self, node_id: int, xml_text: str) -> Optional[int]:
        return self._insert(
            RecordType.INSERT_INTO_FIRST, "insert_into_first", node_id, xml_text
        )

    def insert_into_last(self, node_id: int, xml_text: str) -> Optional[int]:
        return self._insert(
            RecordType.INSERT_INTO_LAST, "insert_into_last", node_id, xml_text
        )

    def delete_node(self, node_id: int) -> None:
        self._check_active()
        self._lock_node(node_id, LockMode.X)
        model = self._subtree_at_start(node_id)
        anchor = self._deletion_anchor(node_id) if model.ids else None
        self._apply(RecordType.DELETE_NODE, "delete_node", node_id, "")
        if model.ids:
            self._undo.append(
                UndoEntry(
                    "reinsert",
                    (model.read(), anchor[0], anchor[1], tuple(model.node_ids())),
                    f"reinsert at {anchor[0]} {anchor[1]}",
                )
            )
        # empty model: this transaction inserted the node itself, so
        # insert + delete is a net no-op — nothing to undo

    def replace_node(self, node_id: int, xml_text: str) -> Optional[int]:
        self._check_active()
        self._lock_node(node_id, LockMode.X)
        model = self._subtree_at_start(node_id)
        new_id = self._apply(RecordType.REPLACE_NODE, "replace_node", node_id, xml_text)
        assert new_id is not None
        if model.ids:
            self._undo.append(
                UndoEntry(
                    "unreplace",
                    (new_id, model.read(), tuple(model.node_ids())),
                    f"unreplace node {node_id}",
                )
            )
        else:
            # replacing a node this transaction inserted: the start state
            # has no node here, so undo is plain removal
            self._undo.append(
                UndoEntry("uninsert", ((new_id,),), f"uninsert node {new_id}")
            )
        return new_id

    def replace_content(self, node_id: int, xml_text: str) -> Optional[int]:
        self._check_active()
        self._lock_node(node_id, LockMode.X)
        model = self._subtree_at_start(node_id)
        result = self._apply(
            RecordType.REPLACE_CONTENT, "replace_content", node_id, xml_text
        )
        if not model.ids:
            # the node is this transaction's own insertion: at start it
            # did not exist, so undo removes it outright
            self._undo.append(
                UndoEntry("uninsert", ((node_id,),), f"uninsert node {node_id}")
            )
        elif model.ids[0] != node_id:
            # composition changed the subtree root's identity (an earlier
            # replace_node of this transaction was folded in): restoring
            # content alone would keep the replacement's tag, so undo by
            # swapping the whole node for its transaction-start form
            self._undo.append(
                UndoEntry(
                    "unreplace",
                    (node_id, model.read(), tuple(model.node_ids())),
                    f"unreplace node {node_id}",
                )
            )
        else:
            old_content, content_ids = model.content_of(node_id)
            self._undo.append(
                UndoEntry(
                    "restore_content",
                    (node_id, old_content, tuple(content_ids)),
                    f"restore content of {node_id}",
                )
            )
        return result

    # -- lifecycle ---------------------------------------------------------------

    def commit(self) -> None:
        self._check_active()
        self._manager._publish_commit(self)
        self.state = TxnState.COMMITTED
        self._undo.clear()
        self._redo.clear()
        self._manager._finish(self)

    def abort(self) -> None:
        self._check_active()
        buffering = self._manager.redo_buffering
        for entry in reversed(self._undo):
            if buffering:
                for record_type, node_id, xml_text in entry.as_ops():
                    self._record_and_run(record_type, node_id, xml_text)
            else:
                entry.apply(self._store)
        self._undo.clear()
        self._manager._publish_abort(self)
        self._redo.clear()
        self.state = TxnState.ABORTED
        self._manager._finish(self)

    @property
    def undo_entries(self) -> Tuple[UndoEntry, ...]:
        """The logical inverses pending on this transaction, oldest first
        (the snapshot materializer reads these — never mutates them)."""
        return tuple(self._undo)

    @property
    def has_changes(self) -> bool:
        return bool(self._undo)

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state is TxnState.ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                self.abort()

    # -- internals ------------------------------------------------------------------

    @property
    def _store(self) -> XMLStore:
        return self._manager.store

    def _check_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionStateError(
                f"transaction {self.txn_id} is {self.state.value}"
            )

    def _lock(self, resource, mode: LockMode) -> None:
        with self._manager.store.telemetry.span(
            "lock.wait", resource=str(resource), mode=mode.name, txn=self.txn_id
        ):
            granted = self._manager.locks.lock_hierarchy(
                self.txn_id, resource, mode, wait=self._manager.wait_on_conflict
            )
        if not granted:
            raise LockWaitError(
                f"transaction {self.txn_id} must wait for {resource}",
                resource=resource,
            )

    def _lock_node(self, node_id: int, mode: LockMode) -> None:
        """Lock every range the subtree of ``node_id`` spans at ``mode``.

        Subtree operations (delete/replace/replace_content, subtree
        reads) touch tokens from the node's begin to its end token,
        which may cross range boundaries — locking only the range
        hosting the begin token would let a writer mutate tokens another
        transaction holds locked (the interleaving harness caught
        exactly this).  A suspended retry re-resolves the span, so the
        range list is always current when the last lock is granted."""
        store = self._store
        location = store.locator.locate_span(node_id)
        ranges = store.ranges
        begin_order = ranges.order_index(location.begin.meta.range_id)
        end_order = ranges.order_index(location.end.meta.range_id)
        for order in range(begin_order, end_order + 1):
            self._lock(range_resource(ranges.at_order(order).range_id), mode)

    def _subtree_at_start(self, node_id: int) -> TokenDocument:
        """Capture ``node_id``'s subtree and rewind it to this
        transaction's start state.

        Subtree operations (delete/replace/replace_content) record their
        inverse as an image of the subtree — but if this transaction has
        *already* mutated inside that subtree, the current image bakes
        those uncommitted effects in, and undoing the earlier entries
        after restoring the image would address ids the restore
        re-allocated (the interleaving harness caught an abort crashing
        exactly this way).  So: consume every earlier undo entry whose
        effect lies inside the subtree by replaying it (newest first,
        the abort order) over a private model — possible because entries
        record the original ids of content they re-create — and let the
        one entry pushed for this operation carry the combined,
        transaction-start image."""
        model = capture_subtree(self._store, node_id)
        kept: List[UndoEntry] = []
        for entry in reversed(self._undo):
            if self._entry_inside(entry, model):
                entry.apply(model, log=False)
            else:
                kept.append(entry)
        self._undo = list(reversed(kept))
        return model

    @staticmethod
    def _entry_inside(entry: UndoEntry, model: TokenDocument) -> bool:
        """Whether ``entry``'s effect lies inside the modeled subtree.

        Membership is evaluated against the model *as already rewound*
        (entries are visited newest first), so an entry addressing a
        node that only a newer, already-consumed entry re-created still
        classifies correctly.  An insert's top-level nodes share one
        anchor position, so checking the first id decides for all."""
        if entry.kind == "uninsert":
            (top_ids,) = entry.args
            return bool(top_ids) and model.exists(top_ids[0])
        if entry.kind == "reinsert":
            anchor_kind, anchor_id = entry.args[1], entry.args[2]
            if anchor_id is None or not model.exists(anchor_id):
                return False
            # "before the subtree root" lands *outside* the subtree;
            # every other in-model anchor position is inside it
            return not (anchor_kind == "before" and model.ids and model.ids[0] == anchor_id)
        if entry.kind in ("unreplace", "restore_content"):
            return model.exists(entry.args[0])
        raise TransactionStateError(f"unknown undo kind {entry.kind!r}")

    def _apply(
        self,
        record_type: int,
        op_name: str,
        node_id: Optional[int],
        xml_text: str,
    ):
        """Run one store operation under the manager's logging discipline."""
        if not self._manager.redo_buffering:
            if node_id is None:
                return getattr(self._store, op_name)(xml_text)
            if op_name == "delete_node":
                return self._store.delete_node(node_id)
            return getattr(self._store, op_name)(node_id, xml_text)
        return self._record_and_run(record_type, node_id, xml_text)

    def _record_and_run(
        self, record_type: int, node_id: Optional[int], xml_text: str
    ):
        """Redo buffering: execute unlogged, capture the op + id cursors."""
        store = self._store
        op_name = RecordType.NAMES[record_type]
        before = store.id_scheme.high_water_mark
        if record_type == RecordType.LOAD_DOCUMENT:
            result = store.load_document(xml_text, log=False)
            payload = encode_op_payload(b"", xml_text)
        elif record_type == RecordType.DELETE_NODE:
            result = store.delete_node(node_id, log=False)
            payload = encode_op_payload(store.id_scheme.encode(node_id), "")
        else:
            result = getattr(store, op_name)(node_id, xml_text, log=False)
            payload = encode_op_payload(store.id_scheme.encode(node_id), xml_text)
        after = store.id_scheme.high_water_mark
        self._redo.append(CommitOp(record_type, payload, before, after))
        return result

    def _insert(
        self, record_type: int, op_name: str, node_id: int, xml_text: str
    ) -> Optional[int]:
        self._check_active()
        self._lock_node(node_id, LockMode.X)
        first_id = self._apply(record_type, op_name, node_id, xml_text)
        if first_id is not None:
            self._push_undo_delete_inserted(xml_text, first_id)
        return first_id

    def _push_undo_delete_inserted(self, xml_text: str, first_id: int) -> None:
        """Undo an insert: delete each inserted top-level node by id.  The
        store gave the fragment's node-starting records consecutive ids
        from ``first_id``; a top-level node is one that starts at depth 0."""
        top_ids: List[int] = []
        node_id, depth = first_id, 0
        for record in parse_records(xml_text)[0]:
            kind = record[0] & KIND_MASK
            if STARTS_NODE[kind]:
                if depth == 0:
                    top_ids.append(node_id)
                node_id += 1
            depth += DEPTH_STEP[kind]
        self._undo.append(
            UndoEntry("uninsert", (tuple(top_ids),), f"uninsert nodes {top_ids}")
        )

    def _deletion_anchor(self, node_id: int) -> Tuple[str, Optional[int]]:
        """How to re-insert ``node_id``'s subtree on abort: before its next
        sibling, as last child of its parent, or at top level."""
        view_root = self._build_view()
        node, parent = self._find_with_parent(view_root, node_id)
        if node is None:
            return ("top", None)
        siblings = parent.children if parent is not None else view_root.children
        index = siblings.index(node)
        for following in siblings[index + 1 :]:
            if following.node_id is not None:
                return ("before", following.node_id)
        if parent is not None and parent.node_id is not None:
            return ("into_last", parent.node_id)
        return ("top", None)

    def _build_view(self):
        from repro.xpath.evaluator import build_view

        return build_view(self._store)

    def _find_with_parent(self, root, node_id: int):
        stack = [(child, root) for child in root.children]
        while stack:
            node, parent = stack.pop()
            if node.node_id == node_id:
                return node, (None if parent is root else parent)
            stack.extend((grandchild, node) for grandchild in node.children)
        return None, None


class TransactionManager:
    """Issues transactions over one store and owns the lock manager."""

    def __init__(
        self,
        store: XMLStore,
        wait_on_conflict: bool = False,
        redo_buffering: bool = False,
    ) -> None:
        self.store = store
        self.locks = LockManager()
        #: False = fail fast on conflicts (ConcurrencyError); True = queue
        #: with deadlock detection (LockWaitError; retry after the grant).
        self.wait_on_conflict = wait_on_conflict
        #: True = transactions log one TXN_COMMIT frame at commit instead
        #: of per-operation records (the group-commit discipline).
        self.redo_buffering = redo_buffering
        #: Whether the commit frame pays its own sync barrier.  The
        #: server's group-commit queue sets False and issues one shared
        #: ``wal.sync()`` per batch.
        self.commit_sync = True
        self._next_txn_id = 1
        self.active: Dict[int, Transaction] = {}

    def begin(self) -> Transaction:
        txn = Transaction(self, self._next_txn_id)
        self._next_txn_id += 1
        self.active[txn.txn_id] = txn
        return txn

    # -- internals ------------------------------------------------------------

    def _publish_commit(self, txn: Transaction) -> None:
        if not self.redo_buffering or not txn._redo:
            return
        payload = encode_commit(txn.txn_id, txn._redo)
        self.store.wal.append(RecordType.TXN_COMMIT, payload, sync=self.commit_sync)

    def _publish_abort(self, txn: Transaction) -> None:
        """Aborted transactions under redo buffering still log their
        do+undo pair: content-wise a no-op, but replay then allocates the
        same ids the live store did, keeping recovery byte-compatible."""
        if not self.redo_buffering or not txn._redo:
            return
        payload = encode_commit(txn.txn_id, txn._redo)
        self.store.wal.append(RecordType.TXN_COMMIT, payload, sync=self.commit_sync)

    def _finish(self, txn: Transaction) -> None:
        self.locks.release_all(txn.txn_id)
        self.active.pop(txn.txn_id, None)
