"""A document as stored records plus their node ids.

One model serves every consumer that replays Table-1 operations outside
the live store: the transaction layer (:mod:`repro.concurrency.transactions`)
composes undo entries over a captured subtree, the snapshot materializer
(:mod:`repro.server.snapshot`) applies active transactions' undo entries to
a captured document, and the differential-testing oracle
(:mod:`repro.testing.reference`) mirrors the store with dense ids of its own.

The records are the store's own: ``parse_records`` makes them and ``emit``
renders them.  A node's extent comes from header bytes alone
(``STARTS_NODE``, ``DEPTH_STEP``), so no token is built.  A splice with
``ids`` puts content back under the ids an undo entry recorded, so a
re-inserted subtree reappears under exactly the ids it had; a splice
without them assigns the next dense ids, as the store does.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import NodeNotFoundError, TokenStreamError, TransactionStateError
from repro.xmltoken.binary import DEPTH_STEP, KIND_MASK, STARTS_NODE
from repro.xmltoken.emitter import emit
from repro.xmltoken.parser import parse_records
from repro.xmltoken.tokens import TokenKind

#: The original ids of spliced content, or None for the next dense ones.
Ids = Optional[Sequence[int]]
#: Kinds that start an attribute or a namespace node.
_ATTRIBUTE_NODES = frozenset({TokenKind.BEGIN_ATTRIBUTE, TokenKind.NAMESPACE})
#: Kinds that belong to a start tag: what a content span skips.
_ATTRIBUTE_KINDS = _ATTRIBUTE_NODES | {TokenKind.ATTRIBUTE_VALUE, TokenKind.END_ATTRIBUTE}


class RecordDocument:
    """Records in document order, with the node id of each node-starting
    one (``None`` for the rest) in the parallel ``ids`` list."""

    #: ``UndoEntry.apply`` passes the recorded ``ids`` to a target that
    #: sets this (the live store never reuses an id, so it takes none).
    accepts_ids = True

    def __init__(self, records: Sequence[bytes] = (), ids: Sequence[Optional[int]] = ()) -> None:
        self.records: List[bytes] = list(records)
        self.ids: List[Optional[int]] = list(ids)
        self._next_id = 1

    # -- helpers ---------------------------------------------------------------

    def _find(self, node_id: int) -> int:
        try:
            return self.ids.index(node_id)
        except ValueError:
            raise NodeNotFoundError(str(node_id)) from None

    def _span(self, node_id: int) -> Tuple[int, int]:
        """The [start, end) record interval of ``node_id``'s subtree."""
        records = self.records
        start = self._find(node_id)
        depth = DEPTH_STEP[records[start][0] & KIND_MASK]
        end = start + 1
        try:
            while depth > 0:
                depth += DEPTH_STEP[records[end][0] & KIND_MASK]
                end += 1
        except IndexError:
            raise TokenStreamError(f"node {node_id} is never closed") from None
        return start, end

    def _content_span(self, node_id: int) -> Tuple[int, int]:
        """The [start, end) record interval of ``node_id``'s content:
        everything between its start tag (attributes included) and its
        end record."""
        start, end = self._span(node_id)
        content_start = start + 1
        while (
            content_start < end - 1
            and self.records[content_start][0] & KIND_MASK in _ATTRIBUTE_KINDS
        ):
            content_start += 1
        return content_start, end - 1

    def _splice(self, at: int, xml: str, ids: Ids = None) -> Optional[int]:
        """Insert ``xml``'s records at ``at``; the first new node's id."""
        records = parse_records(xml)[0]
        starts = [i for i, record in enumerate(records) if STARTS_NODE[record[0] & KIND_MASK]]
        if ids is None:
            ids = range(self._next_id, self._next_id + len(starts))
            self._next_id += len(starts)
        elif len(ids) != len(starts):
            raise TransactionStateError(
                f"id list of {len(ids)} does not cover {len(starts)} node-start record(s)"
            )
        assigned: List[Optional[int]] = [None] * len(records)
        for index, node_id in zip(starts, ids):
            assigned[index] = node_id
        self.records[at:at] = records
        self.ids[at:at] = assigned
        return ids[0] if starts else None

    # -- the Table-1 operations (``log`` is the store's; nothing is logged) -----

    def load_document(self, xml: str, log: bool = False, ids: Ids = None) -> Optional[int]:
        return self._splice(len(self.records), xml, ids)

    def insert_before(
        self, node_id: int, xml: str, log: bool = False, ids: Ids = None
    ) -> Optional[int]:
        return self._splice(self._find(node_id), xml, ids)

    def insert_after(
        self, node_id: int, xml: str, log: bool = False, ids: Ids = None
    ) -> Optional[int]:
        return self._splice(self._span(node_id)[1], xml, ids)

    def insert_into_first(
        self, node_id: int, xml: str, log: bool = False, ids: Ids = None
    ) -> Optional[int]:
        return self._splice(self._content_span(node_id)[0], xml, ids)

    def insert_into_last(
        self, node_id: int, xml: str, log: bool = False, ids: Ids = None
    ) -> Optional[int]:
        return self._splice(self._span(node_id)[1] - 1, xml, ids)

    def delete_node(self, node_id: int, log: bool = False) -> None:
        start, end = self._span(node_id)
        del self.records[start:end]
        del self.ids[start:end]

    def replace_node(
        self, node_id: int, xml: str, log: bool = False, ids: Ids = None
    ) -> Optional[int]:
        start, end = self._span(node_id)
        del self.records[start:end]
        del self.ids[start:end]
        return self._splice(start, xml, ids)

    def replace_content(self, node_id: int, xml: str, log: bool = False, ids: Ids = None) -> None:
        start, end = self._content_span(node_id)
        del self.records[start:end]
        del self.ids[start:end]
        self._splice(start, xml, ids)

    # -- reads -------------------------------------------------------------------

    def read(self, node_id: Optional[int] = None) -> str:
        """The whole document, or the subtree of ``node_id`` — an attribute
        or namespace node as ``name="value"``, as the store reads it."""
        if node_id is None:
            return emit(self.records).decode("utf-8")
        start, end = self._span(node_id)
        return emit(self.records[start:end], node=True).decode("utf-8")

    def content_of(self, node_id: int) -> Tuple[str, List[int]]:
        """Serialized content of ``node_id`` plus the ids of the nodes
        inside it (document order)."""
        start, end = self._content_span(node_id)
        xml = emit(self.records[start:end]).decode("utf-8")
        return xml, [node for node in self.ids[start:end] if node is not None]

    def exists(self, node_id: int) -> bool:
        return node_id in self.ids

    def is_attribute(self, node_id: int) -> bool:
        """Whether ``node_id`` names an attribute or namespace node."""
        return self.records[self._find(node_id)][0] & KIND_MASK in _ATTRIBUTE_NODES

    def node_ids(self) -> List[int]:
        """Every node id present, in document order."""
        return [node for node in self.ids if node is not None]

    def element_ids(self) -> List[int]:
        return [node for node, kind in self._nodes() if kind == TokenKind.BEGIN_ELEMENT]

    def sibling_target_ids(self) -> List[int]:
        """Node ids that legally take insert_before/after/delete (i.e.
        not attributes or namespace declarations)."""
        return [node for node, kind in self._nodes() if kind not in _ATTRIBUTE_NODES]

    def _nodes(self) -> Iterator[Tuple[int, int]]:
        """``(id, kind)`` of every node, in document order."""
        for record, node in zip(self.records, self.ids):
            if node is not None:
                yield node, record[0] & KIND_MASK


def capture_document(store) -> RecordDocument:
    """Walk the live store in document order, collecting every record with
    its real node id (regenerated per range, exactly like the locator).
    Pays the same simulated scan cost a full read would — captured views
    are consistent, not free."""
    records: List[bytes] = []
    ids: List[Optional[int]] = []
    for item in store.locator.scan(0):
        records.append(item.record)
        ids.append(item.last_id if item.starts_node else None)
    return RecordDocument(records, ids)


def capture_subtree(store, node_id: int) -> RecordDocument:
    """A :class:`RecordDocument` of just ``node_id``'s subtree."""
    document = capture_document(store)
    start, end = document._span(node_id)
    return RecordDocument(document.records[start:end], document.ids[start:end])
