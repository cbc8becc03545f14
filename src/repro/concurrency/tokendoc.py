"""A token-list document model with explicit node ids.

Shared substrate for two consumers that must replay logical undo
entries *outside* the live store:

* the transaction layer (:mod:`repro.concurrency.transactions`) uses it
  to compose undo entries — when a subtree operation subsumes earlier
  undo entries of the same transaction, their combined effect is
  evaluated on a model of the subtree to produce one transaction-start
  image;
* the snapshot-read materializer (:mod:`repro.server.snapshot`) uses it
  to turn the live document plus active transactions' undo entries into
  the committed view.

Unlike :class:`repro.testing.reference.ReferenceStore`, ids are not
assigned here — they are *captured* from the live store, and splices can
carry explicit ids (the original ids an undo entry recorded), so a
re-inserted subtree reappears under exactly the ids it had.  Content
spliced without ids (legacy callers) falls back to synthetic negative
ids that can never collide with real ones.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import NodeNotFoundError, TransactionStateError
from repro.xmltoken.datamodel import node_end_offset
from repro.xmltoken.parser import tokenize_fragment
from repro.xmltoken.serializer import serialize
from repro.xmltoken.tokens import Token, TokenKind

_ATTRIBUTE_KINDS = (
    TokenKind.BEGIN_ATTRIBUTE,
    TokenKind.ATTRIBUTE_VALUE,
    TokenKind.END_ATTRIBUTE,
    TokenKind.NAMESPACE,
)


class TokenDocument:
    """Token list + explicit id assignment undo entries replay over."""

    #: Feature flag UndoEntry.apply checks: this target takes explicit
    #: ``ids`` on its operations (the live store does not).
    accepts_ids = True

    def __init__(self, tokens: List[Token], ids: List[Optional[int]]) -> None:
        self.tokens = list(tokens)
        self.ids = list(ids)
        self._next_synthetic = -1

    # -- helpers ---------------------------------------------------------------

    def _assign(
        self, tokens: List[Token], ids: Optional[Sequence[int]] = None
    ) -> List[Optional[int]]:
        if ids is not None:
            supplied = list(ids)
            starts = sum(1 for token in tokens if token.starts_node)
            if len(supplied) != starts:
                raise TransactionStateError(
                    f"id list of {len(supplied)} does not cover "
                    f"{starts} node-start token(s)"
                )
        out: List[Optional[int]] = []
        cursor = 0
        for token in tokens:
            if not token.starts_node:
                out.append(None)
            elif ids is not None:
                out.append(supplied[cursor])
                cursor += 1
            else:
                out.append(self._next_synthetic)
                self._next_synthetic -= 1
        return out

    def _find(self, node_id: int) -> int:
        for index, assigned in enumerate(self.ids):
            if assigned == node_id:
                return index
        raise NodeNotFoundError(str(node_id))

    def _subtree_span(self, index: int) -> Tuple[int, int]:
        return index, node_end_offset(self.tokens, index)

    def _splice(
        self, at: int, tokens: List[Token], ids: Optional[Sequence[int]] = None
    ) -> None:
        assigned = self._assign(tokens, ids)
        self.tokens[at:at] = tokens
        self.ids[at:at] = assigned

    # -- the operation surface undo entries need --------------------------------

    def load_document(
        self, xml: str, log: bool = False, ids: Optional[Sequence[int]] = None
    ) -> None:
        self._splice(len(self.tokens), tokenize_fragment(xml), ids)

    def insert_before(
        self,
        node_id: int,
        xml: str,
        log: bool = False,
        ids: Optional[Sequence[int]] = None,
    ) -> None:
        index = self._find(node_id)
        self._splice(index, tokenize_fragment(xml), ids)

    def insert_into_last(
        self,
        node_id: int,
        xml: str,
        log: bool = False,
        ids: Optional[Sequence[int]] = None,
    ) -> None:
        start, end = self._subtree_span(self._find(node_id))
        self._splice(end - 1, tokenize_fragment(xml), ids)

    def delete_node(self, node_id: int, log: bool = False) -> None:
        start, end = self._subtree_span(self._find(node_id))
        del self.tokens[start:end]
        del self.ids[start:end]

    def replace_node(
        self,
        node_id: int,
        xml: str,
        log: bool = False,
        ids: Optional[Sequence[int]] = None,
    ) -> None:
        start, end = self._subtree_span(self._find(node_id))
        del self.tokens[start:end]
        del self.ids[start:end]
        self._splice(start, tokenize_fragment(xml), ids)

    def replace_content(
        self,
        node_id: int,
        xml: str,
        log: bool = False,
        ids: Optional[Sequence[int]] = None,
    ) -> None:
        content_start, content_end = self._content_span(node_id)
        del self.tokens[content_start:content_end]
        del self.ids[content_start:content_end]
        if xml:
            self._splice(content_start, tokenize_fragment(xml), ids)

    # -- reads -------------------------------------------------------------------

    def read(self, node_id: Optional[int] = None) -> str:
        if node_id is None:
            return serialize(self.tokens)
        start, end = self._subtree_span(self._find(node_id))
        return serialize(self.tokens[start:end])

    def exists(self, node_id: int) -> bool:
        return node_id in self.ids

    def node_ids(self) -> List[int]:
        """Every node id present, in document order."""
        return [assigned for assigned in self.ids if assigned is not None]

    def _content_span(self, node_id: int) -> Tuple[int, int]:
        """The [start, end) token interval of ``node_id``'s content —
        everything between the begin token (plus attributes) and the end
        token."""
        start, end = self._subtree_span(self._find(node_id))
        content_start = start + 1
        while (
            content_start < end - 1
            and self.tokens[content_start].kind in _ATTRIBUTE_KINDS
        ):
            content_start += 1
        return content_start, end - 1

    def content_of(self, node_id: int) -> Tuple[str, List[int]]:
        """Serialized content of ``node_id`` plus the ids of the nodes
        inside it (document order)."""
        content_start, content_end = self._content_span(node_id)
        xml = serialize(self.tokens[content_start:content_end])
        ids = [
            assigned
            for assigned in self.ids[content_start:content_end]
            if assigned is not None
        ]
        return xml, ids


def capture_document(store) -> TokenDocument:
    """Walk the live store in document order, collecting every token with
    its real node id (regenerated per range, exactly like the locator).
    Pays the same simulated scan cost a full read would — captured views
    are consistent, not free."""
    tokens: List[Token] = []
    ids: List[Optional[int]] = []
    for item in store.locator.scan(0):
        tokens.append(item.token)
        ids.append(item.last_id if item.starts_node else None)
    return TokenDocument(tokens, ids)


def capture_subtree(store, node_id: int) -> TokenDocument:
    """A :class:`TokenDocument` of just ``node_id``'s subtree."""
    document = capture_document(store)
    start, end = document._subtree_span(document._find(node_id))
    return TokenDocument(document.tokens[start:end], document.ids[start:end])
