"""Identifier-scheme interfaces (paper §6: "Orthogonality of ID schemes").

Two roles are separated:

:class:`StoreIdScheme`
    What the *store* needs from a scheme: allocate a fresh interval of
    identifiers for a bulk insert, advance from one id to the next given a
    token's kind (the paper's ``idFactory : {ID} x {token} -> {ID}``, which
    makes id *regeneration* possible so ids need not be stored with tokens;
    the kind is what a record's header byte carries, so regeneration never
    decodes a payload), and encode/decode ids for the WAL and catalog.
    The store's default is the paper's choice: unique integers assigned at
    insert time
    (:class:`~repro.ids.sequential.SequentialIdScheme`).

:class:`LabelingScheme`
    What the *ablation benchmark* (Ablation D) needs: label a whole tree,
    support inserting a node at a position, report how many existing
    labels had to change, and answer document-order/ancestor queries.
    Implementations: Dewey, ORDPATH [17] and pre/post containment labels
    [9].  These demonstrate the paper's claim that identifier schemes are
    orthogonal to the range-based storage model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Generic, Iterable, List, Sequence, Tuple, TypeVar

from repro.xmltoken.tokens import TokenKind

IdT = TypeVar("IdT")
LabelT = TypeVar("LabelT")


class StoreIdScheme(ABC, Generic[IdT]):
    """Identifier allocation and regeneration for the store."""

    #: Human-readable scheme name (used in catalogs and reports).
    name: str = "abstract"

    @abstractmethod
    def allocate_interval(self, count: int) -> Tuple[IdT, IdT]:
        """Allocate ``count`` fresh ids; returns (first, last).

        Called once per inserted range; ids within the interval are then
        derived with :meth:`next_id` while scanning the range's tokens.
        """

    @abstractmethod
    def next_id(self, current: IdT, kind: TokenKind) -> IdT:
        """The paper's ``idFactory``: the id following ``current`` given
        the kind of the next node-starting token."""

    @abstractmethod
    def encode(self, node_id: IdT) -> bytes:
        """Serialize an id (order need not be preserved)."""

    @abstractmethod
    def decode(self, data: bytes) -> IdT:
        """Inverse of :meth:`encode`."""

    @abstractmethod
    def to_catalog(self) -> bytes:
        """Serialize allocator state (for checkpoint/recovery)."""

    @abstractmethod
    def restore_catalog(self, data: bytes) -> None:
        """Restore allocator state saved by :meth:`to_catalog`."""


class LabelingScheme(ABC, Generic[LabelT]):
    """Tree-labeling scheme for the orthogonality ablation.

    Labels answer document order and ancestry; the interesting difference
    between schemes is :meth:`insert_sibling_after`'s relabeling cost.
    """

    name: str = "abstract"

    @abstractmethod
    def label_root(self) -> LabelT:
        """The label of a (new) root node."""

    @abstractmethod
    def first_child(self, parent: LabelT) -> LabelT:
        """Label for the first child of ``parent`` (no existing children)."""

    @abstractmethod
    def next_sibling(self, last_sibling: LabelT) -> LabelT:
        """Label for a node appended after ``last_sibling``."""

    @abstractmethod
    def between(self, left: LabelT, right: LabelT) -> LabelT:
        """Label for a node inserted between two adjacent siblings.

        Raises :class:`~repro.errors.IdExhaustedError` if the scheme cannot
        represent such a label (schemes that must relabel instead report
        the relabeling through :meth:`relabel_cost`).
        """

    @abstractmethod
    def document_order(self, a: LabelT, b: LabelT) -> int:
        """Negative/zero/positive like a comparator, in document order."""

    @abstractmethod
    def is_ancestor(self, ancestor: LabelT, descendant: LabelT) -> bool:
        """Whether ``ancestor`` properly contains ``descendant``."""

    @abstractmethod
    def encode(self, label: LabelT) -> bytes:
        """Order-preserving binary encoding (byte-comparable)."""

    def relabel_cost(self, existing: Sequence[LabelT], insert_after: LabelT) -> int:
        """How many existing labels must change to insert after
        ``insert_after`` among ``existing`` siblings.  Gap-free schemes
        override this; careting/gapped schemes return 0."""
        return 0


def document_order_key(scheme: LabelingScheme, labels: Iterable[Any]) -> List[Any]:
    """Sort ``labels`` into document order using the scheme comparator."""
    import functools

    return sorted(labels, key=functools.cmp_to_key(scheme.document_order))
