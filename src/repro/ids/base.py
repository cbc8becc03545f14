"""The labeling-scheme interface of the orthogonality ablation (paper §6:
"Orthogonality of ID schemes").

The store itself has one id scheme,
:class:`~repro.ids.sequential.SequentialIdScheme`: unique integers
assigned at insert time, dense and in document order within a range, so a
scan regenerates them by counting node-starting records.  The Range
Index's ``[startId, endId]`` floor lookup depends on exactly that, which is
why the store has no pluggable id interface.

:class:`LabelingScheme` is what the *ablation benchmark* (Ablation D)
needs: label a whole tree, support inserting a node at a position, report
how many existing labels had to change, and answer document-order/ancestor
queries.  Implementations: Dewey, ORDPATH [17] and pre/post containment
labels [9].  These demonstrate the paper's claim that identifier schemes
are orthogonal to the range-based storage model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Generic, Iterable, List, Sequence, TypeVar

LabelT = TypeVar("LabelT")


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
