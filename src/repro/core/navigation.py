"""Structural navigation over stable node ids (paper §9's extension:
"hierarchical or sibling relationships can also be maintained by the
Partial Index").

Parent links are memoized in an id-keyed hint table.  Unlike positional
memos, **parent hints never go stale**: a node's parent cannot change
(the Table-1 operations move no node between parents), and deleting
either endpoint makes the hint unreachable because the node lookup fails
first.  Sibling relationships, by contrast, *do* change under insertion
— so ``next_sibling_of`` is computed from the live token sequence each
time (one subtree skip), and only parent links are cached.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import NodeNotFoundError
from repro.xmltoken.tokens import TokenKind

_ATTRIBUTE_KINDS = frozenset(
    {
        TokenKind.BEGIN_ATTRIBUTE,
        TokenKind.ATTRIBUTE_VALUE,
        TokenKind.END_ATTRIBUTE,
        TokenKind.NAMESPACE,
    }
)


class StructuralHints:
    """Lazily populated, never-stale parent links."""

    def __init__(self) -> None:
        self._parents: Dict[int, Optional[int]] = {}
        self.hits = 0
        self.misses = 0

    def parent(self, node_id: int) -> Optional[int]:
        if node_id in self._parents:
            self.hits += 1
            return self._parents[node_id]
        return None

    def knows(self, node_id: int) -> bool:
        return node_id in self._parents

    def remember(self, node_id: int, parent_id: Optional[int]) -> None:
        self._parents[node_id] = parent_id

    def forget(self, node_id: int) -> None:
        self._parents.pop(node_id, None)

    def __len__(self) -> int:
        return len(self._parents)


def parent_of(store, node_id: int) -> Optional[int]:
    """The parent node's id, or None for a top-level node.

    First call scans from the document start (populating hints for the
    whole ancestor chain along the way); repeats are O(1).
    """
    store.locator.locate(node_id)  # raises for unknown/deleted ids
    hints: StructuralHints = store.structural_hints
    if hints.knows(node_id):
        return hints.parent(node_id)
    hints.misses += 1
    # scan with an open-element stack of (node id) entries
    stack: List[int] = []
    for item in store.locator.scan():
        kind = item.kind
        if kind in _ATTRIBUTE_KINDS:
            # attribute and namespace nodes are children of the element
            # whose start tag they appear in (the top of the stack)
            if item.starts_node and item.last_id == node_id:
                parent = stack[-1] if stack else None
                hints.remember(node_id, parent)
                return parent
            continue
        if item.starts_node:
            assert item.last_id is not None
            parent = stack[-1] if stack else None
            if not hints.knows(item.last_id):
                hints.remember(item.last_id, parent)
            if item.last_id == node_id:
                return parent
        if kind == TokenKind.BEGIN_ELEMENT:
            assert item.last_id is not None
            stack.append(item.last_id)
        elif kind == TokenKind.END_ELEMENT:
            stack.pop()
    raise NodeNotFoundError(f"node {node_id} vanished during the scan (bug)")


def ancestors_of(store, node_id: int) -> List[int]:
    """Ancestor ids, nearest first (exploits the parent-hint chain)."""
    chain: List[int] = []
    current: Optional[int] = node_id
    while True:
        current = parent_of(store, current)
        if current is None:
            return chain
        chain.append(current)


def next_sibling_of(store, node_id: int) -> Optional[int]:
    """Id of the following sibling, or None.  Computed live (sibling
    relationships are not stable under insertion, so they are never
    cached — see module docstring)."""
    location = store.locator.locate_span(node_id)
    assert location.end is not None
    nxt = next(store.locator.continue_scan(location.end), None)
    if nxt is None:
        return None
    if nxt.starts_node:
        return nxt.last_id
    return None  # an END token: the parent closes here


def children_of(store, node_id: int) -> List[int]:
    """Ids of the node's children (attributes excluded, as on the XPath
    child axis), in document order."""
    location = store.locator.locate(node_id)
    if not location.begin.is_begin:
        return []  # atomic nodes have no children
    children: List[int] = []
    depth = 1
    hints: StructuralHints = store.structural_hints
    for item in store.locator.continue_scan(location.begin):
        if item.kind in _ATTRIBUTE_KINDS:
            continue
        if item.is_begin:
            if depth == 1:
                assert item.last_id is not None
                children.append(item.last_id)
                hints.remember(item.last_id, node_id)
            depth += 1
        elif item.is_end:
            depth -= 1
            if depth == 0:
                return children
        elif item.starts_node and depth == 1:
            assert item.last_id is not None
            children.append(item.last_id)
            hints.remember(item.last_id, node_id)
    return children


def attributes_of(store, node_id: int) -> List[int]:
    """Ids of the node's attribute nodes, in document order."""
    location = store.locator.locate(node_id)
    if location.begin.kind != TokenKind.BEGIN_ELEMENT:
        return []
    attributes: List[int] = []
    for item in store.locator.continue_scan(location.begin):
        kind = item.kind
        if kind == TokenKind.BEGIN_ATTRIBUTE:
            assert item.last_id is not None
            attributes.append(item.last_id)
            store.structural_hints.remember(item.last_id, node_id)
        elif kind in (TokenKind.ATTRIBUTE_VALUE, TokenKind.END_ATTRIBUTE,
                      TokenKind.NAMESPACE):
            continue
        else:
            return attributes
    return attributes
