"""Stack-based structural join [1] over containment labels.

The comparator strategy the paper's introduction discusses: containment
(pre/post) labels make ancestor–descendant joins a merge ("structural
joins: a primitive for efficient XML query pattern matching",
Al-Khalifa et al., ICDE 2002) — at the cost of update-hostile labels
(see :mod:`repro.ids.prepost`).

:func:`stack_tree_desc` is the Stack-Tree-Desc algorithm: given an
ancestor list and a descendant list, both sorted by ``pre``, it produces
all containment pairs in one merge pass with a stack of open ancestors.
:func:`containment_query` runs an ``//a//d`` query against a store by
building the element label lists on the fly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ids.prepost import PrePostLabel
from repro.xmltoken.tokens import TokenKind


@dataclass(frozen=True)
class LabeledElement:
    """An element with its containment label and store node id.

    The label uses *region* numbering: a single counter ticks on every
    element begin **and** end, giving each element an interval
    ``(start, end)`` with ``a`` containing ``d`` iff
    ``a.start < d.start`` and ``d.end < a.end``.  Region numbering is what
    makes the stack-tree merge's "finished ancestor" test
    (``top.end < next.start``) sound; the separate pre-/post-order
    counters of :mod:`repro.ids.prepost` satisfy the same containment
    predicate but not that test.  ``PrePostLabel`` is reused as the
    interval container (pre = start, post = end).
    """

    name: str
    label: PrePostLabel
    node_id: int


def label_elements(store) -> Dict[str, List[LabeledElement]]:
    """One walk: region labels + node ids for every element, grouped by
    tag name, each group sorted by ``start`` (document order)."""
    columns = store.locator.node_columns()
    names, end = columns.names, columns.end
    groups: Dict[str, List[LabeledElement]] = {}
    open_stack: List[Tuple[int, int]] = []  # (column index, start)
    counter = 0
    # the counter ticks on each element's begin and, once the walk is past
    # its subtree, on its end; the index one past the last closes the rest
    elements = [i for i, kind in enumerate(columns.kinds) if kind == TokenKind.BEGIN_ELEMENT]
    for index in elements + [len(end)]:
        while open_stack and end[open_stack[-1][0]] <= index:
            element, start = open_stack.pop()
            name = names[element].decode()
            labeled = LabeledElement(name, PrePostLabel(start, counter), columns.ids[element])
            groups.setdefault(name, []).append(labeled)
            counter += 1
        open_stack.append((index, counter))
        counter += 1
    for group in groups.values():
        group.sort(key=lambda e: e.label.pre)
    return groups


def stack_tree_desc(
    ancestors: List[LabeledElement], descendants: List[LabeledElement]
) -> List[Tuple[LabeledElement, LabeledElement]]:
    """Stack-Tree-Desc: all (ancestor, descendant) containment pairs.

    Both inputs must be sorted by ``pre``.  Output is sorted by
    (descendant.pre, ancestor.pre) — the natural order the algorithm
    produces.
    """
    pairs: List[Tuple[LabeledElement, LabeledElement]] = []
    stack: List[LabeledElement] = []
    a_index = d_index = 0
    while a_index < len(ancestors) or d_index < len(descendants):
        if a_index < len(ancestors) and (
            d_index >= len(descendants)
            or ancestors[a_index].label.pre < descendants[d_index].label.pre
        ):
            nxt = ancestors[a_index]
            # pop finished ancestors (their subtree ended before nxt)
            while stack and stack[-1].label.post < nxt.label.pre:
                stack.pop()
            stack.append(nxt)
            a_index += 1
        else:
            descendant = descendants[d_index]
            while stack and stack[-1].label.post < descendant.label.pre:
                stack.pop()
            for ancestor in stack:
                if ancestor.label.contains(descendant.label):
                    pairs.append((ancestor, descendant))
            d_index += 1
    return pairs


def containment_query(
    store, ancestor_name: str, descendant_name: str
) -> List[Tuple[int, int]]:
    """Evaluate ``//ancestor_name//descendant_name``; returns (ancestor
    node id, descendant node id) pairs."""
    groups = label_elements(store)
    ancestors = groups.get(ancestor_name, [])
    descendants = groups.get(descendant_name, [])
    return [
        (a.node_id, d.node_id)
        for a, d in stack_tree_desc(ancestors, descendants)
    ]
