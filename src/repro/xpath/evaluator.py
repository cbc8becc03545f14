"""Navigational XPath evaluation over the store's records.

A query walks the store once (:meth:`~repro.core.locator.Locator.node_columns`),
regenerating node ids as every scan does, into flat node columns: kind,
name and value bytes, parent and subtree end.  No token and no tree is
built.  Steps are index arithmetic — ``child`` jumps to the end of each
child's subtree, ``//`` reads a subtree's index range, ``parent``,
``self`` and ``attribute`` are lookups — and a node-set is a sorted list
of indices, so results are in document order.  Names compare as bytes;
text is decoded only when a predicate or a result asks for it.  Only
matches get an :class:`XPathNode`, which carries the *store* node id:
``store.read(result.node_id)`` — or ``result.xml()`` — serializes it.

As in XPath 1.0, a step's predicates filter each context node's
candidates on their own (``a/b[1]`` is the first ``b`` of every ``a``),
and ``a//b`` is ``a/descendant-or-self::node()/child::b``.

This is the *navigational* strategy; :mod:`repro.xpath.structural_join`
implements the containment-join strategy the paper contrasts it with.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.locator import NodeColumns
from repro.errors import XPathUnsupportedError
from repro.xmltoken.binary import KIND_TABLE
from repro.xpath.ast import (
    Axis,
    BooleanOp,
    Comparison,
    Expr,
    FunctionCall,
    NumberLiteral,
    Path,
    Step,
    StringLiteral,
    TestKind,
)
from repro.xpath.parser import parse
from repro.xmltoken.tokens import TokenKind

_ELEMENT, _ATTRIBUTE = int(TokenKind.BEGIN_ELEMENT), int(TokenKind.BEGIN_ATTRIBUTE)
_TEXT, _COMMENT = int(TokenKind.TEXT), int(TokenKind.COMMENT)


class XPathNode:
    """A matched node: its id, kind and name, and a handle on its entry in
    the query's node columns for the rest."""

    __slots__ = ("node_id", "kind", "name", "_store", "_columns", "_index")

    def __init__(self, store, columns: NodeColumns, index: int) -> None:
        self.node_id: Optional[int] = columns.ids[index]
        self.kind: TokenKind = KIND_TABLE[columns.kinds[index]]
        self.name = columns.names[index].decode()
        self._store, self._columns, self._index = store, columns, index

    @property
    def value(self) -> str:
        return self._columns.values[self._index].decode()

    @property
    def string_value(self) -> str:
        """XPath string-value: concatenated descendant text."""
        return _string_value(self._columns, self._index)

    def xml(self) -> str:
        """Serialize this node through the store (attribute nodes render
        as ``name="value"``)."""
        if self.node_id is None:
            raise XPathUnsupportedError("node is not backed by a store")
        if self.kind == TokenKind.BEGIN_ATTRIBUTE:
            return f'{self.name}="{self.value}"'
        return self._store.read(self.node_id)

    def __repr__(self) -> str:
        return f"<XPathNode #{self.node_id} {self.name or self.kind.name}>"


def _string_value(columns: NodeColumns, index: int) -> str:
    kinds, values = columns.kinds, columns.values
    if kinds[index] in (_ATTRIBUTE, _TEXT, _COMMENT):  # the value is the string-value
        return values[index].decode()
    below = range(index + 1, columns.end[index])
    return b"".join([values[i] for i in below if kinds[i] == _TEXT]).decode()


def evaluate(store, expression: str) -> List[XPathNode]:
    """Evaluate ``expression`` against ``store``; results in document order."""
    path = parse(expression)
    before_scanned = store.locator.stats.tokens_scanned
    columns = store.locator.node_columns()
    matches = [XPathNode(store, columns, index) for index in _Query(columns).path(path, [0])]
    if store.event_log.enabled:
        store.event_log.emit(
            "xpath", "evaluate", severity="info", expression=expression, matches=len(matches),
            view_tokens=store.locator.stats.tokens_scanned - before_scanned,
        )
    return matches


class _Query:
    """Steps and predicates over one set of node columns; a node-set is a
    sorted list of column indices."""

    def __init__(self, columns: NodeColumns) -> None:
        self.columns = columns

    def path(self, path: Path, context: Sequence[int]) -> List[int]:
        nodes = [0] if path.absolute else list(context)
        for step in path.steps:
            nodes = self.step(step, nodes)
        return nodes

    def step(self, step: Step, context: Sequence[int]) -> List[int]:
        found: List[int] = []
        parent = self.columns.parent  # for ``//``, whose positions count per parent
        for node in context:
            candidates = self.matching(step, self.axis(step.axis, node))
            if step.predicates:
                groups: Dict[int, List[int]] = {node: candidates}
                if step.axis is Axis.DESCENDANT_OR_SELF:
                    groups = {}
                    for candidate in candidates:
                        groups.setdefault(parent[candidate], []).append(candidate)
                candidates = []
                for group in groups.values():
                    for predicate in step.predicates:
                        group = self.filter(predicate, group)
                    candidates.extend(group)
            found.extend(candidates)
        return sorted(set(found))

    def axis(self, axis: Axis, node: int) -> Iterable[int]:
        """``node``'s candidates on ``axis`` in document order; ``//``'s
        are every node below it (the children of its descendants-or-self)."""
        kinds, end = self.columns.kinds, self.columns.end
        if axis is Axis.CHILD:
            children, child = [], node + 1
            while child < end[node]:
                if kinds[child] != _ATTRIBUTE:
                    children.append(child)
                child = end[child]
            return children
        if axis is Axis.DESCENDANT_OR_SELF:
            return [i for i in range(node + 1, end[node]) if kinds[i] != _ATTRIBUTE]
        if axis is Axis.SUBTREE:
            return [node, *self.axis(Axis.DESCENDANT_OR_SELF, node)]
        if axis is Axis.ATTRIBUTE:  # an element's attributes come first
            stop = node + 1
            while stop < end[node] and kinds[stop] == _ATTRIBUTE:
                stop += 1
            return range(node + 1, stop)
        if axis is Axis.SELF:
            return [node]
        if axis is Axis.PARENT:
            return [self.columns.parent[node]] if node else []
        raise XPathUnsupportedError(f"axis {axis} not supported")

    def matching(self, step: Step, candidates: Iterable[int]) -> List[int]:
        kinds, test = self.columns.kinds, step.test
        if test.kind is TestKind.NODE:
            return list(candidates)
        if test.kind is TestKind.TEXT or test.kind is TestKind.COMMENT:
            kind = _TEXT if test.kind is TestKind.TEXT else _COMMENT
            return [i for i in candidates if kinds[i] == kind]
        kind = _ATTRIBUTE if step.axis is Axis.ATTRIBUTE else _ELEMENT
        if test.kind is TestKind.WILDCARD:
            return [i for i in candidates if kinds[i] == kind]
        names, name = self.columns.names, test.name.encode()
        return [i for i in candidates if kinds[i] == kind and names[i] == name]

    def filter(self, predicate: Expr, nodes: List[int]) -> List[int]:
        kept: List[int] = []
        size = len(nodes)
        for position, node in enumerate(nodes, start=1):
            value = self.expr(predicate, node, position, size)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                value = position == value
            if value:
                kept.append(node)
        return kept

    def expr(self, expr: Expr, node: int, position: int, size: int):
        if isinstance(expr, (NumberLiteral, StringLiteral)):
            return expr.value
        if isinstance(expr, Path):
            return self.path(expr, [node])
        if isinstance(expr, BooleanOp):
            values = (self.expr(operand, node, position, size) for operand in expr.operands)
            return any(values) if expr.op == "or" else all(values)
        if isinstance(expr, Comparison):
            left = self.strings(self.expr(expr.left, node, position, size))
            right = self.strings(self.expr(expr.right, node, position, size))
            return _compare(expr.op, left, right)
        if isinstance(expr, FunctionCall):
            args = expr.args
            if expr.name == "position":
                return float(position)
            if expr.name == "last":
                return float(size)
            if expr.name == "not":
                return not self.expr(args[0], node, position, size)
            if expr.name == "count":
                result = self.expr(args[0], node, position, size)
                if not isinstance(result, list):
                    raise XPathUnsupportedError("count() expects a node-set")
                return float(len(result))
            if expr.name == "contains":
                haystack, needle = (
                    self.string(self.expr(arg, node, position, size)) for arg in args
                )
                return needle in haystack
        raise XPathUnsupportedError(f"cannot evaluate {expr!r}")

    def strings(self, value):
        """A node-set as its nodes' string-values; any other value as is."""
        if isinstance(value, list):
            return [_string_value(self.columns, node) for node in value]
        return value

    def string(self, value) -> str:
        if isinstance(value, list):
            return _string_value(self.columns, value[0]) if value else ""
        return repr(value) if isinstance(value, float) else str(value)


_OPERATORS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _compare(op: str, left, right) -> bool:
    """XPath 1.0 comparison; a node-set side is a list of string-values."""
    lefts = left if isinstance(left, list) else [left]
    rights = right if isinstance(right, list) else [right]
    return any(_compare_atomic(op, lv, rv) for lv in lefts for rv in rights)


def _compare_atomic(op: str, left, right) -> bool:
    # numeric comparison when either side is a number, or for an ordering
    if (
        isinstance(left, (int, float)) or isinstance(right, (int, float))
        or op in ("<", "<=", ">", ">=")
    ):
        left, right = _as_number(left), _as_number(right)
        if left is None or right is None:
            return False
    return _OPERATORS[op](left, right)


def _as_number(value) -> Optional[float]:
    if isinstance(value, (int, float)):
        return value
    try:
        return float(str(value).strip())
    except ValueError:
        return None
