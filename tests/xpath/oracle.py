"""The tree evaluator the record-column XPath evaluator replaced, kept as its oracle.

Before :mod:`repro.xpath.evaluator` read node columns, every query decoded
the token of each node's record and linked an :class:`OracleNode` tree
with parent pointers (:func:`build_view`), then walked it.  That evaluator
is kept here as the reference the column evaluator is differentially
tested against (``tests/xpath/test_differential.py``), with the two fixes
made when it was replaced:

* a step's predicates filter each context node's candidates on their own,
  and ``a//b`` is ``a/descendant-or-self::node()/child::b``, so
  ``//b[1]`` is the first ``b`` child of every node (XPath 1.0);
* a step's result is sorted into document order (``//b/..`` used to come
  out in the order the parents were first reached).

:func:`label_elements` is the token walk the structural join's region
labels came from before they were read off the same columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import XPathUnsupportedError
from repro.ids.prepost import PrePostLabel
from repro.xmltoken.binary import decode_token
from repro.xmltoken.tokens import TokenKind
from repro.xpath.ast import (
    Axis,
    BooleanOp,
    Comparison,
    Expr,
    FunctionCall,
    NodeTest,
    NumberLiteral,
    Path,
    Step,
    StringLiteral,
    TestKind,
)
from repro.xpath.parser import parse
from repro.xpath.structural_join import LabeledElement

#: The kinds whose record the tree reads past the header.
_DECODED = (
    TokenKind.BEGIN_ELEMENT, TokenKind.BEGIN_ATTRIBUTE, TokenKind.ATTRIBUTE_VALUE,
    TokenKind.TEXT, TokenKind.COMMENT, TokenKind.PROCESSING_INSTRUCTION,
)


@dataclass(eq=False)
class OracleNode:
    """One node of the materialized view; ``order`` is its document order."""

    order: int
    node_id: Optional[int]
    kind: TokenKind
    name: str = ""
    value: str = ""
    parent: Optional["OracleNode"] = None
    children: List["OracleNode"] = field(default_factory=list)
    attributes: List["OracleNode"] = field(default_factory=list)

    @property
    def string_value(self) -> str:
        """XPath string-value: concatenated descendant text."""
        if self.kind in (TokenKind.TEXT, TokenKind.COMMENT):
            return self.value
        if self.kind == TokenKind.BEGIN_ATTRIBUTE:
            return self.value
        parts: List[str] = []
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            if node.kind == TokenKind.TEXT:
                parts.append(node.value)
            stack.extend(reversed(node.children))
        return "".join(parts)

    def descendants_or_self(self) -> Iterable["OracleNode"]:
        yield self
        for child in self.children:
            yield from child.descendants_or_self()


def build_view(store) -> OracleNode:
    """Materialize the store's node tree under a synthetic root."""
    root = OracleNode(order=0, node_id=None, kind=TokenKind.BEGIN_DOCUMENT)
    stack: List[OracleNode] = [root]
    current_attribute: Optional[OracleNode] = None
    count = 1
    for item in store.locator.scan():
        kind = item.kind
        token = decode_token(item.record) if kind in _DECODED else None
        if kind == TokenKind.BEGIN_ELEMENT:
            node = OracleNode(count, item.last_id, kind, token.name, parent=stack[-1])
            stack[-1].children.append(node)
            stack.append(node)
        elif kind == TokenKind.END_ELEMENT:
            stack.pop()
            continue
        elif kind == TokenKind.BEGIN_ATTRIBUTE:
            current_attribute = OracleNode(
                count, item.last_id, kind, token.name, parent=stack[-1]
            )
            stack[-1].attributes.append(current_attribute)
        elif kind == TokenKind.ATTRIBUTE_VALUE:
            if current_attribute is not None:
                current_attribute.value += token.value
            continue
        elif kind == TokenKind.END_ATTRIBUTE:
            current_attribute = None
            continue
        elif kind in (TokenKind.TEXT, TokenKind.COMMENT, TokenKind.PROCESSING_INSTRUCTION):
            node = OracleNode(
                count, item.last_id, kind, token.name, token.value, parent=stack[-1]
            )
            stack[-1].children.append(node)
        else:
            continue  # namespaces are not part of the navigable view
        count += 1
    return root


def evaluate(store, expression: str) -> List[OracleNode]:
    """Evaluate ``expression`` against ``store``; results in document order."""
    root = build_view(store)
    return evaluate_path(parse(expression), context=[root], root=root)


def evaluate_path(
    path: Path, context: Sequence[OracleNode], root: OracleNode
) -> List[OracleNode]:
    current: List[OracleNode] = [root] if path.absolute else list(context)
    for step in path.steps:
        current = _apply_step(step, current, root)
    return current


def _apply_step(
    step: Step, context: Sequence[OracleNode], root: OracleNode
) -> List[OracleNode]:
    gathered: Dict[int, OracleNode] = {}
    for node in context:
        for group in _candidate_groups(step.axis, node):
            matched = [c for c in group if _test_matches(step.test, step.axis, c)]
            for predicate in step.predicates:
                matched = _filter_predicate(predicate, matched, root)
            for candidate in matched:
                gathered[candidate.order] = candidate
    return [gathered[order] for order in sorted(gathered)]


def _candidate_groups(axis: Axis, node: OracleNode) -> List[List[OracleNode]]:
    """The candidate lists a step's predicates see: the children of every
    descendant-or-self node for ``//``, else the one axis list."""
    if axis is Axis.DESCENDANT_OR_SELF:
        return [n.children for n in node.descendants_or_self()]
    if axis is Axis.SUBTREE:
        return [list(node.descendants_or_self())]
    if axis is Axis.CHILD:
        return [node.children]
    if axis is Axis.ATTRIBUTE:
        return [node.attributes]
    if axis is Axis.SELF:
        return [[node]]
    if axis is Axis.PARENT:
        return [[node.parent] if node.parent is not None else []]
    raise XPathUnsupportedError(f"axis {axis} not supported")


def _test_matches(test: NodeTest, axis: Axis, node: OracleNode) -> bool:
    if test.kind is TestKind.NODE:
        return True
    if test.kind is TestKind.TEXT:
        return node.kind == TokenKind.TEXT
    if test.kind is TestKind.COMMENT:
        return node.kind == TokenKind.COMMENT
    if axis is Axis.ATTRIBUTE:
        if node.kind != TokenKind.BEGIN_ATTRIBUTE:
            return False
        return test.kind is TestKind.WILDCARD or node.name == test.name
    if node.kind != TokenKind.BEGIN_ELEMENT:
        return False
    return test.kind is TestKind.WILDCARD or node.name == test.name


def _filter_predicate(
    predicate: Expr, nodes: List[OracleNode], root: OracleNode
) -> List[OracleNode]:
    kept: List[OracleNode] = []
    size = len(nodes)
    for position, node in enumerate(nodes, start=1):
        value = _evaluate_expr(predicate, node, root, position, size)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if position == value:
                kept.append(node)
        elif _to_boolean(value):
            kept.append(node)
    return kept


def _evaluate_expr(
    expr: Expr, node: OracleNode, root: OracleNode, position: int, size: int
):
    if isinstance(expr, NumberLiteral):
        return expr.value
    if isinstance(expr, StringLiteral):
        return expr.value
    if isinstance(expr, Path):
        return evaluate_path(expr, [node], root)
    if isinstance(expr, BooleanOp):
        values = (
            _to_boolean(_evaluate_expr(operand, node, root, position, size))
            for operand in expr.operands
        )
        return any(values) if expr.op == "or" else all(values)
    if isinstance(expr, Comparison):
        left = _evaluate_expr(expr.left, node, root, position, size)
        right = _evaluate_expr(expr.right, node, root, position, size)
        return _compare(expr.op, left, right)
    if isinstance(expr, FunctionCall):
        if expr.name == "position":
            return float(position)
        if expr.name == "last":
            return float(size)
        if expr.name == "not":
            return not _to_boolean(
                _evaluate_expr(expr.args[0], node, root, position, size)
            )
        if expr.name == "count":
            result = _evaluate_expr(expr.args[0], node, root, position, size)
            if not isinstance(result, list):
                raise XPathUnsupportedError("count() expects a node-set")
            return float(len(result))
        if expr.name == "contains":
            haystack = _to_string(
                _evaluate_expr(expr.args[0], node, root, position, size)
            )
            needle = _to_string(
                _evaluate_expr(expr.args[1], node, root, position, size)
            )
            return needle in haystack
    raise XPathUnsupportedError(f"cannot evaluate {expr!r}")


def _to_boolean(value) -> bool:
    if isinstance(value, list):
        return bool(value)
    if isinstance(value, str):
        return bool(value)
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    return bool(value)


def _to_string(value) -> str:
    if isinstance(value, list):
        return value[0].string_value if value else ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _as_number(text: str) -> Optional[float]:
    try:
        return float(text.strip())
    except ValueError:
        return None


def _compare(op: str, left, right) -> bool:
    """XPath 1.0 comparison semantics for the supported operand types."""
    if isinstance(left, list) or isinstance(right, list):
        left_values = (
            [n.string_value for n in left] if isinstance(left, list) else [left]
        )
        right_values = (
            [n.string_value for n in right] if isinstance(right, list) else [right]
        )
        return any(
            _compare_atomic(op, lv, rv)
            for lv in left_values
            for rv in right_values
        )
    return _compare_atomic(op, left, right)


def _compare_atomic(op: str, left, right) -> bool:
    # numeric comparison when either side is a number (or looks like one)
    if isinstance(left, (int, float)) or isinstance(right, (int, float)):
        left_number = left if isinstance(left, (int, float)) else _as_number(str(left))
        right_number = (
            right if isinstance(right, (int, float)) else _as_number(str(right))
        )
        if left_number is None or right_number is None:
            return False
        left, right = left_number, right_number
    elif op in ("<", "<=", ">", ">="):
        left_number, right_number = _as_number(str(left)), _as_number(str(right))
        if left_number is None or right_number is None:
            return False
        left, right = left_number, right_number
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise XPathUnsupportedError(f"operator {op!r}")


def label_elements(store) -> Dict[str, List[LabeledElement]]:
    """Region labels from a token walk: one counter ticks on every element
    begin and end; groups by tag name, sorted by ``start``."""
    groups: Dict[str, List[LabeledElement]] = {}
    open_stack: List[Tuple[str, int, int]] = []  # (name, start, node_id)
    counter = 0
    for item in store.locator.scan():
        kind = item.kind
        if kind == TokenKind.BEGIN_ELEMENT:
            open_stack.append((decode_token(item.record).name, counter, item.last_id))
            counter += 1
        elif kind == TokenKind.END_ELEMENT:
            name, start, node_id = open_stack.pop()
            element = LabeledElement(name, PrePostLabel(start, counter), node_id)
            groups.setdefault(name, []).append(element)
            counter += 1
    for elements in groups.values():
        elements.sort(key=lambda e: e.label.pre)
    return groups
