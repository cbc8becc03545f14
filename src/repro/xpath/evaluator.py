"""Navigational XPath evaluation over the store.

The evaluator materializes a lightweight node view of the store (one pass
over the token sequence, regenerating node identifiers with the locator's
scan so every result carries its *store* node id) and then walks it per
the XPath semantics of the supported subset.  Results are
:class:`XPathNode` objects; ``store.read(result.node_id)`` — or
``result.xml()`` — serializes the matched subtree.

This is the *navigational* strategy; :mod:`repro.xpath.structural_join`
implements the containment-join strategy the paper contrasts it with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Union

from repro.errors import XPathUnsupportedError
from repro.obs.events import NOOP_EVENT_LOG
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
from repro.xmltoken.tokens import TokenKind


@dataclass
class XPathNode:
    """One node of the materialized view."""

    node_id: Optional[int]
    kind: TokenKind
    name: str = ""
    value: str = ""
    parent: Optional["XPathNode"] = None
    children: List["XPathNode"] = field(default_factory=list)
    attributes: List["XPathNode"] = field(default_factory=list)
    _store: Optional[object] = None

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

    def descendants_or_self(self) -> Iterable["XPathNode"]:
        yield self
        for child in self.children:
            yield from child.descendants_or_self()

    def xml(self) -> str:
        """Serialize this node through the store (attribute nodes render
        as ``name="value"``)."""
        if self._store is not None and self.node_id is not None:
            if self.kind == TokenKind.BEGIN_ATTRIBUTE:
                return f'{self.name}="{self.value}"'
            return self._store.read(self.node_id)  # type: ignore[attr-defined]
        raise XPathUnsupportedError("node is not backed by a store")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.kind.name
        return f"<XPathNode #{self.node_id} {label}>"


def build_view(store) -> XPathNode:
    """Materialize the store's node tree under a synthetic root."""
    root = XPathNode(node_id=None, kind=TokenKind.BEGIN_DOCUMENT, _store=store)
    stack: List[XPathNode] = [root]
    current_attribute: Optional[XPathNode] = None
    for item in store.locator.scan():
        kind = item.kind  # the payload is decoded only where it is read
        if kind == TokenKind.BEGIN_ELEMENT:
            node = XPathNode(
                node_id=item.last_id,
                kind=kind,
                name=item.token.name,
                parent=stack[-1],
                _store=store,
            )
            stack[-1].children.append(node)
            stack.append(node)
        elif kind == TokenKind.END_ELEMENT:
            stack.pop()
        elif kind == TokenKind.BEGIN_ATTRIBUTE:
            current_attribute = XPathNode(
                node_id=item.last_id,
                kind=kind,
                name=item.token.name,
                parent=stack[-1],
                _store=store,
            )
            stack[-1].attributes.append(current_attribute)
        elif kind == TokenKind.ATTRIBUTE_VALUE:
            if current_attribute is not None:
                current_attribute.value += item.token.value
        elif kind == TokenKind.END_ATTRIBUTE:
            current_attribute = None
        elif kind in (TokenKind.TEXT, TokenKind.COMMENT, TokenKind.PROCESSING_INSTRUCTION):
            node = XPathNode(
                node_id=item.last_id,
                kind=kind,
                name=item.token.name,
                value=item.token.value,
                parent=stack[-1],
                _store=store,
            )
            stack[-1].children.append(node)
        # namespaces are not part of the navigable view
    return root


def evaluate(store, expression: str) -> List[XPathNode]:
    """Evaluate ``expression`` against ``store``; results in document order."""
    path = parse(expression)
    before_scanned = store.locator.stats.tokens_scanned
    root = build_view(store)
    matches = evaluate_path(path, context=[root], root=root)
    event_log = getattr(store, "event_log", NOOP_EVENT_LOG)
    if event_log.enabled:
        event_log.emit(
            "xpath", "evaluate", severity="info",
            expression=expression,
            matches=len(matches),
            view_tokens=store.locator.stats.tokens_scanned - before_scanned,
        )
    return matches


def evaluate_path(
    path: Path, context: Sequence[XPathNode], root: XPathNode
) -> List[XPathNode]:
    current: List[XPathNode] = [root] if path.absolute else list(context)
    for step in path.steps:
        current = _apply_step(step, current, root)
    return current


def _apply_step(
    step: Step, context: Sequence[XPathNode], root: XPathNode
) -> List[XPathNode]:
    gathered: List[XPathNode] = []
    seen = set()
    for node in context:
        for candidate in _axis_candidates(step.axis, node):
            if _test_matches(step.test, step.axis, candidate):
                key = id(candidate)
                if key not in seen:
                    seen.add(key)
                    gathered.append(candidate)
    for predicate in step.predicates:
        gathered = _filter_predicate(predicate, gathered, root)
    return gathered


def _axis_candidates(axis: Axis, node: XPathNode) -> Iterable[XPathNode]:
    if axis is Axis.CHILD:
        return node.children
    if axis is Axis.DESCENDANT_OR_SELF:
        return node.descendants_or_self()
    if axis is Axis.ATTRIBUTE:
        return node.attributes
    if axis is Axis.SELF:
        return [node]
    if axis is Axis.PARENT:
        return [node.parent] if node.parent is not None else []
    raise XPathUnsupportedError(f"axis {axis} not supported")


def _test_matches(test: NodeTest, axis: Axis, node: XPathNode) -> bool:
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
    predicate: Expr, nodes: List[XPathNode], root: XPathNode
) -> List[XPathNode]:
    kept: List[XPathNode] = []
    size = len(nodes)
    for position, node in enumerate(nodes, start=1):
        value = _evaluate_expr(predicate, node, root, position, size)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if position == int(value):
                kept.append(node)
        elif _to_boolean(value):
            kept.append(node)
    return kept


def _evaluate_expr(
    expr: Expr, node: XPathNode, root: XPathNode, position: int, size: int
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
