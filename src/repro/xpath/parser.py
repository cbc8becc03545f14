"""Recursive-descent parser for the XPath subset (grammar in ast.py)."""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import XPathSyntaxError
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

_TOKEN_RE = re.compile(
    r"""
    (?P<dslash>//)
  | (?P<slash>/)
  | (?P<lbracket>\[) | (?P<rbracket>\])
  | (?P<lparen>\() | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<at>@)
  | (?P<dotdot>\.\.) | (?P<dot>\.)
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<star>\*)
  | (?P<name>[A-Za-z_][\w.-]*(?::[A-Za-z_][\w.-]*)?)
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)

_NODE_TYPE_TESTS = {
    "text": TestKind.TEXT,
    "node": TestKind.NODE,
    "comment": TestKind.COMMENT,
}

_FUNCTIONS = {"position", "last", "not", "count", "contains"}


class _Tokens:
    def __init__(self, source: str) -> None:
        self.source = source
        self.items: List[Tuple[str, str, int]] = []
        position = 0
        while position < len(source):
            match = _TOKEN_RE.match(source, position)
            if match is None:
                raise XPathSyntaxError(
                    f"unexpected character {source[position]!r} at {position} "
                    f"in {source!r}"
                )
            kind = match.lastgroup
            assert kind is not None
            if kind != "ws":
                self.items.append((kind, match.group(), position))
            position = match.end()
        self.index = 0

    def peek(self, offset: int = 0) -> Optional[Tuple[str, str, int]]:
        index = self.index + offset
        return self.items[index] if index < len(self.items) else None

    def next(self) -> Tuple[str, str, int]:
        item = self.peek()
        if item is None:
            raise XPathSyntaxError(f"unexpected end of expression in {self.source!r}")
        self.index += 1
        return item

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[str]:
        item = self.peek()
        if item is not None and item[0] == kind and (value is None or item[1] == value):
            self.index += 1
            return item[1]
        return None

    def expect(self, kind: str) -> str:
        item = self.peek()
        if item is None or item[0] != kind:
            got = item[1] if item else "end of expression"
            raise XPathSyntaxError(f"expected {kind}, got {got!r} in {self.source!r}")
        self.index += 1
        return item[1]

    @property
    def exhausted(self) -> bool:
        return self.index >= len(self.items)


def parse(source: str) -> Path:
    """Parse an XPath expression into a :class:`Path`."""
    tokens = _Tokens(source)
    path = _parse_path(tokens)
    if not tokens.exhausted:
        kind, value, position = tokens.peek()  # type: ignore[misc]
        raise XPathSyntaxError(
            f"trailing input {value!r} at {position} in {source!r}"
        )
    return path


def _parse_path(tokens: _Tokens) -> Path:
    steps: List[Step] = []
    absolute = False
    if tokens.accept("dslash"):
        absolute = True
        steps.extend(_parse_step(tokens, descendant=True))
    elif tokens.accept("slash"):
        absolute = True
        steps.extend(_parse_step(tokens))
    else:
        steps.extend(_parse_step(tokens))
    while True:
        if tokens.accept("dslash"):
            steps.extend(_parse_step(tokens, descendant=True))
        elif tokens.accept("slash"):
            steps.extend(_parse_step(tokens))
        else:
            break
    return Path(steps=tuple(steps), absolute=absolute)


def _parse_step(tokens: _Tokens, descendant: bool = False) -> Tuple[Step, ...]:
    """One step; ``//`` before ``.``, ``..`` or ``@`` is a step of its own."""
    node = NodeTest(TestKind.NODE)
    dots = tokens.accept("dotdot") or tokens.accept("dot")
    if dots:
        step = Step(Axis.PARENT if dots == ".." else Axis.SELF, node)
    elif tokens.accept("at"):
        step = _parse_tested_step(tokens, Axis.ATTRIBUTE)
    else:
        axis = Axis.DESCENDANT_OR_SELF if descendant else Axis.CHILD
        return (_parse_tested_step(tokens, axis),)
    return (Step(Axis.SUBTREE, node), step) if descendant else (step,)


def _parse_tested_step(tokens: _Tokens, axis: Axis) -> Step:
    test = _parse_node_test(tokens)
    predicates = []
    while tokens.accept("lbracket"):
        predicates.append(_parse_expr(tokens))
        tokens.expect("rbracket")
    return Step(axis, test, tuple(predicates))


def _parse_node_test(tokens: _Tokens) -> NodeTest:
    if tokens.accept("star"):
        return NodeTest(TestKind.WILDCARD)
    name = tokens.expect("name")
    if name in _NODE_TYPE_TESTS and tokens.peek() and tokens.peek()[0] == "lparen":
        tokens.expect("lparen")
        tokens.expect("rparen")
        return NodeTest(_NODE_TYPE_TESTS[name])
    return NodeTest(TestKind.NAME, name)


# ------------------------------------------------------------- expressions --

def _parse_expr(tokens: _Tokens) -> Expr:
    return _parse_or(tokens)


def _parse_or(tokens: _Tokens) -> Expr:
    operands = [_parse_and(tokens)]
    while tokens.accept("name", "or"):
        operands.append(_parse_and(tokens))
    if len(operands) == 1:
        return operands[0]
    return BooleanOp("or", tuple(operands))


def _parse_and(tokens: _Tokens) -> Expr:
    operands = [_parse_comparison(tokens)]
    while tokens.accept("name", "and"):
        operands.append(_parse_comparison(tokens))
    if len(operands) == 1:
        return operands[0]
    return BooleanOp("and", tuple(operands))


def _parse_comparison(tokens: _Tokens) -> Expr:
    left = _parse_operand(tokens)
    item = tokens.peek()
    if item is not None and item[0] == "op":
        op = tokens.next()[1]
        right = _parse_operand(tokens)
        return Comparison(op, left, right)
    return left


def _parse_operand(tokens: _Tokens) -> Expr:
    item = tokens.peek()
    if item is None:
        raise XPathSyntaxError("expected an operand")
    kind, value, _ = item
    if kind == "number":
        tokens.next()
        return NumberLiteral(float(value))
    if kind == "string":
        tokens.next()
        return StringLiteral(value[1:-1])
    if kind == "name" and value in _FUNCTIONS:
        after = tokens.peek(1)
        if after is not None and after[0] == "lparen":
            return _parse_function(tokens)
    # otherwise a relative path (possibly starting with @ or . or ..)
    return _parse_path(tokens)


def _parse_function(tokens: _Tokens) -> Expr:
    name = tokens.expect("name")
    tokens.expect("lparen")
    args: List[Expr] = []
    if not tokens.accept("rparen"):
        args.append(_parse_function_arg(tokens, name))
        while tokens.accept("comma"):
            args.append(_parse_function_arg(tokens, name))
        tokens.expect("rparen")
    arity = {"position": 0, "last": 0, "not": 1, "count": 1, "contains": 2}[name]
    if len(args) != arity:
        raise XPathSyntaxError(f"{name}() takes {arity} argument(s), got {len(args)}")
    return FunctionCall(name, tuple(args))


def _parse_function_arg(tokens: _Tokens, function: str) -> Expr:
    if function in ("not",):
        return _parse_expr(tokens)
    return _parse_operand(tokens)
