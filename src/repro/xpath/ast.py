"""Abstract syntax for the XPath subset.

The supported grammar (a practical XPath 1.0 core, enough for the query
workloads the paper's motivation names)::

    path        := '/'? step (('/' | '//') step)*
    step        := '.' | '..' | '@'? node_test predicate*
    node_test   := NCName | '*' | 'text()' | 'node()' | 'comment()'
    predicate   := '[' expr ']'
    expr        := or_expr
    or_expr     := and_expr ('or' and_expr)*
    and_expr    := comparison ('and' comparison)*
    comparison  := operand (('=' | '!=' | '<=' | '>=' | '<' | '>') operand)?
    operand     := number | string | function | relative path
    function    := 'position()' | 'last()' | 'not(' expr ')'
                 | 'count(' path ')' | 'contains(' operand ',' operand ')'

A bare number predicate (``item[2]``) is positional, as in XPath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Union


class Axis(Enum):
    CHILD = "child"
    #: ``//name``: ``descendant-or-self::node()/child::name`` as one step,
    #: so that its predicates count among each parent's children
    DESCENDANT_OR_SELF = "descendant-or-self"
    #: ``//`` before ``.`` or ``..``: ``descendant-or-self::node()`` itself
    SUBTREE = "descendant-or-self::node()"
    ATTRIBUTE = "attribute"
    SELF = "self"
    PARENT = "parent"


class TestKind(Enum):
    NAME = "name"          # element/attribute QName
    WILDCARD = "*"
    TEXT = "text()"
    NODE = "node()"
    COMMENT = "comment()"


@dataclass(frozen=True)
class NodeTest:
    kind: TestKind
    name: str = ""

    def __str__(self) -> str:
        return self.name if self.kind is TestKind.NAME else self.kind.value


@dataclass(frozen=True)
class Step:
    axis: Axis
    test: NodeTest
    predicates: tuple = ()

    def __str__(self) -> str:
        prefix = "@" if self.axis is Axis.ATTRIBUTE else ""
        predicates = "".join(f"[{p}]" for p in self.predicates)
        return f"{prefix}{self.test}{predicates}"


@dataclass(frozen=True)
class Path:
    """A location path: sequence of steps, optionally absolute."""

    steps: tuple
    absolute: bool = False

    def __str__(self) -> str:
        sep = "/"
        rendered = sep.join(str(step) for step in self.steps)
        return (sep if self.absolute else "") + rendered


# --------------------------------------------------------------- expressions --

@dataclass(frozen=True)
class NumberLiteral:
    value: float

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class StringLiteral:
    value: str

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Comparison:
    op: str  # '=', '!=', '<', '<=', '>', '>='
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class BooleanOp:
    op: str  # 'and' | 'or'
    operands: tuple

    def __str__(self) -> str:
        return f" {self.op} ".join(str(o) for o in self.operands)


@dataclass(frozen=True)
class FunctionCall:
    name: str  # position, last, not, count, contains
    args: tuple = ()

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


Expr = Union[Path, NumberLiteral, StringLiteral, Comparison, BooleanOp, FunctionCall]
