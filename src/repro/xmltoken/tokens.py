"""The token model: materialized, enriched SAX events (paper §3.2).

A *token* is the most granular unit of the store's XML representation —
more granular than an element, because an element is a *sequence* of
tokens.  The model follows the BEA/XQRL representation the paper builds on
[7]: it is richer than plain SAX in that attributes are separated from
their element and given their own begin/end tokens, and every token has a
slot for a PSVI type annotation.

Figure 1 of the paper maps::

    <ticket>            BEGIN_ELEMENT  [ID: 1] [ticket]
      <hour>            BEGIN_ELEMENT  [ID: 2] [hour]
        15              TEXT           [ID: 3] [15]
      </hour>           END_ELEMENT
      <name>            BEGIN_ELEMENT  [ID: 4] [name]
        Paul            TEXT           [ID: 5] [Paul]
      </name>           END_ELEMENT
    </ticket>           END_ELEMENT

Node identifiers are *not* part of the token value: the store regenerates
them from a range's start identifier with the scheme's id factory (paper
§4.3/§6), which is why tokens expose :meth:`Token.starts_node` — the id
factory advances exactly on node-starting tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import Iterable, Iterator, List, Sequence


class TokenKind(IntEnum):
    """Every part of the XQuery Data Model, as a flat event vocabulary."""

    BEGIN_DOCUMENT = 0
    END_DOCUMENT = 1
    BEGIN_ELEMENT = 2
    END_ELEMENT = 3
    BEGIN_ATTRIBUTE = 4
    END_ATTRIBUTE = 5
    TEXT = 6
    ATTRIBUTE_VALUE = 7  # text inside an attribute; part of the attribute node
    COMMENT = 8
    PROCESSING_INSTRUCTION = 9
    NAMESPACE = 10


#: Kinds that open a nested scope and must be closed by the matching end kind.
BEGIN_KINDS = frozenset(
    {TokenKind.BEGIN_DOCUMENT, TokenKind.BEGIN_ELEMENT, TokenKind.BEGIN_ATTRIBUTE}
)

#: Kinds that close a nested scope.
END_KINDS = frozenset(
    {TokenKind.END_DOCUMENT, TokenKind.END_ELEMENT, TokenKind.END_ATTRIBUTE}
)

#: begin kind -> matching end kind
MATCHING_END = {
    TokenKind.BEGIN_DOCUMENT: TokenKind.END_DOCUMENT,
    TokenKind.BEGIN_ELEMENT: TokenKind.END_ELEMENT,
    TokenKind.BEGIN_ATTRIBUTE: TokenKind.END_ATTRIBUTE,
}

#: Kinds whose token is the first token of an XQuery Data Model node and
#: therefore consumes a node identifier.
NODE_STARTING_KINDS = frozenset(
    {
        TokenKind.BEGIN_DOCUMENT,
        TokenKind.BEGIN_ELEMENT,
        TokenKind.BEGIN_ATTRIBUTE,
        TokenKind.TEXT,
        TokenKind.COMMENT,
        TokenKind.PROCESSING_INSTRUCTION,
        TokenKind.NAMESPACE,
    }
)


@dataclass(frozen=True)
class Token:
    """One enriched SAX event.

    ``name``
        QName for elements/attributes, target for processing instructions,
        prefix for namespace tokens; empty otherwise.
    ``value``
        Character data for TEXT/ATTRIBUTE_VALUE/COMMENT tokens, data for
        processing instructions, URI for namespace tokens; empty otherwise.
    ``type_annotation``
        PSVI simple-type annotation (e.g. ``"xs:decimal"``).  The binary
        codec stores it, so it is part of the on-disk format; no schema
        pass fills it, and it is empty for every token the parser makes.
    """

    kind: TokenKind
    name: str = ""
    value: str = ""
    type_annotation: str = ""

    @property
    def starts_node(self) -> bool:
        """Whether this token is the first token of a node (and hence is
        assigned a node identifier by the id factory)."""
        return self.kind in NODE_STARTING_KINDS

    @property
    def is_begin(self) -> bool:
        return self.kind in BEGIN_KINDS

    @property
    def is_end(self) -> bool:
        return self.kind in END_KINDS

    def with_type(self, type_annotation: str) -> "Token":
        """A copy of this token carrying a PSVI type annotation."""
        return replace(self, type_annotation=type_annotation)

    def __repr__(self) -> str:
        parts = [self.kind.name]
        if self.name:
            parts.append(self.name)
        if self.value:
            value = self.value if len(self.value) <= 24 else self.value[:21] + "..."
            parts.append(repr(value))
        if self.type_annotation:
            parts.append(f"::{self.type_annotation}")
        return f"<{' '.join(parts)}>"


# -- convenience constructors (used heavily by tests and workloads) ----------

def begin_document() -> Token:
    return Token(TokenKind.BEGIN_DOCUMENT)


def end_document() -> Token:
    return Token(TokenKind.END_DOCUMENT)


def begin_element(name: str) -> Token:
    return Token(TokenKind.BEGIN_ELEMENT, name=name)


def end_element() -> Token:
    return Token(TokenKind.END_ELEMENT)


def begin_attribute(name: str) -> Token:
    return Token(TokenKind.BEGIN_ATTRIBUTE, name=name)


def end_attribute() -> Token:
    return Token(TokenKind.END_ATTRIBUTE)


def attribute_value(value: str) -> Token:
    return Token(TokenKind.ATTRIBUTE_VALUE, value=value)


def text(value: str) -> Token:
    return Token(TokenKind.TEXT, value=value)


def comment(value: str) -> Token:
    return Token(TokenKind.COMMENT, value=value)


def processing_instruction(target: str, data: str = "") -> Token:
    return Token(TokenKind.PROCESSING_INSTRUCTION, name=target, value=data)


def namespace(prefix: str, uri: str) -> Token:
    return Token(TokenKind.NAMESPACE, name=prefix, value=uri)


def element(name: str, *children: object, attributes: Sequence = ()) -> List[Token]:
    """Build the token sequence for an element literal.

    ``children`` may be strings (text) or already-built token lists;
    ``attributes`` is a sequence of (name, value) pairs.  Handy for tests::

        element("hour", "15") == [begin_element("hour"), text("15"),
                                  end_element()]
    """
    tokens: List[Token] = [begin_element(name)]
    for attr_name, attr_value in attributes:
        tokens.append(begin_attribute(attr_name))
        tokens.append(attribute_value(attr_value))
        tokens.append(end_attribute())
    for child in children:
        if isinstance(child, str):
            tokens.append(text(child))
        else:
            tokens.extend(child)  # type: ignore[arg-type]
    tokens.append(end_element())
    return tokens


def count_nodes(tokens: Iterable[Token]) -> int:
    """Number of XQuery Data Model nodes in a token sequence (= number of
    identifiers the id factory will allocate for it)."""
    return sum(1 for token in tokens if token.starts_node)
