"""The token-list oracle: the pull parser and stream checks the record pass replaced.

``repro.xmltoken.parser`` goes from XML text to stored records in one pass.
Before it, the store tokenized into :class:`~repro.xmltoken.tokens.Token`
objects with the :class:`PullParser` below, then walked the list to strip
document tokens, to :func:`validate_stream`, to encode and to
:func:`count_nodes`.  That pipeline is kept here, unchanged, as the
reference the record pass is differentially tested against
(``tests/properties/test_record_parser.py``).  The token-list helpers no
program code calls (:func:`subtree`, :func:`top_level_nodes`,
:func:`depth_profile`) live here too, beside the data-model tests of the
checks.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import TokenStreamError, XMLSyntaxError
from repro.xmltoken.datamodel import node_end_offset
from repro.xmltoken.tokens import (
    MATCHING_END,
    Token,
    TokenKind,
    attribute_value,
    begin_attribute,
    begin_document,
    begin_element,
    comment,
    end_attribute,
    end_document,
    end_element,
    namespace,
    processing_instruction,
    text,
)

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME_START_EXTRA = "_:"
_NAME_EXTRA = "_:.-"


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch in _NAME_START_EXTRA


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in _NAME_EXTRA


class _Scanner:
    """Character cursor with line/column tracking for error messages."""

    __slots__ = ("source", "pos", "length")

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.length = len(source)

    # -- errors ---------------------------------------------------------------

    def error(self, message: str, at: Optional[int] = None) -> XMLSyntaxError:
        position = self.pos if at is None else at
        prefix = self.source[:position]
        line = prefix.count("\n") + 1
        column = position - (prefix.rfind("\n") + 1) + 1
        return XMLSyntaxError(message, line=line, column=column)

    # -- low-level cursor -------------------------------------------------------

    @property
    def at_end(self) -> bool:
        return self.pos >= self.length

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < self.length else ""

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def startswith(self, prefix: str) -> bool:
        return self.source.startswith(prefix, self.pos)

    def consume(self, literal: str, what: str) -> None:
        if not self.startswith(literal):
            raise self.error(f"expected {what} ({literal!r})")
        self.pos += len(literal)

    def skip_whitespace(self) -> None:
        while self.pos < self.length and self.source[self.pos] in " \t\r\n":
            self.pos += 1

    def read_until(self, terminator: str, what: str) -> str:
        end = self.source.find(terminator, self.pos)
        if end == -1:
            raise self.error(f"unterminated {what}")
        value = self.source[self.pos : end]
        self.pos = end + len(terminator)
        return value

    def read_name(self) -> str:
        start = self.pos
        if self.at_end or not _is_name_start(self.source[self.pos]):
            raise self.error("expected a name")
        self.pos += 1
        while self.pos < self.length and _is_name_char(self.source[self.pos]):
            self.pos += 1
        return self.source[start : self.pos]


class PullParser:
    """Pull-style tokenizer: iterate to receive tokens one at a time."""

    def __init__(self, source: str, fragment: bool = True) -> None:
        self._scanner = _Scanner(source)
        self._fragment = fragment
        self._open_elements: List[str] = []
        self._seen_root = False

    def __iter__(self) -> Iterator[Token]:
        return self._run()

    # -- main loop ----------------------------------------------------------------

    def _run(self) -> Iterator[Token]:
        scanner = self._scanner
        if not self._fragment:
            yield begin_document()
            self._skip_prolog()
        elif scanner.startswith("<?xml") and scanner.peek(5) in " \t\r\n?":
            # tolerate a leading XML declaration on fragments too
            scanner.read_until("?>", "XML declaration")
        while not scanner.at_end:
            if scanner.peek() == "<":
                produced = self._markup()
            else:
                produced = self._character_data()
            for token in produced:
                yield token
        if self._open_elements:
            raise scanner.error(
                f"unclosed element <{self._open_elements[-1]}> at end of input"
            )
        if not self._fragment:
            if not self._seen_root:
                raise scanner.error("document has no root element")
            yield end_document()

    # -- prolog -------------------------------------------------------------------

    def _skip_prolog(self) -> None:
        scanner = self._scanner
        scanner.skip_whitespace()
        if scanner.startswith("<?xml"):
            scanner.read_until("?>", "XML declaration")
        scanner.skip_whitespace()
        while scanner.startswith("<!--") or scanner.startswith("<!DOCTYPE"):
            if scanner.startswith("<!--"):
                scanner.advance(4)
                scanner.read_until("-->", "comment")
            else:
                self._skip_doctype()
            scanner.skip_whitespace()

    def _skip_doctype(self) -> None:
        scanner = self._scanner
        scanner.consume("<!DOCTYPE", "DOCTYPE declaration")
        depth = 1
        while depth and not scanner.at_end:
            ch = scanner.peek()
            if ch == "<":
                depth += 1
            elif ch == ">":
                depth -= 1
            scanner.advance()
        if depth:
            raise scanner.error("unterminated DOCTYPE declaration")

    # -- markup dispatch -------------------------------------------------------------

    def _markup(self) -> List[Token]:
        scanner = self._scanner
        if scanner.startswith("<!--"):
            scanner.advance(4)
            value = scanner.read_until("-->", "comment")
            if "--" in value:
                raise scanner.error("'--' is not allowed inside a comment")
            return [comment(value)]
        if scanner.startswith("<![CDATA["):
            scanner.advance(9)
            value = scanner.read_until("]]>", "CDATA section")
            if not self._open_elements and not self._fragment:
                raise scanner.error("character data outside the root element")
            return [text(value)]
        if scanner.startswith("<?"):
            return [self._processing_instruction()]
        if scanner.startswith("</"):
            return [self._end_tag()]
        if scanner.startswith("<!"):
            raise scanner.error("unexpected markup declaration")
        return self._start_tag()

    def _processing_instruction(self) -> Token:
        scanner = self._scanner
        scanner.advance(2)
        target = scanner.read_name()
        if target.lower() == "xml":
            raise scanner.error("the 'xml' target is reserved")
        body = scanner.read_until("?>", "processing instruction")
        return processing_instruction(target, body.strip())

    def _start_tag(self) -> List[Token]:
        scanner = self._scanner
        start = scanner.pos
        scanner.advance(1)  # '<'
        name = scanner.read_name()
        if not self._fragment and not self._open_elements:
            if self._seen_root:
                raise scanner.error("multiple root elements", at=start)
            self._seen_root = True
        tokens: List[Token] = [begin_element(name)]
        seen_attributes = set()
        while True:
            scanner.skip_whitespace()
            ch = scanner.peek()
            if ch == ">":
                scanner.advance()
                self._open_elements.append(name)
                return tokens
            if scanner.startswith("/>"):
                scanner.advance(2)
                tokens.append(end_element())
                return tokens
            if not ch:
                raise scanner.error(f"unterminated start tag <{name}>", at=start)
            attr_name = scanner.read_name()
            if attr_name in seen_attributes:
                raise scanner.error(f"duplicate attribute {attr_name!r}")
            seen_attributes.add(attr_name)
            scanner.skip_whitespace()
            scanner.consume("=", "'=' after attribute name")
            scanner.skip_whitespace()
            value = self._attribute_literal()
            if attr_name == "xmlns":
                tokens.append(namespace("", value))
            elif attr_name.startswith("xmlns:"):
                tokens.append(namespace(attr_name[6:], value))
            else:
                tokens.append(begin_attribute(attr_name))
                tokens.append(attribute_value(value))
                tokens.append(end_attribute())
        # unreachable

    def _attribute_literal(self) -> str:
        scanner = self._scanner
        quote = scanner.peek()
        if quote not in "\"'":
            raise scanner.error("attribute value must be quoted")
        scanner.advance()
        raw = scanner.read_until(quote, "attribute value")
        if "<" in raw:
            raise scanner.error("'<' is not allowed in an attribute value")
        return self._expand_entities(raw)

    def _end_tag(self) -> Token:
        scanner = self._scanner
        start = scanner.pos
        scanner.advance(2)  # '</'
        name = scanner.read_name()
        scanner.skip_whitespace()
        scanner.consume(">", "'>' closing an end tag")
        if not self._open_elements:
            raise scanner.error(f"end tag </{name}> with no open element", at=start)
        expected = self._open_elements.pop()
        if expected != name:
            raise scanner.error(
                f"end tag </{name}> does not match open element <{expected}>",
                at=start,
            )
        return end_element()

    # -- character data ------------------------------------------------------------

    def _character_data(self) -> List[Token]:
        scanner = self._scanner
        start = scanner.pos
        end = scanner.source.find("<", scanner.pos)
        if end == -1:
            end = scanner.length
        raw = scanner.source[start:end]
        scanner.pos = end
        if "]]>" in raw:
            raise scanner.error("']]>' is not allowed in character data")
        value = self._expand_entities(raw)
        if not self._open_elements:
            if value.strip():
                if self._fragment:
                    return [text(value)]
                raise scanner.error("character data outside the root element", at=start)
            return []  # inter-element whitespace at top level
        return [text(value)]

    def _expand_entities(self, raw: str) -> str:
        if "&" not in raw:
            return raw
        scanner = self._scanner
        parts: List[str] = []
        index = 0
        while True:
            amp = raw.find("&", index)
            if amp == -1:
                parts.append(raw[index:])
                return "".join(parts)
            parts.append(raw[index:amp])
            semi = raw.find(";", amp)
            if semi == -1:
                raise scanner.error("unterminated entity reference")
            entity = raw[amp + 1 : semi]
            parts.append(self._resolve_entity(entity))
            index = semi + 1

    def _resolve_entity(self, entity: str) -> str:
        if entity in _PREDEFINED_ENTITIES:
            return _PREDEFINED_ENTITIES[entity]
        if entity.startswith("#x") or entity.startswith("#X"):
            try:
                return chr(int(entity[2:], 16))
            except ValueError:
                raise self._scanner.error(f"bad character reference &{entity};") from None
        if entity.startswith("#"):
            try:
                return chr(int(entity[1:]))
            except ValueError:
                raise self._scanner.error(f"bad character reference &{entity};") from None
        raise self._scanner.error(f"unknown entity &{entity};")


def tokenize_fragment(source: str) -> List[Token]:
    """Tokenize an XML fragment (zero or more sibling nodes)."""
    return list(PullParser(source, fragment=True))


def tokenize_document(source: str) -> List[Token]:
    """Tokenize a full document, bracketed in document tokens."""
    return list(PullParser(source, fragment=False))


def iter_tokens(source: str, fragment: bool = True) -> Iterator[Token]:
    """Streaming variant: yields tokens as the input is consumed."""
    return iter(PullParser(source, fragment=fragment))


# -- the stream checks ---------------------------------------------------------

def validate_stream(tokens: Sequence[Token], allow_document: bool = True) -> None:
    """Raise :class:`TokenStreamError` unless ``tokens`` is a well-nested
    forest of complete nodes.

    Rules enforced:

    * begin tokens are closed by their matching end kind, properly nested;
    * ATTRIBUTE_VALUE appears only between BEGIN_ATTRIBUTE/END_ATTRIBUTE;
    * attributes and namespaces appear only in the *attribute position* of
      an element (before any content);
    * nothing nests inside an attribute except its value;
    * document tokens (if present) are outermost only.
    """
    stack: List[TokenKind] = []
    # Whether the innermost element is still in its attribute position.
    attr_position: List[bool] = []
    for index, token in enumerate(tokens):
        kind = token.kind
        if stack and stack[-1] == TokenKind.BEGIN_ATTRIBUTE:
            if kind == TokenKind.ATTRIBUTE_VALUE:
                continue
            if kind == TokenKind.END_ATTRIBUTE:
                stack.pop()
                continue
            raise TokenStreamError(
                f"token {token!r} at {index} is not allowed inside an attribute"
            )
        if kind == TokenKind.BEGIN_DOCUMENT:
            if not allow_document:
                raise TokenStreamError("document tokens are not allowed here")
            if stack:
                raise TokenStreamError("BEGIN_DOCUMENT must be outermost")
            stack.append(kind)
        elif kind == TokenKind.BEGIN_ELEMENT:
            if not token.name:
                raise TokenStreamError(f"element at {index} has no name")
            stack.append(kind)
            attr_position.append(True)
        elif kind == TokenKind.BEGIN_ATTRIBUTE:
            if not token.name:
                raise TokenStreamError(f"attribute at {index} has no name")
            if not attr_position or not attr_position[-1] or stack[-1] != TokenKind.BEGIN_ELEMENT:
                raise TokenStreamError(
                    f"attribute at {index} outside an element's attribute position"
                )
            stack.append(kind)
        elif kind == TokenKind.NAMESPACE:
            if not attr_position or not attr_position[-1] or stack[-1] != TokenKind.BEGIN_ELEMENT:
                raise TokenStreamError(
                    f"namespace at {index} outside an element's attribute position"
                )
        elif kind in MATCHING_END.values():
            if not stack:
                raise TokenStreamError(f"unmatched end token {token!r} at {index}")
            begin = stack.pop()
            if MATCHING_END[begin] != kind:
                raise TokenStreamError(
                    f"end token {token!r} at {index} does not match {begin.name}"
                )
            if begin == TokenKind.BEGIN_ELEMENT:
                attr_position.pop()
        elif kind == TokenKind.ATTRIBUTE_VALUE:
            raise TokenStreamError(
                f"ATTRIBUTE_VALUE at {index} outside an attribute"
            )
        else:  # TEXT, COMMENT, PROCESSING_INSTRUCTION
            if attr_position:
                attr_position[-1] = False
    if stack:
        raise TokenStreamError(f"{len(stack)} unclosed begin token(s) at end of stream")


def strip_document_tokens(tokens: Sequence[Token]) -> List[Token]:
    """Remove an outermost document-token bracket, if present."""
    if (
        len(tokens) >= 2
        and tokens[0].kind == TokenKind.BEGIN_DOCUMENT
        and tokens[-1].kind == TokenKind.END_DOCUMENT
    ):
        return list(tokens[1:-1])
    return list(tokens)


def subtree(tokens: Sequence[Token], start: int) -> List[Token]:
    """The complete token sequence of the node starting at ``start``."""
    return list(tokens[start : node_end_offset(tokens, start)])


def top_level_nodes(tokens: Sequence[Token]) -> List[Tuple[int, int]]:
    """(start, end) slices of each top-level node of a forest."""
    slices: List[Tuple[int, int]] = []
    index = 0
    while index < len(tokens):
        end = node_end_offset(tokens, index)
        slices.append((index, end))
        index = end
    return slices


def depth_profile(tokens: Iterable[Token]) -> List[int]:
    """Nesting depth before each token (document/element/attribute levels)."""
    depths: List[int] = []
    depth = 0
    for token in tokens:
        if token.is_end:
            depth -= 1
        depths.append(depth)
        if token.is_begin:
            depth += 1
    return depths


def count_nodes(tokens: Iterable[Token]) -> int:
    """Number of XQuery Data Model nodes in a token sequence (= number of
    identifiers the id factory will allocate for it)."""
    return sum(1 for token in tokens if token.starts_node)
