"""Token sequences back to XML text (the read path of the store)."""

from __future__ import annotations

from typing import Iterable, List

from repro.errors import TokenStreamError
from repro.xmltoken.tokens import Token, TokenKind


#: What character data must not contain literally, per context, and the
#: entity that stands in for it.  "&" leads: the entities themselves contain
#: it.  The record emitter (:mod:`repro.xmltoken.emitter`) derives its
#: byte-level escaping from these same tables.
TEXT_ENTITIES = (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"))
ATTRIBUTE_ENTITIES = (("&", "&amp;"), ("<", "&lt;"), ('"', "&quot;"))


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    for char, entity in TEXT_ENTITIES:
        value = value.replace(char, entity)
    return value


def escape_attribute(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    for char, entity in ATTRIBUTE_ENTITIES:
        value = value.replace(char, entity)
    return value


def serialize(tokens: Iterable[Token], indent: str = "") -> str:
    """Serialize a token sequence to XML text.

    With the default ``indent=""`` the output is canonical-compact (no
    added whitespace) and round-trips through the parser token-for-token.
    A non-empty ``indent`` pretty-prints element structure; this changes
    whitespace-only text and is meant for human consumption.
    """
    writer = _Writer(indent)
    for token in tokens:
        writer.feed(token)
    return writer.finish()


class _Writer:
    def __init__(self, indent: str) -> None:
        self._indent = indent
        self._parts: List[str] = []
        self._depth = 0
        # element stack entries: [name, has_children, tag_still_open]
        self._stack: List[List] = []
        self._attribute: List[str] = []  # pending attribute [name, value]

    # -- event handling ------------------------------------------------------

    def feed(self, token: Token) -> None:
        kind = token.kind
        if kind == TokenKind.BEGIN_DOCUMENT or kind == TokenKind.END_DOCUMENT:
            return
        if kind == TokenKind.BEGIN_ELEMENT:
            self._close_open_tag(newline=True)
            self._write_line_start()
            self._parts.append(f"<{token.name}")
            self._stack.append([token.name, False, True])
            self._depth += 1
        elif kind == TokenKind.END_ELEMENT:
            if not self._stack:
                raise TokenStreamError("END_ELEMENT with no open element")
            name, has_children, tag_open = self._stack.pop()
            self._depth -= 1
            if tag_open:
                self._parts.append("/>")
            else:
                if has_children and self._indent:
                    self._parts.append("\n" + self._indent * self._depth)
                self._parts.append(f"</{name}>")
        elif kind == TokenKind.BEGIN_ATTRIBUTE:
            if not self._stack or not self._stack[-1][2]:
                raise TokenStreamError("attribute token outside a start tag")
            self._attribute = [token.name, ""]
        elif kind == TokenKind.ATTRIBUTE_VALUE:
            if not self._attribute:
                raise TokenStreamError("ATTRIBUTE_VALUE outside an attribute")
            self._attribute[1] += token.value
        elif kind == TokenKind.END_ATTRIBUTE:
            if not self._attribute:
                raise TokenStreamError("END_ATTRIBUTE with no open attribute")
            name, value = self._attribute
            self._parts.append(f' {name}="{escape_attribute(value)}"')
            self._attribute = []
        elif kind == TokenKind.NAMESPACE:
            if self._stack and self._stack[-1][2]:
                attr = "xmlns" if not token.name else f"xmlns:{token.name}"
                self._parts.append(f' {attr}="{escape_attribute(token.value)}"')
            else:
                raise TokenStreamError("NAMESPACE token outside a start tag")
        elif kind == TokenKind.TEXT:
            # Text stays inline: it must not trigger pretty-print newlines,
            # which would change the document's character data.
            self._close_open_tag(newline=False)
            self._parts.append(escape_text(token.value))
        elif kind == TokenKind.COMMENT:
            self._close_open_tag(newline=True)
            self._write_line_start()
            self._parts.append(f"<!--{token.value}-->")
            self._mark_child()
        elif kind == TokenKind.PROCESSING_INSTRUCTION:
            self._close_open_tag(newline=True)
            self._write_line_start()
            data = f" {token.value}" if token.value else ""
            self._parts.append(f"<?{token.name}{data}?>")
            self._mark_child()
        else:  # pragma: no cover - exhaustive over TokenKind
            raise TokenStreamError(f"cannot serialize token kind {kind!r}")

    def finish(self) -> str:
        if self._stack:
            raise TokenStreamError(
                f"unclosed element <{self._stack[-1][0]}> at end of stream"
            )
        if self._attribute:
            raise TokenStreamError("unclosed attribute at end of stream")
        return "".join(self._parts)

    # -- helpers -------------------------------------------------------------------

    def _close_open_tag(self, newline: bool) -> None:
        if self._stack and self._stack[-1][2]:
            self._parts.append(">")
            self._stack[-1][2] = False
            self._stack[-1][1] = self._stack[-1][1] or newline

    def _mark_child(self) -> None:
        if self._stack:
            self._stack[-1][1] = True

    def _write_line_start(self) -> None:
        if self._indent and self._parts:
            self._parts.append("\n" + self._indent * self._depth)
