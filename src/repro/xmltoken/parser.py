"""XML text to stored token records, in one pass.

Plays the role of the BEA/XQRL pull parser the paper's representation is
derived from [7]: XML text in, enriched-SAX events out.  In the paper a
token *is* such an event serialized into a block, so each event leaves this
parser as the record the store keeps for it, encoded the moment it is
recognized by :func:`repro.xmltoken.binary.encode_record` — the inverse of
the slicer the read path uses — and no :class:`~repro.xmltoken.tokens.Token`
is built on the way.  The parser tracks nesting itself, so what it returns
is a well-nested forest of complete nodes by construction, and it counts
the records that start a node (the ids the store will allocate) as it
makes them.

Supported XML: elements, attributes (separate begin/value/end records),
character data, CDATA sections, comments, processing instructions, the XML
declaration, DOCTYPE declarations (skipped), the five predefined entities
plus decimal/hex character references, and namespace declarations
(``xmlns``/``xmlns:p`` attributes become NAMESPACE records; QNames are kept
verbatim).  A name is a ``str.isalpha`` character or one of ``_:``, then
``str.isalnum`` characters or ``_:.-``.  A lone surrogate, written or
referenced, is a syntax error: records hold UTF-8, which cannot encode it.

:func:`parse_records`
    ``(records, node_count)`` for a *fragment* — zero or more sibling nodes
    (elements, text, comments, PIs), which is what updates carry — or, with
    ``document``, for a full document (exactly one root element, no
    top-level text) bracketed in BEGIN_DOCUMENT/END_DOCUMENT records.

:func:`tokenize_fragment` / :func:`tokenize_document`
    The same events decoded to tokens, for the token-list models
    (``ReferenceStore``, ``TokenDocument``), the CLI's pretty printer and
    tests.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.errors import XMLSyntaxError
from repro.xmltoken.binary import decode_tokens, encode_record
from repro.xmltoken.tokens import Token, TokenKind

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

# The ASCII part of the name rules, matched in C; a non-ASCII character is
# judged by str.isalnum itself (regex \w is a different rule)
_NAME = re.compile(r"[A-Za-z_:][A-Za-z0-9_:.\-]*")
_NAME_REST = re.compile(r"[A-Za-z0-9_:.\-]*")
_SPACE = re.compile(r"[ \t\r\n]*")

_BEGIN_ELEMENT = int(TokenKind.BEGIN_ELEMENT)
_BEGIN_ATTRIBUTE = int(TokenKind.BEGIN_ATTRIBUTE)
_ATTRIBUTE_VALUE = int(TokenKind.ATTRIBUTE_VALUE)
_TEXT = int(TokenKind.TEXT)
_END_ELEMENT = encode_record(TokenKind.END_ELEMENT)
_END_ATTRIBUTE = encode_record(TokenKind.END_ATTRIBUTE)


class _RecordParser:
    """One parse: a cursor over the text, the records made so far and the
    names of the open elements (the depth counter)."""

    __slots__ = (
        "source", "pos", "length", "document", "records", "nodes", "open",
        "seen_root", "elements", "attributes",
    )

    def __init__(self, source: str, document: bool) -> None:
        self.source = source
        self.pos = 0
        self.length = len(source)
        self.document = document
        self.records: List[bytes] = []
        self.nodes = 0
        self.open: List[str] = []
        self.seen_root = False
        # name -> its BEGIN_ELEMENT / BEGIN_ATTRIBUTE record: markup repeats
        self.elements: Dict[str, bytes] = {}
        self.attributes: Dict[str, bytes] = {}

    def error(self, message: str, at: Optional[int] = None) -> XMLSyntaxError:
        position = self.pos if at is None else at
        prefix = self.source[:position]
        line = prefix.count("\n") + 1
        column = position - (prefix.rfind("\n") + 1) + 1
        return XMLSyntaxError(message, line=line, column=column)

    # -- main loop ----------------------------------------------------------------

    def run(self) -> None:
        source = self.source
        if self.document:
            self.emit(TokenKind.BEGIN_DOCUMENT)
            self._skip_prolog()
        elif source.startswith("<?xml") and source[5:6] in " \t\r\n?":
            # tolerate a leading XML declaration on fragments too
            self._until("?>", "XML declaration")
        try:
            while self.pos < self.length:
                if source[self.pos] == "<":
                    self._markup()
                else:
                    self._character_data()
        except UnicodeEncodeError as exc:
            code = ord(exc.object[exc.start])
            raise self.error(f"surrogate U+{code:04X} is not a character") from None
        if self.open:
            raise self.error(f"unclosed element <{self.open[-1]}> at end of input")
        if self.document:
            if not self.seen_root:
                raise self.error("document has no root element")
            self.records.append(encode_record(TokenKind.END_DOCUMENT))

    def emit(self, kind: int, name: str = "", value: str = "") -> None:
        """Append the record of a node-starting event."""
        self.records.append(encode_record(kind, name, value))
        self.nodes += 1

    # -- low-level cursor -----------------------------------------------------------

    def _space(self, pos: int) -> int:
        """The first position at or after ``pos`` that is not whitespace."""
        return _SPACE.match(self.source, pos).end()

    def _name_end(self, pos: int) -> int:
        """Where the name starting at ``pos`` ends."""
        source = self.source
        match = _NAME.match(source, pos)
        if match is not None:
            end = match.end()
        elif pos < self.length and source[pos].isalpha():
            end = _NAME_REST.match(source, pos + 1).end()
        else:
            raise self.error("expected a name", at=pos)
        # only a non-ASCII character can be alphanumeric here
        while end < self.length and source[end].isalnum():
            end = _NAME_REST.match(source, end + 1).end()
        return end

    def _until(self, terminator: str, what: str) -> str:
        """The text up to ``terminator``; the cursor moves past it."""
        end = self.source.find(terminator, self.pos)
        if end == -1:
            raise self.error(f"unterminated {what}")
        value = self.source[self.pos : end]
        self.pos = end + len(terminator)
        return value

    # -- prolog ---------------------------------------------------------------------

    def _skip_prolog(self) -> None:
        source = self.source
        self.pos = self._space(self.pos)
        if source.startswith("<?xml", self.pos):
            self._until("?>", "XML declaration")
        self.pos = self._space(self.pos)
        while source.startswith("<!--", self.pos) or source.startswith("<!DOCTYPE", self.pos):
            if source.startswith("<!--", self.pos):
                self.pos += 4
                self._until("-->", "comment")
            else:
                self._skip_doctype()
            self.pos = self._space(self.pos)

    def _skip_doctype(self) -> None:
        source, pos = self.source, self.pos + len("<!DOCTYPE")
        depth = 1
        while depth and pos < self.length:
            if source[pos] == "<":
                depth += 1
            elif source[pos] == ">":
                depth -= 1
            pos += 1
        self.pos = pos
        if depth:
            raise self.error("unterminated DOCTYPE declaration")

    # -- markup ---------------------------------------------------------------------

    def _markup(self) -> None:
        source, pos = self.source, self.pos
        following = source[pos + 1 : pos + 2]
        if following == "/":
            self._end_tag()
        elif following == "?":
            self._processing_instruction()
        elif source.startswith("<!--", pos):
            self.pos = pos + 4
            value = self._until("-->", "comment")
            if "--" in value:
                raise self.error("'--' is not allowed inside a comment")
            self.emit(TokenKind.COMMENT, "", value)
        elif source.startswith("<![CDATA[", pos):
            self.pos = pos + 9
            value = self._until("]]>", "CDATA section")
            if not self.open and self.document:
                raise self.error("character data outside the root element")
            self.emit(_TEXT, "", value)
        elif following == "!":
            raise self.error("unexpected markup declaration")
        else:
            self._start_tag()

    def _processing_instruction(self) -> None:
        start = self.pos + 2
        end = self._name_end(start)
        target = self.source[start:end]
        self.pos = end
        if target.lower() == "xml":
            raise self.error("the 'xml' target is reserved")
        body = self._until("?>", "processing instruction")
        self.emit(TokenKind.PROCESSING_INSTRUCTION, target, body.strip())

    def _start_tag(self) -> None:
        source, start = self.source, self.pos
        pos = self._name_end(start + 1)
        name = source[start + 1 : pos]
        if self.document and not self.open:
            if self.seen_root:
                raise self.error("multiple root elements", at=start)
            self.seen_root = True
        records = self.records
        record = self.elements.get(name)
        if record is None:
            record = self.elements[name] = encode_record(_BEGIN_ELEMENT, name)
        records.append(record)
        self.nodes += 1
        seen: List[str] = []  # attribute names: a tag has few
        while True:
            pos = self._space(pos)
            following = source[pos : pos + 1]
            if following == ">":
                self.pos = pos + 1
                self.open.append(name)
                return
            if following == "/" and source.startswith("/>", pos):
                self.pos = pos + 2
                records.append(_END_ELEMENT)
                return
            if not following:
                raise self.error(f"unterminated start tag <{name}>", at=start)
            end = self._name_end(pos)
            attribute = source[pos:end]
            if attribute in seen:
                raise self.error(f"duplicate attribute {attribute!r}", at=end)
            seen.append(attribute)
            pos = self._space(end)
            if not source.startswith("=", pos):
                raise self.error("expected '=' after attribute name ('=')", at=pos)
            pos = self._space(pos + 1)
            quote = source[pos : pos + 1]
            if quote not in "\"'":
                raise self.error("attribute value must be quoted", at=pos)
            close = source.find(quote, pos + 1) if quote else -1
            if close == -1:
                raise self.error("unterminated attribute value", at=pos + 1)
            raw = source[pos + 1 : close]
            pos = self.pos = close + 1
            if "<" in raw:
                raise self.error("'<' is not allowed in an attribute value")
            value = self._expand(raw) if "&" in raw else raw
            if attribute == "xmlns" or attribute.startswith("xmlns:"):
                self.emit(TokenKind.NAMESPACE, attribute[6:], value)
                continue
            record = self.attributes.get(attribute)
            if record is None:
                record = self.attributes[attribute] = encode_record(_BEGIN_ATTRIBUTE, attribute)
            records.append(record)
            records.append(encode_record(_ATTRIBUTE_VALUE, "", value))
            records.append(_END_ATTRIBUTE)
            self.nodes += 1

    def _end_tag(self) -> None:
        source, start = self.source, self.pos
        end = self._name_end(start + 2)
        name = source[start + 2 : end]
        pos = self._space(end)
        if not source.startswith(">", pos):
            raise self.error("expected '>' closing an end tag ('>')", at=pos)
        self.pos = pos + 1
        if not self.open:
            raise self.error(f"end tag </{name}> with no open element", at=start)
        expected = self.open.pop()
        if expected != name:
            raise self.error(
                f"end tag </{name}> does not match open element <{expected}>", at=start
            )
        self.records.append(_END_ELEMENT)

    # -- character data ---------------------------------------------------------------

    def _character_data(self) -> None:
        source, start = self.source, self.pos
        end = source.find("<", start)
        if end == -1:
            end = self.length
        raw = source[start:end]
        self.pos = end
        if "]]>" in raw:
            raise self.error("']]>' is not allowed in character data")
        value = self._expand(raw) if "&" in raw else raw
        if not self.open:
            if not value.strip():
                return  # inter-element whitespace at top level
            if self.document:
                raise self.error("character data outside the root element", at=start)
        self.emit(_TEXT, "", value)

    def _expand(self, raw: str) -> str:
        """``raw`` with its entity and character references replaced."""
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
                raise self.error("unterminated entity reference")
            entity = raw[amp + 1 : semi]
            parts.append(self._resolve(entity))
            index = semi + 1

    def _resolve(self, entity: str) -> str:
        if entity in _PREDEFINED_ENTITIES:
            return _PREDEFINED_ENTITIES[entity]
        if entity.startswith("#x") or entity.startswith("#X"):
            digits, base = entity[2:], 16
        elif entity.startswith("#"):
            digits, base = entity[1:], 10
        else:
            raise self.error(f"unknown entity &{entity};")
        try:
            return chr(int(digits, base))
        except (ValueError, OverflowError):
            raise self.error(f"bad character reference &{entity};") from None


def parse_records(source: str, document: bool = False) -> Tuple[List[bytes], int]:
    """XML text to ``(records, node_count)``: one record per event, in
    document order, and how many of them start a node."""
    parser = _RecordParser(source, document)
    parser.run()
    return parser.records, parser.nodes


def tokenize_fragment(source: str) -> List[Token]:
    """Tokenize an XML fragment (zero or more sibling nodes)."""
    return decode_tokens(parse_records(source)[0])


def tokenize_document(source: str) -> List[Token]:
    """Tokenize a full document, bracketed in document tokens."""
    return decode_tokens(parse_records(source, document=True)[0])
