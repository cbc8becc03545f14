"""Token records straight to XML bytes: the store's read path.

The store keeps one binary record per token, in document order, so reading
it back is a walk over those records.  :func:`emit` renders them without
building a :class:`~repro.xmltoken.tokens.Token` for any: it dispatches on
the kind bits of the header byte, takes name and value bytes from the one
validated slicer (:func:`repro.xmltoken.binary.token_fields`), builds the
``<name`` / ``</name>`` fragments once per distinct name — markup repeats
enormously — and escapes a value only when it holds a character that needs
it.  Output and errors are those of ``serialize(decode_tokens(records))``
(:mod:`repro.xmltoken.serializer`), which the tests hold it against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import CodecError, TokenStreamError
from repro.xmltoken.binary import KIND_MASK, encode_token, peek_kind, token_fields
from repro.xmltoken.serializer import ATTRIBUTE_ENTITIES, TEXT_ENTITIES
from repro.xmltoken.tokens import Token, TokenKind

_BEGIN_ELEMENT = int(TokenKind.BEGIN_ELEMENT)
_END_ELEMENT = int(TokenKind.END_ELEMENT)
_BEGIN_ATTRIBUTE = int(TokenKind.BEGIN_ATTRIBUTE)
_END_ATTRIBUTE = int(TokenKind.END_ATTRIBUTE)
_TEXT = int(TokenKind.TEXT)
_ATTRIBUTE_VALUE = int(TokenKind.ATTRIBUTE_VALUE)
_COMMENT = int(TokenKind.COMMENT)
_PROCESSING_INSTRUCTION = int(TokenKind.PROCESSING_INSTRUCTION)
_NAMESPACE = int(TokenKind.NAMESPACE)
#: A header below this is a kind with no presence flag set: the whole
#: record is that one byte.
_BARE_HEADERS = max(TokenKind) + 1

_Entities = Tuple[Tuple[bytes, bytes], ...]


def _as_bytes(entities: Tuple[Tuple[str, str], ...]) -> Tuple[bytes, _Entities]:
    """The serializer's escape table as (the bytes to look for, byte pairs)."""
    pairs = tuple((char.encode("ascii"), entity.encode("ascii")) for char, entity in entities)
    return b"".join(char for char, _ in pairs), pairs


_TEXT_SPECIALS, _TEXT_PAIRS = _as_bytes(TEXT_ENTITIES)
_ATTRIBUTE_SPECIALS, _ATTRIBUTE_PAIRS = _as_bytes(ATTRIBUTE_ENTITIES)


def _escape(value: bytes, entities: _Entities) -> bytes:
    # the specials are ASCII, which no multi-byte UTF-8 sequence contains:
    # replacing on the bytes is replacing on the characters
    for char, entity in entities:
        value = value.replace(char, entity)
    return value


#: An attribute or namespace node has no XML form of its own; it is rendered
#: inside this scratch element and cut back out.
_SCRATCH_BEGIN = encode_token(Token(TokenKind.BEGIN_ELEMENT, name="_"))
_SCRATCH_END = encode_token(Token(TokenKind.END_ELEMENT))


def emit(records: Iterable[bytes], node: bool = False) -> bytes:
    """Render encoded token records as canonical-compact XML, UTF-8 encoded.

    With ``node`` the records are one node's span, and an attribute or a
    namespace node renders as ``name="value"``; without it those tokens
    are, as for the serializer, an error outside a start tag.
    """
    if node:
        records = list(records)
        if records and peek_kind(records[0]) in (TokenKind.BEGIN_ATTRIBUTE, TokenKind.NAMESPACE):
            wrapped = emit([_SCRATCH_BEGIN, *records, _SCRATCH_END])
            return wrapped[len(b"<_ ") : -len(b"/>")]
    # one growing buffer rather than a list to join: bytes.join sets up an
    # 80-byte Py_buffer per part, megabytes for a document's worth of them
    out = bytearray()
    closers: List[bytes] = []  # the `</name>` of each open element
    tag_open = False  # the innermost element's start tag is still unterminated
    attribute: Optional[bytes] = None  # the ` name="` of the attribute being read
    attribute_value = b""
    tags: Dict[bytes, Tuple[bytes, bytes]] = {}  # name -> (`<name`, `</name>`)
    for record in records:
        if len(record) == 1 and record[0] < _BARE_HEADERS:
            kind = record[0]
            name = value = b""
        else:
            header, name, value, _, end = token_fields(record)
            if end != len(record):
                raise CodecError(f"{len(record) - end} trailing bytes after token")
            kind = header & KIND_MASK
        if kind == _END_ELEMENT:
            if not closers:
                raise TokenStreamError("END_ELEMENT with no open element")
            closer = closers.pop()
            out += b"/>" if tag_open else closer
            tag_open = False
        elif kind == _BEGIN_ELEMENT:
            if tag_open:
                out += b">"
            tag = tags.get(name)
            if tag is None:
                tag = tags[name] = (b"<" + name, b"</" + name + b">")
            out += tag[0]
            closers.append(tag[1])
            tag_open = True
        elif kind == _TEXT:
            if tag_open:
                out += b">"
                tag_open = False
            if len(value.translate(None, _TEXT_SPECIALS)) != len(value):
                value = _escape(value, _TEXT_PAIRS)
            out += value
        elif kind == _BEGIN_ATTRIBUTE:
            if not tag_open:
                raise TokenStreamError("attribute token outside a start tag")
            attribute = b" " + name + b'="'
            attribute_value = b""
        elif kind == _ATTRIBUTE_VALUE:
            if attribute is None:
                raise TokenStreamError("ATTRIBUTE_VALUE outside an attribute")
            attribute_value += value
        elif kind == _END_ATTRIBUTE:
            if attribute is None:
                raise TokenStreamError("END_ATTRIBUTE with no open attribute")
            value = attribute_value
            if len(value.translate(None, _ATTRIBUTE_SPECIALS)) != len(value):
                value = _escape(value, _ATTRIBUTE_PAIRS)
            out += attribute
            out += value
            out += b'"'
            attribute = None
        elif kind == _NAMESPACE:
            if not tag_open:
                raise TokenStreamError("NAMESPACE token outside a start tag")
            out += b' xmlns:' + name + b'="' if name else b' xmlns="'
            out += _escape(value, _ATTRIBUTE_PAIRS)
            out += b'"'
        elif kind == _COMMENT or kind == _PROCESSING_INSTRUCTION:
            if tag_open:
                out += b">"
                tag_open = False
            if kind == _COMMENT:
                out += b"<!--" + value + b"-->"
            else:
                out += b"<?" + name + (b" " + value if value else b"") + b"?>"
        # the two document tokens render as nothing
    if closers:
        name = closers[-1][2:-1].decode("utf-8")
        raise TokenStreamError(f"unclosed element <{name}> at end of stream")
    if attribute is not None:
        raise TokenStreamError("unclosed attribute at end of stream")
    return bytes(out)
