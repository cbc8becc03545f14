"""Binary token codec: the on-page record format.

Each token serializes to one compact record (:func:`encode_record`, which
the parser calls as it recognizes each event).  Layout::

    u8 header | [varint len + utf8]*   (name, value, type — present per flags)

The header packs the token kind in the low 5 bits and three presence flags
(name / value / type annotation) in the high bits, so the common tokens
(end tags, short text) cost very few bytes — "low storage overhead" is one
of the paper's desiderata (§2, requirement 6).  Node identifiers are *not*
part of the record (paper §4.3): they are regenerated from the range's
start id.

The records are as repetitive as markup is: a document's begin and end
records are a few dozen distinct byte strings.  So this module, beside the
layout it depends on, keeps :data:`MARKUP`, a table from the bytes of a
validated record with no value field to its kind and name, which the read
walks (the emitter and the locator's column walk) consult before slicing.
It holds markup only, never document text, and at most
:data:`MARKUP_LIMIT` records, so its memory stays flat whatever is read.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import CodecError
from repro.xmltoken.tokens import BEGIN_KINDS, END_KINDS, NODE_STARTING_KINDS, Token, TokenKind

#: The header bits that hold the token kind.
KIND_MASK = 0x1F
_FLAG_NAME = 0x20
_FLAG_VALUE = 0x40
_FLAG_TYPE = 0x80

#: ``header & KIND_MASK`` -> kind, for every value the 5 kind bits can take;
#: None marks the unassigned ones.  Structural walks (the locator's scans)
#: index this directly: kind, and with it begin/end/starts-node, is all
#: they need from a record, and it costs one byte.
KIND_TABLE: Tuple[Optional[TokenKind], ...] = tuple(
    map({int(kind): kind for kind in TokenKind}.get, range(KIND_MASK + 1))
)
#: What a structural walk needs from a header, over the same index: does
#: the record start a node (and so take an id), and does it open (+1) or
#: close (-1) a scope.  Unassigned kind values are False / 0.
STARTS_NODE: Tuple[bool, ...] = tuple(kind in NODE_STARTING_KINDS for kind in KIND_TABLE)
DEPTH_STEP: Tuple[int, ...] = tuple(
    (kind in BEGIN_KINDS) - (kind in END_KINDS) for kind in KIND_TABLE
)

#: Every header byte, and every one-byte varint, as ready-made bytes.
_BYTES = tuple(bytes((value,)) for value in range(256))

#: The headers of a TEXT and an ATTRIBUTE_VALUE record that hold a value and
#: nothing else.  When that value's length fits one byte the record is
#: ``header | len | value``, which the read walks slice in their own loop.
VALUE_ONLY_HEADERS = frozenset(
    (TokenKind.TEXT | _FLAG_VALUE, TokenKind.ATTRIBUTE_VALUE | _FLAG_VALUE)
)

#: How many records :data:`MARKUP` holds at most.
MARKUP_LIMIT = 4096
#: A fill that finds this many records clears the table first.  A thread
#: can be switched out between that check and its store, so each thread
#: may add one record past the count it saw; the margin keeps up to 64
#: threads that fill at once within :data:`MARKUP_LIMIT`.
_MARKUP_CLEAR_AT = MARKUP_LIMIT - 64
#: Validated markup: the bytes of a whole record that has no value field
#: (a begin or end of an element or attribute, a value-less namespace or
#: PI) -> ``(kind, name)``.  :func:`token_fields` fills it, only with a
#: record that passed every check, so a hit is what it would have
#: returned.  No value is kept (that would copy the document's text into
#: memory), and it is cleared when full: a document with more distinct
#: markup than that pays a fill per new record, and the next document
#: starts from an empty table rather than one full of names it never
#: reads.  Threads share it with no lock: a lookup, a store and a clear
#: are each one dict operation, which the GIL keeps whole, and nothing
#: iterates it.
MARKUP: Dict[bytes, Tuple[int, bytes]] = {}


def encode_varint(value: int) -> bytes:
    """LEB128 unsigned varint."""
    if value < 0:
        raise CodecError(f"varint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a varint at ``offset``; returns (value, next_offset)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise CodecError("varint too long")


def _encode_field(value: str) -> bytes:
    """A record field: the varint length of the UTF-8 bytes, then them.
    ``UnicodeEncodeError`` for a lone surrogate, which UTF-8 cannot hold."""
    raw = value.encode("utf-8")
    size = len(raw)
    return (_BYTES[size] if size < 0x80 else encode_varint(size)) + raw


def encode_record(kind: int, name: str = "", value: str = "", type_annotation: str = "") -> bytes:
    """The record of one event: what :func:`token_fields` slices back.  A
    field is present, and flagged in the header, only when non-empty."""
    header = kind
    fields = b""
    if name:
        header |= _FLAG_NAME
        fields = _encode_field(name)
    if value:
        header |= _FLAG_VALUE
        fields += _encode_field(value)
    if type_annotation:
        header |= _FLAG_TYPE
        fields += _encode_field(type_annotation)
    return _BYTES[header] + fields


def encode_token(token: Token) -> bytes:
    """Serialize one token to its record bytes."""
    return encode_record(token.kind, token.name, token.value, token.type_annotation)


def decode_token(data: bytes) -> Token:
    """Deserialize one token record."""
    token, offset = decode_token_at(data, 0)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after token")
    return token


def peek_kind(record: bytes) -> TokenKind:
    """The kind of an encoded token, read from its header byte alone."""
    if not record:
        raise CodecError("empty token record")
    kind = KIND_TABLE[record[0] & KIND_MASK]
    if kind is None:
        raise CodecError(f"unknown token kind {record[0] & KIND_MASK}")
    return kind


def _field(data: bytes, offset: int) -> Tuple[bytes, int]:
    """The length-prefixed field at ``offset``; returns (bytes, next_offset)."""
    if offset < len(data) and data[offset] < 0x80:
        # a one-byte varint: nearly every field is shorter than 128 bytes
        length = data[offset]
        offset += 1
    else:
        length, offset = decode_varint(data, offset)
    end = offset + length
    if end > len(data):
        raise CodecError("truncated string payload")
    field = data[offset:end]
    if not field.isascii():
        try:
            field.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"token field is not valid UTF-8: {exc}") from None
    return field, end


def token_fields(data: bytes, offset: int = 0) -> Tuple[int, bytes, bytes, bytes, int]:
    """Slice the token record at ``offset`` without building a token:
    ``(header, name, value, type_annotation, next_offset)``, the three
    fields as their stored UTF-8 bytes (``b""`` when absent).

    This and its inverse, :func:`encode_record`, are the two places that
    know the whole record layout, and every check on it is made here: a
    record that comes back has a known kind, complete length prefixes and
    payloads, and fields that are each valid UTF-8.  (The read walks know
    one shape besides, :data:`VALUE_ONLY_HEADERS` with a one-byte length
    and an ASCII value, which needs no check.)  A whole record with no
    value field goes into :data:`MARKUP` as well.
    """
    start = offset
    try:
        header = data[offset]
    except IndexError:
        raise CodecError("empty token record") from None
    if KIND_TABLE[header & KIND_MASK] is None:
        raise CodecError(f"unknown token kind {header & KIND_MASK}")
    offset += 1
    name = value = type_annotation = b""
    if header & _FLAG_NAME:
        name, offset = _field(data, offset)
    if header & _FLAG_VALUE:
        value, offset = _field(data, offset)
    if header & _FLAG_TYPE:
        type_annotation, offset = _field(data, offset)
    if not header & _FLAG_VALUE and not start and offset == len(data) and type(data) is bytes:
        if len(MARKUP) >= _MARKUP_CLEAR_AT:
            MARKUP.clear()
        MARKUP[data] = (header & KIND_MASK, name)
    return header, name, value, type_annotation, offset


def decode_token_at(data: bytes, offset: int) -> Tuple[Token, int]:
    """Decode a token at ``offset``; returns (token, next_offset)."""
    header, name, value, type_annotation, offset = token_fields(data, offset)
    kind = KIND_TABLE[header & KIND_MASK]
    return Token(kind, name.decode(), value.decode(), type_annotation.decode()), offset


def encode_tokens(tokens: Iterable[Token]) -> List[bytes]:
    """Encode each token to its own record (the store's storage unit)."""
    return [encode_token(token) for token in tokens]
