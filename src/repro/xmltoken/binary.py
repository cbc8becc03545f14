"""Binary token codec: the on-page record format.

Each token serializes to one compact record.  Layout::

    u8 header | [varint len + utf8]*   (name, value, type — present per flags)

The header packs the token kind in the low 5 bits and three presence flags
(name / value / type annotation) in the high bits, so the common tokens
(end tags, short text) cost very few bytes — "low storage overhead" is one
of the paper's desiderata (§2, requirement 6).  Node identifiers are *not*
part of the record (paper §4.3): they are regenerated from the range's
start id.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import CodecError
from repro.xmltoken.tokens import Token, TokenKind

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


def _encode_string(value: str) -> bytes:
    raw = value.encode("utf-8")
    return encode_varint(len(raw)) + raw


def encode_token(token: Token) -> bytes:
    """Serialize one token to its record bytes."""
    header = int(token.kind)
    parts = [b""]  # placeholder for header
    if token.name:
        header |= _FLAG_NAME
        parts.append(_encode_string(token.name))
    if token.value:
        header |= _FLAG_VALUE
        parts.append(_encode_string(token.value))
    if token.type_annotation:
        header |= _FLAG_TYPE
        parts.append(_encode_string(token.type_annotation))
    parts[0] = bytes([header])
    return b"".join(parts)


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

    This is the one place that knows the record layout, and every check on
    it is made here: a record that comes back has a known kind, complete
    length prefixes and payloads, and fields that are each valid UTF-8.
    """
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
    return header, name, value, type_annotation, offset


def decode_token_at(data: bytes, offset: int) -> Tuple[Token, int]:
    """Decode a token at ``offset``; returns (token, next_offset)."""
    header, name, value, type_annotation, offset = token_fields(data, offset)
    kind = KIND_TABLE[header & KIND_MASK]
    return Token(kind, name.decode(), value.decode(), type_annotation.decode()), offset


def encode_tokens(tokens: Iterable[Token]) -> List[bytes]:
    """Encode each token to its own record (the store's storage unit)."""
    return [encode_token(token) for token in tokens]


def decode_tokens(records: Iterable[bytes]) -> List[Token]:
    return [decode_token(record) for record in records]


def encode_stream(tokens: Iterable[Token]) -> bytes:
    """Encode a whole token sequence into one contiguous blob (used by the
    WAL and by tests; pages store one record per token instead)."""
    return b"".join(encode_token(token) for token in tokens)


def decode_stream(data: bytes) -> Iterator[Token]:
    offset = 0
    while offset < len(data):
        token, offset = decode_token_at(data, offset)
        yield token
