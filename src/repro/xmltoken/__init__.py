"""Token model, record parser, serializer, record emitter and binary codec."""

from repro.xmltoken.binary import (
    decode_stream,
    decode_token,
    decode_tokens,
    encode_record,
    encode_stream,
    encode_token,
    encode_tokens,
    peek_kind,
)
from repro.xmltoken.datamodel import node_end_offset
from repro.xmltoken.emitter import emit
from repro.xmltoken.parser import parse_records, tokenize_document, tokenize_fragment
from repro.xmltoken.serializer import serialize
from repro.xmltoken.tokens import Token, TokenKind, element

__all__ = [
    "Token",
    "TokenKind",
    "decode_stream",
    "decode_token",
    "decode_tokens",
    "element",
    "emit",
    "encode_record",
    "encode_stream",
    "encode_token",
    "encode_tokens",
    "node_end_offset",
    "parse_records",
    "peek_kind",
    "serialize",
    "tokenize_document",
    "tokenize_fragment",
]
