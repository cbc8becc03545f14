"""Token model, record parser, record emitter and binary codec."""

from repro.xmltoken.binary import (
    decode_token,
    encode_record,
    encode_token,
    encode_tokens,
    peek_kind,
)
from repro.xmltoken.emitter import emit, indented
from repro.xmltoken.parser import parse_records
from repro.xmltoken.tokens import Token, TokenKind, element

__all__ = [
    "Token",
    "TokenKind",
    "decode_token",
    "element",
    "emit",
    "encode_record",
    "encode_token",
    "encode_tokens",
    "indented",
    "parse_records",
    "peek_kind",
]
