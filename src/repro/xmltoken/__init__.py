"""Token model, pull parser, serializer, record emitter, binary codec and
PSVI support."""

from repro.xmltoken.binary import (
    decode_stream,
    decode_token,
    decode_tokens,
    encode_stream,
    encode_token,
    encode_tokens,
    peek_kind,
)
from repro.xmltoken.datamodel import (
    node_end_offset,
    strip_document_tokens,
    subtree,
    top_level_nodes,
    validate_stream,
)
from repro.xmltoken.emitter import emit
from repro.xmltoken.parser import (
    PullParser,
    iter_tokens,
    tokenize_document,
    tokenize_fragment,
)
from repro.xmltoken.psvi import (
    BUILTIN_TYPES,
    Schema,
    SchemaValidationError,
    SimpleType,
    annotate,
    typed_value,
)
from repro.xmltoken.serializer import serialize
from repro.xmltoken.tokens import Token, TokenKind, count_nodes, element

__all__ = [
    "BUILTIN_TYPES",
    "PullParser",
    "Schema",
    "SchemaValidationError",
    "SimpleType",
    "Token",
    "TokenKind",
    "annotate",
    "count_nodes",
    "decode_stream",
    "decode_token",
    "decode_tokens",
    "element",
    "emit",
    "encode_stream",
    "encode_token",
    "encode_tokens",
    "iter_tokens",
    "node_end_offset",
    "peek_kind",
    "serialize",
    "strip_document_tokens",
    "subtree",
    "tokenize_document",
    "tokenize_fragment",
    "top_level_nodes",
    "typed_value",
    "validate_stream",
]
