"""Unit tests for the binary token codec."""

import pytest

from repro.errors import CodecError
from repro.xmltoken.binary import (
    decode_stream,
    decode_token,
    decode_tokens,
    decode_varint,
    encode_stream,
    encode_token,
    encode_tokens,
    encode_varint,
    peek_kind,
    token_fields,
)
from repro.xmltoken.emitter import emit
from repro.xmltoken.parser import tokenize_fragment
from repro.xmltoken.tokens import (
    Token,
    TokenKind,
    begin_element,
    end_element,
    text,
)


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**14, 2**21, 2**32, 2**60])
    def test_roundtrip(self, value):
        data = encode_varint(value)
        decoded, offset = decode_varint(data)
        assert decoded == value
        assert offset == len(data)

    def test_small_values_are_one_byte(self):
        assert len(encode_varint(0)) == 1
        assert len(encode_varint(127)) == 1
        assert len(encode_varint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            encode_varint(-1)

    def test_truncated_varint(self):
        with pytest.raises(CodecError):
            decode_varint(b"\x80")

    def test_overlong_varint(self):
        with pytest.raises(CodecError):
            decode_varint(b"\xff" * 11)


class TestTokenCodec:
    @pytest.mark.parametrize(
        "token",
        [
            begin_element("ticket"),
            end_element(),
            text("15"),
            Token(TokenKind.BEGIN_ATTRIBUTE, name="id"),
            Token(TokenKind.ATTRIBUTE_VALUE, value="v-42"),
            Token(TokenKind.PROCESSING_INSTRUCTION, name="t", value="d"),
            Token(TokenKind.NAMESPACE, name="p", value="urn:x"),
            Token(TokenKind.TEXT, value="15", type_annotation="xs:integer"),
            Token(TokenKind.BEGIN_ELEMENT, name="a", type_annotation="xs:string"),
            text("héllo ☺ " * 50),
            text(""),
        ],
    )
    def test_roundtrip(self, token):
        assert decode_token(encode_token(token)) == token

    def test_end_element_is_one_byte(self):
        assert len(encode_token(end_element())) == 1

    def test_short_text_is_compact(self):
        # header + len + 2 payload bytes
        assert len(encode_token(text("15"))) == 4

    def test_trailing_garbage_rejected(self):
        data = encode_token(text("x")) + b"\x00"
        with pytest.raises(CodecError):
            decode_token(data)

    def test_empty_record_rejected(self):
        with pytest.raises(CodecError):
            decode_token(b"")

    def test_unknown_kind_rejected(self):
        with pytest.raises(CodecError):
            decode_token(bytes([0x1F]))  # kind 31 does not exist

    def test_truncated_string_rejected(self):
        good = encode_token(text("hello world"))
        with pytest.raises(CodecError):
            decode_token(good[:-3])

    @pytest.mark.parametrize(
        "record",
        [
            b"\x68\x02\xff\xfe",  # COMMENT name: no such UTF-8 byte
            b"\x46\x01\xc3",  # TEXT value: a lead byte with nothing to lead
            b"\x46\x01\xa9",  # TEXT value: a continuation byte on its own
            b"\x86\x03\xed\xa0\x80",  # type annotation: an encoded surrogate
        ],
    )
    def test_invalid_utf8_is_a_codec_error(self, record):
        # not UnicodeDecodeError: with checksums off one flipped text byte
        # reaches the codec, and store.read() must still fail typed
        for consume in (decode_token, token_fields, lambda r: emit([r])):
            with pytest.raises(CodecError, match="UTF-8"):
                consume(record)

    def test_fields_are_validated_one_by_one(self):
        # joined, the two values are a well-formed "\u00e9": the emitter may
        # not leave validation to decoding its joined output
        halves = [b"\x46\x01\xc3", b"\x46\x01\xa9"]
        assert b"".join(r[2:] for r in halves).decode("utf-8") == "\u00e9"
        with pytest.raises(CodecError):
            emit(halves)


class TestTokenFields:
    """The one slicer the decoder and the record emitter share."""

    def test_slices_each_present_field(self):
        token = Token(TokenKind.TEXT, name="n", value="h\u00e9", type_annotation="xs:string")
        record = encode_token(token)
        header, name, value, type_annotation, end = token_fields(record)
        assert header & 0x1F == TokenKind.TEXT
        assert (name, value, type_annotation) == (b"n", "h\u00e9".encode(), b"xs:string")
        assert end == len(record)

    def test_absent_fields_are_empty(self):
        assert token_fields(encode_token(end_element())) == (3, b"", b"", b"", 1)

    def test_slices_at_an_offset_and_reports_where_it_stopped(self):
        blob = encode_stream([begin_element("a"), text("x" * 200), end_element()])
        _, name, _, _, offset = token_fields(blob, 0)
        assert name == b"a"
        _, _, value, _, offset = token_fields(blob, offset)  # a two-byte length
        assert value == b"x" * 200
        assert token_fields(blob, offset) == (3, b"", b"", b"", len(blob))

    @pytest.mark.parametrize(
        "record, message",
        [
            (b"", "empty token record"),
            (bytes([0x1F]), "unknown token kind 31"),
            (b"\x46", "truncated varint"),
            (b"\x46\x80", "truncated varint"),
            (b"\x46\x05ab", "truncated string payload"),
            (b"\x46" + b"\xff" * 11, "varint too long"),
        ],
    )
    def test_the_decoders_checks_are_made_here(self, record, message):
        for consume in (token_fields, decode_token, lambda r: emit([r])):
            with pytest.raises(CodecError, match=message):
                consume(record)

    def test_trailing_bytes_are_the_callers_to_judge(self):
        # a stream decoder continues from next_offset; whole-record readers
        # (decode_token, the emitter) reject what is left over
        record = encode_token(text("x")) + b"\x00"
        assert token_fields(record)[4] == len(record) - 1
        for consume in (decode_token, lambda r: emit([r])):
            with pytest.raises(CodecError, match="1 trailing bytes"):
                consume(record)


class TestPeekKind:
    """The header byte alone names the kind — what structural scans read."""

    @pytest.mark.parametrize("kind", list(TokenKind))
    def test_agrees_with_the_full_decode_for_every_kind(self, kind):
        bare = Token(kind)
        loaded = Token(kind, name="n", value="v" * 200, type_annotation="xs:string")
        for token in (bare, loaded):
            record = encode_token(token)
            assert peek_kind(record) is kind
            assert peek_kind(record) is decode_token(record).kind

    def test_never_looks_past_the_header(self):
        # a payload decode_token rejects is still a well-formed header
        truncated = encode_token(text("hello world"))[:-3]
        with pytest.raises(CodecError):
            decode_token(truncated)
        assert peek_kind(truncated) is TokenKind.TEXT

    @pytest.mark.parametrize("kind_bits", range(len(TokenKind), 32))
    @pytest.mark.parametrize("flags", [0x00, 0x20, 0xE0])
    def test_unassigned_kind_bits_rejected(self, kind_bits, flags):
        record = bytes([flags | kind_bits]) + b"\x01x"
        with pytest.raises(CodecError, match=f"unknown token kind {kind_bits}"):
            peek_kind(record)
        with pytest.raises(CodecError, match=f"unknown token kind {kind_bits}"):
            decode_token(record)

    def test_empty_record_rejected(self):
        with pytest.raises(CodecError, match="empty token record"):
            peek_kind(b"")


class TestSequenceCodecs:
    def test_encode_tokens_one_record_each(self):
        tokens = tokenize_fragment("<a x='1'>body</a>")
        records = encode_tokens(tokens)
        assert len(records) == len(tokens)
        assert decode_tokens(records) == tokens

    def test_stream_roundtrip(self):
        tokens = tokenize_fragment("<r><a>1</a><b y='2'><!--c--></b></r>")
        blob = encode_stream(tokens)
        assert list(decode_stream(blob)) == tokens

    def test_empty_stream(self):
        assert list(decode_stream(b"")) == []

    def test_parser_to_codec_pipeline(self):
        xml = "<ticket><hour>15</hour><name>Paul</name></ticket>"
        tokens = tokenize_fragment(xml)
        assert decode_tokens(encode_tokens(tokens)) == tokens
