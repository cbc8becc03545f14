"""Property-based tests: token codec and XML round-trips."""

import string

from hypothesis import given, settings, strategies as st

from repro.xmltoken.binary import (
    decode_stream,
    decode_token,
    decode_varint,
    encode_stream,
    encode_token,
    encode_varint,
)
from repro.xmltoken.parser import tokenize_fragment
from repro.xmltoken.serializer import serialize
from repro.xmltoken.tokens import Token, TokenKind

# -- strategies ----------------------------------------------------------------

names = st.text(
    alphabet=string.ascii_letters + string.digits + "._-",
    min_size=1,
    max_size=12,
).filter(lambda s: s[0].isalpha() or s[0] == "_")

# XML 1.0 forbids most control characters; generate text without them
xml_text = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs", "Cc"), blacklist_characters="\r"
    ),
    max_size=40,
)

simple_tokens = st.one_of(
    st.builds(lambda n: Token(TokenKind.BEGIN_ELEMENT, name=n), names),
    st.just(Token(TokenKind.END_ELEMENT)),
    st.builds(lambda n: Token(TokenKind.BEGIN_ATTRIBUTE, name=n), names),
    st.just(Token(TokenKind.END_ATTRIBUTE)),
    st.builds(lambda v: Token(TokenKind.ATTRIBUTE_VALUE, value=v), xml_text),
    st.builds(lambda v: Token(TokenKind.TEXT, value=v), xml_text),
    st.builds(lambda v: Token(TokenKind.COMMENT, value=v), xml_text),
    st.builds(
        lambda n, v: Token(TokenKind.PROCESSING_INSTRUCTION, name=n, value=v),
        names,
        xml_text,
    ),
    st.builds(
        lambda n, v, t: Token(TokenKind.TEXT, name=n, value=v, type_annotation=t),
        st.just(""),
        xml_text,
        names,
    ),
    st.builds(
        lambda n, t: Token(TokenKind.BEGIN_ELEMENT, name=n, type_annotation=t),
        names,
        names,
    ),
    st.builds(
        lambda n, v: Token(TokenKind.NAMESPACE, name=n, value=v),
        st.one_of(st.just(""), names),  # "" declares the default namespace
        xml_text,
    ),
    st.just(Token(TokenKind.BEGIN_DOCUMENT)),
    st.just(Token(TokenKind.END_DOCUMENT)),
)


@st.composite
def xml_trees(draw, max_depth=4):
    """A well-formed XML fragment string, built structurally."""

    def build(depth):
        name = draw(names)
        attr_count = draw(st.integers(0, 2))
        attributes = {}
        for _ in range(attr_count):
            attributes[draw(names)] = draw(
                xml_text.map(lambda s: s.replace("<", ""))
            )
        attr_text = "".join(
            f' {k}="{v.replace(chr(38), "&amp;").replace(chr(34), "&quot;")}"'
            for k, v in attributes.items()
        )
        if depth >= max_depth or draw(st.booleans()):
            return f"<{name}{attr_text}/>"
        child_count = draw(st.integers(0, 3))
        children = []
        for _ in range(child_count):
            if draw(st.booleans()):
                children.append(build(depth + 1))
            else:
                raw = draw(xml_text)
                children.append(
                    raw.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
                )
        return f"<{name}{attr_text}>{''.join(children)}</{name}>"

    return build(0)


# -- properties -------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_varint_roundtrip(value):
    decoded, offset = decode_varint(encode_varint(value))
    assert decoded == value
    assert offset == len(encode_varint(value))


@given(st.lists(st.integers(min_value=0, max_value=2**32), max_size=20))
def test_varint_stream_roundtrip(values):
    blob = b"".join(encode_varint(v) for v in values)
    decoded = []
    offset = 0
    while offset < len(blob):
        value, offset = decode_varint(blob, offset)
        decoded.append(value)
    assert decoded == values


@given(simple_tokens)
def test_token_codec_roundtrip(token):
    assert decode_token(encode_token(token)) == token


@given(st.lists(simple_tokens, max_size=30))
def test_token_stream_roundtrip(tokens):
    assert list(decode_stream(encode_stream(tokens))) == tokens


@given(xml_trees())
@settings(max_examples=200)
def test_parse_serialize_parse_fixpoint(xml):
    tokens = tokenize_fragment(xml)
    text = serialize(tokens)
    assert tokenize_fragment(text) == tokens


@given(xml_trees())
def test_serialized_form_is_stable(xml):
    once = serialize(tokenize_fragment(xml))
    twice = serialize(tokenize_fragment(once))
    assert once == twice


@given(xml_trees())
def test_parser_output_always_validates(xml):
    from repro.xmltoken.datamodel import validate_stream

    validate_stream(tokenize_fragment(xml))
