"""The record emitter agrees with the token serializer, errors included.

``emit`` renders encoded records without building a token; ``serialize``
(over ``decode_token``'s tokens) is the reference it replaced on the
store's read path.  For token lists — well-formed, nearly well-formed and
arbitrary — and for arbitrary bytes, both produce the same text or raise
the same ``repro.errors`` type; nothing untyped (``IndexError``,
``UnicodeDecodeError``) may escape the emitter.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import CodecError, TokenStreamError
from repro.xmltoken.binary import decode_token, encode_token, encode_tokens
from repro.xmltoken.emitter import emit
from repro.xmltoken.parser import tokenize_fragment
from repro.xmltoken.serializer import escape_attribute, serialize
from repro.xmltoken.tokens import (
    attribute_value,
    begin_attribute,
    end_attribute,
    namespace,
)

from tests.properties.test_token_roundtrips import names, simple_tokens, xml_text, xml_trees


def outcome(render):
    """("ok", text) or ("error", type): only the two typed errors are
    caught, so anything else fails the test where it is raised."""
    try:
        return "ok", render()
    except (CodecError, TokenStreamError) as exc:
        return "error", type(exc)


def emitted(records):
    return outcome(lambda: emit(records).decode("utf-8"))


def serialized(tokens):
    return outcome(lambda: serialize(tokens))


@st.composite
def damaged_trees(draw):
    """A well-formed token list with a few tokens dropped, doubled, swapped
    or replaced: ill-formed, but only after a well-formed prefix."""
    tokens = tokenize_fragment(draw(xml_trees()))
    for _ in range(draw(st.integers(1, 3))):
        index = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(("drop", "double", "swap", "replace")))
        if edit == "drop":
            del tokens[index]
        elif edit == "double":
            tokens.insert(index, tokens[index])
        elif edit == "swap":
            other = draw(st.integers(0, len(tokens) - 1))
            tokens[index], tokens[other] = tokens[other], tokens[index]
        else:
            tokens[index] = draw(simple_tokens)
        if not tokens:
            break
    return tokens


@st.composite
def damaged_records(draw):
    """A valid record truncated, extended, or with one byte replaced."""
    record = bytearray(encode_token(draw(simple_tokens)))
    edit = draw(st.sampled_from(("truncate", "extend", "replace")))
    if edit == "truncate":
        del record[draw(st.integers(0, len(record) - 1)):]
    elif edit == "extend":
        record += draw(st.binary(min_size=1, max_size=3))
    else:
        record[draw(st.integers(0, len(record) - 1))] = draw(st.integers(0, 255))
    return bytes(record)


@given(xml_trees())
@settings(max_examples=200)
def test_well_formed_documents_render_identically(xml):
    tokens = tokenize_fragment(xml)
    assert emit(encode_tokens(tokens)).decode("utf-8") == serialize(tokens)


@given(st.one_of(damaged_trees(), st.lists(simple_tokens, max_size=30)))
@settings(max_examples=400)
def test_any_token_list_renders_or_fails_identically(tokens):
    assert emitted(encode_tokens(tokens)) == serialized(tokens)


@given(
    st.lists(
        st.one_of(
            simple_tokens.map(encode_token), damaged_records(), st.binary(max_size=12)
        ),
        max_size=12,
    )
)
@settings(max_examples=400)
def test_any_bytes_render_or_fail_identically(records):
    # map() decodes lazily, as the old read path did: the first bad record
    # in stream order decides the error on both sides
    assert emitted(records) == serialized(map(decode_token, records))


@given(names, st.lists(xml_text, max_size=3))
def test_attribute_node_renders_as_name_value(name, values):
    tokens = [begin_attribute(name), *map(attribute_value, values), end_attribute()]
    expected = f'{name}="{escape_attribute("".join(values))}"'
    assert emit(encode_tokens(tokens), node=True).decode("utf-8") == expected
    # outside a node read the same stream is an attribute outside a start tag
    assert emitted(encode_tokens(tokens)) == serialized(tokens) == ("error", TokenStreamError)


@given(st.one_of(st.just(""), names), xml_text)
def test_namespace_node_renders_as_xmlns_declaration(prefix, uri):
    records = encode_tokens([namespace(prefix, uri)])
    attribute = f"xmlns:{prefix}" if prefix else "xmlns"
    assert emit(records, node=True).decode("utf-8") == f'{attribute}="{escape_attribute(uri)}"'


@given(xml_trees())
def test_node_rendering_of_anything_else_is_plain_rendering(xml):
    records = encode_tokens(tokenize_fragment(xml))
    assert emit(records, node=True) == emit(records)
