"""The record emitter agrees with the token serializer, errors included.

``emit`` renders encoded records without building a token; ``serialize``
(over ``decode_token``'s tokens) is the reference it replaced on the
store's read path.  For token lists — well-formed, nearly well-formed and
arbitrary — and for arbitrary bytes, both produce the same text or raise
the same ``repro.errors`` type; nothing untyped (``IndexError``,
``UnicodeDecodeError``) may escape the emitter.  Pretty-printing is the
emitter over :func:`~repro.xmltoken.emitter.indented`'s records, held to the
writer's ``indent`` output and to a reparse that finds the same document.
"""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.errors import CodecError, TokenStreamError, XMLSyntaxError
from repro.xmltoken.binary import decode_token, encode_token, encode_tokens
from repro.xmltoken.emitter import emit, indented
from repro.xmltoken.parser import parse_records
from repro.xmltoken.tokens import TokenKind
from repro.xmltoken.tokens import (
    attribute_value,
    begin_attribute,
    end_attribute,
    namespace,
)

from tests.properties.test_record_parser import SNIPPET_2, SNIPPET_3, SNIPPET_3_NS, fragments
from tests.properties.test_token_roundtrips import names, simple_tokens, xml_text, xml_trees
from tests.xmltoken.oracle import decode_tokens, escape_attribute, serialize, tokenize_fragment


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


# -- pretty-printing -------------------------------------------------------------


def pretty(records, indent="  "):
    return emit(indented(records, indent)).decode("utf-8")


@pytest.mark.parametrize(
    "xml, expected",
    [
        ("<a><b/></a>", "<a>\n  <b/>\n</a>"),
        # text before the first child used to keep </a> on <c/>'s line
        ("<a>x<b/><c/></a>", "<a>x\n  <b/>\n  <c/>\n</a>"),
        ("<a>x</a><!--c-->t<b><?p d?></b>", "<a>x</a>\n<!--c-->t\n<b>\n  <?p d?>\n</b>"),
    ],
)
def test_an_element_with_children_closes_on_its_own_line(xml, expected):
    records = parse_records(xml)[0]
    assert pretty(records) == expected
    assert serialize(decode_tokens(records), indent="  ") == expected


def without_layout(records):
    """The document with the whitespace pretty-printing adds taken out:
    adjacent text merged, then trailing whitespace stripped from each run
    (an added line break always ends a text run) and empty runs dropped."""
    out = []
    for token in decode_tokens(records):
        if token.kind == TokenKind.TEXT and out and out[-1][0] == TokenKind.TEXT:
            out[-1] = (TokenKind.TEXT, "", out[-1][2] + token.value)
        else:
            out.append((token.kind, token.name, token.value))
    return [
        (kind, name, value.rstrip() if kind == TokenKind.TEXT else value)
        for kind, name, value in out
        if kind != TokenKind.TEXT or value.strip()
    ]


@given(fragments(), st.sampled_from(["  ", "\t", "    "]))
@example(SNIPPET_2, "  ")
@example(SNIPPET_3, "  ")
@example(SNIPPET_3_NS, "\t")
@settings(max_examples=300)
def test_pretty_printing_matches_the_writer_and_reparses(xml, indent):
    try:
        records = parse_records(xml)[0]
    except XMLSyntaxError:
        assume(False)
    text = pretty(records, indent)
    assert text == serialize(decode_tokens(records), indent=indent)
    assert without_layout(parse_records(text)[0]) == without_layout(records)
