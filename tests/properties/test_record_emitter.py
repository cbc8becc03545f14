"""The record emitter agrees with the token serializer, errors included.

``emit`` renders encoded records without building a token; ``serialize``
(over ``decode_token``'s tokens) is the reference it replaced on the
store's read path.  For token lists — well-formed, nearly well-formed and
arbitrary — and for arbitrary bytes, both produce the same text or raise
the same ``repro.errors`` type; nothing untyped (``IndexError``,
``UnicodeDecodeError``) may escape the emitter.  Pretty-printing is the
emitter over :func:`~repro.xmltoken.emitter.indented`'s records, held to the
writer's ``indent`` output and to a reparse that finds the same document.

The emitter reads value-less records from the codec's markup table
(:data:`~repro.xmltoken.binary.MARKUP`) once the slicer has validated them,
so every example renders twice: with the table emptied, then warm from that
first call.  Both calls must match the writer, and an error must repeat,
message included; what the table holds stays within its bound and never
includes a value or a record that failed a check.
"""

import sys
import threading

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.errors import CodecError, TokenStreamError, XMLSyntaxError
from repro.xmltoken.binary import (
    KIND_MASK,
    MARKUP,
    MARKUP_LIMIT,
    decode_token,
    encode_record,
    encode_token,
    encode_tokens,
    token_fields,
)
from repro.xmltoken.emitter import emit, indented
from repro.xmltoken.parser import parse_records
from repro.xmltoken.tokens import Token, TokenKind
from repro.xmltoken.tokens import (
    attribute_value,
    begin_attribute,
    begin_element,
    comment,
    end_attribute,
    end_element,
    namespace,
    processing_instruction,
    text,
)

from tests.properties.test_record_parser import SNIPPET_2, SNIPPET_3, SNIPPET_3_NS, fragments
from tests.properties.test_token_roundtrips import names, simple_tokens, xml_text, xml_trees
from tests.xmltoken.oracle import decode_tokens, escape_attribute, serialize, tokenize_fragment


def outcome(render, message=False):
    """("ok", text) or ("error", type), with the error's message too when
    asked: only the two typed errors are caught, so anything else fails the
    test where it is raised."""
    try:
        return "ok", render()
    except (CodecError, TokenStreamError) as exc:
        return ("error", type(exc), str(exc)) if message else ("error", type(exc))


def table_is_sound():
    """Within its bound, and every entry is what the slicer returns for a
    whole value-less record."""
    assert len(MARKUP) <= MARKUP_LIMIT
    for record, (kind, name) in list(MARKUP.items()):
        header, sliced_name, value, _, end = token_fields(record)
        assert (header & KIND_MASK, sliced_name, value, end) == (kind, name, b"", len(record))


def emitted(records, node=False):
    """``emit``'s outcome, cold then warm: the first call with the markup
    table emptied, the second with what the first left in it.  The two
    must agree, error messages included."""
    records = list(records)
    MARKUP.clear()
    cold = outcome(lambda: emit(records, node).decode("utf-8"), message=True)
    warm = outcome(lambda: emit(records, node).decode("utf-8"), message=True)
    assert cold == warm
    table_is_sound()
    return cold[:2]


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
    assert emitted(encode_tokens(tokens)) == ("ok", serialize(tokens))


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
    # a record that fails a check never enters the table
    for record in records:
        if outcome(lambda: decode_token(record))[0] == "error":
            assert record not in MARKUP


@given(names, st.lists(xml_text, max_size=3))
def test_attribute_node_renders_as_name_value(name, values):
    tokens = [begin_attribute(name), *map(attribute_value, values), end_attribute()]
    expected = f'{name}="{escape_attribute("".join(values))}"'
    assert emitted(encode_tokens(tokens), node=True) == ("ok", expected)
    # outside a node read the same stream is an attribute outside a start tag
    assert emitted(encode_tokens(tokens)) == serialized(tokens) == ("error", TokenStreamError)


@given(st.one_of(st.just(""), names), xml_text)
def test_namespace_node_renders_as_xmlns_declaration(prefix, uri):
    records = encode_tokens([namespace(prefix, uri)])
    attribute = f"xmlns:{prefix}" if prefix else "xmlns"
    assert emitted(records, node=True) == ("ok", f'{attribute}="{escape_attribute(uri)}"')


@given(xml_trees())
def test_node_rendering_of_anything_else_is_plain_rendering(xml):
    records = encode_tokens(tokenize_fragment(xml))
    assert emitted(records, node=True) == emitted(records)


# -- pretty-printing -------------------------------------------------------------


def pretty(records, indent="  "):
    status, text = emitted(indented(records, indent))
    assert status == "ok", text
    return text


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


# -- the markup table --------------------------------------------------------------


#: The header's presence flags (the record layout of ``repro.xmltoken.binary``).
NAME_FLAG, VALUE_FLAG = 0x20, 0x40


def _typed(kind, name):
    return Token(kind, name, "", "xs:string")


@pytest.mark.parametrize(
    "tokens",
    [
        # values whose length needs a two-byte varint
        [begin_element("a"), text("x" * 128), end_element()],
        [begin_element("a"), begin_attribute("b"), attribute_value("&" * 300),
         end_attribute(), text("<" * 200), end_element()],
        # non-ASCII names and values
        [begin_element("été"), begin_attribute("ü"), attribute_value("ß€"),
         end_attribute(), text("日本"), begin_element("été"), end_element(), end_element()],
        # records carrying a type annotation
        [_typed(TokenKind.BEGIN_ELEMENT, "a"), _typed(TokenKind.BEGIN_ATTRIBUTE, "b"),
         attribute_value("1"), end_attribute(), text("t"), end_element()],
        # comments, processing instructions and namespaces, with and without a value
        [begin_element("a"), namespace("p", "urn:p"), namespace("", "urn:d"),
         namespace("q", ""), comment("c"), comment(""), processing_instruction("pi", "d"),
         processing_instruction("pi", ""), end_element()],
    ],
    ids=["long-text", "long-values", "non-ascii", "typed", "comment-pi-namespace"],
)
def test_every_record_shape_renders_the_same_cold_and_warm(tokens):
    assert emitted(encode_tokens(tokens)) == ("ok", serialize(tokens))
    # the value-less records of the stream are in the table now; no value is
    for record in encode_tokens(tokens):
        assert (record in MARKUP) == (not record[0] & VALUE_FLAG)


@pytest.mark.parametrize(
    "bad",
    [
        bytes((TokenKind.TEXT | VALUE_FLAG, 2, 0xFF, 0xFE)),  # short value, invalid UTF-8
        bytes((TokenKind.ATTRIBUTE_VALUE | VALUE_FLAG, 1, 0x80)),
        encode_record(TokenKind.BEGIN_ELEMENT, name="abc")[:-1],  # truncated markup
        encode_record(TokenKind.BEGIN_ELEMENT, name="abc") + b"x",  # trailing byte
        bytes((TokenKind.BEGIN_ELEMENT | NAME_FLAG, 1, 0xC3)),  # markup, invalid UTF-8
    ],
    ids=["text-utf8", "attribute-value-utf8", "truncated", "trailing", "name-utf8"],
)
def test_a_bad_record_raises_on_every_call_and_is_never_kept(bad):
    before = encode_tokens([begin_element("a"), begin_attribute("b")])
    records = [*before, bad, *encode_tokens([end_attribute(), end_element()])]
    MARKUP.clear()
    raised = []
    for _ in range(3):
        with pytest.raises(CodecError) as exc:
            emit(records)
        raised.append(str(exc.value))
        assert bad not in MARKUP
    assert len(set(raised)) == 1
    assert serialized(map(decode_token, records)) == ("error", CodecError)


def _many_names(count, prefix=""):
    """A document of ``count`` elements, each with its own element and
    attribute name."""
    tokens = [begin_element("root")]
    for k in range(count):
        tokens += [begin_element(f"{prefix}e{k}"), begin_attribute(f"{prefix}a{k}"),
                   attribute_value("v"), end_attribute(), text("t"), end_element()]
    return [*tokens, end_element()]


def test_more_names_than_the_bound_keeps_the_table_within_it():
    tokens = _many_names(MARKUP_LIMIT + 500)
    try:
        assert emitted(encode_tokens(tokens)) == ("ok", serialize(tokens))
        assert len(MARKUP) <= MARKUP_LIMIT
        # the table was cleared to make room: the next document is cached afresh
        other = encode_tokens([begin_element("other"), text("t"), end_element()])
        assert emit(other) == b"<other>t</other>"
        assert other[0] in MARKUP and len(MARKUP) <= MARKUP_LIMIT
    finally:
        MARKUP.clear()


def test_threads_that_fill_at_once_stay_within_the_bound():
    documents = [_many_names(MARKUP_LIMIT // 2, prefix=f"t{k}") for k in range(4)]
    expected = [serialize(tokens) for tokens in documents]
    records = [encode_tokens(tokens) for tokens in documents]
    rendered = [[] for _ in documents]
    sizes = []

    def render(k):
        for _ in range(3):
            rendered[k].append(emit(records[k]).decode("utf-8"))

    def watch():
        while any(thread.is_alive() for thread in threads[:-1]):
            sizes.append(len(MARKUP))

    MARKUP.clear()
    threads = [threading.Thread(target=render, args=(k,)) for k in range(len(documents))]
    threads.append(threading.Thread(target=watch))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between a fill's check and its store
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert rendered == [[text] * 3 for text in expected]
        assert max(sizes) <= MARKUP_LIMIT
        table_is_sound()
    finally:
        sys.setswitchinterval(interval)
        MARKUP.clear()
