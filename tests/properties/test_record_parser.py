"""The record parser agrees with the token pipeline it replaced, errors included.

``parse_records`` goes from XML text to stored records in one pass.  Before
it, the store tokenized with the pull parser (``tests/xmltoken/oracle.py``),
stripped document tokens, ran ``validate_stream``, ``encode_tokens`` and
``count_nodes``.  For any text — fragments built from SNIPPETS.md's awkward
shapes, the same damaged, or arbitrary markup — both give the same records
and node count, or an ``XMLSyntaxError`` with the same message, line and
column.  Where the old pipeline escaped untyped (a character reference too
large for ``chr``, a surrogate that UTF-8 cannot encode), the new pass
raises ``XMLSyntaxError`` instead.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import XMLSyntaxError
from repro.xmltoken.binary import encode_tokens
from repro.xmltoken.parser import parse_records

from tests.xmltoken import oracle

# SNIPPETS.md snippet 2: mixed-case and duplicate tags
SNIPPET_2 = """<main><TABLE name="FGroups">
<FIELD name="Field1" datatype="float"/>
<field name="Field2" datatype="int"/>
<field name="Field4" datatype="int" arraysize="5"/>
<TR>
 <TD>12345.6</TD><td>25</td><td>Blah</td><td>2 4 6 8 10</td>
</TR>
<hi/>
</TABLE>
<table name="bad_table">
<field name="f1" datatype="int"/>
<tr><td>5</td></tr>
</table>
</main>
"""

# snippet 3: an XML declaration, an indented document, namespace prefixes
SNIPPET_3 = """<?xml version="1.0"?>
<Orders>
  <Order>
    <OrderID>123</OrderID>
    <ShipTo>
      <Name>John Doe</Name>
      <City>Dallas</City>
    </ShipTo>
  </Order>
</Orders>
"""
SNIPPET_3_NS = """<?xml version="1.0"?>
<ns0:Root xmlns:ns0="http://example.com">
  <ns0:Item><ns0:Name>Test</ns0:Name></ns0:Item>
</ns0:Root>
"""


def outcome(run):
    """("ok", result), ("error", message with line and column), or, for
    the two untyped escapes of the old pipeline, ("untyped", type name)."""
    try:
        return "ok", run()
    except XMLSyntaxError as exc:
        return "error", str(exc)
    except (OverflowError, UnicodeEncodeError) as exc:
        return "untyped", type(exc).__name__


def old_pipeline(xml, document=False):
    if document:
        tokens = oracle.tokenize_document(xml)
    else:
        tokens = oracle.strip_document_tokens(oracle.tokenize_fragment(xml))
        oracle.validate_stream(tokens, allow_document=False)
    return encode_tokens(tokens), oracle.count_nodes(tokens)


def assert_agree(xml, document=False):
    new = outcome(lambda: parse_records(xml, document))
    old = outcome(lambda: old_pipeline(xml, document))
    if new[0] == "error" and new[1].startswith("surrogate"):
        # met where it stands; the old pipeline read on, and failed at a
        # later syntax error or at encoding
        assert old == ("untyped", "UnicodeEncodeError") or old[0] == "error"
    elif old == ("untyped", "OverflowError"):
        assert new[0] == "error" and new[1].startswith("bad character reference")
    else:
        assert new == old
    return new


# -- strategies ------------------------------------------------------------------

# ASCII and non-ASCII name characters ("½" is alphanumeric, not alphabetic)
NAME_CHARS = "abzAZ09_:.-éßΩ名½"
names = st.one_of(
    st.sampled_from(["TABLE", "table", "FIELD", "field", "TD", "td", "ns0:Root", "p:a"]),
    st.text(alphabet=NAME_CHARS, min_size=1, max_size=6).filter(
        lambda name: name[0].isalpha() or name[0] in "_:"
    ),
    st.integers(128, 200).map(lambda size: "n" * size),  # a two-byte varint
)
plain = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="<&\r"),
    max_size=12,
)
references = st.one_of(
    st.sampled_from(["&lt;", "&gt;", "&amp;", "&apos;", "&quot;"]),
    st.integers(1, 0x10FFFF)
    .filter(lambda code: not 0xD800 <= code <= 0xDFFF)
    .flatmap(lambda code: st.sampled_from([f"&#{code};", f"&#x{code:x};", f"&#X{code:X};"])),
)
character_data = st.one_of(
    st.lists(st.one_of(plain, references), max_size=4).map("".join),
    st.integers(128, 300).map(lambda size: "v" * size),  # a two-byte varint
)


@st.composite
def fragments(draw, max_depth=3):
    """Markup of every construct the parser knows, mostly well formed."""

    def attributes():
        pairs = []
        for _ in range(draw(st.integers(0, 3))):
            name = draw(st.one_of(names, st.sampled_from(["xmlns", "xmlns:p", "xmlns:ns0"])))
            value = draw(character_data).replace('"', "&quot;")
            pairs.append(f' {name}="{value}"')
        return "".join(pairs)  # a duplicate name is a syntax error to match

    def node(depth):
        kind = draw(st.sampled_from(["element", "text", "comment", "pi", "cdata", "space"]))
        if kind == "text":
            return draw(character_data)
        if kind == "comment":
            return f"<!--{draw(plain).replace('-', '')}-->"
        if kind == "pi":
            return f"<?{draw(names)} {draw(plain).replace('?', '')}?>"
        if kind == "cdata":
            return f"<![CDATA[{draw(plain).replace(']', '')}]]>"
        if kind == "space":
            return "\n" + "  " * depth
        name = draw(names)
        if depth >= max_depth or draw(st.booleans()):
            return f"<{name}{attributes()}/>"
        children = "".join(node(depth + 1) for _ in range(draw(st.integers(0, 3))))
        return f"<{name}{attributes()}>{children}</{name}>"

    prolog = draw(st.sampled_from(["", '<?xml version="1.0"?>\n', "<?xml?>"]))
    return prolog + "".join(node(0) for _ in range(draw(st.integers(0, 3))))


MARKUP = "<>/!?-[]&;#x=\"' \n\taZ:_.é½1CDATA"


@st.composite
def damaged(draw):
    """A fragment with a few characters cut, doubled or inserted, or cut short."""
    xml = draw(fragments())
    for _ in range(draw(st.integers(1, 3))):
        if not xml:
            break
        at = draw(st.integers(0, len(xml) - 1))
        edit = draw(st.sampled_from(["cut", "double", "insert", "truncate"]))
        if edit == "cut":
            xml = xml[:at] + xml[at + draw(st.integers(1, 4)):]
        elif edit == "double":
            xml = xml[:at] + xml[at] + xml[at:]
        elif edit == "insert":
            xml = xml[:at] + draw(st.sampled_from(MARKUP)) + xml[at:]
        else:
            xml = xml[:at]
    return xml


# -- properties ------------------------------------------------------------------

@given(fragments())
@example(SNIPPET_2)
@example(SNIPPET_3)
@example(SNIPPET_3_NS)
@settings(max_examples=300)
def test_fragments_give_the_old_records_and_node_count(xml):
    assert_agree(xml)


@given(st.one_of(damaged(), st.text(alphabet=MARKUP, max_size=30)))
@settings(max_examples=600)
def test_any_text_parses_or_fails_identically(xml):
    assert_agree(xml)


@given(st.one_of(fragments(), damaged()).map(lambda body: "<!DOCTYPE d [<!x>]>\n" + body))
@example(SNIPPET_3)
@example("<a/>trailing")
@example("<!-- only a comment -->")
@settings(max_examples=200)
def test_documents_parse_or_fail_identically(xml):
    assert_agree(xml, document=True)


@pytest.mark.parametrize("xml", [SNIPPET_2, SNIPPET_3, SNIPPET_3_NS])
def test_the_snippets_parse(xml):
    records, node_count = parse_records(xml)
    assert records and node_count == oracle.count_nodes(oracle.tokenize_fragment(xml))


@pytest.mark.parametrize(
    "xml",
    ["<i>&#xD800;</i>", '<i a="&#55296;"/>', "<i>\ud800</i>", "<!--\udfff-->", "<?t \ud800?>"],
)
def test_a_surrogate_is_a_syntax_error(xml):
    # the old pipeline parsed it, then failed to encode it, untyped
    assert outcome(lambda: old_pipeline(xml)) == ("untyped", "UnicodeEncodeError")
    with pytest.raises(XMLSyntaxError, match="surrogate U\\+D[89A-F]"):
        parse_records(xml)


@pytest.mark.parametrize("xml", ["<i>&#x99999999999;</i>", "<i>&#99999999999;</i>"])
def test_a_reference_beyond_chr_is_a_syntax_error(xml):
    assert outcome(lambda: old_pipeline(xml)) == ("untyped", "OverflowError")
    with pytest.raises(XMLSyntaxError, match="bad character reference"):
        parse_records(xml)
