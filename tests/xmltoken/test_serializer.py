"""Unit tests for token-to-XML serialization."""

import pytest

from repro.errors import TokenStreamError
from repro.xmltoken.tokens import (
    attribute_value,
    begin_attribute,
    begin_element,
    end_attribute,
    end_element,
    text,
)

from tests.xmltoken.oracle import (
    escape_attribute,
    escape_text,
    serialize,
    tokenize_document,
    tokenize_fragment,
)


class TestEscaping:
    def test_text_escapes_markup(self):
        assert escape_text("a < b & c > d") == "a &lt; b &amp; c &gt; d"

    def test_attribute_escapes_quotes(self):
        assert escape_attribute('say "hi" & go') == "say &quot;hi&quot; &amp; go"

    def test_plain_text_unchanged(self):
        assert escape_text("hello") == "hello"


class TestSerialize:
    def test_empty_element(self):
        assert serialize(tokenize_fragment("<a/>")) == "<a/>"

    def test_element_with_text(self):
        assert serialize(tokenize_fragment("<a>hi</a>")) == "<a>hi</a>"

    def test_attributes(self):
        xml = '<a x="1" y="2"/>'
        assert serialize(tokenize_fragment(xml)) == xml

    def test_paper_figure1_roundtrip(self):
        xml = "<ticket><hour>15</hour><name>Paul</name></ticket>"
        assert serialize(tokenize_fragment(xml)) == xml

    def test_comment_and_pi(self):
        xml = "<a><!--note--><?go now?></a>"
        assert serialize(tokenize_fragment(xml)) == xml

    def test_namespace_declarations(self):
        xml = '<p:a xmlns:p="urn:x"/>'
        assert serialize(tokenize_fragment(xml)) == xml

    def test_special_characters_re_escaped(self):
        xml = "<a>1 &lt; 2 &amp; 3</a>"
        assert serialize(tokenize_fragment(xml)) == xml

    def test_quote_in_attribute_re_escaped(self):
        xml = '<a x="say &quot;hi&quot;"/>'
        assert serialize(tokenize_fragment(xml)) == xml

    def test_document_tokens_are_transparent(self):
        tokens = tokenize_document("<root><a/></root>")
        assert serialize(tokens) == "<root><a/></root>"

    def test_mixed_content(self):
        xml = "<a>one<b/>two</a>"
        assert serialize(tokenize_fragment(xml)) == xml

    def test_multiple_top_level_nodes(self):
        xml = "<a/><b>x</b>"
        assert serialize(tokenize_fragment(xml)) == xml


class TestRoundTripProperty:
    CASES = [
        "<a/>",
        '<a id="1" class="big small"/>',
        "<r><x>1</x><x>2</x><x>3</x></r>",
        "<a>text<b>nested</b>tail</a>",
        "<a><!--c--><?pi data?><b/></a>",
        '<order no="7"><item sku="x-1">2</item><item sku="y-2">5</item></order>',
    ]

    @pytest.mark.parametrize("xml", CASES)
    def test_parse_serialize_fixpoint(self, xml):
        once = serialize(tokenize_fragment(xml))
        assert once == xml
        assert serialize(tokenize_fragment(once)) == once

    @pytest.mark.parametrize("xml", CASES)
    def test_token_level_roundtrip(self, xml):
        tokens = tokenize_fragment(xml)
        assert tokenize_fragment(serialize(tokens)) == tokens


class TestPrettyPrint:
    def test_indent_nested_elements(self):
        tokens = tokenize_fragment("<a><b><c/></b></a>")
        pretty = serialize(tokens, indent="  ")
        assert pretty == "<a>\n  <b>\n    <c/>\n  </b>\n</a>"

    def test_indent_keeps_text_inline(self):
        tokens = tokenize_fragment("<a><b>15</b></a>")
        pretty = serialize(tokens, indent="  ")
        assert "<b>15</b>" in pretty

    def test_pretty_output_reparses_to_equivalent_structure(self):
        xml = "<r><a>1</a><b><c/></b></r>"
        pretty = serialize(tokenize_fragment(xml), indent="  ")
        names = [
            t.name for t in tokenize_fragment(pretty) if t.name
        ]
        assert names == ["r", "a", "b", "c"]


class TestStreamErrors:
    def test_unclosed_element_rejected(self):
        with pytest.raises(TokenStreamError):
            serialize([begin_element("a")])

    def test_unmatched_end_rejected(self):
        with pytest.raises(TokenStreamError):
            serialize([end_element()])

    def test_attribute_after_content_rejected(self):
        bad = [
            begin_element("a"),
            text("body"),
            begin_attribute("x"),
            attribute_value("1"),
            end_attribute(),
            end_element(),
        ]
        with pytest.raises(TokenStreamError):
            serialize(bad)

    def test_attribute_value_outside_attribute_rejected(self):
        with pytest.raises(TokenStreamError):
            serialize([attribute_value("v")])
