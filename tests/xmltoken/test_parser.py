"""Unit tests for the XML parser, through its token view."""

import pytest

from repro.errors import XMLSyntaxError
from repro.xmltoken.parser import tokenize_document, tokenize_fragment
from repro.xmltoken.tokens import Token, TokenKind

from tests.xmltoken.oracle import iter_tokens


def kinds(tokens):
    return [t.kind for t in tokens]


class TestElements:
    def test_empty_element_self_closed(self):
        tokens = tokenize_fragment("<a/>")
        assert kinds(tokens) == [TokenKind.BEGIN_ELEMENT, TokenKind.END_ELEMENT]
        assert tokens[0].name == "a"

    def test_empty_element_with_end_tag(self):
        tokens = tokenize_fragment("<a></a>")
        assert kinds(tokens) == [TokenKind.BEGIN_ELEMENT, TokenKind.END_ELEMENT]

    def test_paper_figure1(self):
        """The exact token stream from Figure 1 of the paper."""
        xml = "<ticket><hour>15</hour><name>Paul</name></ticket>"
        tokens = tokenize_fragment(xml)
        expected = [
            (TokenKind.BEGIN_ELEMENT, "ticket", ""),
            (TokenKind.BEGIN_ELEMENT, "hour", ""),
            (TokenKind.TEXT, "", "15"),
            (TokenKind.END_ELEMENT, "", ""),
            (TokenKind.BEGIN_ELEMENT, "name", ""),
            (TokenKind.TEXT, "", "Paul"),
            (TokenKind.END_ELEMENT, "", ""),
            (TokenKind.END_ELEMENT, "", ""),
        ]
        assert [(t.kind, t.name, t.value) for t in tokens] == expected

    def test_deeply_nested(self):
        depth = 50
        xml = "".join(f"<n{i}>" for i in range(depth)) + "".join(
            f"</n{i}>" for i in reversed(range(depth))
        )
        tokens = tokenize_fragment(xml)
        assert len(tokens) == depth * 2

    def test_mismatched_end_tag(self):
        with pytest.raises(XMLSyntaxError, match="does not match"):
            tokenize_fragment("<a></b>")

    def test_unclosed_element(self):
        with pytest.raises(XMLSyntaxError, match="unclosed"):
            tokenize_fragment("<a><b></b>")

    def test_stray_end_tag(self):
        with pytest.raises(XMLSyntaxError, match="no open element"):
            tokenize_fragment("</a>")

    def test_names_with_punctuation(self):
        tokens = tokenize_fragment("<ns:item-name.x_1/>")
        assert tokens[0].name == "ns:item-name.x_1"

    def test_whitespace_in_end_tag(self):
        tokens = tokenize_fragment("<a></a >")
        assert kinds(tokens) == [TokenKind.BEGIN_ELEMENT, TokenKind.END_ELEMENT]

    def test_error_positions_are_reported(self):
        with pytest.raises(XMLSyntaxError) as excinfo:
            tokenize_fragment("<a>\n  <b></c>\n</a>")
        assert excinfo.value.line == 2


class TestAttributes:
    def test_attribute_becomes_three_tokens(self):
        tokens = tokenize_fragment('<a id="7"/>')
        assert kinds(tokens) == [
            TokenKind.BEGIN_ELEMENT,
            TokenKind.BEGIN_ATTRIBUTE,
            TokenKind.ATTRIBUTE_VALUE,
            TokenKind.END_ATTRIBUTE,
            TokenKind.END_ELEMENT,
        ]
        assert tokens[1].name == "id"
        assert tokens[2].value == "7"

    def test_multiple_attributes_in_order(self):
        tokens = tokenize_fragment('<a x="1" y="2"/>')
        names = [t.name for t in tokens if t.kind == TokenKind.BEGIN_ATTRIBUTE]
        assert names == ["x", "y"]

    def test_single_quoted_value(self):
        tokens = tokenize_fragment("<a x='it\"s'/>")
        assert tokens[2].value == 'it"s'

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(XMLSyntaxError, match="duplicate"):
            tokenize_fragment('<a x="1" x="2"/>')

    def test_unquoted_value_rejected(self):
        with pytest.raises(XMLSyntaxError, match="quoted"):
            tokenize_fragment("<a x=1/>")

    def test_entities_in_attribute_value(self):
        tokens = tokenize_fragment('<a x="&lt;&amp;&gt;"/>')
        assert tokens[2].value == "<&>"

    def test_lt_in_attribute_value_rejected(self):
        with pytest.raises(XMLSyntaxError, match="not allowed"):
            tokenize_fragment('<a x="a<b"/>')

    def test_whitespace_around_equals(self):
        tokens = tokenize_fragment('<a x = "1"/>')
        assert tokens[2].value == "1"


class TestNamespaces:
    def test_default_namespace_token(self):
        tokens = tokenize_fragment('<a xmlns="urn:x"/>')
        ns = [t for t in tokens if t.kind == TokenKind.NAMESPACE]
        assert len(ns) == 1
        assert ns[0].name == "" and ns[0].value == "urn:x"

    def test_prefixed_namespace_token(self):
        tokens = tokenize_fragment('<a xmlns:p="urn:y"/>')
        ns = [t for t in tokens if t.kind == TokenKind.NAMESPACE][0]
        assert ns.name == "p" and ns.value == "urn:y"

    def test_qnames_kept_verbatim(self):
        tokens = tokenize_fragment('<p:a xmlns:p="urn:y" p:attr="1"/>')
        assert tokens[0].name == "p:a"
        attrs = [t.name for t in tokens if t.kind == TokenKind.BEGIN_ATTRIBUTE]
        assert attrs == ["p:attr"]


class TestTextAndEntities:
    def test_text_between_elements(self):
        tokens = tokenize_fragment("<a>hello</a>")
        assert tokens[1] == Token(TokenKind.TEXT, value="hello")

    def test_predefined_entities(self):
        tokens = tokenize_fragment("<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos;</a>")
        assert tokens[1].value == "<tag> & \"q\" 'a'"

    def test_decimal_character_reference(self):
        tokens = tokenize_fragment("<a>&#65;</a>")
        assert tokens[1].value == "A"

    def test_hex_character_reference(self):
        tokens = tokenize_fragment("<a>&#x41;&#x263A;</a>")
        assert tokens[1].value == "A☺"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XMLSyntaxError, match="unknown entity"):
            tokenize_fragment("<a>&nope;</a>")

    def test_unterminated_entity_rejected(self):
        with pytest.raises(XMLSyntaxError, match="unterminated entity"):
            tokenize_fragment("<a>&amp</a>")

    def test_cdata_is_literal_text(self):
        tokens = tokenize_fragment("<a><![CDATA[<raw> & stuff]]></a>")
        assert tokens[1].value == "<raw> & stuff"

    def test_mixed_content(self):
        tokens = tokenize_fragment("<a>one<b/>two</a>")
        texts = [t.value for t in tokens if t.kind == TokenKind.TEXT]
        assert texts == ["one", "two"]

    def test_whitespace_preserved_inside_elements(self):
        tokens = tokenize_fragment("<a>  spaced  </a>")
        assert tokens[1].value == "  spaced  "

    def test_unicode_text(self):
        tokens = tokenize_fragment("<a>héllo wörld ✓</a>")
        assert tokens[1].value == "héllo wörld ✓"


class TestCommentsAndPIs:
    def test_comment_token(self):
        tokens = tokenize_fragment("<a><!-- note --></a>")
        assert tokens[1].kind == TokenKind.COMMENT
        assert tokens[1].value == " note "

    def test_double_dash_in_comment_rejected(self):
        with pytest.raises(XMLSyntaxError):
            tokenize_fragment("<a><!-- bad -- comment --></a>")

    def test_processing_instruction(self):
        tokens = tokenize_fragment('<a><?style href="x.css"?></a>')
        pi = tokens[1]
        assert pi.kind == TokenKind.PROCESSING_INSTRUCTION
        assert pi.name == "style"
        assert pi.value == 'href="x.css"'

    def test_pi_without_data(self):
        tokens = tokenize_fragment("<a><?flag?></a>")
        assert tokens[1].name == "flag" and tokens[1].value == ""

    def test_reserved_xml_target_rejected(self):
        with pytest.raises(XMLSyntaxError, match="reserved"):
            tokenize_fragment("<a><?xml version='1.0'?></a>")

    def test_top_level_comment_in_fragment(self):
        tokens = tokenize_fragment("<!--c--><a/>")
        assert tokens[0].kind == TokenKind.COMMENT


class TestFragments:
    def test_multiple_top_level_siblings(self):
        tokens = tokenize_fragment("<a/><b/>")
        names = [t.name for t in tokens if t.kind == TokenKind.BEGIN_ELEMENT]
        assert names == ["a", "b"]

    def test_top_level_text_allowed_in_fragment(self):
        tokens = tokenize_fragment("just text")
        assert tokens == [Token(TokenKind.TEXT, value="just text")]

    def test_empty_fragment(self):
        assert tokenize_fragment("") == []

    def test_whitespace_only_fragment(self):
        assert tokenize_fragment("  \n  ") == []


class TestDocuments:
    def test_document_is_bracketed(self):
        tokens = tokenize_document("<root/>")
        assert tokens[0].kind == TokenKind.BEGIN_DOCUMENT
        assert tokens[-1].kind == TokenKind.END_DOCUMENT

    def test_xml_declaration_skipped(self):
        tokens = tokenize_document('<?xml version="1.0" encoding="UTF-8"?>\n<root/>')
        assert tokens[1].name == "root"

    def test_doctype_skipped(self):
        tokens = tokenize_document('<!DOCTYPE html><root/>')
        assert tokens[1].name == "root"

    def test_doctype_with_internal_subset_skipped(self):
        xml = '<!DOCTYPE r [<!ELEMENT r (#PCDATA)>]><r/>'
        tokens = tokenize_document(xml)
        assert tokens[1].name == "r"

    def test_multiple_roots_rejected(self):
        with pytest.raises(XMLSyntaxError, match="multiple root"):
            tokenize_document("<a/><b/>")

    def test_no_root_rejected(self):
        with pytest.raises(XMLSyntaxError, match="no root"):
            tokenize_document("<!-- only a comment -->")

    def test_top_level_text_rejected_in_document(self):
        with pytest.raises(XMLSyntaxError, match="outside the root"):
            tokenize_document("<a/>trailing")

    def test_iter_tokens_is_lazy(self):
        # the token oracle's pull parser; the record pass returns a list
        iterator = iter_tokens("<a><b/></a>")
        first = next(iterator)
        assert first.name == "a"
        rest = list(iterator)
        assert len(rest) == 3
