"""Unit tests for data-model validation and structural helpers."""

import pytest

from repro.errors import TokenStreamError
from repro.xmltoken.datamodel import node_end_offset
from repro.xmltoken.parser import tokenize_document, tokenize_fragment
from repro.xmltoken.tokens import (
    Token,
    TokenKind,
    attribute_value,
    begin_attribute,
    begin_document,
    begin_element,
    comment,
    end_attribute,
    end_document,
    end_element,
    namespace,
    text,
)

from tests.xmltoken.oracle import (
    depth_profile,
    strip_document_tokens,
    subtree,
    top_level_nodes,
    validate_stream,
)


class TestValidateStream:
    def test_parser_output_always_validates(self):
        for xml in [
            "<a/>",
            '<a x="1" xmlns:p="u"><b>t</b><!--c--></a>',
            "<a/><b>text</b>",
            "",
        ]:
            validate_stream(tokenize_fragment(xml))

    def test_document_stream_validates(self):
        validate_stream(tokenize_document("<r><a/></r>"))

    def test_unclosed_element(self):
        with pytest.raises(TokenStreamError, match="unclosed"):
            validate_stream([begin_element("a")])

    def test_wrong_end_kind(self):
        with pytest.raises(TokenStreamError):
            validate_stream([begin_element("a"), end_attribute()])

    def test_unmatched_end(self):
        with pytest.raises(TokenStreamError, match="unmatched"):
            validate_stream([end_element()])

    def test_attribute_after_content_rejected(self):
        bad = [
            begin_element("a"),
            text("x"),
            begin_attribute("id"),
            attribute_value("1"),
            end_attribute(),
            end_element(),
        ]
        with pytest.raises(TokenStreamError, match="attribute position"):
            validate_stream(bad)

    def test_namespace_after_content_rejected(self):
        bad = [begin_element("a"), text("x"), namespace("p", "u"), end_element()]
        with pytest.raises(TokenStreamError):
            validate_stream(bad)

    def test_attribute_at_top_level_rejected(self):
        with pytest.raises(TokenStreamError):
            validate_stream([begin_attribute("x"), end_attribute()])

    def test_attribute_value_outside_attribute_rejected(self):
        with pytest.raises(TokenStreamError):
            validate_stream([attribute_value("v")])

    def test_element_inside_attribute_rejected(self):
        bad = [
            begin_element("a"),
            begin_attribute("x"),
            begin_element("nested"),
        ]
        with pytest.raises(TokenStreamError, match="inside an attribute"):
            validate_stream(bad)

    def test_nested_document_rejected(self):
        bad = [begin_document(), begin_document()]
        with pytest.raises(TokenStreamError, match="outermost"):
            validate_stream(bad)

    def test_document_disallowed_when_flagged(self):
        with pytest.raises(TokenStreamError):
            validate_stream([begin_document(), end_document()], allow_document=False)

    def test_unnamed_element_rejected(self):
        with pytest.raises(TokenStreamError, match="no name"):
            validate_stream([Token(TokenKind.BEGIN_ELEMENT), end_element()])

    def test_attributes_only_element_is_valid(self):
        tokens = tokenize_fragment('<a x="1" y="2"/>')
        validate_stream(tokens)


class TestNodeEndOffset:
    def test_atomic_node(self):
        tokens = [text("x")]
        assert node_end_offset(tokens, 0) == 1

    def test_element_node(self):
        tokens = tokenize_fragment("<a><b/><c/></a>")
        assert node_end_offset(tokens, 0) == len(tokens)

    def test_inner_element(self):
        tokens = tokenize_fragment("<a><b>t</b><c/></a>")
        # b starts at index 1, spans [begin, text, end] -> ends at 4
        assert node_end_offset(tokens, 1) == 4

    def test_attribute_node(self):
        tokens = tokenize_fragment('<a x="1"/>')
        assert node_end_offset(tokens, 1) == 4

    def test_non_starting_token_rejected(self):
        tokens = tokenize_fragment("<a/>")
        with pytest.raises(TokenStreamError):
            node_end_offset(tokens, 1)

    def test_unclosed_node_rejected(self):
        with pytest.raises(TokenStreamError, match="never closed"):
            node_end_offset([begin_element("a")], 0)


class TestSubtreeAndTopLevel:
    def test_subtree_extracts_complete_node(self):
        tokens = tokenize_fragment("<a><b>t</b><c/></a>")
        sub = subtree(tokens, 1)
        assert sub == tokenize_fragment("<b>t</b>")

    def test_top_level_nodes_of_forest(self):
        tokens = tokenize_fragment("<a/>text<b><c/></b>")
        slices = top_level_nodes(tokens)
        assert len(slices) == 3
        starts = [tokens[s] for s, _ in slices]
        assert starts[0].name == "a"
        assert starts[1].kind == TokenKind.TEXT
        assert starts[2].name == "b"

    def test_top_level_nodes_empty(self):
        assert top_level_nodes([]) == []


class TestDepthProfileAndStrip:
    def test_depth_profile(self):
        tokens = tokenize_fragment("<a><b/>x</a>")
        assert depth_profile(tokens) == [0, 1, 1, 1, 0]

    def test_strip_document_tokens(self):
        doc = tokenize_document("<r/>")
        assert strip_document_tokens(doc) == tokenize_fragment("<r/>")

    def test_strip_is_noop_for_fragment(self):
        frag = tokenize_fragment("<r/>")
        assert strip_document_tokens(frag) == frag

    def test_comment_node_is_atomic(self):
        tokens = [comment("c")]
        assert node_end_offset(tokens, 0) == 1
