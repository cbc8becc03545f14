"""Unit tests for the token model."""

from repro.xmltoken.tokens import (
    Token,
    TokenKind,
    attribute_value,
    begin_attribute,
    begin_document,
    begin_element,
    comment,
    element,
    end_attribute,
    end_document,
    end_element,
    namespace,
    processing_instruction,
    text,
)

from tests.xmltoken.oracle import count_nodes


class TestTokenProperties:
    def test_begin_element_starts_node(self):
        assert begin_element("a").starts_node

    def test_end_element_does_not_start_node(self):
        assert not end_element().starts_node

    def test_text_starts_node(self):
        assert text("x").starts_node

    def test_attribute_value_does_not_start_node(self):
        assert not attribute_value("v").starts_node

    def test_begin_attribute_starts_node(self):
        assert begin_attribute("id").starts_node

    def test_comment_and_pi_start_nodes(self):
        assert comment("c").starts_node
        assert processing_instruction("t", "d").starts_node

    def test_document_tokens(self):
        assert begin_document().starts_node
        assert not end_document().starts_node

    def test_is_begin_is_end(self):
        assert begin_element("a").is_begin and not begin_element("a").is_end
        assert end_attribute().is_end and not end_attribute().is_begin
        assert not text("x").is_begin and not text("x").is_end

    def test_tokens_are_hashable_value_objects(self):
        assert begin_element("a") == begin_element("a")
        assert begin_element("a") != begin_element("b")
        assert len({text("x"), text("x"), text("y")}) == 2

    def test_with_type(self):
        typed = text("15").with_type("xs:integer")
        assert typed.type_annotation == "xs:integer"
        assert typed.value == "15"
        assert text("15").type_annotation == ""

    def test_repr_is_compact(self):
        token = text("a" * 100)
        assert len(repr(token)) < 60
        assert "TEXT" in repr(token)


class TestElementBuilder:
    def test_simple_element(self):
        tokens = element("hour", "15")
        assert tokens == [begin_element("hour"), text("15"), end_element()]

    def test_nested_elements(self):
        tokens = element("ticket", element("hour", "15"))
        kinds = [t.kind for t in tokens]
        assert kinds == [
            TokenKind.BEGIN_ELEMENT,
            TokenKind.BEGIN_ELEMENT,
            TokenKind.TEXT,
            TokenKind.END_ELEMENT,
            TokenKind.END_ELEMENT,
        ]

    def test_attributes_come_first(self):
        tokens = element("a", "body", attributes=[("id", "1")])
        kinds = [t.kind for t in tokens]
        assert kinds == [
            TokenKind.BEGIN_ELEMENT,
            TokenKind.BEGIN_ATTRIBUTE,
            TokenKind.ATTRIBUTE_VALUE,
            TokenKind.END_ATTRIBUTE,
            TokenKind.TEXT,
            TokenKind.END_ELEMENT,
        ]


class TestCountNodes:
    def test_paper_figure1_has_five_nodes(self):
        # <ticket><hour>15</hour><name>Paul</name></ticket> -> ids 1..5
        tokens = element(
            "ticket", element("hour", "15"), element("name", "Paul")
        )
        assert count_nodes(tokens) == 5

    def test_attribute_counts_as_one_node(self):
        tokens = element("a", attributes=[("id", "1")])
        assert count_nodes(tokens) == 2  # element + attribute

    def test_namespace_counts_as_node(self):
        assert count_nodes([namespace("p", "urn:x")]) == 1

    def test_empty_sequence(self):
        assert count_nodes([]) == 0
