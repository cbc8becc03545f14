"""Unit tests for the XPath parser."""

import pytest

from repro.errors import XPathSyntaxError
from repro.xpath.ast import (
    Axis,
    BooleanOp,
    Comparison,
    FunctionCall,
    NumberLiteral,
    Path,
    StringLiteral,
)
from repro.xpath.ast import TestKind as NodeTestKind
from repro.xpath.parser import parse


class TestPaths:
    def test_absolute_child_path(self):
        path = parse("/a/b/c")
        assert path.absolute
        assert [s.test.name for s in path.steps] == ["a", "b", "c"]
        assert all(s.axis is Axis.CHILD for s in path.steps)

    def test_relative_path(self):
        path = parse("a/b")
        assert not path.absolute

    def test_descendant_axis(self):
        path = parse("//item")
        assert path.steps[0].axis is Axis.DESCENDANT_OR_SELF
        assert path.steps[0].test.name == "item"

    def test_descendant_in_middle(self):
        path = parse("/a//b")
        assert path.steps[1].axis is Axis.DESCENDANT_OR_SELF

    def test_attribute_step(self):
        path = parse("/a/@id")
        assert path.steps[1].axis is Axis.ATTRIBUTE
        assert path.steps[1].test.name == "id"

    def test_wildcard(self):
        path = parse("/a/*")
        assert path.steps[1].test.kind is NodeTestKind.WILDCARD

    def test_text_node_test(self):
        path = parse("/a/text()")
        assert path.steps[1].test.kind is NodeTestKind.TEXT

    def test_dot_and_dotdot(self):
        path = parse("./../a")
        assert path.steps[0].axis is Axis.SELF
        assert path.steps[1].axis is Axis.PARENT

    def test_descendant_before_dot_and_dotdot_is_a_step_of_its_own(self):
        # ``//`` is ``/descendant-or-self::node()/``: before ``.`` or ``..``
        # it cannot fuse with the step after it
        assert [s.axis for s in parse("//..").steps] == [Axis.SUBTREE, Axis.PARENT]
        assert [s.axis for s in parse("/r//.").steps] == [Axis.CHILD, Axis.SUBTREE, Axis.SELF]
        assert parse("//..").absolute
        assert all(s.test.kind is NodeTestKind.NODE for s in parse("a//.").steps[1:])

    def test_qname_with_prefix(self):
        path = parse("/ns:item")
        assert path.steps[0].test.name == "ns:item"

    def test_element_named_like_function(self):
        # "text" without parens is an ordinary element name
        path = parse("/text")
        assert path.steps[0].test.kind is NodeTestKind.NAME


class TestPredicates:
    def test_positional_predicate(self):
        path = parse("/a/b[2]")
        predicate = path.steps[1].predicates[0]
        assert isinstance(predicate, NumberLiteral)
        assert predicate.value == 2.0

    def test_comparison_predicate(self):
        path = parse("/a/b[price > 10]")
        predicate = path.steps[1].predicates[0]
        assert isinstance(predicate, Comparison)
        assert predicate.op == ">"
        assert isinstance(predicate.left, Path)
        assert isinstance(predicate.right, NumberLiteral)

    def test_string_comparison(self):
        path = parse("/a[b = 'x']")
        predicate = path.steps[0].predicates[0]
        assert isinstance(predicate.right, StringLiteral)
        assert predicate.right.value == "x"

    def test_attribute_in_predicate(self):
        path = parse("/a[@id = '7']")
        predicate = path.steps[0].predicates[0]
        assert predicate.left.steps[0].axis is Axis.ATTRIBUTE

    def test_existence_predicate(self):
        path = parse("/a[b]")
        assert isinstance(path.steps[0].predicates[0], Path)

    def test_and_or(self):
        path = parse("/a[b and c or d]")
        predicate = path.steps[0].predicates[0]
        assert isinstance(predicate, BooleanOp)
        assert predicate.op == "or"
        assert isinstance(predicate.operands[0], BooleanOp)

    def test_multiple_predicates(self):
        path = parse("/a/b[c][2]")
        assert len(path.steps[1].predicates) == 2

    def test_function_calls(self):
        path = parse("/a[position() < last()]")
        predicate = path.steps[0].predicates[0]
        assert isinstance(predicate.left, FunctionCall)
        assert predicate.left.name == "position"

    def test_count_function(self):
        path = parse("/a[count(b) = 2]")
        predicate = path.steps[0].predicates[0]
        assert predicate.left.name == "count"

    def test_contains_function(self):
        path = parse("/a[contains(name, 'Pa')]")
        predicate = path.steps[0].predicates[0]
        assert predicate.name == "contains"
        assert len(predicate.args) == 2

    def test_not_function(self):
        path = parse("/a[not(b)]")
        assert path.steps[0].predicates[0].name == "not"


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "/a[",
            "/a]",
            "/a[b",
            "/a[]",
            "a b",
            "/a[count()]",
            "/a[contains(x)]",
            "//@id",
            "/a[$var]",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(XPathSyntaxError):
            parse(bad)

    def test_roundtrip_str(self):
        # ast __str__ gives something parseable for simple paths
        path = parse("/a/b[2]/@id")
        reparsed = parse(str(path))
        assert str(reparsed) == str(path)
