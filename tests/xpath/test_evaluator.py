"""Unit tests for XPath evaluation against the store."""

import pytest

from repro.core.store import XMLStore
from repro.errors import CodecError

from tests.xpath import oracle

CATALOG = """
<catalog>
  <book year="1994" id="b1">
    <title>TCP/IP Illustrated</title>
    <author>Stevens</author>
    <price>65.95</price>
  </book>
  <book year="2000" id="b2">
    <title>Data on the Web</title>
    <author>Abiteboul</author>
    <author>Buneman</author>
    <price>39.95</price>
  </book>
  <magazine id="m1">
    <title>National Geographic</title>
    <price>9.95</price>
  </magazine>
</catalog>
"""


@pytest.fixture
def store():
    s = XMLStore.open()
    s.load_document(CATALOG.strip())
    return s


def names(results):
    return [r.name for r in results]


def strings(results):
    return [r.string_value for r in results]


class TestSteps:
    def test_root_step(self, store):
        assert names(store.xpath("/catalog")) == ["catalog"]

    def test_child_path(self, store):
        assert len(store.xpath("/catalog/book")) == 2

    def test_descendant(self, store):
        assert len(store.xpath("//title")) == 3

    def test_descendant_from_element(self, store):
        assert len(store.xpath("/catalog/book//author")) == 3

    def test_wildcard(self, store):
        assert len(store.xpath("/catalog/*")) == 3

    def test_attribute_step(self, store):
        results = store.xpath("/catalog/book/@id")
        assert strings(results) == ["b1", "b2"]

    def test_attribute_wildcard(self, store):
        results = store.xpath("/catalog/book/@*")
        assert strings(results) == ["1994", "b1", "2000", "b2"]

    def test_text_step(self, store):
        results = store.xpath("/catalog/magazine/title/text()")
        assert strings(results) == ["National Geographic"]

    def test_parent_step(self, store):
        results = store.xpath("//author/..")
        assert set(names(results)) == {"book"}
        assert len(results) == 2  # de-duplicated

    def test_self_step(self, store):
        assert names(store.xpath("/catalog/.")) == ["catalog"]

    def test_no_match(self, store):
        assert store.xpath("/catalog/nothing") == []

    def test_results_in_document_order(self, store):
        results = store.xpath("//price")
        values = [float(r.string_value) for r in results]
        assert values == [65.95, 39.95, 9.95]


class TestPredicates:
    def test_positional(self, store):
        results = store.xpath("/catalog/book[2]")
        assert strings(store.xpath("/catalog/book[2]/title")) == ["Data on the Web"]
        assert len(results) == 1

    def test_position_function(self, store):
        results = store.xpath("/catalog/book[position() = 1]/title")
        assert strings(results) == ["TCP/IP Illustrated"]

    def test_last_function(self, store):
        results = store.xpath("/catalog/book[last()]/@id")
        assert strings(results) == ["b2"]

    def test_numeric_comparison(self, store):
        results = store.xpath("/catalog/book[price > 40]/title")
        assert strings(results) == ["TCP/IP Illustrated"]

    def test_numeric_comparison_lte(self, store):
        results = store.xpath("//book[price <= 39.95]/@id")
        assert strings(results) == ["b2"]

    def test_string_equality(self, store):
        results = store.xpath("/catalog/book[author = 'Stevens']/@id")
        assert strings(results) == ["b1"]

    def test_attribute_comparison(self, store):
        results = store.xpath("/catalog/book[@year = '2000']/title")
        assert strings(results) == ["Data on the Web"]

    def test_attribute_numeric_comparison(self, store):
        results = store.xpath("/catalog/book[@year < 1999]/@id")
        assert strings(results) == ["b1"]

    def test_existence(self, store):
        # both books have authors; the magazine does not
        assert len(store.xpath("/catalog/*[author]")) == 2

    def test_not_function(self, store):
        results = store.xpath("/catalog/*[not(author)]")
        assert names(results) == ["magazine"]

    def test_count_function(self, store):
        results = store.xpath("/catalog/book[count(author) = 2]/@id")
        assert strings(results) == ["b2"]

    def test_contains_function(self, store):
        results = store.xpath("/catalog/book[contains(title, 'Web')]/@id")
        assert strings(results) == ["b2"]

    def test_and_predicate(self, store):
        results = store.xpath("/catalog/book[price > 30 and @year = '2000']")
        assert len(results) == 1

    def test_or_predicate(self, store):
        results = store.xpath("/catalog/*[author = 'Stevens' or price < 10]")
        assert len(results) == 2

    def test_multiple_predicates_chain(self, store):
        results = store.xpath("/catalog/book[author][1]/@id")
        assert strings(results) == ["b1"]

    def test_set_comparison_any_semantics(self, store):
        # book 2 has two authors; = matches if ANY equals
        results = store.xpath("/catalog/book[author = 'Buneman']/@id")
        assert strings(results) == ["b2"]


class TestPerContextNode:
    """A step's predicates filter each context node's candidates on their
    own, as XPath 1.0 says (they used to count over the whole step)."""

    NESTED = "<r><o><i>1</i><i>2</i></o><o><i>3</i><i>4</i></o></r>"

    @pytest.fixture
    def nested(self):
        s = XMLStore.open()
        s.load_document(self.NESTED)
        return s

    def test_position_counts_per_parent(self, nested):
        assert strings(nested.xpath("/r/o/i[1]")) == ["1", "3"]

    def test_last_counts_per_parent(self, nested):
        assert strings(nested.xpath("/r/o/i[last()]")) == ["2", "4"]

    def test_descendant_position_counts_per_parent(self, nested):
        assert strings(nested.xpath("//i[1]")) == ["1", "3"]
        assert strings(nested.xpath("//i[position() > 1]")) == ["2", "4"]

    def test_descendant_step_is_descendant_or_self_then_child(self, nested):
        # a//b is a/descendant-or-self::node()/child::b: never ``a`` itself
        assert names(nested.xpath("/r//r")) == []
        assert names(nested.xpath("//r")) == ["r"]

    def test_parent_step_results_in_document_order(self):
        s = XMLStore.open()
        s.load_document("<r><x><b/></x><b/></r>")
        assert names(s.xpath("//b/..")) == ["r", "x"]


class TestXPath10Corners:
    DOCUMENT = "<r><a><b/></a><c/></r>"

    @pytest.fixture
    def small(self):
        s = XMLStore.open()
        s.load_document(self.DOCUMENT)
        return s

    def test_descendant_then_parent(self, small):
        # descendant-or-self::node()/parent::node(): the document node, r, a
        assert [r.kind.name for r in small.xpath("//..")][0] == "BEGIN_DOCUMENT"
        assert names(small.xpath("//.."))[1:] == ["r", "a"]
        assert names(small.xpath("/r//..")) == ["", "r", "a"]

    def test_descendant_then_self(self, small):
        assert names(small.xpath("/r//.")) == ["r", "a", "b", "c"]
        assert names(small.xpath("/r/a//./b")) == ["b"]

    def test_a_fractional_position_matches_nothing(self, small):
        assert small.xpath("/r/a[1.5]") == []
        assert small.xpath("/r/*[0.5]") == []
        assert names(small.xpath("/r/*[2.0]")) == ["c"]


class TestDescendantAttributes:
    """``//@x`` is ``descendant-or-self::node()/attribute::x``, checked
    against the tree oracle."""

    DOCUMENT = '<r x="1"><a x="2"><b/></a><c/></r>'

    @pytest.fixture
    def small(self):
        s = XMLStore.open()
        s.load_document(self.DOCUMENT)
        return s

    @staticmethod
    def rows(nodes):
        return [(n.node_id, n.kind, n.name, n.value) for n in nodes]

    @pytest.mark.parametrize("expression", ["//@x", "/r//@x", "//@*", "//@x[1]"])
    def test_matches_the_oracle(self, small, expression):
        found = small.xpath(expression)
        assert self.rows(found) == self.rows(oracle.evaluate(small, expression))
        # both attributes, in document order
        assert [(n.name, n.value) for n in found] == [("x", "1"), ("x", "2")]

    def test_below_a_step(self, small):
        assert [n.value for n in small.xpath("/r/a//@x")] == ["2"]
        assert small.xpath("//b//@x") == []


class TestStoreIntegration:
    def test_results_carry_store_node_ids(self, store):
        result = store.xpath("/catalog/book[1]")[0]
        assert result.node_id is not None
        assert store.read(result.node_id).startswith('<book year="1994"')

    def test_xml_rendering(self, store):
        result = store.xpath("//magazine/title")[0]
        assert result.xml() == "<title>National Geographic</title>"

    def test_attribute_xml_rendering(self, store):
        result = store.xpath("/catalog/book[1]/@id")[0]
        assert result.xml() == 'id="b1"'

    def test_query_after_update(self, store):
        book_id = store.xpath("/catalog/book[1]")[0].node_id
        store.insert_into_last(book_id, "<price>99.00</price>")
        results = store.xpath("/catalog/book[price > 90]")
        assert len(results) == 1

    def test_query_after_delete(self, store):
        magazine = store.xpath("//magazine")[0]
        store.delete_node(magazine.node_id)
        assert store.xpath("//magazine") == []
        assert len(store.xpath("//title")) == 2

    def test_string_value_of_element(self, store):
        result = store.xpath("/catalog/magazine")[0]
        assert "National Geographic" in result.string_value
        assert "9.95" in result.string_value


@pytest.mark.parametrize(
    "damaged",
    [b"\x46\x02\xff\xfe", b"\x06junk"],
    ids=["invalid-utf8", "trailing-bytes"],
)
def test_a_corrupt_text_record_is_a_codec_error(damaged):
    """Every text record a query walks past is checked by the codec."""
    s = XMLStore.open()
    s.load_document("<r><a>x</a><b>y</b></r>")
    text = s.xpath("//a/text()")[0].node_id
    s.layout.chain.replace_record(s.locator.locate(text).begin.pos, damaged)
    with pytest.raises(CodecError):
        s.xpath("//b")
