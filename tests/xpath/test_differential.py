"""The column evaluator against two references that share none of its code.

* ``tests/xpath/oracle.py``, the tree evaluator it replaced: random
  documents (stored in small ranges, some split by a later insert) and
  random expressions over the whole supported grammar must give the same
  node ids, kinds, names, values and string-values in the same order,
  for the same ``tokens_scanned`` charge.
* The standard library's ``xml.etree.ElementTree`` ElementPath, on the
  subset it implements (``/``, ``//``, ``*``, ``[n]``, ``[last()]``,
  ``[tag]``, ``[@a]``, ``[@a='v']``), with ``.``, ``..`` and the ``//``
  before them taken over a parent map: the same elements, as ordinals in
  document order.
"""

import xml.etree.ElementTree as ElementTree

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StoreConfig
from repro.core.store import XMLStore
from repro.xmltoken.binary import MARKUP
from repro.xmltoken.columns import NodeColumns
from repro.xmltoken.tokens import TokenKind
from repro.xpath.structural_join import label_elements

from tests.xpath import oracle

NAMES = ("a", "b", "c")
ATTRIBUTES = ("x", "y")
VALUES = ("1", "2", "v")

# -------------------------------------------------------------- documents --

leaves = st.one_of(
    st.sampled_from(VALUES),
    st.just("<!--n-->"),
    st.just("<?p d?>"),
)


def _element(parts):
    name, attributes, children = parts
    rendered = "".join(f' {key}="{value}"' for key, value in sorted(attributes.items()))
    return f"<{name}{rendered}>{''.join(children)}</{name}>"


def elements(children):
    return st.tuples(
        st.sampled_from(NAMES),
        st.dictionaries(st.sampled_from(ATTRIBUTES), st.sampled_from(VALUES), max_size=2),
        st.lists(children, max_size=4),
    ).map(_element)


content = st.recursive(leaves, elements, max_leaves=24)
documents = elements(content)


@st.composite
def stores(draw):
    """A store holding a random document, in ranges of a few tokens, and
    sometimes with a second fragment inserted into its root."""
    store = XMLStore.open(StoreConfig(max_range_tokens=draw(st.integers(4, 40))))
    store.load_document(draw(documents))
    if draw(st.booleans()):
        store.insert_into_first(1, draw(elements(content)))
    return store


# ------------------------------------------------------------ expressions --

literals = st.sampled_from(["'1'", "'2'", "'v'", "1", "2"])
operators = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
name_tests = st.sampled_from(NAMES + ("*",))
attribute_tests = st.sampled_from(tuple(f"@{a}" for a in ATTRIBUTES) + ("@*",))


def predicates(depth):
    simple = [
        st.integers(1, 3).map(str),
        st.sampled_from(["1.5", "2.0"]),
        st.just("last()"),
        st.tuples(operators, st.integers(1, 3)).map(lambda t: f"position() {t[0]} {t[1]}"),
        st.tuples(relative_paths(depth), operators, literals).map(" ".join),
        st.tuples(relative_paths(depth), operators, st.integers(0, 2)).map(
            lambda t: f"count({t[0]}) {t[1]} {t[2]}"
        ),
        st.tuples(relative_paths(depth), st.sampled_from(VALUES)).map(
            lambda t: f"contains({t[0]}, '{t[1]}')"
        ),
        relative_paths(depth),
    ]
    if depth:
        inner = predicates(depth - 1)
        simple += [
            inner.map(lambda p: f"not({p})"),
            st.tuples(inner, st.sampled_from(["and", "or"]), inner).map(" ".join),
        ]
    return st.one_of(simple)


def steps(depth):
    """One step; ``//`` may come before any of them, ``@`` included."""
    with_predicates = st.tuples(
        st.one_of(name_tests, st.sampled_from(("text()", "comment()", "node()")), attribute_tests),
        st.lists(predicates(depth - 1), max_size=2) if depth else st.just([]),
    ).map(lambda t: t[0] + "".join(f"[{p}]" for p in t[1]))
    return st.one_of(with_predicates, st.sampled_from((".", "..")))


def _render(prefix, parts):
    """Join ``(separator, step)`` pairs, the first under ``prefix``."""
    out = []
    for k, (separator, step) in enumerate(parts):
        out.append((prefix if k == 0 else separator) + step)
    return "".join(out)


def paths(depth, prefixes):
    return st.tuples(
        st.sampled_from(prefixes),
        st.lists(st.tuples(st.sampled_from(["/", "//"]), steps(depth)), min_size=1, max_size=4),
    ).map(lambda t: _render(*t))


def relative_paths(depth):
    return paths(depth, ["", "", "", "/"])


expressions = paths(2, ["/", "//", "//", ""])


# ------------------------------------------------------------------ tests --

def rows(nodes):
    return [(n.node_id, n.kind, n.name, n.value, n.string_value) for n in nodes]


@settings(max_examples=250, deadline=None)
@given(store=stores(), expression=expressions)
def test_the_column_evaluator_matches_the_tree_oracle(store, expression):
    stats = store.locator.stats
    expected = rows(oracle.evaluate(store, expression))
    # cold, then warm: the column walk reads value-less records from the
    # codec's markup table once the slicer has validated them
    MARKUP.clear()
    for _ in range(2):
        before = stats.tokens_scanned
        found = store.xpath(expression)
        # the walk is charged once per stored record, as the tree's scan was
        assert stats.tokens_scanned - before == sum(
            m.token_count for m in store.ranges.in_order()
        )
        assert rows(found) == expected


@settings(max_examples=50, deadline=None)
@given(store=stores())
def test_node_columns_are_the_same_cold_and_warm(store):
    MARKUP.clear()
    cold = store.locator.node_columns()
    warm = store.locator.node_columns()
    assert MARKUP
    for column in NodeColumns.__slots__:
        assert getattr(warm, column) == getattr(cold, column)


@settings(max_examples=50, deadline=None)
@given(store=stores())
def test_structural_join_labels_match_the_token_walk(store):
    assert label_elements(store) == oracle.label_elements(store)


# -------------------------------------------------- ElementPath reference --

ELEMENT_PREDICATES = ["[b]", "[@x]", "[@x='1']", "[@y='v']"]
element_steps = st.one_of(
    st.tuples(
        st.sampled_from(NAMES),
        st.sampled_from(["", "[1]", "[2]", "[last()]"] + ELEMENT_PREDICATES),
    ).map("".join),
    st.tuples(st.just("*"), st.sampled_from([""] + ELEMENT_PREDICATES)).map("".join),
    st.sampled_from((".", "..")),
)
element_paths = st.tuples(
    st.sampled_from(["/", "//", "//"]),
    st.lists(st.tuples(st.sampled_from(["/", "//"]), element_steps), min_size=1, max_size=4),
).map(lambda t: [(t[0], t[1][0][1]), *t[1][1:]])


def ordinals_from_store(store, parts):
    element_ids = [
        item.last_id for item in store.locator.scan() if item.kind == TokenKind.BEGIN_ELEMENT
    ]
    ordinal = {node_id: k for k, node_id in enumerate(element_ids)}
    expression = "".join(separator + step for separator, step in parts)
    return [
        ordinal[n.node_id] for n in store.xpath(expression) if n.kind == TokenKind.BEGIN_ELEMENT
    ]


class Leaves:
    """The text, comment and PI children of ``parent``: ElementTree keeps
    none as a node, yet ``..`` from one of them reaches ``parent``."""

    def __init__(self, parent):
        self.parent = parent


def _has_leaves(xml):
    """Per element ordinal: does it have a text, comment or PI child?"""
    builder = ElementTree.TreeBuilder(insert_comments=True, insert_pis=True)
    parser = ElementTree.XMLParser(target=builder)
    parser.feed(xml)
    elements = [e for e in parser.close().iter() if isinstance(e.tag, str)]
    return [
        bool(e.text) or any(c.tail or not isinstance(c.tag, str) for c in e) for e in elements
    ]


def ordinals_from_elementtree(xml, parts):
    """ElementPath answers each name step per context element; ElementPath
    has no ``//.`` or ``//..`` and no parent of its context, so ``.``,
    ``..`` and the ``//`` before them are taken here."""
    document = ElementTree.Element("document")  # stands for the document node
    document.append(ElementTree.fromstring(xml))
    elements = list(document[0].iter())
    ordinal = {id(e): k for k, e in enumerate(elements)}
    parent = {id(child): p for p in document.iter() for child in p}
    leaves = {id(e): Leaves(e) for e, has in zip(elements, _has_leaves(xml)) if has}

    def subtree(node):  # descendant-or-self::node()
        if isinstance(node, Leaves):
            return [node]
        return [m for e in node.iter() for m in (e, leaves.get(id(e))) if m is not None]

    def parent_of(node):
        if isinstance(node, Leaves):
            return [node.parent]
        return [parent[id(node)]] if id(node) in parent else []

    context = [document]
    for separator, step in parts:
        if step in (".", ".."):
            if separator == "//":
                context = [m for node in context for m in subtree(node)]
            if step == "..":
                context = [p for node in context for p in parent_of(node)]
        else:
            context = [
                e for node in context if not isinstance(node, Leaves)
                for e in node.findall("." + separator + step)
            ]
        context = list({id(node): node for node in context}.values())
    return sorted(ordinal[id(e)] for e in context if id(e) in ordinal)


@settings(max_examples=250, deadline=None)
@given(xml=documents, parts=element_paths)
def test_element_results_match_elementpath(xml, parts):
    store = XMLStore.open()
    store.load_document(xml)
    assert ordinals_from_store(store, parts) == ordinals_from_elementtree(xml, parts)
