"""The column evaluator against two references that share none of its code.

* ``tests/xpath/oracle.py``, the tree evaluator it replaced: random
  documents (stored in small ranges, some split by a later insert) and
  random expressions over the whole supported grammar must give the same
  node ids, kinds, names, values and string-values in the same order,
  for the same ``tokens_scanned`` charge.
* The standard library's ``xml.etree.ElementTree`` ElementPath, on the
  subset it implements (``/``, ``//``, ``.``, ``..``, ``*``, ``[n]``,
  ``[last()]``, ``[tag]``, ``[@a]``, ``[@a='v']``): the same elements, as
  ordinals in document order.
"""

import xml.etree.ElementTree as ElementTree

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StoreConfig
from repro.core.store import XMLStore
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
    """One step; :func:`_render` puts no ``//`` before ``@``, ``.`` or
    ``..`` (``//@x`` does not parse, and ``//.`` drops the ``//``)."""
    with_predicates = st.tuples(
        st.one_of(name_tests, st.sampled_from(("text()", "comment()", "node()")), attribute_tests),
        st.lists(predicates(depth - 1), max_size=2) if depth else st.just([]),
    ).map(lambda t: t[0] + "".join(f"[{p}]" for p in t[1]))
    return st.one_of(with_predicates, st.sampled_from((".", "..")))


def _render(prefix, parts):
    """Join ``(separator, step)`` pairs, the first under ``prefix``."""
    out = []
    for k, (separator, step) in enumerate(parts):
        separator = prefix if k == 0 else separator
        if separator == "//" and step[0] in "@.":
            separator = "/"
        out.append(separator + step)
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
    before = stats.tokens_scanned
    found = store.xpath(expression)
    # the walk is charged once per stored record, as the tree's scan was
    assert stats.tokens_scanned - before == sum(m.token_count for m in store.ranges.in_order())
    assert rows(found) == rows(oracle.evaluate(store, expression))


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
).map(lambda t: _render(*t))


def ordinals_from_store(store, expression):
    element_ids = [
        item.last_id for item in store.locator.scan() if item.kind == TokenKind.BEGIN_ELEMENT
    ]
    ordinal = {node_id: k for k, node_id in enumerate(element_ids)}
    return [
        ordinal[n.node_id] for n in store.xpath(expression) if n.kind == TokenKind.BEGIN_ELEMENT
    ]


def ordinals_from_elementtree(xml, expression):
    document = ElementTree.Element("document")  # stands for the document node
    document.append(ElementTree.fromstring(xml))
    ordinal = {id(e): k for k, e in enumerate(document[0].iter())}
    found = document.findall("." + expression)
    return sorted({ordinal[id(e)] for e in found if e is not document})


@settings(max_examples=250, deadline=None)
@given(xml=documents, expression=element_paths)
def test_element_results_match_elementpath(xml, expression):
    store = XMLStore.open()
    store.load_document(xml)
    assert ordinals_from_store(store, expression) == ordinals_from_elementtree(xml, expression)
