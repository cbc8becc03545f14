"""Node columns: a document's nodes as parallel lists, filled by one
header walk over its records (:meth:`repro.core.locator.Locator.node_columns`)
and read by the XPath evaluator.  Plain data, below both."""

from __future__ import annotations

from repro.xmltoken.tokens import TokenKind


class NodeColumns:
    """The document's nodes in document order as parallel lists, one entry
    per element, attribute, text, comment and processing instruction;
    entry 0 is the document node (id None).

    ``kinds`` holds the header's kind bits, ``names`` and ``values`` the
    record fields as stored UTF-8 bytes (an attribute's value joins its
    ATTRIBUTE_VALUE records), ``parent`` the parent's entry (an attribute's
    is its element; -1 for the document node) and ``end`` the entry one
    past the node's subtree, attributes included.
    """

    __slots__ = ("ids", "kinds", "names", "values", "parent", "end")

    def __init__(self) -> None:
        self.ids, self.kinds = [None], [int(TokenKind.BEGIN_DOCUMENT)]
        self.names, self.values = [b""], [b""]
        self.parent, self.end = [-1], [1]
