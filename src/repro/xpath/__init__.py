"""XPath subset: navigational evaluator + structural-join baseline."""

from repro.xpath.ast import Axis, NodeTest, Path, Step, TestKind
from repro.xpath.evaluator import XPathNode, evaluate
from repro.xpath.parser import parse
from repro.xpath.structural_join import (
    LabeledElement,
    containment_query,
    label_elements,
    stack_tree_desc,
)

__all__ = [
    "Axis",
    "LabeledElement",
    "NodeTest",
    "Path",
    "Step",
    "TestKind",
    "XPathNode",
    "containment_query",
    "evaluate",
    "label_elements",
    "parse",
    "stack_tree_desc",
]
