"""Identifier schemes: the store's sequential ids and orthogonal labelings."""

from repro.ids.base import LabelingScheme, document_order_key
from repro.ids.dewey import DeweyLabel, DeweyScheme
from repro.ids.ordpath import OrdpathLabel, OrdpathScheme
from repro.ids.prepost import PrePostLabel, PrePostLabeler
from repro.ids.sequential import SequentialIdScheme

__all__ = [
    "DeweyLabel",
    "DeweyScheme",
    "LabelingScheme",
    "OrdpathLabel",
    "OrdpathScheme",
    "PrePostLabel",
    "PrePostLabeler",
    "SequentialIdScheme",
    "document_order_key",
]
