"""Ordered-index substrate: a paged B+-tree over the buffer pool."""

from repro.index.bptree import PagedBPlusTree

__all__ = ["PagedBPlusTree"]
