"""Span tracing from outside the program.

The traced run replaces a fixed table of public entry points (page/op
granularity, never per token) with wrappers that record
``(name, start, end, parent, op_id)`` spans in memory.  A layer's self time
is its spans' duration minus the part their child spans cover.  Per-token
functions (``decode_token``, ``next_id``, varints) stay unwrapped: they run
millions of times and a wrapper would dominate them; their cost is the
micro unit cost times the counted tokens (see ``layers.py``).
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import threading
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: (module, owner class or None for a module-level name, attribute, span name).
#: Module-level functions are listed once per module that imported them by
#: name, because that binding is what the caller resolves.
PATCH_TABLE: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.core.store", "XMLStore", "read", "store.read"),
    ("repro.core.store", "XMLStore", "insert_into_last", "store.write"),
    ("repro.core.store", "XMLStore", "load_document", "store.write"),
    ("repro.core.locator", "Locator", "locate", "locator.locate"),
    ("repro.core.locator", "Locator", "locate_span", "locator.locate_span"),
    ("repro.core.locator", "Locator", "find_end", "locator.find_end"),
    ("repro.core.partial_index", "PartialIndex", "probe", "partial.probe"),
    ("repro.core.partial_index", "PartialIndex", "remember", "partial.remember"),
    ("repro.core.range_index", "RangeIndex", "locate", "range_index.locate"),
    ("repro.core.full_index", "FullIndex", "lookup", "full_index.lookup"),
    ("repro.core.full_index", "FullIndex", "put", "full_index.put"),
    ("repro.core.full_index", "FullIndex", "remove", "full_index.remove"),
    ("repro.core.full_index", "FullIndex", "remove_interval", "full_index.remove"),
    ("repro.index.bptree", "PagedBPlusTree", "get", "bptree.get"),
    ("repro.index.bptree", "PagedBPlusTree", "floor_item", "bptree.floor_item"),
    ("repro.index.bptree", "PagedBPlusTree", "insert", "bptree.insert"),
    ("repro.index.bptree", "PagedBPlusTree", "delete", "bptree.delete"),
    ("repro.storage.buffer", "BufferPool", "fetch", "buffer.fetch"),
    ("repro.storage.buffer", "BufferPool", "flush_all", "buffer.flush_all"),
    ("repro.storage.pages", "PageCodec", "encode", "pages.encode"),
    ("repro.storage.pages", "PageCodec", "decode", "pages.decode"),
    ("repro.storage.heap", "ChainedFile", "insert_records", "heap.insert_records"),
    ("repro.storage.heap", "ChainedFile", "split_block", "heap.split_block"),
    ("repro.storage.disk", "InstrumentedDevice", "read_block", "disk.read"),
    ("repro.storage.disk", "InstrumentedDevice", "write_block", "disk.write"),
    ("repro.storage.wal", "WriteAheadLog", "append", "wal.append"),
    ("repro.storage.wal", "WriteAheadLog", "sync", "wal.sync"),
    ("repro.storage.wal", "WriteAheadLog", "flush", "wal.flush"),
    ("repro.core.store", None, "tokenize_fragment", "xmltoken.parse"),
    ("repro.core.store", None, "serialize", "xmltoken.serialize"),
    ("repro.server.sessions", "Session", "step", "server.step"),
    ("repro.server.sessions", "XMLServer", "run", "server.run"),
    ("repro.server.snapshot", "Snapshot", "read", "server.snapshot_read"),
    ("repro.server.netadapter", "AsyncXMLServer", "_respond", "server.respond"),
    ("repro.replication.channel", "ReplicationChannel", "fetch", "replication.fetch"),
    ("repro.replication.service", None, "decode_frames", "replication.decode_frames"),
    ("repro.replication.replica", "Replica", "apply", "replication.apply"),
    ("repro.replication.replica", None, "state_digest", "replication.digest"),
    ("repro.replication.service", None, "state_digest", "replication.digest"),
)

#: Benchmark-side span around one socket round trip; its self time is the
#: part the server-side spans do not cover (socket, JSON, event loop).
NET_REQUEST = "net.request"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op_id")

    def __init__(self, name: str, start: float, parent: int, op_id: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op_id = op_id


class Tracer:
    """In-memory span recorder with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op_id = -1
        #: Parent for a span that starts on an otherwise idle thread: the
        #: client's open request span, so server-thread work nests under
        #: the round trip that caused it (closed loop: at most one is open).
        self.remote_parent = -1
        self._stacks: Dict[int, List[int]] = {}
        #: The client and the server-loop thread both append spans.
        self._lock = threading.Lock()

    def begin(self, name: str) -> int:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        parent = stack[-1] if stack else self.remote_parent
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, perf_counter(), parent, self.op_id))
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stacks[threading.get_ident()].pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    @contextlib.contextmanager
    def request(self) -> Iterator[None]:
        """One client round trip: a span other threads' work nests under."""
        with self.span(NET_REQUEST) as index:
            self.remote_parent = index
            try:
                yield
            finally:
                self.remote_parent = -1

    # -- patching ---------------------------------------------------------------

    def _wrap(self, name: str, function):
        begin, end = self.begin, self.end
        if inspect.iscoroutinefunction(function):
            async def traced(*args, **kwargs):
                index = begin(name)
                try:
                    return await function(*args, **kwargs)
                finally:
                    end(index)
        else:
            def traced(*args, **kwargs):
                index = begin(name)
                try:
                    return function(*args, **kwargs)
                finally:
                    end(index)
        traced.__wrapped__ = function
        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every entry point of :data:`PATCH_TABLE`; restore on exit."""
        undo = []
        try:
            for module_name, owner_name, attribute, span_name in PATCH_TABLE:
                owner = importlib.import_module(module_name)
                if owner_name is not None:
                    owner = getattr(owner, owner_name)
                original = owner.__dict__[attribute]
                setattr(owner, attribute, self._wrap(span_name, original))
                undo.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(undo):
                setattr(owner, attribute, original)

    # -- analysis ---------------------------------------------------------------

    def window(self, first: int, last: Optional[int] = None) -> "SpanWindow":
        """The spans with index in ``[first, last)``."""
        return SpanWindow(self.spans, first, len(self.spans) if last is None else last)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps(
                    [index, span.name, span.start, span.end, span.parent, span.op_id]
                ))
                handle.write("\n")


class SpanWindow:
    """Self times and counts over a contiguous slice of recorded spans."""

    def __init__(self, spans: Sequence[Span], first: int, last: int) -> None:
        self._spans = spans
        self.first = first
        self.last = last
        covered = [0.0] * (last - first)
        self.self_s: Dict[str, float] = {}
        self.count: Dict[str, int] = {}
        self.root_s = 0.0
        for index in range(first, last):
            span = spans[index]
            duration = span.end - span.start
            if span.parent >= first:
                covered[span.parent - first] += duration
            else:
                self.root_s += duration
        for index in range(first, last):
            span = spans[index]
            own = (span.end - span.start) - covered[index - first]
            self.self_s[span.name] = self.self_s.get(span.name, 0.0) + own
            self.count[span.name] = self.count.get(span.name, 0) + 1

    def self_of(self, *names: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names)

    def count_of(self, *names: str) -> int:
        return sum(self.count.get(name, 0) for name in names)

    def children_of(self, parents: Sequence[str], child: str) -> int:
        """Spans named ``child`` whose direct parent is one of ``parents``."""
        spans = self._spans
        wanted = set(parents)
        total = 0
        for index in range(self.first, self.last):
            span = spans[index]
            if span.name == child and span.parent >= self.first:
                if spans[span.parent].name in wanted:
                    total += 1
        return total
