"""The lazy Partial Index (paper §5): a cache/index hybrid.

"The result of lookup operations ... is inserted in the partial index:
either the range of a token, the offset of a token inside its range, the
location (range, offset) of the end token of the node."  A repeated search
for the same logical position then skips the range scan entirely.

Characteristics, per the paper:

* **memory-based** — probing and populating it costs no block I/O (it is
  the counterpart of the disk-resident full index);
* **partial** [18] — only positions the workload actually touched are
  present, and a capacity bound evicts the least recently used entry;
* **lazy** — populated as a side effect of lookups, never ahead of them
  (the eager variant exists only as the Ablation C strawman);
* **nothing to invalidate** — an entry holds a token's *logical address*
  (see :mod:`repro.core.ranges`), which no split, insert or unrelated
  delete changes; it stops resolving only when the token itself is deleted
  or its range is merged away, and is then dropped on probe (cache
  semantics: correctness never depends on the partial index).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.core.ranges import RangeTable
from repro.obs.events import EventLog


@dataclass
class LocationEntry:
    """Memoized logical address of one node's begin (and optionally end)
    token — what both the partial index and the full index hold.

    The end token may live in a *different* range than the begin token —
    the paper's Table 4 shows exactly that (node 60: begin in range 1, end
    in range 3) — so it carries its own address and resolves independently.
    """

    node_id: int
    origin: int
    address: int
    end_origin: Optional[int] = None
    end_address: Optional[int] = None
    #: id of the last node-starting token at/before the end token within
    #: the range the end token was in *when remembered* (None if there was
    #: none); lets update operations reuse the memoized end without
    #: rescanning.  The locator re-frames it to the range the end resolves
    #: into now.
    end_last_id: Optional[int] = None

    @property
    def has_end(self) -> bool:
        return self.end_origin is not None

    def drop_end(self) -> None:
        self.end_origin = None
        self.end_address = None
        self.end_last_id = None


@dataclass
class PartialIndexStats:
    hits: int = 0
    misses: int = 0
    stale_hits: int = 0
    inserts: int = 0
    evictions: int = 0

    @property
    def probes(self) -> int:
        return self.hits + self.misses + self.stale_hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.probes if self.probes else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.stale_hits = 0
        self.inserts = self.evictions = 0

    def register_metrics(self, registry) -> None:
        """Project these counters into a metrics registry."""
        probes = registry.counter(
            "repro_partial_index_probes_total",
            "Partial-index probes by outcome.",
            labelnames=("result",),
        )
        probes.labels(result="hit").inc(self.hits)
        probes.labels(result="miss").inc(self.misses)
        probes.labels(result="stale").inc(self.stale_hits)
        registry.counter(
            "repro_partial_index_inserts_total", "Entries memoized."
        ).inc(self.inserts)
        registry.counter(
            "repro_partial_index_evictions_total", "Entries evicted (LRU)."
        ).inc(self.evictions)
        registry.gauge(
            "repro_partial_index_hit_rate", "Fraction of probes answered current."
        ).set(self.hit_rate)


class PartialIndex:
    """LRU-bounded memo of node locations, keyed by node id."""

    def __init__(self, capacity: Optional[int] = 4096) -> None:
        self.capacity = capacity
        self.stats = PartialIndexStats()
        self._entries: "OrderedDict[int, LocationEntry]" = OrderedDict()
        #: Structured event log (disabled until the store attaches its own).
        self.event_log = EventLog(enabled=False)

    def __len__(self) -> int:
        return len(self._entries)

    def probe(self, node_id: int, ranges: RangeTable) -> Optional[LocationEntry]:
        """The entry for ``node_id`` if its begin still resolves, or None.
        Stale entries are dropped on probe; whether a remembered *end*
        still resolves is for the caller to find out (and ``drop_end``)."""
        entry = self._entries.get(node_id)
        if entry is None:
            self.stats.misses += 1
            if self.event_log.enabled:
                self.event_log.emit("partial_index", "probe",
                                    node_id=node_id, outcome="miss")
            return None
        resolved = ranges.resolve(entry.origin, entry.address)
        if resolved is None:
            self.stats.stale_hits += 1
            del self._entries[node_id]
            if self.event_log.enabled:
                self.event_log.emit("partial_index", "probe",
                                    node_id=node_id, outcome="stale",
                                    origin=entry.origin)
            return None
        self.stats.hits += 1
        self._entries.move_to_end(node_id)
        if self.event_log.enabled:
            self.event_log.emit("partial_index", "probe",
                                node_id=node_id, outcome="hit",
                                range_id=resolved[0].range_id)
        return entry

    def remember(self, entry: LocationEntry) -> None:
        """Memoize a lookup result (lazy population, §5)."""
        existing = self._entries.get(entry.node_id)
        if existing is not None and existing.has_end and not entry.has_end:
            # keep the end-token knowledge the newer entry lacks
            entry.end_origin = existing.end_origin
            entry.end_address = existing.end_address
            entry.end_last_id = existing.end_last_id
        self._entries[entry.node_id] = entry
        self._entries.move_to_end(entry.node_id)
        self.stats.inserts += 1
        if self.event_log.enabled:
            self.event_log.emit("partial_index", "remember",
                                node_id=entry.node_id, origin=entry.origin,
                                has_end=entry.has_end)
        if self.capacity is not None:
            while len(self._entries) > self.capacity:
                evicted_id, _ = self._entries.popitem(last=False)
                self.stats.evictions += 1
                if self.event_log.enabled:
                    self.event_log.emit("partial_index", "evict",
                                        node_id=evicted_id)

    def forget(self, node_id: int) -> None:
        self._entries.pop(node_id, None)

    def clear(self) -> None:
        self._entries.clear()

    def sweep_stale(self, ranges: RangeTable) -> int:
        """Eagerly drop stale entries; returns how many were removed.
        (Normally they age out on probe; the adaptive controller calls
        this when switching to update-optimized mode.)"""
        stale = [
            node_id
            for node_id, entry in self._entries.items()
            if ranges.resolve(entry.origin, entry.address) is None
        ]
        for node_id in stale:
            del self._entries[node_id]
        return len(stale)
