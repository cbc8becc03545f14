"""One window over a stretch of store work, read by EXPLAIN, PROFILE and
a bench phase alike:

    with Window(store, "read") as window:
        store.read(42)
    print(explain_report(window, ["42"]).render())
    print(render_profile_top(cost_profile(window, "read")))

A window adds no probe of its own.  Only one given an ``operation`` opens
an event-log operation, whose op id its events carry: EXPLAIN needs one,
while a profile or a phase with the event log off must not advance the
op-id counter.
"""

from __future__ import annotations

from operator import attrgetter, sub
from typing import Callable, Dict, Optional

from repro.obs.clock import perf_seconds

#: every store counter a window differences: name -> reader
COUNTERS: Dict[str, Callable[[object], float]] = {
    "partial_resolutions": attrgetter("locator.stats.partial_resolutions"),
    "full_resolutions": attrgetter("locator.stats.full_resolutions"),
    "scan_resolutions": attrgetter("locator.stats.scan_resolutions"),
    "tokens_scanned": attrgetter("locator.stats.tokens_scanned"),
    "tokens_emitted": attrgetter("tokens_emitted"),
    "range_lookups": attrgetter("range_index.lookups"),
    "range_entries_loaded": attrgetter("range_index._tree.entries_loaded"),
    "full_entries_loaded": lambda store: (
        store.full_index._tree.entries_loaded
        if store.full_index is not None
        else 0
    ),
    "buffer_hits": attrgetter("pool.stats.hits"),
    "buffer_misses": attrgetter("pool.stats.misses"),
    "wal_appends": attrgetter("wal.appends"),
    "wal_fsyncs": attrgetter("wal.fsyncs"),
    "simulated_seconds": attrgetter("simulated_seconds"),
}


class Window:
    """Context manager differencing a store's counters, the partial
    index's probe outcomes, the device's I/O, the tracer's spans and the
    event log around a stretch of work.  A window that raised exposes
    nothing (``counts`` stays None); after a clean exit it holds:

    * ``counts`` — the :data:`COUNTERS` deltas, by name;
    * ``partial`` — partial-index ``probes``/``hits``/``misses``/
      ``stale_hits``, or None when the store keeps no partial index;
    * ``disk`` — the device's ``DiskStats`` delta, or None without stats;
    * ``spans``/``spans_dropped`` — tracer spans opened inside, and how
      many the ring evicted meanwhile;
    * ``events`` — event-log events inside (under ``op_id`` if opened);
    * ``wall_seconds``.
    """

    def __init__(self, store, operation: Optional[str] = None) -> None:
        self.store = store
        self.operation = operation
        self.op_id: Optional[int] = None
        self.counts: Optional[Dict[str, float]] = None

    def __enter__(self) -> "Window":
        store = self.store
        self._before = {name: read(store) for name, read in COUNTERS.items()}
        self._partial_before = _partial_outcomes(store)
        disk = getattr(store.device, "stats", None)
        self._disk_before = disk.snapshot() if disk is not None else None
        tracer = store.telemetry.tracer
        self._span_seq, self._dropped = tracer.next_seq, tracer.dropped
        self._event_seq = store.event_log.next_seq
        if self.operation is not None:
            self.op_id = store.event_log.begin_op(self.operation)
        self._wall_start = perf_seconds()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall_seconds = perf_seconds() - self._wall_start
        store = self.store
        if self.operation is not None:
            store.event_log.end_op()
        if exc_type is not None:
            return  # propagate; a failed window is not read
        self.wall_seconds = wall_seconds
        self.counts = {
            name: read(store) - self._before[name]
            for name, read in COUNTERS.items()
        }
        self.partial = None
        if self._partial_before is not None:
            hits, misses, stale = map(
                sub, _partial_outcomes(store), self._partial_before
            )
            self.partial = {
                "probes": hits + misses + stale,
                "hits": hits,
                "misses": misses,
                "stale_hits": stale,
            }
        self.disk = (
            store.device.stats.delta(self._disk_before)
            if self._disk_before is not None
            else None
        )
        tracer = store.telemetry.tracer
        self.spans = [e for e in tracer.events() if e.seq >= self._span_seq]
        self.spans_dropped = tracer.dropped - self._dropped
        self.events = store.event_log.events(
            since=self._event_seq, op_id=self.op_id
        )


def _partial_outcomes(store):
    if store.partial_index is None:
        return None
    stats = store.partial_index.stats
    return stats.hits, stats.misses, stats.stale_hits
