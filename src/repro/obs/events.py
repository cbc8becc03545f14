"""Structured event log: who did what on which access path, and when.

Spans (:mod:`repro.obs.tracing`) time *brackets* of work; events record
*facts inside* them — "partial index probe missed node 42", "range 3
scanned 211 tokens", "WAL appended insert_into_last".  Every component on
the lookup path (locator, partial index, range index, full index, buffer
pool, WAL, xpath evaluator) holds an ``event_log`` attribute — a disabled
log of its own until the store attaches the store's — and emits into it.

Each :class:`Event` carries:

* ``seq`` — monotone sequence number (the ring buffer's own order);
* ``op_id``/``op`` — the store operation the event belongs to, stamped
  while a :class:`~repro.obs.window.Window` given an operation (or any
  caller of :meth:`EventLog.begin_op`) has an operation window open;
* ``span`` — the sequence number of the innermost open tracing span at
  emit time, correlating events with the span tree;
* ``severity`` — ``debug``/``info``/``warning``/``error``;
* ``source``/``kind`` — emitting component and what happened.  Sources
  include the lookup-path components above plus ``"fault"`` (the
  crash-consistency layer, :mod:`repro.storage.faults`: ``torn_write``,
  ``torn_wal_append``, ``sync``, ``crash``; the silent-corruption layer:
  ``bitrot``/``lost_write``/``misdirect`` on injection,
  ``checksum_error`` when the buffer pool quarantines a block,
  ``scrub_bad_block``/``scrub_complete`` from :mod:`repro.storage.scrub`)
  and ``"recovery"`` (WAL replay, plus ``repair_complete`` from
  :mod:`repro.core.repair`), so EXPLAIN can attribute post-crash and
  post-corruption work;
* ``wall``/``simulated`` — both store clocks at emit time;
* ``fields`` — free-form payload (node ids, ranges, token counts...).

Like the rest of :mod:`repro.obs`, off is a state, not a class: a log
built with ``enabled=False`` stays empty because every emit site guards
on ``event_log.enabled`` (``tests/obs/test_disabled_facilities.py`` lints
that), so a store without events performs one attribute check and
nothing else.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.clock import perf_seconds
from repro.obs.recorder import FlightRecorder

DEFAULT_EVENT_CAPACITY = 4096

SEVERITIES = ("debug", "info", "warning", "error")


@dataclass
class Event:
    """One structured log record, as stored in the ring buffer."""

    seq: int
    op_id: Optional[int]
    op: Optional[str]
    span: Optional[int]
    severity: str
    source: str
    kind: str
    wall: float
    simulated: float
    fields: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "seq": self.seq,
            "severity": self.severity,
            "source": self.source,
            "kind": self.kind,
            "wall": self.wall,
            "simulated": self.simulated,
        }
        if self.op_id is not None:
            out["op_id"] = self.op_id
            out["op"] = self.op
        if self.span is not None:
            out["span"] = self.span
        if self.fields:
            out["fields"] = self.fields
        return out


def events_log_jsonl(events: List[Event]) -> str:
    """Render events as JSON lines (one object per line)."""
    return "".join(
        json.dumps(event.to_dict(), sort_keys=True, default=str) + "\n"
        for event in events
    )


class EventLog:
    """Bounded, thread-safe ring buffer of :class:`Event` records."""

    def __init__(
        self,
        capacity: int = DEFAULT_EVENT_CAPACITY,
        simulated_clock: Optional[Callable[[], float]] = None,
        tracer=None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        if capacity < 1:
            capacity = 1
        self.capacity = capacity
        # a disabled log emits nothing, so it keeps neither the clock nor
        # the tracer (nor, through them, the store that owns it)
        self.simulated_clock = simulated_clock if enabled else None
        #: tracer whose innermost open span stamps each event (optional)
        self.tracer = tracer if enabled else None
        self.dropped = 0
        self._events: Deque[Event] = deque(maxlen=capacity)
        self._seq = 0
        self._lock = threading.Lock()
        #: stack of open (op_id, op_name) windows; events are stamped with
        #: the innermost one, and ending an inner window re-exposes the
        #: enclosing one (nested ops: an xpath EXPLAIN wrapping node reads)
        self._op_stack: List[Tuple[int, str]] = []
        self._next_op_id = 0
        #: flight recorder every emitted event is teed into (the owning
        #: store attaches its own; see :mod:`repro.obs.recorder`)
        self.recorder = FlightRecorder(enabled=False)

    # -- operation windows --------------------------------------------------

    def begin_op(self, name: str) -> int:
        """Open an operation window; events emitted until the matching
        :meth:`end_op` carry this operation's id and name.  Windows nest:
        ending an inner window restores the enclosing one."""
        with self._lock:
            op_id = self._next_op_id
            self._next_op_id += 1
            self._op_stack.append((op_id, name))
        return op_id

    def end_op(self) -> None:
        with self._lock:
            if self._op_stack:
                self._op_stack.pop()

    # -- emission -----------------------------------------------------------

    def emit(
        self, source: str, kind: str, severity: str = "debug", **fields: object
    ) -> Event:
        """Record one event; returns it (mainly for tests)."""
        if severity not in SEVERITIES:
            raise ObservabilityError(
                f"unknown severity {severity!r}; use one of {SEVERITIES}"
            )
        simulated = self.simulated_clock() if self.simulated_clock is not None else 0.0
        span_seq = self.tracer.current_span_seq() if self.tracer is not None else None
        with self._lock:
            op_id, op_name = self._op_stack[-1] if self._op_stack else (None, None)
            event = Event(
                seq=self._seq,
                op_id=op_id,
                op=op_name,
                span=span_seq,
                severity=severity,
                source=source,
                kind=kind,
                wall=perf_seconds(),
                simulated=simulated,
                fields=fields,
            )
            self._seq += 1
            if len(self._events) == self.capacity:
                self.dropped += 1
            self._events.append(event)
        # the tee runs outside the lock: the recorder has its own, and
        # ring order there is its own sequence, not this one's
        if self.recorder.enabled:
            self.recorder.record_event(event)
        return event

    # -- inspection ---------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """Sequence number the next event will receive (window marker)."""
        with self._lock:
            return self._seq

    def events(
        self, since: int = 0, op_id: Optional[int] = None
    ) -> List[Event]:
        """Events still in the ring, oldest first, with ``seq >= since``
        (optionally restricted to one operation window)."""
        with self._lock:
            out = [e for e in self._events if e.seq >= since]
        if op_id is not None:
            out = [e for e in out if e.op_id == op_id]
        return out

    def to_jsonl(self) -> str:
        return events_log_jsonl(self.events())

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.dropped = 0
