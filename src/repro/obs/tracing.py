"""Tracing spans: lightweight nested timing over both store clocks.

A span brackets one logical unit of work::

    with tracer.span("insert_before", node_id=7):
        ...

On exit the span records *wall-clock* seconds (via the obs clock) and
*simulated disk* seconds (via the callback the store provides), plus any
fields given at creation, into a bounded in-memory ring buffer of
:class:`SpanEvent` objects.  Spans nest: each event carries its depth
and the sequence number of its parent, so an exporter can rebuild the
call tree.  When a registry is attached, every completed span also feeds
three metrics — ``repro_spans_total``, ``repro_span_seconds`` and
``repro_span_simulated_seconds`` — labeled by span name, which is what
gives every Table-1 operation a latency *and* a simulated-cost
histogram for free.

:data:`NOOP_SPAN` is one of the package's two null objects: a disabled
:class:`~repro.obs.telemetry.Telemetry` returns it from ``span()``, so a
disabled store allocates no event objects at all.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.clock import perf_seconds
from repro.obs.metrics import (
    Counter,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    SIMULATED_COST_BUCKETS,
)

DEFAULT_RING_CAPACITY = 1024

SPANS_TOTAL = "repro_spans_total"
SPAN_SECONDS = "repro_span_seconds"
SPAN_SIMULATED_SECONDS = "repro_span_simulated_seconds"


@dataclass
class SpanEvent:
    """One completed span, as stored in the ring buffer."""

    seq: int
    name: str
    depth: int
    parent: Optional[int]
    #: perf-clock timestamp at span start (process-relative seconds)
    start: float
    #: simulated-clock timestamp at span start (store clock; 0.0 when the
    #: tracer has no simulated clock).  The simulated timeline this anchors
    #: is what makes profile exports deterministic (see repro.obs.profiler).
    sim_start: float
    wall_seconds: float
    simulated_seconds: float
    fields: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "seq": self.seq,
            "name": self.name,
            "depth": self.depth,
            "parent": self.parent,
            "start": self.start,
            "sim_start": self.sim_start,
            "wall_seconds": self.wall_seconds,
            "simulated_seconds": self.simulated_seconds,
        }
        if self.fields:
            out["fields"] = self.fields
        return out


class Span:
    """Context manager measuring one unit of work; see :class:`Tracer`."""

    __slots__ = ("_tracer", "name", "fields", "seq", "depth", "parent",
                 "_start_perf", "_start_sim")

    def __init__(self, tracer: "Tracer", name: str, fields: Dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.fields = fields
        self.seq = -1
        self.depth = 0
        self.parent: Optional[int] = None
        self._start_perf = 0.0
        self._start_sim = 0.0

    def annotate(self, **fields: object) -> None:
        """Attach extra fields to the span while it is open."""
        self.fields.update(fields)

    def __enter__(self) -> "Span":
        self._tracer._start(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.fields["error"] = exc_type.__name__
        self._tracer._finish(self)


class Tracer:
    """Creates spans and keeps their events in a bounded ring buffer."""

    def __init__(
        self,
        simulated_clock: Optional[Callable[[], float]] = None,
        capacity: int = DEFAULT_RING_CAPACITY,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            capacity = 1
        self.capacity = capacity
        self.simulated_clock = simulated_clock
        self._events: Deque[SpanEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self._seq = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans_total = None
        self._span_seconds = None
        self._span_simulated = None
        #: span name -> its (count, wall, simulated) metric children,
        #: resolved on the name's first span or :meth:`touch`
        self._span_metrics: Dict[str, Tuple[Counter, Histogram, Histogram]] = {}
        if registry is not None:
            self._spans_total = registry.counter(
                SPANS_TOTAL, "Completed spans by name.", labelnames=("span",)
            )
            self._span_seconds = registry.histogram(
                SPAN_SECONDS,
                "Wall-clock span duration in seconds.",
                labelnames=("span",),
                buckets=LATENCY_BUCKETS,
            )
            self._span_simulated = registry.histogram(
                SPAN_SIMULATED_SECONDS,
                "Simulated disk+CPU span cost in seconds.",
                labelnames=("span",),
                buckets=SIMULATED_COST_BUCKETS,
            )

    # -- span lifecycle -----------------------------------------------------

    def span(self, name: str, **fields: object) -> Span:
        return Span(self, name, fields)

    def touch(self, name: str) -> None:
        """Pre-register the metric children for a span name, so exports
        show the series (at zero) before the first occurrence."""
        if self._spans_total is not None:
            self._metrics_for(name)

    def _metrics_for(self, name: str) -> Tuple[Counter, Histogram, Histogram]:
        metrics = self._span_metrics.get(name)
        if metrics is None:
            metrics = self._span_metrics[name] = (
                self._spans_total.labels(span=name),
                self._span_seconds.labels(span=name),
                self._span_simulated.labels(span=name),
            )
        return metrics

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _start(self, span: Span) -> None:
        stack = self._stack()
        with self._lock:
            span.seq = self._seq
            self._seq += 1
        span.depth = len(stack)
        span.parent = stack[-1].seq if stack else None
        stack.append(span)
        clock = self.simulated_clock
        span._start_sim = clock() if clock is not None else 0.0
        span._start_perf = perf_seconds()

    def _finish(self, span: Span) -> None:
        wall = perf_seconds() - span._start_perf
        clock = self.simulated_clock
        simulated = (clock() - span._start_sim) if clock is not None else 0.0
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # exited out of order; drop it and its orphans
            stack[:] = stack[: stack.index(span)]
        event = SpanEvent(
            seq=span.seq,
            name=span.name,
            depth=span.depth,
            parent=span.parent,
            start=span._start_perf,
            sim_start=span._start_sim,
            wall_seconds=wall,
            simulated_seconds=simulated,
            fields=span.fields,
        )
        with self._lock:
            if len(self._events) == self.capacity:
                self.dropped += 1
            self._events.append(event)
        if self._spans_total is not None:
            count, wall_histogram, simulated_histogram = self._metrics_for(span.name)
            count.inc()
            wall_histogram.observe(wall)
            simulated_histogram.observe(simulated)

    # -- inspection ---------------------------------------------------------

    @property
    def active_depth(self) -> int:
        return len(self._stack())

    @property
    def next_seq(self) -> int:
        """Sequence number the next span will receive (window marker for
        per-operation analysis, see :mod:`repro.obs.explain`)."""
        with self._lock:
            return self._seq

    def current_span_seq(self) -> Optional[int]:
        """Sequence number of the innermost open span on this thread, or
        None outside any span (event/span correlation)."""
        stack = self._stack()
        return stack[-1].seq if stack else None

    def events(self) -> List[SpanEvent]:
        """The ring buffer's events, oldest first."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.dropped = 0


# -------------------------------------------------------------- null object --

class _NoopSpan:
    """Shared do-nothing span; one instance serves every disabled call."""

    __slots__ = ()
    name = "noop"
    fields: Dict[str, object] = {}

    def annotate(self, **fields: object) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NOOP_SPAN = _NoopSpan()
