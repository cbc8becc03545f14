"""Telemetry facade: one object bundling a registry and a tracer.

The store holds exactly one ``telemetry`` attribute and every
instrumentation point goes through it.  Whether it records is a
constructor argument (``StoreConfig.telemetry_enabled``): a disabled
facade keeps an empty registry and a tracer that never sees a span.
Its ``span()`` returns the shared :data:`~repro.obs.tracing.NOOP_SPAN`
and its ``counter``/``gauge``/``histogram`` return the shared
:data:`~repro.obs.metrics.NOOP_METRIC` — the null objects for the call
sites that do not guard on ``enabled`` — so a disabled store performs no
event allocation and no locking on the hot path.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.obs.metrics import NOOP_METRIC, MetricFamily, MetricsRegistry
from repro.obs.tracing import NOOP_SPAN, Span, SpanEvent, Tracer


class Telemetry:
    """Spans feed the ring buffer and the registry (when enabled)."""

    def __init__(
        self,
        simulated_clock: Optional[Callable[[], float]] = None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry()
        # a disabled facade's tracer never sees a span: it keeps no clock
        # (nor, through it, the store) and feeds no registry
        self.tracer = (
            Tracer(simulated_clock=simulated_clock, registry=self.registry)
            if enabled
            else Tracer()
        )

    def span(self, name: str, **fields: object):
        if not self.enabled:
            return NOOP_SPAN
        return Span(self.tracer, name, fields)

    def preregister_spans(self, names: Sequence[str]) -> None:
        """Make the span metric series for ``names`` visible at zero."""
        for name in names:
            self.tracer.touch(name)

    # registry passthrough, so call sites need only the facade
    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        if not self.enabled:
            return NOOP_METRIC
        return self.registry.counter(name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        if not self.enabled:
            return NOOP_METRIC
        return self.registry.gauge(name, help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames: Sequence[str] = (), **kwargs):
        if not self.enabled:
            return NOOP_METRIC
        return self.registry.histogram(name, help, labelnames, **kwargs)

    def events(self) -> List[SpanEvent]:
        return self.tracer.events()

    def collect(self) -> List[MetricFamily]:
        return self.registry.collect()

    def snapshot(self) -> Dict[str, float]:
        return self.registry.snapshot()
