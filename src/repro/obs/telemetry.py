"""Telemetry facade: one object bundling a registry and a tracer.

The store holds exactly one ``telemetry`` attribute and every
instrumentation point goes through it.  Two implementations share the
surface:

* :class:`Telemetry` — live registry + tracer (``enabled`` is True);
* :class:`NoopTelemetry` — the zero-cost twin selected when
  ``StoreConfig.telemetry_enabled`` is False.  Its ``span()`` returns a
  single shared no-op context manager and its registry swallows every
  update, so a disabled store performs no event allocation and no
  locking on the hot path.

Use :func:`create_telemetry` to pick the right one from configuration.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.obs.metrics import (
    MetricFamily,
    MetricsRegistry,
    NOOP_REGISTRY,
    NoopRegistry,
)
from repro.obs.tracing import (
    NOOP_TRACER,
    NoopTracer,
    SpanEvent,
    Tracer,
)


class Telemetry:
    """Live telemetry: spans feed the ring buffer and the registry."""

    enabled = True

    def __init__(self, simulated_clock: Optional[Callable[[], float]] = None) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(simulated_clock=simulated_clock, registry=self.registry)

    def span(self, name: str, **fields: object):
        return self.tracer.span(name, **fields)

    def preregister_spans(self, names: Sequence[str]) -> None:
        """Make the span metric series for ``names`` visible at zero."""
        for name in names:
            self.tracer.touch(name)

    # registry passthrough, so call sites need only the facade
    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        return self.registry.counter(name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        return self.registry.gauge(name, help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames: Sequence[str] = (), **kwargs):
        return self.registry.histogram(name, help, labelnames, **kwargs)

    def events(self) -> List[SpanEvent]:
        return self.tracer.events()

    def collect(self) -> List[MetricFamily]:
        return self.registry.collect()

    def snapshot(self) -> Dict[str, float]:
        return self.registry.snapshot()


class NoopTelemetry:
    """Disabled telemetry; every method is a no-op with the same shape."""

    __slots__ = ()
    enabled = False
    registry: NoopRegistry = NOOP_REGISTRY
    tracer: NoopTracer = NOOP_TRACER

    def span(self, name: str, **fields: object):
        return NOOP_TRACER.span(name)

    def preregister_spans(self, names: Sequence[str]) -> None:
        pass

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        return NOOP_REGISTRY.counter(name)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        return NOOP_REGISTRY.gauge(name)

    def histogram(self, name: str, help: str = "", labelnames: Sequence[str] = (), **kwargs):
        return NOOP_REGISTRY.histogram(name)

    def events(self) -> List[SpanEvent]:
        return []

    def collect(self) -> List[MetricFamily]:
        return []

    def snapshot(self) -> Dict[str, float]:
        return {}


NOOP_TELEMETRY = NoopTelemetry()


def create_telemetry(
    enabled: bool, simulated_clock: Optional[Callable[[], float]] = None
):
    """The configured telemetry object: live when enabled, shared no-op
    singleton otherwise."""
    if not enabled:
        return NOOP_TELEMETRY
    return Telemetry(simulated_clock=simulated_clock)
