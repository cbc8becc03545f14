"""Metrics registry: named counters, gauges and histograms with labels.

The registry is the store's machine-readable surface.  Every metric is
registered once by name (get-or-create, so instrumentation points never
race over "who creates it") and may declare *label names*; calling
``metric.labels(path="partial")`` returns a child time series for that
label combination.  All updates are thread-safe.

Two bucket presets are provided: :data:`LATENCY_BUCKETS` for wall-clock
span durations and :data:`SIMULATED_COST_BUCKETS` for the store's
simulated disk seconds, whose magnitudes are very different (a single
random block access already costs ~8.5 simulated milliseconds).

Robustness counters ride the same registry: the buffer pool registers
``repro_storage_checksum_errors_total`` (blocks that failed on-fetch
checksum verification and were quarantined — see
:meth:`repro.storage.buffer.BufferStats.register_metrics`), so corruption
detection is visible on the ordinary metrics surface, not a side channel.

Reading is cheap by construction: a leaf time series renders its sample
names, label tuples and flat ``name{label="value"}`` keys once, when it
is created (:func:`_render_series`), and both read paths —
:meth:`_Metric.collect` for the exporters and
:meth:`MetricsRegistry.snapshot` for the periodic observers — pair those
cached renderings with the current numbers.  A snapshot is a read: no
:class:`Sample`, no :func:`format_value`, no string join.

The no-op twins (:data:`NOOP_METRIC`, :data:`NOOP_REGISTRY`) are shared
singletons with the same call surface; selecting them disables telemetry
without a single conditional at the instrumentation points.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate
from typing import (
    Callable,
    Collection,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ObservabilityError

#: Wall-clock latency buckets (seconds): 50µs .. 10s.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Simulated-disk-cost buckets (seconds): one seek .. minutes of I/O.
SIMULATED_COST_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

#: Token-count buckets for scan-length histograms.
TOKEN_COUNT_BUCKETS: Tuple[float, ...] = (
    1, 4, 16, 64, 256, 1024, 4096, 16384, 65536,
)


class Sample(NamedTuple):
    """One exported time series value."""

    name: str
    labels: Tuple[Tuple[str, str], ...]
    value: float


class MetricFamily(NamedTuple):
    """One metric with all its label children, ready for an exporter."""

    name: str
    kind: str
    help: str
    samples: Tuple[Sample, ...]


LabelPairs = Tuple[Tuple[str, str], ...]


def _label_key(labelnames: Sequence[str], labels: Dict[str, object]) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ObservabilityError(
            f"labels {sorted(labels)} do not match declared {list(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Series(NamedTuple):
    """What one leaf time series exports, rendered once: per value its
    sample name, its label pairs and its flat key, in export order."""

    names: Tuple[str, ...]
    labels: Tuple[LabelPairs, ...]
    keys: Tuple[str, ...]


@lru_cache(maxsize=1024)
def _render_series(
    name: str, labels: LabelPairs, bounds: Optional[Tuple[float, ...]]
) -> _Series:
    """The rendering of a leaf: one sample for a counter or gauge
    (``bounds`` None); for a histogram one ``_bucket`` per bound plus
    ``+Inf``, then ``_sum`` and ``_count``.  A pure function of immutable
    arguments, memoized because :mod:`repro.obs.bridge` projects the
    store's counters into a *fresh* registry per snapshot: those leaves
    are re-created every time and must not re-render either."""
    if bounds is None:
        samples = [(name, labels)]
    else:
        samples = [
            (name + "_bucket", labels + (("le", format_value(bound)),))
            for bound in bounds + (float("inf"),)
        ]
        samples += [(name + "_sum", labels), (name + "_count", labels)]
    names, pairs = zip(*samples)
    return _Series(names, pairs, tuple(map(_flat_key, names, pairs)))


class _Metric:
    """Shared parent/child machinery for all metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: "Dict[Tuple[str, ...], _Metric]" = {}
        #: how this leaf exports; :meth:`labels` re-renders a child's with
        #: its label pairs (a labeled parent exports only its children)
        self._series = self._render(())

    def labels(self, **labels: object) -> "_Metric":
        """The child time series for one label combination."""
        if not self.labelnames:
            raise ObservabilityError(f"metric {self.name} declares no labels")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._leaf()
                child._lock = self._lock  # children share the family lock
                child._series = child._render(tuple(zip(self.labelnames, key)))
                self._children[key] = child
            return child

    def existing(self, **labels: object) -> "Optional[_Metric]":
        """The child for one label combination if it exists, else None —
        for readers, which must never add a series by looking."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._children.get(key)

    def _leaf(self) -> "_Metric":
        """Child factory: a fresh unlabeled metric of this family's kind."""
        return type(self)(self.name, self.help)

    def _render(self, labels: LabelPairs) -> _Series:
        return _render_series(self.name, labels, None)

    def _require_leaf(self) -> None:
        if self.labelnames:
            raise ObservabilityError(
                f"metric {self.name} is labeled; call .labels(...) first"
            )

    def _leaves(self) -> "Sequence[_Metric]":
        if not self.labelnames:
            return (self,)
        with self._lock:
            return list(self._children.values())

    def _read(self) -> Sequence[float]:
        """This leaf's current values, aligned with ``self._series``."""
        raise NotImplementedError

    def collect(self) -> MetricFamily:
        samples: List[Sample] = []
        for leaf in self._leaves():
            series = leaf._series
            samples.extend(map(Sample, series.names, series.labels, leaf._read()))
        return MetricFamily(self.name, self.kind, self.help, tuple(samples))

    def read_into(
        self, values: Dict[str, float], kinds: Optional[Dict[str, str]] = None
    ) -> None:
        """The flat read path: ``values[key] = value`` for every sample
        of this family (and ``kinds[key] = self.kind`` when asked), in
        :meth:`collect` order."""
        for leaf in self._leaves():
            keys = leaf._series.keys
            values.update(zip(keys, leaf._read()))
            if kinds is not None:
                kinds.update(dict.fromkeys(keys, self.kind))


class Counter(_Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self._require_leaf()
        if amount < 0:
            raise ObservabilityError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _read(self) -> Sequence[float]:
        return (self._value,)


class Gauge(_Metric):
    """A value that can go up and down, or track a callback."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._value = 0.0
        self._function: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self._require_leaf()
        with self._lock:
            self._function = None
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._require_leaf()
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, function: Callable[[], float]) -> None:
        """Evaluate ``function`` at collection time instead of storing."""
        self._require_leaf()
        with self._lock:
            self._function = function

    @property
    def value(self) -> float:
        function = self._function
        return float(function()) if function is not None else self._value

    def _read(self) -> Sequence[float]:
        return (self.value,)


class Histogram(_Metric):
    """Bucketed distribution with sum and count.

    Bucket bounds are *upper* bounds with ``value <= bound`` semantics
    (Prometheus ``le``); a ``+Inf`` bucket is implicit.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ObservabilityError(f"histogram {name} needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ObservabilityError(f"histogram {name} has duplicate buckets")
        self.buckets = bounds  # before super(): rendering the series reads it
        super().__init__(name, help, labelnames)
        self._counts = [0] * (len(bounds) + 1)  # + the +Inf bucket
        self._sum = 0.0

    def _leaf(self) -> "Histogram":
        return Histogram(self.name, self.help, buckets=self.buckets)

    def _render(self, labels: LabelPairs) -> _Series:
        return _render_series(self.name, labels, self.buckets)

    def observe(self, value: float) -> None:
        self._require_leaf()
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value

    @property
    def count(self) -> int:
        return sum(self._counts)

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending at +Inf."""
        return list(
            zip(self.buckets + (float("inf"),), accumulate(self._counts))
        )

    def _read(self) -> Sequence[float]:
        # cumulative bucket counts (the last is the +Inf bucket, i.e. the
        # total), then the sum, then the count as a float
        values: List[float] = list(accumulate(self._counts))
        values += (self._sum, float(values[-1]))
        return values


def format_value(value: float) -> str:
    """Render a sample value the way Prometheus text format does."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _flat_key(name: str, labels: LabelPairs) -> str:
    if not labels:
        return name
    rendered = ",".join(f'{label}="{value}"' for label, value in labels)
    return f"{name}{{{rendered}}}"


def sample_key(sample: Sample) -> str:
    """Flat ``name{label="value",...}`` key for one sample."""
    return _flat_key(sample.name, sample.labels)


class MetricsRegistry:
    """Thread-safe, insertion-ordered collection of metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: "Dict[str, _Metric]" = {}

    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if not isinstance(metric, cls):
                    raise ObservabilityError(
                        f"metric {name} already registered as {metric.kind}"
                    )
                if metric.labelnames != tuple(labelnames):
                    raise ObservabilityError(
                        f"metric {name} already registered with labels "
                        f"{list(metric.labelnames)}"
                    )
                return metric
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)  # type: ignore

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)  # type: ignore

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)  # type: ignore

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def collect(self) -> List[MetricFamily]:
        with self._lock:
            metrics = list(self._metrics.values())
        return [metric.collect() for metric in metrics]

    def snapshot(
        self,
        kinds: Optional[Dict[str, str]] = None,
        skip: Collection[str] = (),
    ) -> "Dict[str, float]":
        """Flat ``{key: value}`` view over every sample, in
        :meth:`collect` order, read through each leaf's cached keys.
        ``kinds``, when given, receives ``{key: family kind}``; families
        named in ``skip`` are left out whole."""
        with self._lock:
            metrics = list(self._metrics.values())
        out: Dict[str, float] = {}
        for metric in metrics:
            if metric.name not in skip:
                metric.read_into(out, kinds)
        return out


# ---------------------------------------------------------------- no-op twins --

class _NoopMetric:
    """Counter/gauge/histogram impostor that ignores everything."""

    __slots__ = ()
    kind = "noop"
    name = "noop"
    value = 0.0
    buckets: Tuple[float, ...] = ()

    def labels(self, **labels: object) -> "_NoopMetric":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_function(self, function: Callable[[], float]) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def collect(self) -> MetricFamily:
        return MetricFamily("noop", "noop", "", ())


NOOP_METRIC = _NoopMetric()


class NoopRegistry:
    """Registry impostor handing out the shared no-op metric."""

    __slots__ = ()

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> _NoopMetric:
        return NOOP_METRIC

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> _NoopMetric:
        return NOOP_METRIC

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = (),
    ) -> _NoopMetric:
        return NOOP_METRIC

    def get(self, name: str) -> None:
        return None

    def collect(self) -> List[MetricFamily]:
        return []

    def snapshot(self) -> Dict[str, float]:
        return {}


NOOP_REGISTRY = NoopRegistry()
