"""Store-level statistics: the observability surface of the benchmarks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.locator import LocatorStats
from repro.core.partial_index import PartialIndexStats
from repro.storage.buffer import BufferStats
from repro.storage.disk import DiskStats


@dataclass
class OperationCounts:
    """How many of each Table-1 operation the store has executed."""

    loads: int = 0
    reads: int = 0
    node_reads: int = 0
    inserts: int = 0
    deletes: int = 0
    replaces: int = 0
    ranges_created: int = 0
    ranges_split: int = 0
    ranges_dropped: int = 0
    nodes_inserted: int = 0
    nodes_deleted: int = 0

    @property
    def updates(self) -> int:
        return self.inserts + self.deletes + self.replaces + self.loads

    @property
    def read_ops(self) -> int:
        return self.reads + self.node_reads

    @property
    def total(self) -> int:
        """Every Table-1 operation, reads and updates."""
        return self.read_ops + self.updates

    def reset(self) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def register_metrics(self, registry) -> None:
        """Project these counters into a metrics registry."""
        operations = registry.counter(
            "repro_store_operations_total",
            "Table-1 operations executed, by kind.",
            labelnames=("op",),
        )
        for op, value in (
            ("load", self.loads),
            ("read", self.reads),
            ("node_read", self.node_reads),
            ("insert", self.inserts),
            ("delete", self.deletes),
            ("replace", self.replaces),
        ):
            operations.labels(op=op).inc(value)
        ranges = registry.counter(
            "repro_store_ranges_total",
            "Range-table lifecycle events.",
            labelnames=("event",),
        )
        ranges.labels(event="created").inc(self.ranges_created)
        ranges.labels(event="split").inc(self.ranges_split)
        ranges.labels(event="dropped").inc(self.ranges_dropped)
        nodes = registry.counter(
            "repro_store_nodes_total",
            "Logical nodes inserted and deleted.",
            labelnames=("event",),
        )
        nodes.labels(event="inserted").inc(self.nodes_inserted)
        nodes.labels(event="deleted").inc(self.nodes_deleted)


@dataclass
class StoreStatistics:
    """Aggregated view over every layer's counters."""

    operations: OperationCounts
    locator: LocatorStats
    disk: DiskStats
    buffer: BufferStats
    partial: Optional[PartialIndexStats] = None

    def reset(self) -> None:
        self.operations.reset()
        self.locator.reset()
        self.disk.reset()
        self.buffer.reset()
        if self.partial is not None:
            self.partial.reset()

    def register_metrics(self, registry) -> None:
        """Project every layer's counters into a metrics registry."""
        self.operations.register_metrics(registry)
        self.locator.register_metrics(registry)
        self.disk.register_metrics(registry)
        self.buffer.register_metrics(registry)
        if self.partial is not None:
            self.partial.register_metrics(registry)

    def summary(self) -> str:
        """Human-readable multi-line dump (used by examples).

        Delegates to the observability layer: the counters are projected
        into a registry and rendered back in the historical format, so
        this text stays byte-stable for scripts that parse it.
        """
        from repro.obs.bridge import stats_registry
        from repro.obs.exporters import render_classic_summary

        return render_classic_summary(stats_registry(self))
