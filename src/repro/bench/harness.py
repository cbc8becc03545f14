"""Micro-benchmark harness: phases, cold caches, kb/s accounting.

The paper's metric is "kilobytes/second (read speed, relative to data
size)" on a 2005 disk.  Our primary clock is the *simulated* disk clock
(see :mod:`repro.storage.disk` and DESIGN.md): every phase is one
:class:`~repro.obs.window.Window` over the store, and throughput is XML
bytes over simulated seconds.  Wall-clock seconds are recorded alongside
(and pytest-benchmark measures them independently), but Python wall time
measures the interpreter, not the storage design — the simulated clock is
what reproduces the paper's *shape*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.store import XMLStore
from repro.obs.bridge import metrics_snapshot
from repro.obs.explain import explain_report
from repro.obs.profiler import cost_profile
from repro.obs.window import Window

#: Floor for elapsed simulated time, so fully cached phases report a very
#: large (but finite) throughput instead of dividing by zero.
MIN_SIMULATED_SECONDS = 1e-9


@dataclass
class PhaseResult:
    """Measurements for one benchmark phase."""

    label: str
    operations: int
    xml_bytes: int
    simulated_seconds: float
    wall_seconds: float
    device_reads: int
    device_writes: int
    tokens_scanned: int
    #: Per-phase metrics delta (counters: after - before; gauges: after),
    #: keyed by flat sample name.  See :mod:`repro.obs.bridge`.
    metrics: Optional[Dict[str, float]] = None
    #: EXPLAIN report for the phase (access-path attribution; only
    #: captured when the store's event log is enabled).
    explain: Optional[Dict[str, object]] = None
    #: cost profile for the phase (call tree + component attribution;
    #: only captured when the store's config enables profiling).
    profile: Optional[Dict[str, object]] = None

    @property
    def kb_per_second(self) -> float:
        """Simulated-clock throughput, the paper's Table 5 metric."""
        elapsed = max(self.simulated_seconds, MIN_SIMULATED_SECONDS)
        return (self.xml_bytes / 1024.0) / elapsed

    @property
    def wall_kb_per_second(self) -> float:
        elapsed = max(self.wall_seconds, MIN_SIMULATED_SECONDS)
        return (self.xml_bytes / 1024.0) / elapsed

    def __str__(self) -> str:
        return (
            f"{self.label}: {self.kb_per_second:,.1f} kb/s simulated "
            f"({self.operations} ops, {self.xml_bytes / 1024:.0f} KB, "
            f"{self.device_reads}r/{self.device_writes}w)"
        )


def make_cold(store: XMLStore) -> None:
    """Flush and empty the buffer pool so the next phase reads from the
    (simulated) disk — the paper's benchmarks read cold data."""
    store.pool.flush_all()
    store.pool.drop_all()


def run_phase(
    store: XMLStore,
    label: str,
    thunk: Callable[[], int],
    operations: int,
    cold: bool = False,
) -> PhaseResult:
    """Run one phase and account it.

    ``thunk`` performs the work and returns the number of XML bytes it
    processed.  Dirty pages are flushed *inside* the measured window so
    write-heavy phases pay their write-back, as a real store would.
    """
    if cold:
        make_cold(store)
    else:
        store.pool.flush_all()
    # registry snapshots happen outside the window so the telemetry
    # export never contaminates the measured time
    metrics_before = metrics_snapshot(store)
    # the window opens an EXPLAIN operation only with the event log on,
    # so the default (disabled) path advances no op id
    operation = label if store.event_log.enabled else None
    with Window(store, operation) as window:
        xml_bytes = thunk()
        store.pool.flush_all()
    metrics_after = metrics_snapshot(store)
    # one labeled history row per phase; reads counters only, so the
    # window above is untouched
    store.watch(label, ["history"])
    explain = profile = None
    if operation is not None:
        explain = explain_report(window).to_dict(include_events=False)
    if store.config.profiling_enabled:
        profile = cost_profile(window, label).to_dict()
    return PhaseResult(
        label=label,
        operations=operations,
        xml_bytes=xml_bytes,
        simulated_seconds=window.counts["simulated_seconds"],
        wall_seconds=window.wall_seconds,
        device_reads=window.disk.reads,
        device_writes=window.disk.writes,
        tokens_scanned=window.counts["tokens_scanned"],
        metrics=metrics_after.delta(metrics_before),
        explain=explain,
        profile=profile,
    )


def insert_phase(
    store: XMLStore, target_id: int, fragments: List[str], label: str = "insert"
) -> PhaseResult:
    """Measure ``insert_into_last`` throughput (the paper's insert bench)."""

    def work() -> int:
        total = 0
        for fragment in fragments:
            store.insert_into_last(target_id, fragment)
            total += len(fragment.encode("utf-8"))
        return total

    return run_phase(store, label, work, operations=len(fragments))


def sequential_scan_phase(store: XMLStore, label: str = "seq-scan") -> PhaseResult:
    """Measure a full document read from a cold cache."""

    def work() -> int:
        return len(store.read().encode("utf-8"))

    return run_phase(store, label, work, operations=1, cold=True)


def random_read_phase(
    store: XMLStore, node_ids: List[int], label: str = "random-reads"
) -> PhaseResult:
    """Measure point reads of small pieces, from a cold cache."""

    def work() -> int:
        total = 0
        for node_id in node_ids:
            total += len(store.read(node_id).encode("utf-8"))
        return total

    return run_phase(store, label, work, operations=len(node_ids), cold=True)
