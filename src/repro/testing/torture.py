"""Crash-consistency torture: exhaustive crash-point enumeration.

The harness answers one question: *is there any single point in a
workload's I/O stream where dying loses or corrupts data that recovery
should have saved?*  It does so by brute force:

1. **Oracle run** — the workload executes on a plain store; after every
   operation the harness snapshots the serialized document and the
   cumulative WAL append count.  ``snapshots[M]`` is, by definition, the
   state a correct recovery must restore when exactly ``M`` operations
   have durable log records.
2. **Counting run** — the same workload executes on a store whose device
   and WAL are wrapped in the deterministic fault layer
   (:mod:`repro.storage.faults`) with no crash armed.  Every block
   write, per-block fsync flush and WAL frame append registers a crash
   point.  This run doubles as the zero-cost self-check: its simulated
   clock and final document must be byte-identical to the oracle's.
3. **Crash runs** — one run per crash point (or a seeded sample when
   capped): the workload is replayed from scratch, dies at point ``k``,
   and the surviving durable state (stable blocks + flushed WAL prefix,
   torn tails included) is recovered and verified:

   * **full-log restore** (always sound): replay the entire durable WAL
     onto a fresh store; the result must serialize to ``snapshots[M]``,
     pass every :mod:`repro.core.integrity` check — range-index
     intervals, token-replay id regeneration, partial-index memo
     validity — and accept new operations.
   * **checkpoint recovery** (when sound): if no fsync barrier started
     since the last completed checkpoint, the durable image is exactly
     the checkpoint's, so the store is also reopened from the captured
     catalog and the WAL suffix replayed; it must agree with the oracle
     the same way.

Every decision — workload, fault behavior, crash point — derives from
``TortureConfig.seed``, so a failure report is a replayable recipe:
``run_crash_point(config, point)`` reproduces it exactly, and
:func:`shrink_failing` minimizes the operation count while the failure
still fires.

**Media-fault mode** (:func:`run_media_torture`, dispatched from
:func:`run_torture` whenever a media class — ``bitrot``, ``lost_write``,
``misdirect`` — is enabled) asks the silent-corruption question instead:
*can damage that the disk never reports reach a reader unnoticed?*  The
workload runs to completion (no crash) while every flush may rot; each
seeded round is then held to three verdicts:

* **no silent failures** — any operation that fails must fail with a
  :class:`~repro.errors.ChecksumError` (detection), never a wrong answer
  or an unrelated crash;
* **ledger accounting** — every injected fault still on stable storage
  must be *detected* (scrub-flagged or quarantined), *healed* (a later
  flush overwrote it), *masked* (a dirty or pending-free page makes the
  device image non-authoritative) or *provably unreachable* (no live
  structure references the block).  Stale-but-valid images — lost
  writes, and the intended block of a misdirected write — are exempt by
  design: a checksum cannot date a page, so those are caught by the
  content checks instead;
* **repairability** — the damaged store must come back: a full-log
  rebuild always restores the oracle document, and (when the workload
  completed) :func:`repro.core.repair.repair_store` on the live store
  must either restore content equality or degrade *explicitly*, never
  silently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.integrity import integrity_report
from repro.core.store import XMLStore
from repro.errors import ChecksumError, ReproError, SimulatedCrashError, StoreError
from repro.log import get_logger
from repro.storage.disk import MemoryBlockDevice
from repro.storage.faults import FaultConfig, FaultHarness, build_fault_harness
from repro.storage.recovery import replay
from repro.storage.wal import WriteAheadLog
from repro.testing.reference import ReferenceStore
from repro.workloads.generator import purchase_order_stream, purchase_orders_document

_log = get_logger("testing.torture")

#: One logged store operation: (method name, positional args).
Op = Tuple[str, tuple]

#: Small fragments mixed into the random workload (mirrors the property
#: tests' corpus: elements, text, attributes, nesting, multi-rooted).
FRAGMENTS = (
    "<a/>",
    "<b>text</b>",
    "<c x='1'><d/></c>",
    "<e><f>deep</f><g/></e>",
    "<h/><i/>",
)


@dataclass
class TortureConfig:
    """Everything that determines a torture run, seed first."""

    seed: int = 0
    #: mutating operations after the initial bulk load
    ops: int = 30
    #: ``insert`` = the Table-5 append workload (bulk base + order
    #: appends); ``mixed`` = random inserts/deletes/replaces at random
    #: positions
    workload: str = "mixed"
    policy: IndexingPolicy = IndexingPolicy.RANGE_PLUS_PARTIAL
    page_size: int = 512
    pool_capacity: int = 8
    max_range_tokens: Optional[int] = 32
    #: checkpoint every N operations (None = never)
    checkpoint_every: Optional[int] = 7
    #: run a compaction pass every N operations (None = never) — crashed
    #: compactions are the partial-index invalidation hot spot
    compact_every: Optional[int] = 11
    #: fault classes
    torn_page_writes: bool = True
    torn_wal_appends: bool = True
    reorder_sync: bool = True
    #: media (silent-corruption) fault classes — enabling any of them
    #: routes :func:`run_torture` to :func:`run_media_torture`
    bitrot: bool = False
    lost_writes: bool = False
    misdirected_writes: bool = False
    #: per-flushed-block probability of injecting one media fault
    media_fault_rate: float = 0.05
    #: seeded media rounds per torture run (each re-runs the whole
    #: workload with an independent injection stream)
    media_rounds: int = 4
    #: test at most this many crash points (seeded sample); None = all
    crash_points: Optional[int] = None
    #: attach a live event log to every store (fault/recovery events)
    events_enabled: bool = False
    #: orders in the bulk-loaded base document
    base_orders: int = 2
    items_per_order: int = 2

    def store_config(self) -> StoreConfig:
        return StoreConfig(
            policy=self.policy,
            page_size=self.page_size,
            buffer_pool_capacity=self.pool_capacity,
            max_range_tokens=self.max_range_tokens,
            events_enabled=self.events_enabled,
        )

    @property
    def media_faults_enabled(self) -> bool:
        return self.bitrot or self.lost_writes or self.misdirected_writes

    def fault_config(
        self, crash_at: Optional[int], media_seed: Optional[int] = None
    ) -> FaultConfig:
        return FaultConfig(
            seed=self.seed if media_seed is None else media_seed,
            crash_at=crash_at,
            torn_page_writes=self.torn_page_writes,
            torn_wal_appends=self.torn_wal_appends,
            reorder_sync=self.reorder_sync,
            bitrot=self.bitrot,
            lost_writes=self.lost_writes,
            misdirected_writes=self.misdirected_writes,
            media_fault_rate=self.media_fault_rate,
        )


# ===================================================================== workload ==


def generate_workload(config: TortureConfig) -> List[Op]:
    """A deterministic operation sequence for ``config.seed``.

    Valid targets are tracked with the :class:`ReferenceStore` oracle, so
    every generated op addresses a node that exists when it runs — the
    sequence replays identically on every crash run.
    """
    rng = random.Random(config.seed)
    model = ReferenceStore()
    ops: List[Op] = []

    def emit(kind: str, *args) -> None:
        ops.append((kind, args))

    base = purchase_orders_document(
        config.base_orders, config.items_per_order, seed=config.seed
    )
    emit("load_document", base)
    model.load_document(base)
    if config.workload == "insert":
        _generate_insert_ops(config, ops)
        return ops
    if config.workload != "mixed":
        raise ReproError(f"unknown torture workload {config.workload!r}")
    orders = purchase_order_stream(
        config.ops, config.items_per_order, seed=config.seed + 1,
        start_no=config.base_orders,
    )
    for index in range(1, config.ops + 1):
        if config.checkpoint_every and index % config.checkpoint_every == 0:
            emit("checkpoint")
            continue
        if config.compact_every and index % config.compact_every == 0:
            emit("compact")
            continue
        choice = rng.random()
        targets = model.sibling_target_ids()
        elements = model.element_ids()
        if not targets or choice < 0.15:
            fragment = next(orders)
            emit("load_document", fragment)
            model.load_document(fragment)
        elif choice < 0.45 and elements:
            node_id = rng.choice(elements)
            fragment = rng.choice(FRAGMENTS)
            emit("insert_into_last", node_id, fragment)
            model.insert_into_last(node_id, fragment)
        elif choice < 0.60:
            node_id = rng.choice(targets)
            fragment = rng.choice(FRAGMENTS)
            emit("insert_before", node_id, fragment)
            model.insert_before(node_id, fragment)
        elif choice < 0.75:
            node_id = rng.choice(targets)
            fragment = rng.choice(FRAGMENTS)
            emit("insert_after", node_id, fragment)
            model.insert_after(node_id, fragment)
        elif choice < 0.90:
            node_id = rng.choice(targets)
            fragment = rng.choice(FRAGMENTS)
            emit("replace_node", node_id, fragment)
            model.replace_node(node_id, fragment)
        else:
            node_id = rng.choice(targets)
            emit("delete_node", node_id)
            model.delete_node(node_id)
    return ops


def _generate_insert_ops(config: TortureConfig, ops: List[Op]) -> None:
    """The Table-5 insert workload: append order fragments to the root."""
    root_id = 1  # sequential ids: the bulk-loaded root element
    fragments = purchase_order_stream(
        config.ops, config.items_per_order, seed=config.seed + 1,
        start_no=config.base_orders,
    )
    for index in range(1, config.ops + 1):
        if config.checkpoint_every and index % config.checkpoint_every == 0:
            ops.append(("checkpoint", ()))
            continue
        if config.compact_every and index % config.compact_every == 0:
            ops.append(("compact", ()))
            continue
        ops.append(("insert_into_last", (root_id, next(fragments))))


def apply_op(store: XMLStore, op: Op):
    """Execute one workload op; returns the catalog for checkpoints."""
    kind, args = op
    if kind == "checkpoint":
        return store.checkpoint()
    if kind == "compact":
        return store.compact()
    return getattr(store, kind)(*args)


# ===================================================================== baseline ==


@dataclass
class WorkloadTrace:
    """What the oracle and counting runs learned about the workload."""

    ops: List[Op]
    #: ``snapshots[i]`` = serialized document after the first ``i`` ops
    snapshots: List[str]
    #: cumulative WAL appends after each op (``appends_after[i]`` = count
    #: once op ``i`` finished; non-decreasing)
    appends_after: List[int]
    #: total crash points the workload exposes
    total_points: int
    #: label of each crash point (``write:...``/``sync:...``/``wal:...``)
    point_labels: List[str]
    #: the counting run matched the oracle byte-for-byte and cost-for-cost
    passthrough_identical: bool
    oracle_simulated_seconds: float
    faulty_simulated_seconds: float


def _build_faulty_store(
    config: TortureConfig,
    crash_at: Optional[int],
    media_seed: Optional[int] = None,
) -> Tuple[XMLStore, FaultHarness]:
    store_config = config.store_config()
    harness = build_fault_harness(
        config.fault_config(crash_at, media_seed=media_seed),
        MemoryBlockDevice(block_size=store_config.page_size),
    )
    wal = WriteAheadLog()
    wal.fault_adapter = harness.wal_adapter
    store = XMLStore.open(store_config, device=harness.device, wal=wal)
    return store, harness


def run_baseline(config: TortureConfig, ops: Optional[List[Op]] = None) -> WorkloadTrace:
    """The oracle and counting runs (steps 1 and 2 of the module doc)."""
    ops = ops if ops is not None else generate_workload(config)
    # --- oracle: plain store, snapshot after every op
    oracle = XMLStore.open(config.store_config())
    snapshots = [oracle.read()]
    appends_after = []
    for op in ops:
        apply_op(oracle, op)
        snapshots.append(oracle.read())
        appends_after.append(oracle.wal.appends)
    # --- cost reference: the same run on a plain store with *no* reads
    # (the oracle's per-op snapshot reads shift its buffer traffic, so
    # its clock is not comparable to the counting run's)
    plain = XMLStore.open(config.store_config())
    for op in ops:
        apply_op(plain, op)
    plain_seconds = plain.simulated_seconds
    # --- counting: identical run under the (pass-through) fault layer;
    # no reads in the loop, so its I/O stream is exactly a crash run's
    faulty, harness = _build_faulty_store(config, crash_at=None)
    for op in ops:
        apply_op(faulty, op)
    # count points *before* the verification read below: reading can
    # evict dirty pages (more ticks), and crash runs never read
    total_points = harness.clock.ticks
    point_labels = list(harness.clock.points)
    faulty_seconds = faulty.simulated_seconds
    identical = (
        faulty_seconds == plain_seconds and faulty.read() == snapshots[-1]
    )
    return WorkloadTrace(
        ops=ops,
        snapshots=snapshots,
        appends_after=appends_after,
        total_points=total_points,
        point_labels=point_labels,
        passthrough_identical=identical,
        oracle_simulated_seconds=plain_seconds,
        faulty_simulated_seconds=faulty_seconds,
    )


# =================================================================== crash runs ==


@dataclass
class CrashPointResult:
    """Verdict for one crash point."""

    point: int
    label: str
    #: operations whose WAL records were fully durable at the crash
    durable_ops: int
    full_restore_ok: bool
    #: checkpoint recovery was applicable (durable image == catalog state)
    catalog_checked: bool
    catalog_ok: bool
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.full_restore_ok and (self.catalog_ok or not self.catalog_checked)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "point": self.point,
            "label": self.label,
            "durable_ops": self.durable_ops,
            "ok": self.ok,
            "full_restore_ok": self.full_restore_ok,
            "catalog_checked": self.catalog_checked,
            "catalog_ok": self.catalog_ok,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


def _verify_recovered(
    recovered: XMLStore, expected: str, path: str
) -> Optional[str]:
    """Integrity + oracle agreement + liveness; returns an error or None."""
    report = integrity_report(recovered)
    if not report.ok:
        failed = ", ".join(check.name for check in report.failed())
        first = report.failed()[0]
        return f"{path}: integrity check(s) failed [{failed}]: {first.error}"
    actual = recovered.read()
    if actual != expected:
        return (
            f"{path}: recovered document diverges from oracle "
            f"(expected {len(expected)} chars, got {len(actual)}): "
            f"expected {expected[:120]!r}... got {actual[:120]!r}..."
        )
    # the recovered store must stay usable
    recovered.load_document("<post-crash-probe/>")
    probe_report = integrity_report(recovered)
    if not probe_report.ok:
        failed = ", ".join(check.name for check in probe_report.failed())
        return f"{path}: store broke on first post-recovery write [{failed}]"
    return None


def run_crash_point(
    config: TortureConfig, point: int, trace: Optional[WorkloadTrace] = None
) -> CrashPointResult:
    """Replay the workload, crash at ``point``, recover and verify."""
    trace = trace if trace is not None else run_baseline(config)
    store, harness = _build_faulty_store(config, crash_at=point)
    last_catalog: Optional[bytes] = None
    sync_attempts_at_capture = -1
    crashed = False
    for op in trace.ops:
        try:
            result = apply_op(store, op)
        except SimulatedCrashError:
            crashed = True
            break
        if op[0] == "checkpoint":
            last_catalog = result
            sync_attempts_at_capture = harness.disk.sync_attempts
    label = harness.clock.crash_label or "(none)"
    if not crashed:
        raise StoreError(
            f"crash point {point} never fired ({harness.clock.ticks} points total)"
        )
    # the process is dead: only durable state survives
    harness.disk.crash()
    wal_bytes = store.wal.to_bytes()
    durable_frames = harness.wal_adapter.frames_completed
    durable_ops = sum(1 for count in trace.appends_after if count <= durable_frames)
    expected = trace.snapshots[durable_ops]
    # --- recovery path 1: full-log logical restore (always sound)
    error: Optional[str] = None
    try:
        recovered = XMLStore.recover(
            WriteAheadLog.from_bytes(wal_bytes), config=config.store_config()
        )
        error = _verify_recovered(recovered, expected, "full-restore")
    except ReproError as failure:
        error = f"full-restore: recovery raised {type(failure).__name__}: {failure}"
    full_restore_ok = error is None
    # --- recovery path 2: checkpoint catalog + WAL suffix (when sound)
    catalog_checked = False
    catalog_ok = True
    if (
        full_restore_ok
        and last_catalog is not None
        and harness.disk.sync_attempts == sync_attempts_at_capture
    ):
        catalog_checked = True
        try:
            from repro.storage.disk import InstrumentedDevice

            device = InstrumentedDevice(harness.disk)
            wal = WriteAheadLog.from_bytes(wal_bytes)
            reopened = XMLStore.from_catalog(
                device, last_catalog, config=config.store_config(), wal=wal
            )
            replay(reopened, wal)
            catalog_error = _verify_recovered(reopened, expected, "catalog-replay")
        except ReproError as failure:
            catalog_error = (
                f"catalog-replay: recovery raised {type(failure).__name__}: {failure}"
            )
        if catalog_error is not None:
            catalog_ok = False
            error = catalog_error
    return CrashPointResult(
        point=point,
        label=label,
        durable_ops=durable_ops,
        full_restore_ok=full_restore_ok,
        catalog_checked=catalog_checked,
        catalog_ok=catalog_ok,
        error=error,
    )


# ====================================================================== report ==


@dataclass
class TortureReport:
    """Outcome of a whole enumeration."""

    config: TortureConfig
    total_points: int
    tested_points: int
    results: List[CrashPointResult] = field(default_factory=list)
    passthrough_identical: bool = True

    @property
    def failures(self) -> List[CrashPointResult]:
        return [result for result in self.results if not result.ok]

    @property
    def ok(self) -> bool:
        return not self.failures and self.passthrough_identical

    @property
    def catalog_checked_points(self) -> int:
        return sum(1 for result in self.results if result.catalog_checked)

    def to_dict(self) -> Dict[str, object]:
        from repro.obs.schema import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "ok": self.ok,
            "seed": self.config.seed,
            "workload": self.config.workload,
            "ops": self.config.ops,
            "fault_classes": {
                "torn_page_writes": self.config.torn_page_writes,
                "torn_wal_appends": self.config.torn_wal_appends,
                "reorder_sync": self.config.reorder_sync,
                "bitrot": self.config.bitrot,
                "lost_writes": self.config.lost_writes,
                "misdirected_writes": self.config.misdirected_writes,
            },
            "total_points": self.total_points,
            "tested_points": self.tested_points,
            "catalog_checked_points": self.catalog_checked_points,
            "passthrough_identical": self.passthrough_identical,
            "failures": [failure.to_dict() for failure in self.failures],
        }

    def render(self) -> str:
        lines = [
            f"torture seed={self.config.seed} workload={self.config.workload} "
            f"ops={self.config.ops}",
            f"crash points: {self.total_points} total, {self.tested_points} tested, "
            f"{self.catalog_checked_points} also checked via catalog recovery",
            "pass-through: "
            + ("byte-identical" if self.passthrough_identical else "DIVERGED"),
        ]
        if self.failures:
            lines.append(f"{len(self.failures)} FAILING crash point(s):")
            for failure in self.failures:
                lines.append(
                    f"  point {failure.point} [{failure.label}] "
                    f"durable_ops={failure.durable_ops}: {failure.error}"
                )
            lines.append(
                f"reproduce with: TortureConfig(seed={self.config.seed}, "
                f"ops={self.config.ops}, workload={self.config.workload!r}) "
                f"+ run_crash_point(config, {self.failures[0].point})"
            )
        else:
            lines.append("all tested crash points recovered verify-clean")
        return "\n".join(lines)


# ==================================================================== media mode ==


@dataclass
class MediaRoundResult:
    """Verdict for one seeded media-fault round."""

    round: int
    media_seed: int
    #: faults injected / still on stable storage at the end of the round
    injected: int
    unhealed: int
    #: blocks the final scrub flagged
    scrub_bad: int
    #: ops fully applied before the workload finished or stopped
    applied_ops: int
    #: a ChecksumError stopped the workload early (detection, not failure)
    stopped_early: bool
    #: stale-but-valid images (lost writes, misdirected-write sources)
    #: disturbed the live run or overlapped the data chain: undetectable
    #: by checksum *by design*, so the in-place salvage leg is skipped
    #: and recovery is held to the full-log rebuild only
    stale_collateral: bool = False
    #: :func:`repro.core.repair.repair_store` outcome ("clean"/"salvage"),
    #: or None when the round stopped early and the salvage leg was skipped
    repair_mode: Optional[str] = None
    repair_degraded: bool = False
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "round": self.round,
            "media_seed": self.media_seed,
            "ok": self.ok,
            "injected": self.injected,
            "unhealed": self.unhealed,
            "scrub_bad": self.scrub_bad,
            "applied_ops": self.applied_ops,
            "stopped_early": self.stopped_early,
            "stale_collateral": self.stale_collateral,
            "repair_mode": self.repair_mode,
            "repair_degraded": self.repair_degraded,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class MediaTortureReport:
    """Outcome of a whole media-fault torture run."""

    config: TortureConfig
    rounds: List[MediaRoundResult] = field(default_factory=list)
    passthrough_identical: bool = True

    @property
    def failures(self) -> List[MediaRoundResult]:
        return [result for result in self.rounds if not result.ok]

    @property
    def ok(self) -> bool:
        return not self.failures and self.passthrough_identical

    @property
    def tested_points(self) -> int:
        return len(self.rounds)

    @property
    def total_injected(self) -> int:
        return sum(result.injected for result in self.rounds)

    def to_dict(self) -> Dict[str, object]:
        from repro.obs.schema import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "ok": self.ok,
            "mode": "media",
            "seed": self.config.seed,
            "workload": self.config.workload,
            "ops": self.config.ops,
            "fault_classes": {
                "torn_page_writes": self.config.torn_page_writes,
                "torn_wal_appends": self.config.torn_wal_appends,
                "reorder_sync": self.config.reorder_sync,
                "bitrot": self.config.bitrot,
                "lost_writes": self.config.lost_writes,
                "misdirected_writes": self.config.misdirected_writes,
            },
            "media_fault_rate": self.config.media_fault_rate,
            "rounds": [result.to_dict() for result in self.rounds],
            "total_injected": self.total_injected,
            "passthrough_identical": self.passthrough_identical,
            "failures": [failure.to_dict() for failure in self.failures],
        }

    def render(self) -> str:
        classes = [
            name
            for name, on in (
                ("bitrot", self.config.bitrot),
                ("lost_write", self.config.lost_writes),
                ("misdirect", self.config.misdirected_writes),
            )
            if on
        ]
        lines = [
            f"media torture seed={self.config.seed} "
            f"workload={self.config.workload} ops={self.config.ops} "
            f"classes={','.join(classes)} rate={self.config.media_fault_rate}",
            f"rounds: {len(self.rounds)} run, "
            f"{self.total_injected} fault(s) injected in total",
        ]
        for result in self.rounds:
            verdict = "ok" if result.ok else "FAILED"
            if result.stopped_early:
                outcome = "stopped early " + (
                    "(stale-write collateral)"
                    if result.stale_collateral
                    else "(detected)"
                )
            elif result.repair_mode is None and result.stale_collateral:
                outcome = "salvage skipped (stale-write collateral)"
            else:
                outcome = f"repair={result.repair_mode}" + (
                    " degraded" if result.repair_degraded else ""
                )
            lines.append(
                f"  round {result.round} [media_seed={result.media_seed}] "
                f"{verdict}: {result.injected} injected, "
                f"{result.unhealed} unhealed, {result.scrub_bad} scrub-flagged, "
                f"{outcome}"
            )
            if result.error is not None:
                lines.append(f"    {result.error}")
        lines.append(
            "no silent corruption reached a reader"
            if self.ok
            else f"{len(self.failures)} FAILING media round(s)"
        )
        return "\n".join(lines)


def _stale_write_injected(harness) -> bool:
    """True once any fault of this round left a *stale but checksum-valid*
    image: a lost write keeps the block's old image, and so does the
    intended block of a misdirected write.  A CRC authenticates content,
    not freshness, so such damage is undetectable by design — and once a
    stale page may have been served (even if later healed), the live
    store's divergence can outlast the fault.  The harness therefore
    exempts the round's collateral from the silent-failure verdicts and
    relies on the full-log rebuild (which never trusts the device)."""
    return any(
        fault.kind in ("lost_write", "misdirect")
        for fault in harness.disk.media_faults
    )


def _account_media_faults(store, harness, scrub_report) -> Optional[str]:
    """The ledger check: every unhealed fault must be detected, masked or
    unreachable (see the module docstring); returns an error or None."""
    from repro.core.repair import _reachable_index_blocks

    owned = set(store.layout.chain.blocks())
    owned.update(_reachable_index_blocks(store.range_index._tree))
    if store.full_index is not None:
        owned.update(_reachable_index_blocks(store.full_index._tree))
    dirty = set(store.pool.dirty_blocks())
    pending_free = set(store.pool.pending_free_blocks())
    flagged = set(scrub_report.bad_blocks())
    undetected: List[Tuple[str, int]] = []
    for fault in harness.disk.unhealed_media_faults():
        if fault.kind == "lost_write":
            # a lost write leaves a stale-but-valid image: checksums
            # cannot date a page, so detection is out of scope by design
            # and the content checks below account for it instead
            continue
        must_detect = set(fault.pending_blocks)
        if fault.kind == "misdirect":
            # the intended block kept its old (valid) image — same
            # stale-valid exemption as a lost write; only the block the
            # write actually hit carries a checksum-visible wound
            must_detect.discard(fault.block_no)
        for block_no in sorted(must_detect):
            if block_no not in owned:
                continue  # unreachable: no live structure references it
            if block_no in dirty or block_no in pending_free:
                continue  # masked: the device image is not authoritative
            if block_no in flagged or store.pool.is_quarantined(block_no):
                continue  # detected
            undetected.append((fault.kind, block_no))
    if undetected:
        detail = ", ".join(f"{kind}@{block}" for kind, block in undetected)
        return f"undetected media damage on reachable block(s): {detail}"
    return None


def run_media_round(
    config: TortureConfig, round_index: int, trace: WorkloadTrace
) -> MediaRoundResult:
    """One seeded media round: workload under injection, then verify."""
    from repro.core.repair import repair_store
    from repro.storage.scrub import scrub_store

    media_seed = config.seed + 7919 * (round_index + 1)
    store, harness = _build_faulty_store(config, None, media_seed=media_seed)
    applied = 0
    logged_extra = 0
    stopped = False
    result = MediaRoundResult(
        round=round_index, media_seed=media_seed,
        injected=0, unhealed=0, scrub_bad=0,
        applied_ops=0, stopped_early=False,
    )
    for op in trace.ops:
        appends_before = store.wal.appends
        try:
            apply_op(store, op)
        except ChecksumError:
            # detection: the corruption announced itself instead of
            # serving a wrong answer.  A mutating op logs its WAL record
            # before touching pages, so the record may be durable even
            # though the op died half-way — the full-log rebuild then
            # applies it completely (ops are generated valid in sequence).
            stopped = True
            if op[0] not in ("checkpoint", "compact"):
                logged_extra = int(store.wal.appends > appends_before)
            break
        except ReproError as failure:
            if _stale_write_injected(harness):
                # a stale-but-valid page served old state; the live store
                # diverged and the op tripped over it.  Not a *silent*
                # failure (the op errored) and not checksum-detectable by
                # design — stop here and hold recovery to the WAL rebuild.
                stopped = True
                result.stale_collateral = True
                if op[0] not in ("checkpoint", "compact"):
                    logged_extra = int(store.wal.appends > appends_before)
                break
            result.error = (
                f"op {applied} ({op[0]}) failed without detection: "
                f"{type(failure).__name__}: {failure}"
            )
            break
        except Exception:  # pragma: no cover - defensive
            # a stale page can derail internal invariants in arbitrary
            # ways; anything else is a genuine bug and must propagate
            if not _stale_write_injected(harness):
                raise
            stopped = True
            result.stale_collateral = True
            if op[0] not in ("checkpoint", "compact"):
                logged_extra = int(store.wal.appends > appends_before)
            break
        applied += 1
    result.applied_ops = applied
    result.stopped_early = stopped
    salvage_sound = result.error is None and not stopped
    if salvage_sound:
        # flush everything (the final barrier is fault-exposed too), so
        # the device image is authoritative for the scrub and repair legs
        try:
            store.checkpoint()
        except ChecksumError:
            # detection during the flush path: treat like an early stop
            result.stopped_early = stopped = True
            salvage_sound = False
        except ReproError as failure:
            if _stale_write_injected(harness):
                result.stale_collateral = True
                salvage_sound = False
            else:
                result.error = (
                    f"final checkpoint failed: "
                    f"{type(failure).__name__}: {failure}"
                )
                salvage_sound = False
    harness.disk.disable_media_faults()
    # drain the volatile write cache (injection is frozen, so this is a
    # clean writeback): damage already overwritten in the cache heals,
    # and the backend becomes the authoritative image the scrub and
    # accounting legs inspect
    harness.disk.sync()
    result.injected = len(harness.disk.media_faults)
    result.unhealed = len(harness.disk.unhealed_media_faults())
    # --- leg 1: full-log rebuild (always sound — trusts only the WAL)
    expected = trace.snapshots[applied + logged_extra]
    wal_bytes = store.wal.to_bytes()
    if result.error is None:
        try:
            restored = XMLStore.recover(
                WriteAheadLog.from_bytes(wal_bytes), config=config.store_config()
            )
            result.error = _verify_recovered(restored, expected, "wal-rebuild")
        except ReproError as failure:
            result.error = (
                f"wal-rebuild: recovery raised {type(failure).__name__}: {failure}"
            )
    # --- leg 2: ledger accounting against a full scrub of the live store
    if result.error is None:
        scrub = scrub_store(store)
        result.scrub_bad = len(scrub.bad_blocks())
        result.error = _account_media_faults(store, harness, scrub)
        # --- leg 3: in-place repair.  Only when the workload completed (a
        # mid-op stop leaves in-memory state unfit to checkpoint from) AND
        # no stale-valid image ever existed: a silently-served stale page
        # can poison the in-memory metadata that salvage rebuilds from, so
        # stale rounds are held to the full-log rebuild (leg 1) only.
        stale = _stale_write_injected(harness)
        result.stale_collateral = result.stale_collateral or stale
        if result.error is None and salvage_sound and not stale:
            try:
                repair = repair_store(store, scrub_report=scrub)
            except ReproError as failure:
                result.error = (
                    f"repair raised {type(failure).__name__}: {failure}"
                )
            else:
                result.repair_mode = repair.mode
                result.repair_degraded = repair.degraded
                if not repair.integrity_ok:
                    result.error = "repair left integrity checks failing"
                elif not repair.degraded:
                    # every surviving byte is authentic, so a clean repair
                    # must restore the oracle document exactly — and stay
                    # usable
                    result.error = _verify_recovered(
                        store, trace.snapshots[-1], "post-repair"
                    )
                else:
                    # data was genuinely lost (and declared): the repaired
                    # store must still be consistent and accept new writes
                    # — degraded, never wrong
                    store.load_document("<post-repair-probe/>")
                    probe = integrity_report(store)
                    if not probe.ok:
                        failed = ", ".join(
                            check.name for check in probe.failed()
                        )
                        result.error = (
                            f"repaired store broke on first write "
                            f"[{failed}]"
                        )
    return result


def run_media_torture(config: Optional[TortureConfig] = None) -> MediaTortureReport:
    """Seeded media-fault rounds over one workload (module doc, media mode)."""
    config = config if config is not None else TortureConfig(bitrot=True)
    if not config.media_faults_enabled:
        raise StoreError(
            "run_media_torture needs at least one media fault class enabled"
        )
    # the oracle/counting baseline runs media-free: its snapshots are the
    # ground truth every damaged round is verified against
    trace = run_baseline(
        replace(config, bitrot=False, lost_writes=False, misdirected_writes=False)
    )
    report = MediaTortureReport(
        config=config, passthrough_identical=trace.passthrough_identical
    )
    for round_index in range(config.media_rounds):
        result = run_media_round(config, round_index, trace)
        report.rounds.append(result)
        if not result.ok:
            _log.warning("media round %d FAILED: %s", round_index, result.error)
    return report


def select_points(total: int, cap: Optional[int], seed: int) -> List[int]:
    """Which crash points to test: all, or a seeded sample of ``cap``."""
    if cap is None or cap >= total:
        return list(range(total))
    rng = random.Random(seed ^ 0x5EED)
    return sorted(rng.sample(range(total), cap))


def run_torture(config: Optional[TortureConfig] = None):
    """Enumerate crash points for ``config`` and verify recovery at each.

    When any media fault class is enabled the run is a silent-corruption
    hunt instead: dispatches to :func:`run_media_torture` and returns its
    :class:`MediaTortureReport` (same ``ok``/``failures``/``to_dict``/
    ``render`` surface as :class:`TortureReport`).
    """
    config = config if config is not None else TortureConfig()
    if config.media_faults_enabled:
        return run_media_torture(config)
    trace = run_baseline(config)
    points = select_points(trace.total_points, config.crash_points, config.seed)
    _log.info(
        "torture: %d crash points (%d tested), seed=%d",
        trace.total_points, len(points), config.seed,
    )
    report = TortureReport(
        config=config,
        total_points=trace.total_points,
        tested_points=len(points),
        passthrough_identical=trace.passthrough_identical,
    )
    for point in points:
        result = run_crash_point(config, point, trace)
        report.results.append(result)
        if not result.ok:
            _log.warning("crash point %d FAILED: %s", point, result.error)
    return report


def shrink_failing(config: TortureConfig, rounds: int = 6) -> TortureConfig:
    """Minimize ``config.ops`` while the torture run still fails.

    Greedy halving: each round tries a workload half the size; the
    smallest failing size wins.  Returns the minimized config (possibly
    the original if nothing smaller fails).
    """
    best = config
    candidate_ops = config.ops
    for _ in range(rounds):
        candidate_ops //= 2
        if candidate_ops < 1:
            break
        from dataclasses import replace

        candidate = replace(best, ops=candidate_ops)
        if not run_torture(candidate).ok:
            best = candidate
    return best
