"""Deterministic fault injection under the simulated block device.

This module is the crash-consistency counterpart of
:class:`~repro.storage.disk.InstrumentedDevice`: where the instrumented
device *counts* every access, :class:`FaultyDisk` decides which accesses
become **durable**.  It models the volatile/stable split of a real disk
stack:

* ``write_block`` lands in a *volatile* write cache (the OS page cache);
* ``sync`` flushes the cache to the stable backend — optionally in a
  seeded-random order, so a crash mid-sync persists an arbitrary subset
  of the writes issued since the last barrier (write reordering);
* a crash (:meth:`FaultyDisk.crash`) discards everything volatile; the
  backend then holds exactly the durable image recovery must start from;
* the block being written when a crash fires may be **torn**: only a
  seeded prefix of its sectors reaches stable storage.

Crash points are driven by a shared :class:`FaultClock`: every durable-
state-relevant I/O (block write, per-block sync flush, WAL frame append)
ticks the clock, and the clock raises
:class:`~repro.errors.SimulatedCrashError` when the configured point is
reached.  A dry run with ``crash_at=None`` counts the points; the
torture harness (:mod:`repro.testing.torture`) then replays the same
seeded workload once per point, crashing at each.

:class:`WALFaultAdapter` extends the same clock under the write-ahead
log: a crash during an append persists only a prefix of the record frame
(a torn WAL tail), which the WAL's CRC framing must detect and discard.

Beyond crash faults, the disk injects **media faults** — the silent-
corruption half of the storage-failure taxonomy: ``bitrot`` (flip bits
in a block after it reaches stable storage), ``lost_write`` (drop a
synced write but acknowledge it) and ``misdirect`` (persist a synced
write to the wrong block).  Media faults draw from a *separate* seeded
stream (``seed ^ 0xB17B07``) and never tick the fault clock, so arming
them leaves crash-point enumeration and the shuffle order bit-identical
to a media-free run with the same seed.  Every injected fault lands in
the :attr:`FaultyDisk.media_faults` ledger so the torture harness can
assert that each one was detected, healed by a later overwrite, or
provably unreachable.

All fault classes live in the :data:`FAULT_CLASSES` registry — the
single source for :meth:`FaultConfig.from_classes`, the CLI help text
and the CI matrix values.

Everything is deterministic given ``FaultConfig.seed``: the shuffle
order, tear offsets and crash point are all drawn from one
``random.Random`` stream, so a failing (seed, crash point) pair is an
exact reproduction recipe.

The layer is strictly opt-in: stores built without a ``FaultyDisk`` in
their device chain take no new branches, and a pass-through
``FaultyDisk`` (no crash point armed) is cost-invisible — the simulated
clock is charged by the instrumented wrapper above it, which accounts
identically whatever backend it wraps (pinned by the zero-cost tests).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.errors import BlockNotFoundError, SimulatedCrashError, StorageError
from repro.log import get_logger
from repro.obs.events import EventLog
from repro.storage.disk import BlockDevice, InstrumentedDevice

_log = get_logger("storage.faults")

#: Sector granularity of torn writes: a crash persists a whole number of
#: sectors of the in-flight block, never a partial sector.
DEFAULT_SECTOR_SIZE = 512

#: XOR'd into ``FaultConfig.seed`` for the media-fault stream, keeping it
#: independent of the crash clock's stream ("BITROT" in hexspeak).
_MEDIA_SEED_SALT = 0xB17B07


@dataclass(frozen=True)
class FaultClass:
    """One entry of the shared fault-class registry."""

    name: str
    #: ``"crash"`` (volatile-cache / crash-point faults, on by default via
    #: ``all``) or ``"media"`` (silent-corruption faults, opt-in by name).
    kind: str
    description: str


#: The single source of truth for fault-class names: the
#: :meth:`FaultConfig.from_classes` parser, the CLI ``torture
#: --fault-classes`` help text and the CI matrix values are all derived
#: from this tuple, so a new class cannot drift out of the help text.
FAULT_CLASSES = (
    FaultClass(
        "torn-page", "crash",
        "tear the block image in flight when the crash point fires mid-sync",
    ),
    FaultClass(
        "torn-wal", "crash",
        "tear the WAL frame being appended when the crash point fires there",
    ),
    FaultClass(
        "reorder", "crash",
        "flush each sync barrier's writes in seeded-random order",
    ),
    FaultClass(
        "bitrot", "media",
        "flip k seeded bits in a block after it reaches stable storage",
    ),
    FaultClass(
        "lost_write", "media",
        "silently drop a synced write but acknowledge it (stale block image)",
    ),
    FaultClass(
        "misdirect", "media",
        "persist a synced write to the wrong block (both blocks end up bad)",
    ),
)

CRASH_CLASSES = tuple(c.name for c in FAULT_CLASSES if c.kind == "crash")
MEDIA_CLASSES = tuple(c.name for c in FAULT_CLASSES if c.kind == "media")


def fault_classes_help() -> str:
    """One-line help text for ``--fault-classes``, registry-derived."""
    crash = ", ".join(CRASH_CLASSES)
    media = ", ".join(MEDIA_CLASSES)
    return (
        f"comma list of fault classes — crash: {crash}; media: {media}; "
        f"or all (= every crash class; media classes are opt-in by name) / none"
    )


@dataclass
class FaultConfig:
    """What the fault layer is allowed to do, and when to crash.

    ``crash_at=None`` is the counting (dry-run) mode: the clock ticks but
    never fires, and ``FaultClock.points`` afterwards holds every crash
    point the workload exposes.
    """

    seed: int = 0
    #: crash when the clock reaches this tick (0-based); None = never
    crash_at: Optional[int] = None
    #: tear the block image being flushed when the crash fires mid-sync
    torn_page_writes: bool = True
    #: tear the WAL frame being appended when the crash fires there
    torn_wal_appends: bool = True
    #: flush the volatile cache in seeded-random order on sync, so a
    #: mid-sync crash persists an arbitrary subset of the barrier's writes
    reorder_sync: bool = True
    sector_size: int = DEFAULT_SECTOR_SIZE
    #: media faults (silent corruption after the sync barrier): opt-in,
    #: drawn from a separate seeded stream so they never perturb the
    #: crash clock (see the module docstring)
    bitrot: bool = False
    lost_writes: bool = False
    misdirected_writes: bool = False
    #: per-flushed-block probability of injecting one media fault
    media_fault_rate: float = 0.05
    #: bits flipped per bitrot event
    bitrot_bits: int = 3

    @property
    def media_faults_enabled(self) -> bool:
        return self.bitrot or self.lost_writes or self.misdirected_writes

    @classmethod
    def from_classes(
        cls,
        classes: str,
        seed: int = 0,
        crash_at: Optional[int] = None,
        media_fault_rate: Optional[float] = None,
    ) -> "FaultConfig":
        """Build a config from a comma-separated fault-class list.

        Class names come from :data:`FAULT_CLASSES` (crash:
        ``torn-page``, ``torn-wal``, ``reorder``; media: ``bitrot``,
        ``lost_write``, ``misdirect``).  ``all`` (or an empty string)
        enables every *crash* class — media classes are opt-in by name,
        alone or alongside crash classes; ``none`` disables everything.
        """
        overrides = {}
        if media_fault_rate is not None:
            overrides["media_fault_rate"] = media_fault_rate
        if classes in ("", "all"):
            return cls(seed=seed, crash_at=crash_at, **overrides)
        wanted = {token.strip() for token in classes.split(",") if token.strip()}
        wanted.discard("none")
        known = {c.name for c in FAULT_CLASSES}
        unknown = wanted - known
        if unknown:
            raise StorageError(
                f"unknown fault class(es) {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(
            seed=seed,
            crash_at=crash_at,
            torn_page_writes="torn-page" in wanted,
            torn_wal_appends="torn-wal" in wanted,
            reorder_sync="reorder" in wanted,
            bitrot="bitrot" in wanted,
            lost_writes="lost_write" in wanted,
            misdirected_writes="misdirect" in wanted,
            **overrides,
        )


class FaultClock:
    """Shared crash-point counter for every fault site of one store.

    Each durability-relevant I/O calls :meth:`tick` with a label; the
    clock records the label (so reports can name each point) and returns
    True when that tick is the armed crash point.  The *caller* then
    applies its partial durable effect (torn sectors, WAL prefix) and
    calls :meth:`crash` to raise.
    """

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self.ticks = 0
        #: label of every point seen so far, in order
        self.points: List[str] = []
        self.crashed = False
        self.crash_label: Optional[str] = None

    def tick(self, label: str) -> bool:
        """Register one crash point; True when it is time to die."""
        point = self.ticks
        self.ticks += 1
        self.points.append(label)
        return self.config.crash_at is not None and point == self.config.crash_at

    def crash(self, label: str) -> "NoReturn":  # type: ignore[name-defined]
        self.crashed = True
        self.crash_label = label
        _log.warning("simulated crash at point %d: %s", self.ticks - 1, label)
        raise SimulatedCrashError(
            f"simulated crash at I/O point {self.ticks - 1} ({label})"
        )


@dataclass
class MediaFault:
    """One injected silent-corruption event, for ledger accounting.

    ``pending_blocks`` holds the blocks whose stable image is still wrong
    because of this fault; a later successful flush of a block removes it
    (the damage was overwritten — *healed*).  The torture harness asserts
    every unhealed fault is either detected or provably unreachable.
    """

    kind: str  # "bitrot" | "lost_write" | "misdirect"
    block_no: int  # the write's intended block
    target_block: Optional[int]  # where a misdirected write landed
    sync_attempt: int  # FaultyDisk.sync_attempts when injected
    pending_blocks: set = field(default_factory=set)

    @property
    def healed(self) -> bool:
        return not self.pending_blocks

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "block_no": self.block_no,
            "target_block": self.target_block,
            "sync_attempt": self.sync_attempt,
            "pending_blocks": sorted(self.pending_blocks),
            "healed": self.healed,
        }


class FaultyDisk(BlockDevice):
    """Volatile-cache block device with deterministic crash semantics.

    Wraps a stable ``backend`` (normally a
    :class:`~repro.storage.disk.MemoryBlockDevice`).  Reads see the
    volatile cache (the live process's view); only :meth:`sync` moves
    writes to the backend.  :meth:`crash` discards the volatile state, so
    the backend afterwards holds exactly what a real disk would after
    power loss — including torn and reordered writes when enabled.

    Allocations go straight to the backend (they model file growth, not
    data): after a crash the blocks stay allocated with stale content,
    exactly the "wasted but readable" guarantee the buffer pool's
    deferred-free discipline relies on.  Frees are volatile and applied
    at the next sync, mirroring that discipline at device level.
    """

    def __init__(
        self,
        backend: BlockDevice,
        config: Optional[FaultConfig] = None,
        clock: Optional[FaultClock] = None,
    ) -> None:
        super().__init__(backend.block_size)
        self.backend = backend
        self.config = config if config is not None else FaultConfig()
        self.clock = clock if clock is not None else FaultClock(self.config)
        #: writes since the last completed sync: block -> latest image
        self._volatile: dict = {}
        #: frees since the last completed sync
        self._volatile_frees: List[int] = []
        #: syncs *started* (a mid-sync crash still counts its attempt);
        #: the torture harness uses this to decide whether the durable
        #: image still matches the last checkpoint's catalog.
        self.sync_attempts = 0
        self.sync_completions = 0
        self.torn_blocks: List[int] = []
        #: media-fault stream, independent of the crash clock's rng: the
        #: same seed enumerates identical crash points with media faults
        #: armed or not
        self.media_rng = random.Random(self.config.seed ^ _MEDIA_SEED_SALT)
        #: ledger of injected silent-corruption events
        self.media_faults: List[MediaFault] = []
        self._media_disabled = False
        #: structured event log (disabled until a store attaches its own)
        self.event_log = EventLog(enabled=False)

    # -- crash plumbing ------------------------------------------------------

    def _die(self, label: str) -> None:
        if self.event_log.enabled:
            self.event_log.emit(
                "fault", "crash", severity="warning",
                point=self.clock.ticks - 1, label=label,
            )
        self.crash()
        self.clock.crash(label)

    def crash(self) -> None:
        """Discard all volatile state (the process is gone)."""
        self._volatile.clear()
        self._volatile_frees.clear()

    @property
    def unsynced_writes(self) -> int:
        """Blocks whose latest write has not reached stable storage."""
        return len(self._volatile)

    # -- BlockDevice ---------------------------------------------------------

    def read_block(self, block_no: int) -> bytes:
        if block_no in self._volatile_frees:
            raise BlockNotFoundError(f"block {block_no} was freed")
        cached = self._volatile.get(block_no)
        if cached is not None:
            return cached
        return self.backend.read_block(block_no)

    def write_block(self, block_no: int, data: bytes) -> None:
        if self.clock.tick(f"write:block={block_no}"):
            # the write never reached even the volatile cache
            self._die(f"write:block={block_no}")
        # fail fast on writes to unallocated blocks, like the backend would
        self.read_block(block_no)
        self._volatile[block_no] = self._check_payload(data)

    def allocate_block(self, stream: int = 0) -> int:
        return self.backend.allocate_block(stream)

    def free_block(self, block_no: int) -> None:
        # validate the block exists in the merged view, then defer
        self.read_block(block_no)
        self._volatile.pop(block_no, None)
        self._volatile_frees.append(block_no)

    @property
    def num_blocks(self) -> int:
        return self.backend.num_blocks - len(self._volatile_frees)

    def block_numbers(self) -> Iterator[int]:
        freed = set(self._volatile_frees)
        return iter(b for b in self.backend.block_numbers() if b not in freed)

    def sync(self) -> None:
        """Flush the volatile cache to stable storage (the fsync barrier).

        Each block flushed is its own crash point; with ``reorder_sync``
        the flush order is a seeded shuffle, so crashing mid-sync
        persists an arbitrary subset of the barrier's writes.  The block
        in flight when the crash fires may additionally be torn at a
        seeded sector boundary.
        """
        self.sync_attempts += 1
        pending = sorted(self._volatile.items())
        if self.config.reorder_sync and len(pending) > 1:
            self.clock.rng.shuffle(pending)
        for block_no, data in pending:
            if self.clock.tick(f"sync:block={block_no}"):
                if self.config.torn_page_writes:
                    self._tear_block(block_no, data)
                self._die(f"sync:block={block_no}")
            self._flush_block(block_no, data)
        self._volatile.clear()
        for block_no in self._volatile_frees:
            self.backend.free_block(block_no)
            # a freed block's damage can no longer reach a reader
            self._heal(block_no)
        self._volatile_frees.clear()
        self.backend.sync()
        self.sync_completions += 1
        if self.event_log.enabled:
            self.event_log.emit("fault", "sync", blocks=len(pending))

    # -- media faults --------------------------------------------------------

    def _flush_block(self, block_no: int, data: bytes) -> None:
        """Move one volatile write to stable storage, possibly injecting
        a media fault.  Never ticks the crash clock: media faults draw
        only from :attr:`media_rng`."""
        if (
            self.config.media_faults_enabled
            and not self._media_disabled
            and self.media_rng.random() < self.config.media_fault_rate
            and self._inject_media_fault(block_no, data)
        ):
            return
        self.backend.write_block(block_no, data)
        self._heal(block_no)

    def disable_media_faults(self) -> None:
        """Stop injecting from now on (the ledger is kept).

        The media torture harness calls this after the workload so its
        scrub/repair verification runs against a *frozen* damage set —
        otherwise the repair's own flushes could rot, making the
        post-repair checks nondeterministic.
        """
        self._media_disabled = True

    def _inject_media_fault(self, block_no: int, data: bytes) -> bool:
        """Inject one enabled media fault for this flush; False when no
        fault could apply (the caller then flushes normally)."""
        kinds = []
        if self.config.bitrot:
            kinds.append("bitrot")
        if self.config.lost_writes:
            kinds.append("lost_write")
        if self.config.misdirected_writes:
            kinds.append("misdirect")
        kind = kinds[0] if len(kinds) == 1 else self.media_rng.choice(kinds)
        if kind == "bitrot":
            # the write lands, then the medium rots under it
            self.backend.write_block(block_no, data)
            self._heal(block_no)
            corrupted = bytearray(data)
            for _ in range(max(1, self.config.bitrot_bits)):
                bit = self.media_rng.randrange(len(corrupted) * 8)
                corrupted[bit // 8] ^= 1 << (bit % 8)
            self.backend.write_block(block_no, bytes(corrupted))
            fault = MediaFault(
                "bitrot", block_no, None, self.sync_attempts, {block_no}
            )
        elif kind == "lost_write":
            # acknowledged but never persisted: the stale image survives
            fault = MediaFault(
                "lost_write", block_no, None, self.sync_attempts, {block_no}
            )
        else:  # misdirect
            candidates = [b for b in self.backend.block_numbers() if b != block_no]
            if not candidates:
                return False
            target = self.media_rng.choice(sorted(candidates))
            self.backend.write_block(target, data)
            fault = MediaFault(
                "misdirect", block_no, target, self.sync_attempts,
                {block_no, target},
            )
        self.media_faults.append(fault)
        _log.warning(
            "media fault: %s block=%d target=%s", fault.kind, fault.block_no,
            fault.target_block,
        )
        if self.event_log.enabled:
            self.event_log.emit(
                "fault", fault.kind, severity="warning",
                block=fault.block_no, target=fault.target_block,
                sync_attempt=fault.sync_attempt,
            )
        return True

    def _heal(self, block_no: int) -> None:
        """A fresh image reached stable storage at ``block_no``: any
        earlier damage there is overwritten."""
        if not self.media_faults:
            return
        for fault in self.media_faults:
            fault.pending_blocks.discard(block_no)

    def unhealed_media_faults(self) -> List[MediaFault]:
        """Injected faults whose damage is still on stable storage."""
        return [f for f in self.media_faults if not f.healed]

    def _tear_block(self, block_no: int, data: bytes) -> None:
        """Persist a seeded prefix of ``data``'s sectors (a torn write)."""
        sectors = max(1, self.block_size // self.config.sector_size)
        keep = self.clock.rng.randrange(0, sectors)
        tear_at = keep * self.config.sector_size
        old = self.backend.read_block(block_no)
        self.backend.write_block(block_no, data[:tear_at] + old[tear_at:])
        self.torn_blocks.append(block_no)
        _log.warning("torn write: block %d kept %d/%d sectors", block_no, keep, sectors)
        if self.event_log.enabled:
            self.event_log.emit(
                "fault", "torn_write", severity="warning",
                block=block_no, sectors_kept=keep, sectors=sectors,
            )

    def close(self) -> None:
        self.backend.close()


class WALFaultAdapter:
    """Crash points under the write-ahead log's frame appends.

    The WAL calls :meth:`append_frame` instead of writing frames itself
    when an adapter is attached.  A crash during an append persists a
    seeded strict prefix of the frame — the torn-tail case the WAL's CRC
    framing must detect — then raises through the shared clock.
    """

    def __init__(self, clock: FaultClock) -> None:
        self.clock = clock
        self.config = clock.config
        #: frames fully written (the torture harness maps these to the
        #: operations whose log records are durable)
        self.frames_completed = 0
        self.event_log = EventLog(enabled=False)

    def append_frame(self, stream, frame: bytes) -> None:
        if self.clock.tick(f"wal:frame={self.frames_completed}"):
            if self.config.torn_wal_appends and len(frame) > 1:
                prefix = self.clock.rng.randrange(0, len(frame))
                stream.write(frame[:prefix])
                if self.event_log.enabled:
                    self.event_log.emit(
                        "fault", "torn_wal_append", severity="warning",
                        bytes_kept=prefix, frame_bytes=len(frame),
                    )
            if self.event_log.enabled:
                self.event_log.emit(
                    "fault", "crash", severity="warning",
                    point=self.clock.ticks - 1,
                    label=f"wal:frame={self.frames_completed}",
                )
            self.clock.crash(f"wal:frame={self.frames_completed}")
        stream.write(frame)
        self.frames_completed += 1


@dataclass
class FaultHarness:
    """One store's worth of wired-together fault machinery.

    Bundles the shared clock, the faulty device (already wrapped in an
    :class:`~repro.storage.disk.InstrumentedDevice`, as stores expect)
    and the WAL adapter, so callers build all three consistently.
    """

    config: FaultConfig
    clock: FaultClock
    disk: FaultyDisk
    device: InstrumentedDevice
    wal_adapter: WALFaultAdapter = field(repr=False, default=None)  # type: ignore[assignment]


def build_fault_harness(config: FaultConfig, backend: BlockDevice) -> FaultHarness:
    """Wire a :class:`FaultyDisk` over ``backend`` plus a WAL adapter,
    all sharing one :class:`FaultClock`."""
    clock = FaultClock(config)
    disk = FaultyDisk(backend, config=config, clock=clock)
    device = InstrumentedDevice(disk)
    adapter = WALFaultAdapter(clock)
    return FaultHarness(
        config=config, clock=clock, disk=disk, device=device, wal_adapter=adapter
    )


def find_fault_layer(device: Optional[BlockDevice]) -> Optional[FaultyDisk]:
    """The :class:`FaultyDisk` inside a (possibly wrapped) device chain,
    or None — used by the store to attach its event log."""
    seen = 0
    while device is not None and seen < 8:  # defensive bound on the chain
        if isinstance(device, FaultyDisk):
            return device
        device = getattr(device, "backend", None)
        seen += 1
    return None
