"""Buffer pool with LRU replacement, pin counts and write-back caching.

The pool caches *decoded* :class:`~repro.storage.pages.SlottedPage` objects
keyed by block number.  A fetched page is pinned; a pinned page is never
evicted.  Dirty pages are written back (as full block images) on eviction
and on :meth:`BufferPool.flush_all`.

Device I/O statistics (and hence the simulated clock used by benchmarks)
only advance on real block reads and writes, so the buffer pool's hit rate
directly shapes benchmark results — exactly as in the paper's setup, where
MySQL's buffer pool stood between the store and the disk.

Block images pass through a :class:`~repro.storage.pages.PageCodec` on
the way in and out; with checksums enabled the codec verifies every
fetched image and the pool *quarantines* blocks that fail persistently: a
bounded number of re-reads (with optional backoff) distinguishes a
transient fault from real media damage, after which the block is marked
bad and every further fetch fails fast with the original
:class:`~repro.errors.ChecksumError` — no retry storms, no repeated
device reads of a rotten block.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.obs import clock

from repro.errors import BufferPoolExhaustedError, ChecksumError, StorageError
from repro.log import get_logger
from repro.obs.events import EventLog
from repro.obs.heatmap import BlockHeatmap
from repro.obs.incident import IncidentManager
from repro.storage.disk import BlockDevice
from repro.storage.pages import PageCodec, SlottedPage

DEFAULT_POOL_CAPACITY = 64

_log = get_logger("storage.buffer")


@dataclass
class BufferStats:
    """Hit/miss counters for a :class:`BufferPool`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0
    checksum_errors: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_writebacks = 0
        self.checksum_errors = 0

    def register_metrics(self, registry) -> None:
        """Project these counters into a metrics registry."""
        accesses = registry.counter(
            "repro_buffer_accesses_total",
            "Buffer-pool page requests by outcome.",
            labelnames=("result",),
        )
        accesses.labels(result="hit").inc(self.hits)
        accesses.labels(result="miss").inc(self.misses)
        registry.counter(
            "repro_buffer_evictions_total", "Frames evicted to admit new pages."
        ).inc(self.evictions)
        registry.counter(
            "repro_buffer_dirty_writebacks_total", "Dirty pages written back."
        ).inc(self.dirty_writebacks)
        registry.gauge(
            "repro_buffer_hit_rate", "Fraction of requests served from memory."
        ).set(self.hit_rate)
        registry.counter(
            "repro_storage_checksum_errors_total",
            "Block images that failed checksum verification on fetch.",
        ).inc(self.checksum_errors)


class _Frame:
    __slots__ = ("page", "pin_count", "dirty", "derived")

    def __init__(self, page: SlottedPage) -> None:
        self.page = page
        self.pin_count = 0
        self.dirty = False
        self.derived = None


class PageGuard:
    """Context manager returned by :meth:`BufferPool.fetch`.

    Unpins the page on exit.  Call :meth:`mark_dirty` after mutating the
    page so the pool writes it back.
    """

    __slots__ = ("_pool", "block_no", "_frame", "_released")

    def __init__(self, pool: "BufferPool", block_no: int, frame: _Frame) -> None:
        self._pool = pool
        self.block_no = block_no
        self._frame = frame
        self._released = False

    @property
    def page(self) -> SlottedPage:
        return self._frame.page

    @property
    def derived(self):
        """What a reader derived from the page (the B+-tree's decoded
        node), kept with the frame; None once the page is marked dirty."""
        return self._frame.derived

    @derived.setter
    def derived(self, value) -> None:
        self._frame.derived = value

    def mark_dirty(self) -> None:
        self._frame.dirty = True
        self._frame.derived = None

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._pool._unpin(self.block_no)

    def __enter__(self) -> "PageGuard":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class BufferPool:
    """Fixed-capacity LRU cache of decoded pages over a block device."""

    def __init__(
        self,
        device: BlockDevice,
        capacity: int = DEFAULT_POOL_CAPACITY,
        codec: Optional[PageCodec] = None,
        read_retries: int = 2,
        retry_backoff: float = 0.0,
    ) -> None:
        if capacity < 1:
            raise StorageError("buffer pool capacity must be >= 1")
        self.device = device
        self.capacity = capacity
        #: Block-image codec; the pass-through default keeps direct
        #: ``BufferPool(device)`` construction (tests, tools) legacy-raw.
        self.codec = codec if codec is not None else PageCodec(device.block_size)
        #: Bounded re-reads before a failing block is quarantined (covers
        #: transient faults without retry storms) and the sleep between
        #: them (0.0 keeps simulated workloads instant).
        self.read_retries = read_retries
        self.retry_backoff = retry_backoff
        self.stats = BufferStats()
        #: Blocks that failed verification even after re-reads: block_no
        #: -> the ChecksumError to replay on every further fetch.
        self._quarantined: Dict[int, ChecksumError] = {}
        #: Structured event log / block heatmap / incident manager
        #: (disabled until the owning store attaches its own).
        self.event_log = EventLog(enabled=False)
        self.heatmap = BlockHeatmap(enabled=False)
        self.incidents = IncidentManager(enabled=False)
        # OrderedDict in LRU order: least-recently-used first.
        self._frames: "OrderedDict[int, _Frame]" = OrderedDict()
        # Blocks logically freed but not yet released to the device.
        # Deallocation is deferred to flush_all() so that a crash (drop_all)
        # leaves every block the last checkpoint's catalog references
        # intact — the deallocation analogue of write-ahead logging.
        self._pending_frees: list = []

    @property
    def cached_pages(self) -> int:
        """Pages currently resident (pinned or not)."""
        return len(self._frames)

    # -- public API ---------------------------------------------------------

    def fetch(self, block_no: int) -> PageGuard:
        """Pin and return the page in ``block_no``.

        Raises :class:`~repro.errors.ChecksumError` when the block is
        quarantined or its device image fails verification even after
        the bounded re-reads.
        """
        quarantined = self._quarantined.get(block_no)
        if quarantined is not None:
            raise quarantined
        frame = self._frames.get(block_no)
        if frame is not None:
            self.stats.hits += 1
            self._frames.move_to_end(block_no)
            if self.heatmap.enabled:
                self.heatmap.record_fetch(block_no, hit=True)
        else:
            self.stats.misses += 1
            frame = _Frame(self._read_verified(block_no))
            self._admit(block_no, frame)
            if self.heatmap.enabled:
                self.heatmap.record_fetch(block_no, hit=False)
        frame.pin_count += 1
        return PageGuard(self, block_no, frame)

    def _read_verified(self, block_no: int) -> SlottedPage:
        """Read and decode one block, retrying transient failures; a
        persistent failure quarantines the block and re-raises."""
        attempts = 1 + max(0, self.read_retries)
        error: Optional[ChecksumError] = None
        for attempt in range(attempts):
            if attempt and self.retry_backoff > 0.0:
                clock.sleep(self.retry_backoff * attempt)
            data = self.device.read_block(block_no)
            try:
                return self.codec.decode(data, block_no)
            except ChecksumError as exc:
                error = exc
        assert error is not None
        self.stats.checksum_errors += 1
        self.quarantine(block_no, error, retries=attempts - 1)
        raise error

    def quarantine(
        self,
        block_no: int,
        error: ChecksumError,
        retries: int = 0,
        source: str = "fetch",
        owner=None,
    ) -> None:
        """Mark ``block_no`` bad: every further fetch fails fast with
        ``error`` until :meth:`clear_quarantine`.  ``source``/``owner``
        say who detected the fault ("fetch" on the read path, "scrub"
        with the owning component from the scrubber) — they enrich the
        incident bundle, not the event."""
        self._quarantined[block_no] = error
        _log.error("quarantined block %d: %s", block_no, error)
        if self.event_log.enabled:
            self.event_log.emit(
                "fault",
                "checksum_error",
                severity="error",
                block=block_no,
                expected_crc=error.expected_crc,
                actual_crc=error.actual_crc,
                retries=retries,
            )
        # trigger after the quarantine map and event are in place, so
        # the bundle's quarantine payload and recorder ring include this
        # very block
        if self.incidents.enabled:
            self.incidents.trigger(
                "checksum-quarantine",
                key=str(block_no),
                block=block_no,
                expected_crc=error.expected_crc,
                actual_crc=error.actual_crc,
                retries=retries,
                source=source,
                owner=owner,
            )

    def is_quarantined(self, block_no: int) -> bool:
        return block_no in self._quarantined

    def quarantined_blocks(self) -> list:
        """Quarantined block numbers, ascending."""
        return sorted(self._quarantined)

    def clear_quarantine(self, block_no: Optional[int] = None) -> None:
        """Forget quarantine state for one block (or all) after repair."""
        if block_no is None:
            self._quarantined.clear()
        else:
            self._quarantined.pop(block_no, None)

    def new_page(self, stream: int = 0) -> PageGuard:
        """Allocate a fresh block (from ``stream``'s extents) and return
        its (empty, dirty) page."""
        block_no = self.device.allocate_block(stream)
        frame = _Frame(self.codec.new_page())
        frame.dirty = True
        self._admit(block_no, frame)
        frame.pin_count += 1
        return PageGuard(self, block_no, frame)

    def free_page(self, block_no: int) -> None:
        """Drop a page from the pool and schedule its block for release.

        The device-level free happens at the next :meth:`flush_all` (i.e.
        checkpoint); until then the block's last flushed content remains
        readable, so a crash recovers the checkpointed state intact.
        """
        frame = self._frames.pop(block_no, None)
        if frame is not None and frame.pin_count:
            raise StorageError(f"cannot free pinned block {block_no}")
        self._pending_frees.append(block_no)

    def flush(self, block_no: int) -> None:
        """Write back one dirty page (keeps it cached)."""
        frame = self._frames.get(block_no)
        if frame is not None and frame.dirty:
            self.device.write_block(block_no, self.codec.encode(frame.page, block_no))
            self.stats.dirty_writebacks += 1
            frame.dirty = False
            if self.heatmap.enabled:
                self.heatmap.record_write(block_no)

    def flush_all(self) -> None:
        """Write back every dirty page, release deferred frees, and sync."""
        flushed = 0
        for block_no in list(self._frames):
            if self._frames[block_no].dirty:
                flushed += 1
            self.flush(block_no)
        freed = len(self._pending_frees)
        for block_no in self._pending_frees:
            self.device.free_block(block_no)
        self._pending_frees.clear()
        self.device.sync()
        if self.event_log.enabled:
            self.event_log.emit("buffer", "flush_all", flushed=flushed, freed=freed)

    def drop_all(self) -> None:
        """Forget every cached page *without* writing back, and abandon
        deferred frees (crash simulation: the blocks stay allocated on the
        device, wasting space but keeping the last checkpoint readable)."""
        for frame in self._frames.values():
            if frame.pin_count:
                raise StorageError("cannot drop pinned pages")
        self._frames.clear()
        self._pending_frees.clear()

    def cached_blocks(self) -> Iterator[int]:
        return iter(self._frames)

    def dirty_blocks(self) -> list:
        """Blocks whose cached page differs from the device image.

        The crash-consistency harness inspects this to relate in-memory
        state to what a simulated crash would lose.
        """
        return [no for no, frame in self._frames.items() if frame.dirty]

    def pending_free_blocks(self) -> list:
        """The deferred-free block numbers themselves (scrubber: their
        device images are garbage-to-be and must not be verified)."""
        return list(self._pending_frees)

    @property
    def num_cached(self) -> int:
        return len(self._frames)

    # -- internals ----------------------------------------------------------

    def _admit(self, block_no: int, frame: _Frame) -> None:
        while len(self._frames) >= self.capacity:
            self._evict_one()
        self._frames[block_no] = frame

    def _evict_one(self) -> None:
        for victim_no, victim in self._frames.items():
            if victim.pin_count == 0:
                if victim.dirty:
                    self.device.write_block(
                        victim_no, self.codec.encode(victim.page, victim_no)
                    )
                    self.stats.dirty_writebacks += 1
                    if self.heatmap.enabled:
                        self.heatmap.record_write(victim_no)
                del self._frames[victim_no]
                self.stats.evictions += 1
                _log.debug("evicted block %d (dirty=%s)", victim_no, victim.dirty)
                if self.event_log.enabled:
                    self.event_log.emit("buffer", "evict",
                                        block=victim_no, dirty=victim.dirty)
                return
        _log.warning("buffer pool exhausted: all %d frames pinned", self.capacity)
        raise BufferPoolExhaustedError(
            f"all {self.capacity} frames are pinned; cannot evict"
        )

    def _unpin(self, block_no: int) -> None:
        frame = self._frames.get(block_no)
        if frame is None:
            return  # page was explicitly freed while the guard was alive
        if frame.pin_count <= 0:
            raise StorageError(f"unpin of unpinned block {block_no} (bug)")
        frame.pin_count -= 1
