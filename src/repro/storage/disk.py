"""Block devices and the simulated I/O cost model.

The paper measured a Java/JDBC implementation on a 2005-era disk.  A pure
Python reproduction cannot meaningfully reproduce page-level wall-clock
numbers (see DESIGN.md), so the storage layer runs on an *instrumented*
block device that counts every read and write and charges each access
against an explicit cost model (seek cost for random access, transfer cost
per block, a cheaper rate for sequentially adjacent accesses).  Benchmarks
report throughput over this simulated clock; the *shape* of the results —
which indexing policy wins and by what factor — is determined by the same
quantities that determined it on real hardware: how many blocks were
touched and in what pattern.

Two storage backends are provided:

:class:`MemoryBlockDevice`
    Blocks live in a dict.  Fast, used by tests and benchmarks.

:class:`FileBlockDevice`
    Blocks live in a single binary file at ``block_no * block_size``.
    Demonstrates durability and is exercised by the recovery tests.

Both are normally wrapped in an :class:`InstrumentedDevice`, which adds the
statistics and cost accounting, and optionally a :class:`FaultInjector` used
by the failure-injection test-suite.  For crash-consistency testing the
torture harness inserts a :class:`repro.storage.faults.FaultyDisk` *between*
the instrumented wrapper and the backend: writes then land in a volatile
cache that only reaches stable storage on :meth:`BlockDevice.sync`, so a
simulated crash can discard everything since the last fsync barrier.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import BlockNotFoundError, DiskFaultError, StorageError
from repro.log import get_logger

DEFAULT_BLOCK_SIZE = 4096

_log = get_logger("storage.disk")


class BlockDevice:
    """Abstract fixed-size block device.

    Blocks are addressed by a dense integer block number.  ``allocate``
    returns a zero-filled block; ``free`` returns a block to the allocator
    (block numbers may be reused).
    """

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if block_size < 64:
            raise StorageError(f"block size {block_size} is too small")
        self.block_size = block_size

    # -- interface ----------------------------------------------------------

    #: Blocks are allocated from per-stream *extents* of this many
    #: consecutive block numbers, so different consumers (data chain vs.
    #: index trees) stay physically contiguous — as separate extents or
    #: files would on a real system.  Sequential-access detection in the
    #: cost model depends on this.
    EXTENT_BLOCKS = 64

    def read_block(self, block_no: int) -> bytes:
        raise NotImplementedError

    def write_block(self, block_no: int, data: bytes) -> None:
        raise NotImplementedError

    def allocate_block(self, stream: int = 0) -> int:
        """Allocate a zeroed block from ``stream``'s current extent."""
        raise NotImplementedError

    def free_block(self, block_no: int) -> None:
        raise NotImplementedError

    @property
    def num_blocks(self) -> int:
        raise NotImplementedError

    def block_numbers(self) -> Iterator[int]:
        raise NotImplementedError

    def sync(self) -> None:
        """Flush to stable storage (no-op for memory devices)."""

    def close(self) -> None:
        """Release any OS resources."""

    # -- helpers ------------------------------------------------------------

    def _check_payload(self, data: bytes) -> bytes:
        if len(data) > self.block_size:
            raise StorageError(
                f"payload of {len(data)} bytes exceeds block size {self.block_size}"
            )
        if len(data) < self.block_size:
            data = data + b"\x00" * (self.block_size - len(data))
        return data


class _ExtentAllocator:
    """Hands out block numbers from per-stream extents, reusing frees
    within the stream that freed them."""

    def __init__(self, extent_blocks: int) -> None:
        self.extent_blocks = extent_blocks
        self._next_extent_base = 0
        # stream -> (next block in current extent, blocks left in it)
        self._cursor: Dict[int, Tuple[int, int]] = {}
        self._free: Dict[int, List[int]] = {}
        self._stream_of: Dict[int, int] = {}

    def allocate(self, stream: int) -> int:
        free = self._free.get(stream)
        if free:
            block_no = free.pop()
        else:
            cursor, remaining = self._cursor.get(stream, (0, 0))
            if remaining == 0:
                cursor = self._next_extent_base
                self._next_extent_base += self.extent_blocks
                remaining = self.extent_blocks
            block_no = cursor
            self._cursor[stream] = (cursor + 1, remaining - 1)
        self._stream_of[block_no] = stream
        return block_no

    def free(self, block_no: int) -> None:
        stream = self._stream_of.get(block_no, 0)
        self._free.setdefault(stream, []).append(block_no)

    def reserve_existing(self, blocks: int) -> None:
        """Mark the first ``blocks`` block numbers as taken (device
        reopen): future extents start beyond them, and no stream cursor
        may point into the reserved region."""
        extents = -(-blocks // self.extent_blocks)  # ceil division
        self._next_extent_base = max(
            self._next_extent_base, extents * self.extent_blocks
        )
        self._cursor.clear()

    @property
    def high_water_mark(self) -> int:
        return self._next_extent_base


class MemoryBlockDevice(BlockDevice):
    """In-memory block device backed by a dict."""

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        super().__init__(block_size)
        self._blocks: Dict[int, bytes] = {}
        self._allocator = _ExtentAllocator(self.EXTENT_BLOCKS)

    def read_block(self, block_no: int) -> bytes:
        try:
            return self._blocks[block_no]
        except KeyError:
            raise BlockNotFoundError(f"block {block_no} does not exist") from None

    def write_block(self, block_no: int, data: bytes) -> None:
        if block_no not in self._blocks:
            raise BlockNotFoundError(f"block {block_no} was never allocated")
        self._blocks[block_no] = self._check_payload(data)

    def allocate_block(self, stream: int = 0) -> int:
        block_no = self._allocator.allocate(stream)
        self._blocks[block_no] = b"\x00" * self.block_size
        return block_no

    def free_block(self, block_no: int) -> None:
        if block_no not in self._blocks:
            raise BlockNotFoundError(f"block {block_no} does not exist")
        del self._blocks[block_no]
        self._allocator.free(block_no)

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    def block_numbers(self) -> Iterator[int]:
        return iter(sorted(self._blocks))


class FileBlockDevice(BlockDevice):
    """Block device backed by a single binary file.

    The file grows on demand.  A small free list is kept in memory only; a
    production system would persist it, but the store's catalog (its chain
    and index roots) already names every live block, so the device-level
    free list is reconstructible.
    """

    def __init__(self, path: str, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        super().__init__(block_size)
        self.path = path
        mode = "r+b" if os.path.exists(path) else "w+b"
        self._file = open(path, mode)
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        if size % block_size:
            raise StorageError(
                f"file size {size} is not a multiple of block size {block_size}"
            )
        self._allocator = _ExtentAllocator(self.EXTENT_BLOCKS)
        # Reopening an existing file: treat every existing block as live
        # so reads work; new extents must start strictly past them.
        existing = size // block_size
        self._allocated = set(range(existing))
        self._allocator.reserve_existing(existing)

    def _file_blocks(self) -> int:
        self._file.seek(0, os.SEEK_END)
        return self._file.tell() // self.block_size

    def read_block(self, block_no: int) -> bytes:
        if block_no not in self._allocated:
            raise BlockNotFoundError(f"block {block_no} does not exist")
        self._file.seek(block_no * self.block_size)
        return self._file.read(self.block_size)

    def write_block(self, block_no: int, data: bytes) -> None:
        if block_no not in self._allocated:
            raise BlockNotFoundError(f"block {block_no} does not exist")
        self._file.seek(block_no * self.block_size)
        self._file.write(self._check_payload(data))

    def allocate_block(self, stream: int = 0) -> int:
        block_no = self._allocator.allocate(stream)
        # grow the file to cover the block (extents may leave gaps; fill
        # them with zeros so the file stays dense)
        current = self._file_blocks()
        if block_no >= current:
            self._file.seek(0, os.SEEK_END)
            self._file.write(b"\x00" * ((block_no + 1 - current) * self.block_size))
        else:
            self._file.seek(block_no * self.block_size)
            self._file.write(b"\x00" * self.block_size)
        self._allocated.add(block_no)
        return block_no

    def free_block(self, block_no: int) -> None:
        if block_no not in self._allocated:
            raise BlockNotFoundError(f"block {block_no} does not exist")
        self._allocated.discard(block_no)
        self._allocator.free(block_no)

    @property
    def num_blocks(self) -> int:
        return len(self._allocated)

    def block_numbers(self) -> Iterator[int]:
        return iter(sorted(self._allocated))

    def sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        self._file.close()


@dataclass(frozen=True)
class DiskCostModel:
    """Charges for block accesses, in (simulated) seconds.

    The defaults model a 2005-era commodity disk, the class of hardware in
    the paper's experimental setup: ~8.5 ms average seek + rotational delay
    for a random access, and ~55 MB/s sequential transfer.  An access is
    *sequential* when it touches the block adjacent to the previously
    accessed block of the same kind (read/write treated together, as a
    single head position).
    """

    seek_seconds: float = 0.0085
    transfer_seconds_per_block: float = 4096 / (55 * 1024 * 1024)
    write_penalty: float = 1.0  # multiplier applied to write transfers
    #: Simulated seconds charged per sync barrier (device ``sync()`` and
    #: WAL flush).  Zero by default so the committed Table-5 baselines
    #: are untouched; the serving layer sets it so group commit's
    #: one-barrier-per-batch saving shows up in simulated cost.
    sync_seconds: float = 0.0

    def cost(self, sequential: bool, is_write: bool) -> float:
        cost = self.transfer_seconds_per_block
        if is_write:
            cost *= self.write_penalty
        if not sequential:
            cost += self.seek_seconds
        return cost


@dataclass
class DiskStats:
    """Counters maintained by :class:`InstrumentedDevice`."""

    reads: int = 0
    writes: int = 0
    sequential_reads: int = 0
    sequential_writes: int = 0
    allocations: int = 0
    frees: int = 0
    syncs: int = 0
    simulated_seconds: float = 0.0

    @property
    def random_reads(self) -> int:
        return self.reads - self.sequential_reads

    @property
    def random_writes(self) -> int:
        return self.writes - self.sequential_writes

    def snapshot(self) -> "DiskStats":
        return DiskStats(**self.__dict__)

    def delta(self, earlier: "DiskStats") -> "DiskStats":
        """Return the difference ``self - earlier`` (for per-phase stats)."""
        return DiskStats(
            reads=self.reads - earlier.reads,
            writes=self.writes - earlier.writes,
            sequential_reads=self.sequential_reads - earlier.sequential_reads,
            sequential_writes=self.sequential_writes - earlier.sequential_writes,
            allocations=self.allocations - earlier.allocations,
            frees=self.frees - earlier.frees,
            syncs=self.syncs - earlier.syncs,
            simulated_seconds=self.simulated_seconds - earlier.simulated_seconds,
        )

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.sequential_reads = 0
        self.sequential_writes = 0
        self.allocations = 0
        self.frees = 0
        self.syncs = 0
        self.simulated_seconds = 0.0

    def register_metrics(self, registry) -> None:
        """Project these counters into a metrics registry."""
        io = registry.counter(
            "repro_disk_io_total",
            "Block accesses by direction and access pattern.",
            labelnames=("op", "pattern"),
        )
        io.labels(op="read", pattern="sequential").inc(self.sequential_reads)
        io.labels(op="read", pattern="random").inc(self.random_reads)
        io.labels(op="write", pattern="sequential").inc(self.sequential_writes)
        io.labels(op="write", pattern="random").inc(self.random_writes)
        registry.counter(
            "repro_disk_allocations_total", "Blocks allocated."
        ).inc(self.allocations)
        registry.counter(
            "repro_disk_frees_total", "Blocks freed."
        ).inc(self.frees)
        registry.counter(
            "repro_disk_syncs_total",
            "Durability barriers issued (fsync boundaries; the crash-"
            "consistency harness may only reorder writes within one).",
        ).inc(self.syncs)
        registry.counter(
            "repro_disk_simulated_seconds_total",
            "Simulated seconds charged by the disk cost model.",
        ).inc(self.simulated_seconds)


class FaultInjector:
    """Hook that may raise :class:`DiskFaultError` on chosen accesses.

    Used by the failure-injection tests, e.g. "crash on the Nth write".
    ``predicate`` receives ``(op, block_no, stats)`` where ``op`` is one of
    ``"read"``/``"write"``/``"alloc"`` and should return True to fire.
    """

    def __init__(
        self, predicate: Callable[[str, int, DiskStats], bool], message: str = "injected fault"
    ) -> None:
        self.predicate = predicate
        self.message = message
        self.fired = 0

    def check(self, op: str, block_no: int, stats: DiskStats) -> None:
        if self.predicate(op, block_no, stats):
            self.fired += 1
            _log.warning("injected disk fault #%d: %s (%s block %d)",
                         self.fired, self.message, op, block_no)
            raise DiskFaultError(f"{self.message} ({op} block {block_no})")


class InstrumentedDevice(BlockDevice):
    """Wraps a backend device with statistics, cost accounting and faults."""

    def __init__(
        self,
        backend: Optional[BlockDevice] = None,
        cost_model: Optional[DiskCostModel] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        backend = backend if backend is not None else MemoryBlockDevice()
        super().__init__(backend.block_size)
        self.backend = backend
        self.cost_model = cost_model if cost_model is not None else DiskCostModel()
        self.fault_injector = fault_injector
        self.stats = DiskStats()
        self._head_position: Optional[int] = None

    # -- accounting ---------------------------------------------------------

    def _account(self, block_no: int, is_write: bool) -> None:
        sequential = (
            self._head_position is not None and block_no == self._head_position + 1
        )
        self.stats.simulated_seconds += self.cost_model.cost(sequential, is_write)
        if is_write:
            self.stats.writes += 1
            if sequential:
                self.stats.sequential_writes += 1
        else:
            self.stats.reads += 1
            if sequential:
                self.stats.sequential_reads += 1
        self._head_position = block_no

    # -- BlockDevice --------------------------------------------------------

    def read_block(self, block_no: int) -> bytes:
        if self.fault_injector is not None:
            self.fault_injector.check("read", block_no, self.stats)
        data = self.backend.read_block(block_no)
        self._account(block_no, is_write=False)
        return data

    def write_block(self, block_no: int, data: bytes) -> None:
        if self.fault_injector is not None:
            self.fault_injector.check("write", block_no, self.stats)
        self.backend.write_block(block_no, data)
        self._account(block_no, is_write=True)

    def allocate_block(self, stream: int = 0) -> int:
        if self.fault_injector is not None:
            self.fault_injector.check("alloc", -1, self.stats)
        block_no = self.backend.allocate_block(stream)
        self.stats.allocations += 1
        return block_no

    def free_block(self, block_no: int) -> None:
        self.backend.free_block(block_no)
        self.stats.frees += 1

    @property
    def num_blocks(self) -> int:
        return self.backend.num_blocks

    def block_numbers(self) -> Iterator[int]:
        return self.backend.block_numbers()

    def sync(self) -> None:
        self.backend.sync()
        self.stats.syncs += 1
        self.stats.simulated_seconds += self.cost_model.sync_seconds

    def close(self) -> None:
        self.backend.close()
