"""Page-level storage substrate: devices, pages, buffer pool, chains, WAL.

This package plays the role MySQL's storage layer played in the paper's
prototype, but is instrumented so benchmarks can account every block I/O
(see :mod:`repro.storage.disk`).
"""

from repro.storage.buffer import BufferPool, BufferStats, PageGuard
from repro.storage.disk import (
    DEFAULT_BLOCK_SIZE,
    BlockDevice,
    DiskCostModel,
    DiskStats,
    FaultInjector,
    FileBlockDevice,
    InstrumentedDevice,
    MemoryBlockDevice,
)
from repro.storage.heap import ChainedFile, Position
from repro.storage.pages import SlottedPage, page_capacity
from repro.storage.recovery import replay, replay_record
from repro.storage.wal import LogRecord, RecordType, WriteAheadLog

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "BlockDevice",
    "BufferPool",
    "BufferStats",
    "ChainedFile",
    "DiskCostModel",
    "DiskStats",
    "FaultInjector",
    "FileBlockDevice",
    "InstrumentedDevice",
    "LogRecord",
    "MemoryBlockDevice",
    "PageGuard",
    "Position",
    "RecordType",
    "SlottedPage",
    "WriteAheadLog",
    "page_capacity",
    "replay",
    "replay_record",
]
