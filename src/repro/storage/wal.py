"""Write-ahead logging of logical store operations.

The store logs each mutating operation (a *logical* log record: operation
code + serialized arguments) before applying it.  Recovery replays the
suffix of the log after the last checkpoint against the recovered state
(see :mod:`repro.storage.recovery`).  Logical logging keeps log volume
proportional to the update stream rather than to the pages touched, which
matches the store's record-oriented design.

Log records are framed as::

    u32 crc32 | u32 length | u16 record_type | u64 lsn | payload

A torn final record (crash mid-append) is detected by the checksum and
discarded during scan.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Iterator, List, Optional

from repro.errors import WALError
from repro.log import get_logger
from repro.obs.events import EventLog
from repro.obs.telemetry import Telemetry

_FRAME = struct.Struct("<IIHQ")

_log = get_logger("storage.wal")


class RecordType:
    """Well-known record type codes used by the store."""

    CHECKPOINT = 0
    LOAD_DOCUMENT = 1
    INSERT_BEFORE = 2
    INSERT_AFTER = 3
    INSERT_INTO_FIRST = 4
    INSERT_INTO_LAST = 5
    DELETE_NODE = 6
    REPLACE_NODE = 7
    REPLACE_CONTENT = 8
    #: One committed transaction as a single frame: the ops of the
    #: transaction are encoded *inside* the payload (see
    #: :mod:`repro.storage.txnlog`), so the frame CRC makes transaction
    #: durability all-or-nothing — a torn group commit can only lose
    #: whole transactions, never replay a partial one.
    TXN_COMMIT = 9

    NAMES = {
        CHECKPOINT: "checkpoint",
        LOAD_DOCUMENT: "load_document",
        INSERT_BEFORE: "insert_before",
        INSERT_AFTER: "insert_after",
        INSERT_INTO_FIRST: "insert_into_first",
        INSERT_INTO_LAST: "insert_into_last",
        DELETE_NODE: "delete_node",
        REPLACE_NODE: "replace_node",
        REPLACE_CONTENT: "replace_content",
        TXN_COMMIT: "txn_commit",
    }


@dataclass(frozen=True)
class LogRecord:
    lsn: int
    record_type: int
    payload: bytes

    @property
    def type_name(self) -> str:
        return RecordType.NAMES.get(self.record_type, f"type#{self.record_type}")


class WriteAheadLog:
    """Append-only log over a binary stream.

    Pass a file path for a durable log, or nothing for an in-memory log
    (useful in tests and benchmarks where durability is not measured).
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        #: Records appended / fsyncs issued over this log's lifetime.
        self.appends = 0
        self.fsyncs = 0
        #: Telemetry facade and structured event log (disabled until the
        #: owning store attaches its own).
        self.telemetry = Telemetry(enabled=False)
        self.event_log = EventLog(enabled=False)
        #: Fault-injection hook (see :class:`repro.storage.faults.
        #: WALFaultAdapter`): when set, frame writes go through it so a
        #: simulated crash can persist a torn record prefix.  None in
        #: normal operation — appends take one attribute check.
        self.fault_adapter = None
        #: Sync barriers issued (every flush, fsync-backed or not) and
        #: group commits (sync calls that drained a deferred batch), with
        #: the drained batch sizes for the histogram export.
        self.sync_barriers = 0
        self.group_commits = 0
        self.group_commit_batches: List[int] = []
        #: Simulated seconds charged per sync barrier (the cost model's
        #: ``sync_seconds``; the owning store wires it).  Zero keeps every
        #: pre-server benchmark byte-identical.
        self.sync_cost = 0.0
        self.simulated_sync_seconds = 0.0
        #: Frames appended with ``sync=False``: written only at the next
        #: :meth:`sync`, so they are *volatile* — a crash before the
        #: barrier loses them entirely (never partially).
        self._pending: List[bytes] = []
        if path is None:
            self._stream: BinaryIO = io.BytesIO()
        else:
            mode = "r+b" if os.path.exists(path) else "w+b"
            self._stream = open(path, mode)
            self._stream.seek(0, os.SEEK_END)
        self._next_lsn = self._scan_next_lsn()

    # -- appending ------------------------------------------------------------

    def append(self, record_type: int, payload: bytes = b"", sync: bool = True) -> int:
        """Append a record; returns its LSN.

        With ``sync=True`` (the default) the record is flushed — and
        fsynced on a durable log — before returning.  With ``sync=False``
        the frame is only queued in a volatile buffer; it reaches the
        stream (and stable storage) at the next :meth:`sync`, which lets
        a group commit amortize one barrier over many transactions.
        """
        with self.telemetry.span(
            "wal.append", type=RecordType.NAMES.get(record_type, record_type)
        ):
            lsn = self._next_lsn
            self._next_lsn += 1
            body = _FRAME.pack(0, len(payload), record_type, lsn)[4:] + payload
            crc = zlib.crc32(body)
            frame = struct.pack("<I", crc) + body
            if sync:
                self._stream.seek(0, os.SEEK_END)
                self._write_frame(frame)
                self.appends += 1
                self.flush()
            else:
                self._pending.append(frame)
                self.appends += 1
        if self.event_log.enabled:
            self.event_log.emit(
                "wal", "append",
                lsn=lsn,
                type=RecordType.NAMES.get(record_type, record_type),
                bytes=len(payload),
                deferred=not sync,
            )
        return lsn

    def sync(self) -> int:
        """Write every deferred frame and pay one shared barrier.

        Returns the number of frames made durable.  A no-op (no barrier
        charged) when nothing is pending.  Frames reach the stream one at
        a time through the fault adapter, so a simulated crash mid-batch
        persists a prefix of whole frames plus at most one torn frame —
        which the CRC scan discards.
        """
        if not self._pending:
            return 0
        batch = len(self._pending)
        self._stream.seek(0, os.SEEK_END)
        for frame in self._pending:
            # a simulated crash here abandons the WAL object: the batch
            # stays pending and the group is not counted as committed
            self._write_frame(frame)
        self._pending.clear()
        self.group_commits += 1
        self.group_commit_batches.append(batch)
        self.flush()
        if self.event_log.enabled:
            self.event_log.emit("wal", "group_commit", frames=batch)
        return batch

    @property
    def pending_frames(self) -> int:
        """Deferred frames not yet made durable by :meth:`sync`."""
        return len(self._pending)

    def checkpoint(self) -> int:
        """Write a checkpoint marker; recovery replays only records after
        the last checkpoint."""
        self.sync()
        return self.append(RecordType.CHECKPOINT)

    def flush(self) -> None:
        self._stream.flush()
        if self.path is not None:
            with self.telemetry.span("wal.fsync"):
                os.fsync(self._stream.fileno())
            self.fsyncs += 1
        self.sync_barriers += 1
        self.simulated_sync_seconds += self.sync_cost

    def _write_frame(self, frame: bytes) -> None:
        if self.fault_adapter is not None:
            self.fault_adapter.append_frame(self._stream, frame)
        else:
            self._stream.write(frame)

    # -- snapshots --------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """The raw log image written so far (including any torn tail).

        The torture harness captures this as the *durable* log at a
        simulated crash: appends flush (and fsync) before returning, so
        everything in the stream has reached stable storage.
        """
        position = self._stream.tell()
        self._stream.seek(0)
        data = self._stream.read()
        self._stream.seek(position)
        return data

    @property
    def size_bytes(self) -> int:
        """Bytes currently in the log stream (exported as the
        ``repro_wal_size_bytes`` gauge; 0 once the stream is closed)."""
        if self._stream.closed:
            return 0
        position = self._stream.tell()
        self._stream.seek(0, os.SEEK_END)
        end = self._stream.tell()
        self._stream.seek(position)
        return end

    @classmethod
    def from_bytes(cls, data: bytes) -> "WriteAheadLog":
        """An in-memory log over a captured image (crash-recovery input)."""
        wal = cls()
        wal._stream = io.BytesIO(data)
        wal._next_lsn = wal._scan_next_lsn()
        return wal

    # -- scanning ---------------------------------------------------------------

    def records(self) -> Iterator[LogRecord]:
        """Iterate all intact records from the start of the log.

        Stops (without raising) at the first torn/corrupt record, which can
        only be a partially written tail after a crash.
        """
        self._stream.seek(0)
        while True:
            header = self._stream.read(_FRAME.size)
            if len(header) < _FRAME.size:
                return
            crc, length, record_type, lsn = _FRAME.unpack(header)
            payload = self._stream.read(length)
            if len(payload) < length:
                _log.warning("torn WAL tail: record lsn=%d truncated", lsn)
                return
            body = header[4:] + payload
            if zlib.crc32(body) != crc:
                _log.warning("torn WAL tail: record lsn=%d fails checksum", lsn)
                return
            yield LogRecord(lsn=lsn, record_type=record_type, payload=payload)

    def records_after_last_checkpoint(self) -> List[LogRecord]:
        """The records recovery must replay."""
        pending: List[LogRecord] = []
        for record in self.records():
            if record.record_type == RecordType.CHECKPOINT:
                pending.clear()
            else:
                pending.append(record)
        return pending

    # -- maintenance ---------------------------------------------------------------

    def truncate(self) -> None:
        """Discard the whole log (after a checkpoint has made it redundant)."""
        _log.info("truncating WAL (%d records appended so far)", self.appends)
        self._pending.clear()
        self._stream.seek(0)
        self._stream.truncate()
        self.flush()

    def close(self) -> None:
        if self.path is not None:
            self._stream.close()

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    def _scan_next_lsn(self) -> int:
        last = -1
        try:
            for record in self.records():
                last = record.lsn
        except WALError:  # pragma: no cover - defensive
            pass
        self._stream.seek(0, os.SEEK_END)
        return last + 1
