"""A read replica: a normal store that replays the change stream.

The replica *is* a standard store — same WAL discipline, same directory
layout — so every existing surface (``repro read``, ``repro xpath``,
``repro serve``, ``repro health``) works on it unchanged.  Apply follows
the write-ahead rule: each change record's original frame is appended to
the replica's own WAL (synced) *before* the operation re-executes, so a
crash at any apply point leaves a WAL whose full-log replay reconstructs
exactly the applied prefix — the same soundness argument as repair's
full rebuild.

The apply cursor is therefore *derived from the WAL itself* (the count
of non-checkpoint frames), never from a side file that could disagree
with it.  The ``store.replication.json`` sidecar — written with the
tmp + fsync + rename pattern, so it is atomically either the old or the
new checkpoint — is advisory: a fast-resume hint and, crucially, the
persisted progress record the staleness alert and health component read
without opening the replica.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.errors import ReplicationGapError
from repro.obs.schema import check_schema_version, stamp
from repro.replication.changestream import ChangeRecord
from repro.replication.digest import state_digest
from repro.storage.recovery import replay_all, replay_record
from repro.storage.wal import LogRecord, RecordType, WriteAheadLog

#: The replication checkpoint sidecar inside a replica's directory.
CHECKPOINT_FILE = "store.replication.json"


def wal_change_count(wal: WriteAheadLog) -> int:
    """Committed non-checkpoint frames in a WAL — the authoritative
    apply cursor of the store owning it."""
    return sum(
        1 for record in wal.records() if record.record_type != RecordType.CHECKPOINT
    )


class Replica:
    """Applies change records onto its own store, idempotently."""

    def __init__(
        self,
        store,
        directory: Optional[str] = None,
        name: str = "replica",
    ) -> None:
        self.store = store
        self.directory = directory
        self.name = name
        #: Next stream seq this replica needs (count of changes applied).
        self.cursor = wal_change_count(store.wal)
        #: Apply-side counters for the lag trace and torture report.
        self.applied = 0
        self.duplicates_skipped = 0

    # -- applying ------------------------------------------------------------

    def apply(self, record: ChangeRecord) -> bool:
        """Apply one change record; returns True when state advanced.

        A record below the cursor is a duplicate delivery and is skipped
        (idempotence); a record above it is a gap — raised as a typed,
        retriable error so the caller re-fetches from the cursor.
        """
        if record.seq < self.cursor:
            self.duplicates_skipped += 1
            return False
        if record.seq > self.cursor:
            raise ReplicationGapError(
                f"replica {self.name!r} at cursor {self.cursor} received "
                f"record seq={record.seq} — {record.seq - self.cursor} "
                f"record(s) missing"
            )
        # write-ahead: the frame reaches the replica's durable log before
        # the operation mutates state, so a crash between the two replays
        # the frame on recovery instead of losing it
        lsn = self.store.wal.append(record.record_type, record.payload, sync=True)
        replay_record(
            self.store,
            LogRecord(lsn=lsn, record_type=record.record_type, payload=record.payload),
        )
        self.cursor += 1
        self.applied += 1
        return True

    # -- the durable checkpoint ---------------------------------------------------

    @property
    def checkpoint_path(self) -> Optional[str]:
        if self.directory is None:
            return None
        return os.path.join(self.directory, CHECKPOINT_FILE)

    def write_checkpoint(self, source: str = "") -> dict:
        """Atomically commit the replication checkpoint sidecar."""
        payload = stamp(
            {
                "name": self.name,
                "cursor": self.cursor,
                "digest": state_digest(self.store),
                "source": source,
            }
        )
        path = self.checkpoint_path
        if path is not None:
            temporary = path + ".tmp"
            with open(temporary, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temporary, path)
        return payload

    # -- re-seeding -----------------------------------------------------------

    def reseed(self, primary_wal_image: bytes, source: str = "") -> None:
        """Rebuild this replica from the primary's full WAL image.

        The auto-resync path after detected divergence: the replica's
        WAL is replaced wholesale by the primary's committed log and the
        store is reconstructed by full-log replay — the one recovery
        mode that is always sound.  For a directory-backed replica the
        divergent catalog and device pages are dropped before the new
        WAL lands, so a crash mid-resync cannot resurrect them, and a
        fresh catalog is committed once replay finishes so the
        directory is immediately reopenable.
        """
        from repro.core.store import XMLStore

        wal_path = getattr(self.store.wal, "path", None)
        if self.directory is not None and wal_path is not None:
            from repro.core.filestore import (
                CATALOG_FILE,
                DEVICE_FILE,
                _write_catalog,
            )
            from repro.storage.disk import FileBlockDevice, InstrumentedDevice

            temporary = wal_path + ".tmp"
            with open(temporary, "wb") as handle:
                handle.write(primary_wal_image)
                handle.flush()
                os.fsync(handle.fileno())
            self.store.wal.close()
            self.store.device.close()
            for stale in (CATALOG_FILE, DEVICE_FILE):
                stale_path = os.path.join(self.directory, stale)
                if os.path.exists(stale_path):
                    os.remove(stale_path)
            os.replace(temporary, wal_path)
            device = InstrumentedDevice(
                FileBlockDevice(
                    os.path.join(self.directory, DEVICE_FILE),
                    block_size=self.store.config.page_size,
                )
            )
            wal = WriteAheadLog(wal_path)
            store = XMLStore.open(config=self.store.config, device=device, wal=wal)
        else:
            self.store.wal.close()
            wal = WriteAheadLog.from_bytes(primary_wal_image)
            store = XMLStore.open(config=self.store.config, wal=wal)
        # replay_all skips checkpoint markers, so any checkpoints the
        # primary took are inert history in the replica's copy
        replay_all(store, wal)
        self.store = store
        self.cursor = wal_change_count(wal)
        if self.directory is not None and wal_path is not None:
            _write_catalog(
                os.path.join(self.directory, CATALOG_FILE), store.checkpoint()
            )
        self.write_checkpoint(source=source)

    @classmethod
    def recover_from_image(
        cls,
        wal_image: bytes,
        config=None,
        name: str = "replica",
    ) -> "Replica":
        """Rebuild a replica from its own (possibly torn) WAL image.

        The crash-recovery path the torture matrix enumerates: the CRC
        scan discards a torn tail, full-log replay reconstructs exactly
        the durable apply prefix, and the cursor falls out of the WAL.
        """
        from repro.core.store import XMLStore

        wal = WriteAheadLog.from_bytes(wal_image)
        store = XMLStore.open(config=config, wal=wal)
        replay_all(store, wal)
        return cls(store, name=name)


def read_checkpoint(directory: str) -> Optional[dict]:
    """The replication checkpoint persisted in ``directory``, or None."""
    path = os.path.join(directory, CHECKPOINT_FILE)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    check_schema_version(payload, f"replication checkpoint {path}", required=False)
    return payload
