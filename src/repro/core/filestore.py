"""Directory-backed stores: one call to open, one to close.

A store directory holds three files::

    store.db        the block device (data + index pages)
    store.wal       the write-ahead log
    store.catalog   the catalog as of the last checkpoint

:func:`open_directory` creates a fresh store or reopens an existing one
(catalog + WAL replay); :func:`close_directory` checkpoints and writes
the catalog.  :class:`StoreDirectory` wraps both as a context manager::

    with StoreDirectory("/var/data/orders") as store:
        store.insert_into_last(1, "<order/>")
    # closed cleanly: checkpointed, catalog written
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Optional

from repro.errors import StoreError
from repro.core.config import StoreConfig
from repro.core.store import XMLStore
from repro.log import get_logger
from repro.storage.disk import FileBlockDevice, InstrumentedDevice
from repro.storage.recovery import replay
from repro.storage.wal import WriteAheadLog

DEVICE_FILE = "store.db"
WAL_FILE = "store.wal"
CATALOG_FILE = "store.catalog"

_log = get_logger("core.filestore")


def open_directory(path: str, config: Optional[StoreConfig] = None) -> XMLStore:
    """Open (or create) the store housed in directory ``path``.

    Reopening replays any WAL records after the last checkpoint, so a
    crash between checkpoints loses nothing that reached the log.
    """
    config = config if config is not None else StoreConfig()
    if config.artifacts_dir is None:
        # the observers' trails (history, alert log, incident bundles)
        # live beside the device file, strictly outside the pages and
        # WAL, and survive close/reopen like the rest of the store
        config = replace(config, artifacts_dir=path)
    os.makedirs(path, exist_ok=True)
    device_path = os.path.join(path, DEVICE_FILE)
    catalog_path = os.path.join(path, CATALOG_FILE)
    wal_path = os.path.join(path, WAL_FILE)
    existing = os.path.exists(catalog_path)
    device = InstrumentedDevice(
        FileBlockDevice(device_path, block_size=config.page_size)
    )
    wal = WriteAheadLog(wal_path)
    if not existing:
        _log.info("creating fresh store in %s", path)
        store = XMLStore.open(config=config, device=device, wal=wal)
        with store.telemetry.span("store.open", path=path, fresh=True):
            # make the empty store immediately reopenable
            _write_catalog(catalog_path, store.checkpoint())
        _attach_replication(store, path)
        return store
    with open(catalog_path, "rb") as handle:
        catalog = handle.read()
    _log.info("reopening store in %s from catalog", path)
    store = XMLStore.from_catalog(device, catalog, config=config, wal=wal)
    with store.telemetry.span("store.open", path=path, fresh=False):
        replay(store, wal)
    _attach_replication(store, path)
    return store


def _attach_replication(store: XMLStore, path: str) -> None:
    """Hang the replication monitor off a primary that has replicas
    configured (same pattern as the serving layer's ``store.server``),
    so bridge/alerts/health see the lag gauges.  A store without a
    replica registry pays nothing — not even an attribute."""
    from repro.replication.service import REPLICAS_FILE, ReplicationMonitor

    if os.path.exists(os.path.join(path, REPLICAS_FILE)):
        store.replication = ReplicationMonitor(store, path)


def close_directory(path: str, store: XMLStore) -> None:
    """Checkpoint ``store`` and persist its catalog into ``path``."""
    _log.info("closing store in %s (checkpoint + catalog)", path)
    catalog = store.checkpoint()
    _write_catalog(os.path.join(path, CATALOG_FILE), catalog)
    store.wal.close()
    store.device.close()


def _write_catalog(catalog_path: str, catalog: bytes) -> None:
    temporary = catalog_path + ".tmp"
    with open(temporary, "wb") as handle:
        handle.write(catalog)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, catalog_path)  # atomic swap


class StoreDirectory:
    """Context manager over :func:`open_directory`/:func:`close_directory`."""

    def __init__(self, path: str, config: Optional[StoreConfig] = None) -> None:
        self.path = path
        self.config = config
        self.store: Optional[XMLStore] = None

    def __enter__(self) -> XMLStore:
        self.store = open_directory(self.path, self.config)
        return self.store

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.store is not None:
            if exc_type is None:
                close_directory(self.path, self.store)
            else:
                # crash path: leave the WAL; do not write a catalog that
                # might not match the flushed pages
                self.store.wal.close()
                self.store.device.close()
            self.store = None
