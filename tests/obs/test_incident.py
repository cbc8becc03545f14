"""Incident triggers, bundle dumps, and crash safety.

The manager's contract: every trigger kind fires at most once per
``(kind, key)`` per store instance, bounded by the manager's limit;
on directory stores each incident dumps a schema-stamped bundle under
``store.incidents/`` written strictly outside the store's pages and
WAL — so a crash mid-dump can never corrupt the store, only leave an
ignorable ``incident-<n>.tmp`` directory behind.
"""

import json
import os

import pytest

from repro.core.config import StoreConfig
from repro.core.filestore import close_directory, open_directory
from repro.core.store import XMLStore
from repro.errors import ChecksumError, ObservabilityError
from repro.obs.incident import (
    DEFAULT_LIMIT,
    INCIDENTS_DIR,
    IncidentManager,
    record_directory_incident,
)

BUNDLE_FILES = (
    "incident.json",
    "recorder.json",
    "config.json",
    "wal.json",
    "quarantine.json",
    "health.json",
    "integrity.json",
)


def _memory_store():
    store = XMLStore.open(
        StoreConfig(events_enabled=True, recorder_enabled=True)
    )
    store.load_document("<r><a>x</a></r>")
    return store


def _directory_store(path):
    store = open_directory(
        str(path),
        config=StoreConfig(
            events_enabled=True,
            recorder_enabled=True,
            checksums_enabled=True,
        ),
    )
    store.load_document("<r><a>x</a><b>y</b></r>")
    return store


class TestTriggering:
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ObservabilityError):
            IncidentManager().trigger("made-up-kind")

    def test_same_kind_and_key_fires_once(self):
        manager = IncidentManager()
        assert manager.trigger("checksum-quarantine", key="7") is not None
        assert manager.trigger("checksum-quarantine", key="7") is None
        assert manager.trigger("checksum-quarantine", key="8") is not None
        assert manager.counts == {"checksum-quarantine": 2}

    def test_limit_suppresses_further_triggers(self):
        manager = IncidentManager(limit=2)
        for block in range(4):
            manager.trigger("checksum-quarantine", key=str(block))
        assert len(manager) == 2
        assert manager.suppressed == 2

    def test_quarantine_triggers_an_incident(self):
        store = _memory_store()
        store.pool.quarantine(99, ChecksumError("boom", block_no=99))
        records = store.incidents.incidents()
        assert [r.kind for r in records] == ["checksum-quarantine"]
        assert records[0].detail["block"] == 99
        assert records[0].detail["source"] == "fetch"
        # in-memory store: recorded, but no bundle to dump
        assert records[0].bundle is None

    def test_disabled_manager_owns_no_directory(self, tmp_path):
        directory = str(tmp_path / INCIDENTS_DIR)
        disabled = IncidentManager(directory=directory, enabled=False)
        assert disabled.enabled is False and disabled.directory is None
        assert disabled.incidents() == [] and disabled.counts == {}
        assert IncidentManager().enabled
        assert IncidentManager().limit == DEFAULT_LIMIT


class TestBundleDump:
    def _corrupt_and_scrub(self, tmp_path):
        from repro.storage.scrub import scrub_store

        path = tmp_path / "store"
        store = _directory_store(path)
        close_directory(str(path), store)
        # rot one chain block on the raw device, then reopen and scrub
        from repro.core.filestore import CATALOG_FILE, DEVICE_FILE
        from repro.storage.disk import FileBlockDevice

        config = StoreConfig(checksums_enabled=True)
        with open(path / CATALOG_FILE, "rb") as handle:
            catalog = handle.read()
        device = FileBlockDevice(
            str(path / DEVICE_FILE), block_size=config.page_size
        )
        repair_view = XMLStore.from_catalog(device, catalog, config=config)
        block = next(iter(repair_view.layout.chain.blocks()))
        image = bytearray(device.read_block(block))
        image[-1] ^= 0x55
        device.write_block(block, bytes(image))
        device.close()
        device = FileBlockDevice(
            str(path / DEVICE_FILE), block_size=config.page_size
        )
        scrub_config = StoreConfig(
            checksums_enabled=True,
            events_enabled=True,
            recorder_enabled=True,
            artifacts_dir=str(path),
        )
        store = XMLStore.from_catalog(device, catalog, config=scrub_config)
        report = scrub_store(store)
        device.close()
        return path, store, report, block

    def test_scrub_quarantine_dumps_a_complete_bundle(self, tmp_path):
        path, store, report, block = self._corrupt_and_scrub(tmp_path)
        assert not report.ok
        bundle = path / INCIDENTS_DIR / "incident-0"
        assert bundle.is_dir()
        for name in BUNDLE_FILES:
            with open(bundle / name) as handle:
                payload = json.load(handle)
            assert payload.get("schema_version") == 1, (
                f"{name} is not schema-stamped"
            )
        with open(bundle / "incident.json") as handle:
            record = json.load(handle)
        assert record["kind"] == "checksum-quarantine"
        assert record["detail"]["block"] == block
        assert record["detail"]["source"] == "scrub"
        with open(bundle / "quarantine.json") as handle:
            quarantine = json.load(handle)
        assert block in quarantine["blocks"]

    def test_recorder_dump_in_bundle_has_no_wall_readings(self, tmp_path):
        path, *_ = self._corrupt_and_scrub(tmp_path)
        with open(path / INCIDENTS_DIR / "incident-0" / "recorder.json") as handle:
            text = handle.read()
        assert '"wall"' not in text

    def test_crash_recovery_triggers_an_incident(self, tmp_path):
        path = tmp_path / "store"
        store = _directory_store(path)
        store.insert_into_last(1, "<c>new</c>")
        # crash: drop the store without checkpoint/close, then reopen —
        # replay finds the pending WAL records
        store.device.close()
        reopened = open_directory(
            str(path),
            config=StoreConfig(
                events_enabled=True,
                recorder_enabled=True,
                checksums_enabled=True,
            ),
        )
        kinds = [r.kind for r in reopened.incidents.incidents()]
        assert "crash-recovery" in kinds
        assert (path / INCIDENTS_DIR / "incident-0").is_dir()
        close_directory(str(path), reopened)

    def test_clean_reopen_triggers_nothing(self, tmp_path):
        path = tmp_path / "store"
        store = _directory_store(path)
        close_directory(str(path), store)
        reopened = open_directory(
            str(path),
            config=StoreConfig(
                events_enabled=True,
                recorder_enabled=True,
                checksums_enabled=True,
            ),
        )
        assert reopened.incidents.incidents() == []
        assert not (path / INCIDENTS_DIR).exists()
        close_directory(str(path), reopened)

    def test_repair_records_a_directory_incident(self, tmp_path):
        from repro.core.repair import repair_directory

        path, *_ = self._corrupt_and_scrub(tmp_path)
        report = repair_directory(
            str(path), config=StoreConfig(checksums_enabled=True)
        )
        assert report.integrity_ok
        bundles = sorted(os.listdir(path / INCIDENTS_DIR))
        assert "incident-1" in bundles
        with open(path / INCIDENTS_DIR / "incident-1" / "incident.json") as handle:
            record = json.load(handle)
        assert record["kind"] == "repair"
        assert record["detail"]["report"]["mode"] == "wal-rebuild"


class TestCrashDuringDump:
    """A crash mid-dump must leave the store recoverable and the
    partial bundle ignorable — the bundle writes never touch store
    pages or the WAL, and the final rename is the commit point."""

    def test_partial_bundle_is_ignored_and_store_recovers(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "store"
        store = _directory_store(path)

        # crash injection: the rename that commits the bundle never
        # happens, as if the process died between the file writes and
        # the commit point
        def crash_rename(src, dst):
            raise OSError("simulated crash during incident dump")

        monkeypatch.setattr("os.rename", crash_rename)
        store.pool.quarantine(99, ChecksumError("boom", block_no=99))
        monkeypatch.undo()

        # the dump failed; the incident is still recorded in memory and
        # only a .tmp leftover exists on disk
        records = store.incidents.incidents()
        assert [r.kind for r in records] == ["checksum-quarantine"]
        assert records[0].bundle is None
        leftovers = os.listdir(path / INCIDENTS_DIR)
        assert leftovers == ["incident-0.tmp"]

        # the quarantine was synthetic: clear it so the store closes
        # cleanly, then prove close/reopen/verify all work
        store.pool.clear_quarantine()
        close_directory(str(path), store)
        reopened = open_directory(
            str(path), config=StoreConfig(checksums_enabled=True)
        )
        from repro.core.integrity import integrity_report

        assert integrity_report(reopened).ok
        close_directory(str(path), reopened)

        # diagnose ignores the partial bundle entirely
        from repro.obs.timeline import diagnose, load_bundles

        assert load_bundles(str(path)) == []
        assert diagnose(str(path)).verdict == "clean"

    def test_next_dump_reclaims_the_tmp_leftover(self, tmp_path):
        path = tmp_path / "store"
        store = _directory_store(path)
        leftover = path / INCIDENTS_DIR / "incident-0.tmp"
        os.makedirs(leftover)
        (leftover / "junk.json").write_text("{}")
        store.pool.quarantine(99, ChecksumError("boom", block_no=99))
        assert (path / INCIDENTS_DIR / "incident-0").is_dir()
        assert not leftover.exists()


class TestDirectoryIncident:
    def test_store_less_dump_writes_incident_and_config(self, tmp_path):
        name = record_directory_incident(
            str(tmp_path),
            "repair",
            {"report": {"mode": "salvage"}},
            config=StoreConfig(),
        )
        assert name == "incident-0"
        bundle = tmp_path / INCIDENTS_DIR / "incident-0"
        with open(bundle / "incident.json") as handle:
            record = json.load(handle)
        assert record["kind"] == "repair"
        assert record["operations"] is None
        assert (bundle / "config.json").exists()

    def test_sequence_continues_past_existing_bundles(self, tmp_path):
        os.makedirs(tmp_path / INCIDENTS_DIR / "incident-4")
        name = record_directory_incident(str(tmp_path), "repair", {})
        assert name == "incident-5"

    def test_failure_is_swallowed(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        assert (
            record_directory_incident(str(target), "repair", {}) is None
        )
