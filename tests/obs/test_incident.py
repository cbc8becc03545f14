"""Incident triggers, bundle dumps, and crash safety.

The manager's contract: every trigger kind fires at most once per
``(kind, key)`` per store instance, bounded by the manager's limit; every
incident is an ``incident`` row of the store's journal, and on directory
stores each one dumps a schema-stamped bundle file under
``store.incidents/`` written strictly outside the store's pages and WAL —
so a crash mid-dump can never corrupt the store, only leave an ignorable
``incident-<n>.json.tmp`` file behind.
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
from repro.obs.journal import JOURNAL_FILE, Journal, read_journal

#: the payloads a live store's bundle holds, each stamped on its own
BUNDLE_PAYLOADS = (
    "incident",
    "ring",
    "config",
    "wal",
    "quarantine",
    "health",
    "integrity",
)


def _bundle(path, name):
    with open(path / INCIDENTS_DIR / f"{name}.json") as handle:
        return json.load(handle)


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
        assert [r["trigger"] for r in records] == ["checksum-quarantine"]
        assert records[0]["detail"]["block"] == 99
        assert records[0]["detail"]["source"] == "fetch"
        # in-memory store: recorded, but no bundle to dump
        assert records[0]["bundle"] is None

    def test_disabled_manager_owns_no_directory(self, tmp_path):
        journal = Journal(str(tmp_path / JOURNAL_FILE), enabled=False)
        disabled = IncidentManager(journal, enabled=False)
        assert disabled.enabled is False and disabled.directory is None
        assert disabled.trigger("checksum-quarantine", key="1") is None
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
        assert os.listdir(path / INCIDENTS_DIR) == ["incident-0.json"]
        bundle = _bundle(path, "incident-0")
        assert bundle["schema_version"] == 1
        assert sorted(bundle) == sorted(BUNDLE_PAYLOADS + ("schema_version",))
        for name in BUNDLE_PAYLOADS:
            assert bundle[name].get("schema_version") == 1, (
                f"{name} is not schema-stamped"
            )
        record = bundle["incident"]
        assert record["kind"] == "incident"
        assert record["trigger"] == "checksum-quarantine"
        assert record["bundle"] == "incident-0"
        assert record["detail"]["block"] == block
        assert record["detail"]["source"] == "scrub"
        assert block in bundle["quarantine"]["blocks"]
        # the bundle's row is the journal's, and the ring's rows precede it
        assert record in read_journal(str(path / JOURNAL_FILE))
        assert all(row["seq"] < record["seq"] for row in bundle["ring"]["entries"])

    def test_recorder_dump_in_bundle_has_no_wall_readings(self, tmp_path):
        path, *_ = self._corrupt_and_scrub(tmp_path)
        ring = json.dumps(_bundle(path, "incident-0")["ring"])
        assert '"kind": "event"' in ring
        assert '"wall"' not in ring

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
        kinds = [r["trigger"] for r in reopened.incidents.incidents()]
        assert "crash-recovery" in kinds
        assert (path / INCIDENTS_DIR / "incident-0.json").is_file()
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
        assert bundles == ["incident-0.json", "incident-1.json"]
        record = _bundle(path, "incident-1")["incident"]
        assert record["trigger"] == "repair"
        assert record["detail"]["report"]["mode"] == "wal-rebuild"
        # the store-less row continues the journal's numbering
        rows = read_journal(str(path / JOURNAL_FILE))
        assert rows[-1] == record
        assert record["seq"] > max(row["seq"] for row in rows[:-1])


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

        # the dump failed; the incident is still journaled, naming no
        # bundle, and only a .tmp leftover exists on disk
        records = store.incidents.incidents()
        assert [r["trigger"] for r in records] == ["checksum-quarantine"]
        assert records[0]["bundle"] is None
        assert read_journal(str(path / JOURNAL_FILE))[-1] == records[0]
        leftovers = os.listdir(path / INCIDENTS_DIR)
        assert leftovers == ["incident-0.json.tmp"]

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

        # the partial bundle is no member of a support bundle, and the
        # incident the journal holds is still unresolved
        from repro.obs.timeline import _bundle_members, diagnose

        assert _bundle_members(str(path)) == [JOURNAL_FILE]
        assert diagnose(str(path)).verdict == "unresolved"

    def test_next_dump_reclaims_the_tmp_leftover(self, tmp_path):
        path = tmp_path / "store"
        store = _directory_store(path)
        leftover = path / INCIDENTS_DIR / "incident-0.json.tmp"
        os.makedirs(path / INCIDENTS_DIR)
        leftover.write_text("{")
        store.pool.quarantine(99, ChecksumError("boom", block_no=99))
        assert _bundle(path, "incident-0")["incident"]["bundle"] == "incident-0"
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
        bundle = _bundle(tmp_path, "incident-0")
        assert sorted(bundle) == ["config", "incident", "schema_version"]
        record = bundle["incident"]
        assert record["trigger"] == "repair"
        assert record["op"] is None and record["sim"] is None
        assert read_journal(str(tmp_path / JOURNAL_FILE)) == [record]

    def test_sequence_continues_past_existing_bundles(self, tmp_path):
        os.makedirs(tmp_path / INCIDENTS_DIR)
        (tmp_path / INCIDENTS_DIR / "incident-4.json").write_text("{}")
        name = record_directory_incident(str(tmp_path), "repair", {})
        assert name == "incident-5"

    def test_failure_is_swallowed(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        assert (
            record_directory_incident(str(target), "repair", {}) is None
        )
