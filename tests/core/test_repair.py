"""Self-healing repair (repro.core.repair): structural salvage, full-log
rebuild, degraded reads and the directory-store repair entry point."""

import json
import os
import struct

import pytest

from repro.core.config import StoreConfig
from repro.core.repair import (
    SIDECAR_FILE,
    _reachable_index_blocks,
    degraded_read,
    read_sidecar,
    rebuild_from_wal,
    repair_directory,
    repair_store,
)
from repro.core.store import XMLStore
from repro.errors import ChecksumError
from repro.storage.pages import SlottedPage


def make_store(orders=8, checksums=True):
    store = XMLStore.open(
        StoreConfig(
            page_size=512, buffer_pool_capacity=8, checksums_enabled=checksums
        )
    )
    root = store.load_document("<r/>")
    for index in range(orders):
        store.insert_into_last(root, f"<e n='{index}'>tok-{index}</e>")
    store.checkpoint()
    return store, root


def corrupt_block(store, block_no):
    image = bytearray(store.device.read_block(block_no))
    image[-1] ^= 0x10
    store.device.write_block(block_no, bytes(image))


class TestRepairStore:
    def test_clean_store_repair_is_a_no_op(self):
        store, _ = make_store()
        before = store.read()
        report = repair_store(store)
        assert report.mode == "clean"
        assert not report.degraded
        assert report.integrity_ok
        assert store.read() == before

    def test_salvage_keeps_surviving_records_and_restores_integrity(self):
        store, root = make_store(orders=30)
        before = store.read()
        chain_blocks = list(store.layout.chain.blocks())
        assert len(chain_blocks) > 2
        victim = chain_blocks[len(chain_blocks) // 2]
        corrupt_block(store, victim)
        report = repair_store(store)
        assert report.mode == "salvage"
        assert victim in report.bad_blocks
        assert report.integrity_ok
        # the repaired store reads — strictly when nothing was lost,
        # through the tolerant path when the salvage was degraded — and
        # everything it returns is genuine
        if report.degraded:
            assert report.lost_intervals or report.records_dropped
            result = degraded_read(store)
            for index in range(30):
                fragment = f"tok-{index}"
                if fragment in result.text:
                    assert fragment in before
        else:
            assert store.read() == before

    def test_repaired_store_stays_writable_even_when_degraded(self):
        """Killing the *last* chain block loses the root's end tag — the
        most degraded salvage there is.  Targeted inserts into the
        unclosed node are legitimately refused, but the store itself
        must keep accepting work (the torture harness's leg-3 probe)."""
        store, root = make_store()
        victim = list(store.layout.chain.blocks())[-1]
        corrupt_block(store, victim)
        report = repair_store(store)
        assert report.integrity_ok
        probe = store.load_document("<post-repair-probe/>")
        assert probe is not None
        store.checkpoint()
        assert "<post-repair-probe/>" in degraded_read(store).text

    def test_quarantine_is_cleared_after_repair(self):
        store, _ = make_store()
        victim = list(store.layout.chain.blocks())[1]
        corrupt_block(store, victim)
        repair_store(store)
        assert store.pool.quarantined_blocks() == []

    def test_index_walk_stops_at_a_malformed_node(self):
        """Children decode on demand; an internal entry cut off before its
        child pointer is a corrupt node like any other, not a struct.error."""
        store, _ = make_store(checksums=False)
        tree = store.range_index._tree
        records = [struct.pack("<Bq", 0, tree.root_block + 1), b"\x08\x00" + bytes(8)]
        image = SlottedPage(store.codec.page_size, records).to_bytes()
        store.device.write_block(tree.root_block, image)
        store.pool.drop_all()
        assert _reachable_index_blocks(tree) == [tree.root_block]

    def test_report_to_dict_is_json_ready(self):
        store, _ = make_store()
        victim = list(store.layout.chain.blocks())[0]
        corrupt_block(store, victim)
        payload = json.loads(json.dumps(repair_store(store).to_dict()))
        assert payload["mode"] == "salvage"
        assert isinstance(payload["degraded"], bool)
        assert payload["lost_ids"] == sum(
            high - low + 1 for low, high in payload["lost_intervals"]
        )


class TestRebuildFromWAL:
    def test_full_log_rebuild_restores_content_equality(self):
        store, _ = make_store()
        expected = store.read()
        rebuilt, replayed = rebuild_from_wal(
            store.wal, config=StoreConfig(page_size=512, buffer_pool_capacity=8)
        )
        assert replayed > 0
        assert rebuilt.read() == expected

    def test_rebuild_never_trusts_the_damaged_device(self):
        """The rebuild replays logged op *arguments* onto a fresh store,
        so content equality holds no matter how rotten the old device."""
        store, _ = make_store()
        expected = store.read()
        for block_no in store.layout.chain.blocks():
            corrupt_block(store, block_no)
        rebuilt, _ = rebuild_from_wal(
            store.wal, config=StoreConfig(page_size=512, buffer_pool_capacity=8)
        )
        assert rebuilt.read() == expected


class TestDegradedRead:
    def test_clean_store_reads_complete(self):
        store, _ = make_store()
        result = degraded_read(store)
        assert result.complete
        assert result.text == store.read()
        assert not result.lost_intervals

    def test_damage_shows_up_as_absence_never_wrong_answers(self):
        store, _ = make_store()
        full_text = store.read()
        victim = list(store.layout.chain.blocks())[1]
        corrupt_block(store, victim)
        store.pool.drop_all()
        result = degraded_read(store)
        assert not result.complete
        assert result.ranges_lost > 0
        # every surviving element the degraded read returns was really
        # in the document (genuine content, merely incomplete)
        for index in range(8):
            fragment = f"tok-{index}"
            if fragment in result.text:
                assert fragment in full_text

    def test_to_dict_is_json_ready(self):
        store, _ = make_store()
        payload = json.loads(json.dumps(degraded_read(store).to_dict()))
        assert payload["complete"] is True


class TestRepairDirectory:
    def _build(self, path, orders=6):
        from repro.core.filestore import open_directory, close_directory

        store = open_directory(path)
        root = store.load_document("<r/>")
        for index in range(orders):
            store.insert_into_last(root, f"<e n='{index}'>tok-{index}</e>")
        expected = store.read()
        close_directory(path, store)
        return expected

    def _corrupt_one_chain_block(self, path):
        from repro.core.filestore import CATALOG_FILE, DEVICE_FILE
        from repro.storage.disk import FileBlockDevice

        config = StoreConfig()
        with open(os.path.join(path, CATALOG_FILE), "rb") as handle:
            catalog = handle.read()
        device = FileBlockDevice(
            os.path.join(path, DEVICE_FILE), block_size=config.page_size
        )
        store = XMLStore.from_catalog(device, catalog, config=config)
        victim = next(iter(store.layout.chain.blocks()))
        image = bytearray(device.read_block(victim))
        image[-1] ^= 0x10
        device.write_block(victim, bytes(image))
        device.close()
        return victim

    def test_wal_rebuild_recovers_everything(self, tmp_path):
        path = str(tmp_path / "store")
        expected = self._build(path)
        self._corrupt_one_chain_block(path)
        report = repair_directory(path)
        assert report.mode == "wal-rebuild"
        assert not report.degraded
        assert report.replayed_ops > 0
        assert not os.path.exists(os.path.join(path, SIDECAR_FILE))
        from repro.core.filestore import open_directory, close_directory

        store = open_directory(path)
        assert store.read() == expected
        close_directory(path, store)

    def test_salvage_fallback_writes_a_degraded_sidecar(self, tmp_path):
        from repro.core.filestore import WAL_FILE

        path = str(tmp_path / "store")
        self._build(path)
        self._corrupt_one_chain_block(path)
        os.remove(os.path.join(path, WAL_FILE))  # no log: salvage only
        report = repair_directory(path)
        assert report.mode == "salvage"
        assert report.integrity_ok
        if report.degraded:
            sidecar = read_sidecar(path)
            assert sidecar is not None
            assert sidecar["degraded"] is True
        else:
            assert read_sidecar(path) is None

    def test_read_sidecar_absent_is_none(self, tmp_path):
        assert read_sidecar(str(tmp_path)) is None
