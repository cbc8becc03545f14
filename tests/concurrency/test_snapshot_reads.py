"""Snapshot-read isolation (repro.server.snapshot + sessions).

A reader session opened before a writer's commit must never observe the
writer's uncommitted tokens — across aborts, mixed op kinds, and a store
reopen — and a snapshot over a quarantined block reports absence (an
explicit error result), never a wrong answer.
"""

import pytest

from repro.core.config import StoreConfig
from repro.core.store import XMLStore
from repro.errors import ChecksumError
from repro.server.sessions import SessionOp, XMLServer
from repro.server.snapshot import SnapshotManager
from repro.storage.scrub import scrub_store
from repro.storage.wal import WriteAheadLog
from repro.testing.reference import ReferenceStore

BASE = "<lib><a>one</a><b>two</b></lib>"


def make_server(**config_kwargs):
    store = XMLStore.open(StoreConfig(**config_kwargs))
    store.load_document(BASE)
    return store, XMLServer(store)


def reader_first_script(steps=64):
    """Open the reader (session 0) first, then drive the writer to
    completion; trailing zeros let the reader finish once the writer is
    no longer runnable."""
    return [0] + [1] * steps


class TestReaderNeverSeesUncommitted:
    def test_reader_opened_before_commit_sees_base(self):
        store, server = make_server()
        reader = server.submit(
            [SessionOp("read"), SessionOp("read")], read_only=True
        )
        server.submit(
            [
                SessionOp("insert_into_last", 1, "<x>new</x>"),
                SessionOp("replace_content", 4, "CHANGED"),
            ]
        )
        server.run(script=reader_first_script())
        assert reader.outcome == "committed"
        assert reader.results == [BASE, BASE]
        # the writer did commit — only the snapshot stayed pinned
        assert "CHANGED" in store.read()
        assert "<x>new</x>" in store.read()

    def test_reader_is_isolated_from_aborted_writer(self):
        store, server = make_server()
        reader = server.submit([SessionOp("read")], read_only=True)
        writer = server.submit(
            [
                SessionOp("replace_content", 2, "DOOMED"),
                SessionOp("abort"),
            ]
        )
        server.run(script=reader_first_script())
        assert writer.outcome == "aborted"
        assert reader.results == [BASE]
        assert store.read() == BASE

    def test_reader_is_isolated_from_mixed_replace_and_insert(self):
        store, server = make_server()
        reader = server.submit(
            [SessionOp("read"), SessionOp("read", 2), SessionOp("exists", 2)],
            read_only=True,
        )
        server.submit(
            [
                SessionOp("replace_node", 2, "<a2>swapped</a2>"),
                SessionOp("insert_into_last", 1, "<c>three</c>"),
                SessionOp("replace_content", 1, "FLATTENED"),
            ]
        )
        server.run(script=reader_first_script())
        assert reader.results == [BASE, "<a>one</a>", True]
        assert store.read() == "<lib>FLATTENED</lib>"

    def test_snapshot_opened_mid_transaction_sees_committed_state(self):
        # the eager path: the snapshot opens while a writer already holds
        # uncommitted changes and must rewind them via the undo entries
        store = XMLStore.open()
        store.load_document(BASE)
        server = XMLServer(store)
        txn = server.transactions.begin()
        txn.insert_into_last(1, "<x>dirty</x>")
        txn.replace_content(2, "DIRTY")
        snapshot = server.snapshots.open(server.transactions.active.values())
        assert snapshot.materialized
        assert snapshot.read() == BASE
        txn.commit()

    def test_reader_views_survive_store_reopen(self):
        # replaying the WAL after the run reproduces exactly the state the
        # live store (not the snapshot) held: commits are durable, the
        # snapshot was a view, not a fork
        store, server = make_server()
        reader = server.submit([SessionOp("read")], read_only=True)
        server.submit([SessionOp("insert_into_last", 1, "<x>durable</x>")])
        server.run(script=reader_first_script())
        assert reader.results == [BASE]
        reopened = XMLStore.recover(WriteAheadLog.from_bytes(store.wal.to_bytes()))
        assert reopened.read() == store.read()
        assert "durable" in reopened.read()


class TestLazyDiscipline:
    def test_snapshot_stays_lazy_until_a_writer_mutates(self):
        store, server = make_server()
        manager = server.snapshots
        snapshot = manager.open(server.transactions.active.values())
        assert not snapshot.materialized
        assert manager.lazy_opens == 1
        assert manager.materializations == 0
        # a read-only workload never pays the copy
        assert snapshot.read() == BASE
        assert manager.materializations == 0

    def test_mutation_promotes_lazy_snapshots(self):
        store, server = make_server()
        manager = server.snapshots
        snapshot = manager.open(server.transactions.active.values())
        manager.before_mutation()
        store.replace_content(2, "AFTER")
        assert snapshot.materialized
        assert manager.materializations == 1
        assert snapshot.read() == BASE

    def test_snapshot_reads_disabled_falls_back_to_locking_reader(self):
        store, server = make_server(server_snapshot_reads=False)
        reader = server.submit([SessionOp("read")], read_only=True)
        server.run()
        assert reader.outcome == "committed"
        assert reader.snapshot is None  # ran as a plain (locking) session
        assert reader.results == [BASE]


class TestEveryNodeReads:
    """``read(id)`` of every node — attributes and namespaces included —
    agrees with the store through a lazy, a promoted and an eager snapshot
    and through the reference store.  A materialized view used to render
    a node span with the document writer, which refuses an attribute or a
    namespace outside a start tag."""

    DOCUMENT = '<a x="1" xmlns:p="u">t<b y="2"><!--c--><p:c/></b><?pi d?></a>'

    def setup_method(self):
        self.store, self.server = make_server()
        self.store.delete_node(1)
        reference = ReferenceStore()
        reference.load_document(BASE)
        reference.delete_node(1)
        first = self.store.load_document(self.DOCUMENT)
        assert reference.load_document(self.DOCUMENT) == first
        self.reference = reference
        self.expected = {node: self.store.read(node) for node in reference.node_ids()}
        assert self.expected[first + 1] == 'x="1"'
        assert self.expected[first + 2] == 'xmlns:p="u"'

    def reads(self, view):
        return {node: view.read(node) for node in self.expected}

    def test_reference(self):
        assert self.reads(self.reference) == self.expected

    def test_lazy_snapshot(self):
        snapshot = self.server.snapshots.open([])
        assert not snapshot.materialized
        assert self.reads(snapshot) == self.expected

    def test_promoted_snapshot(self):
        snapshot = self.server.snapshots.open([])
        self.server.snapshots.before_mutation()
        self.store.replace_content(max(self.expected) - 1, "CHANGED")
        assert snapshot.materialized
        assert self.reads(snapshot) == self.expected

    def test_eager_snapshot(self):
        txn = self.server.transactions.begin()
        txn.insert_into_last(min(self.expected), "<new/>")
        snapshot = self.server.snapshots.open(self.server.transactions.active.values())
        assert snapshot.materialized
        assert self.reads(snapshot) == self.expected


class TestDegradedReads:
    def _quarantined_server(self):
        store = XMLStore.open(
            StoreConfig(page_size=512, buffer_pool_capacity=8, checksums_enabled=True)
        )
        root = store.load_document("<r/>")
        for index in range(6):
            store.insert_into_last(root, f"<e n='{index}'>payload-{index}</e>")
        store.checkpoint()
        victim = next(iter(store.layout.chain.blocks()))
        image = bytearray(store.device.read_block(victim))
        image[-1] ^= 0x20
        store.device.write_block(victim, bytes(image))
        report = scrub_store(store)
        assert not report.ok and store.pool.is_quarantined(victim)
        return store

    def test_snapshot_over_quarantined_block_fails_loudly(self):
        store = self._quarantined_server()
        manager = SnapshotManager(store)
        snapshot = manager.open([])  # lazy: reads hit the store directly
        with pytest.raises(ChecksumError):
            snapshot.read()

    def test_reader_session_reports_absence_not_wrong_answers(self):
        store = self._quarantined_server()
        server = XMLServer(store)
        reader = server.submit([SessionOp("read")], read_only=True)
        server.run()
        assert reader.outcome == "committed"
        [result] = reader.results
        assert result == ("error", "ChecksumError")
