"""Group-commit WAL batching (repro.storage.wal deferred appends +
repro.server.group_commit) under deterministic crash injection.

The durability contract: a commit batch shares one sync barrier, and a
crash anywhere in the append stream loses *whole transactions* from the
tail — never a partial transaction (the TXN_COMMIT frame CRC discards a
torn tail).  Sync count is bounded by the number of groups, not the
number of transactions.
"""

import pytest

from repro.core.config import StoreConfig
from repro.core.store import XMLStore
from repro.errors import SimulatedCrashError
from repro.server.group_commit import GroupCommitQueue, PerCommitQueue
from repro.server.sessions import SessionOp, XMLServer
from repro.storage.disk import MemoryBlockDevice
from repro.storage.faults import FaultConfig, build_fault_harness
from repro.storage.txnlog import decode_commit
from repro.storage.wal import RecordType, WriteAheadLog

BASE = "<lib><s1>a</s1><s2>b</s2><s3>c</s3><s4>d</s4></lib>"
# element ids: 1=lib, 2=s1, 4=s2, 6=s3, 8=s4
SUBTREES = (2, 4, 6, 8)


def writer_program(index):
    """Two inserts per transaction — atomicity needs >1 op to matter."""
    target = SUBTREES[index % len(SUBTREES)]
    return [
        SessionOp("insert_into_last", target, f"<w{index}a>x</w{index}a>"),
        SessionOp("insert_into_last", target, f"<w{index}b>y</w{index}b>"),
    ]


def run_server(store, writers=4, script=None):
    server = XMLServer(store)
    sessions = [server.submit(writer_program(i)) for i in range(writers)]
    report = server.run(script=script or list(range(writers * 16)))
    return server, sessions, report


class TestBarrierSharing:
    def test_deferred_appends_share_one_barrier(self):
        wal = WriteAheadLog()
        barriers_before = wal.sync_barriers
        for _ in range(5):
            wal.append(RecordType.TXN_COMMIT, b"payload", sync=False)
        assert wal.pending_frames == 5
        assert wal.sync_barriers == barriers_before  # nothing paid yet
        assert wal.sync() == 5
        assert wal.sync_barriers == barriers_before + 1
        assert wal.group_commits == 1
        assert wal.group_commit_batches == [5]

    def test_sync_with_nothing_pending_is_free(self):
        wal = WriteAheadLog()
        assert wal.sync() == 0
        assert wal.sync_barriers == 0
        assert wal.group_commits == 0

    def test_server_batches_concurrent_commits(self):
        store = XMLStore.open(StoreConfig(server_group_commit_max_batch=8))
        store.load_document(BASE)
        barriers_after_load = store.wal.sync_barriers
        server, sessions, report = run_server(store, writers=4)
        assert all(s.outcome == "committed" for s in sessions)
        assert all(s.durable for s in sessions)
        commit_barriers = store.wal.sync_barriers - barriers_after_load
        # 4 commits, strictly fewer barriers than transactions
        assert commit_barriers < 4
        assert sum(report.group_commit_batches) == 4

    def test_sync_count_bounded_by_group_count(self):
        store = XMLStore.open(StoreConfig(server_group_commit_max_batch=2))
        store.load_document(BASE)
        barriers_after_load = store.wal.sync_barriers
        run_server(store, writers=4)
        commit_barriers = store.wal.sync_barriers - barriers_after_load
        assert commit_barriers <= store.wal.group_commits
        assert store.wal.group_commits <= 4 // 2 + 1

    def test_per_commit_queue_is_the_unbatched_baseline(self):
        store = XMLStore.open(StoreConfig(server_group_commit=False))
        store.load_document(BASE)
        barriers_after_load = store.wal.sync_barriers
        server, sessions, _ = run_server(store, writers=4)
        assert isinstance(server.group_commit, PerCommitQueue)
        assert all(s.outcome == "committed" for s in sessions)
        # one barrier per committed transaction, no grouping
        assert store.wal.sync_barriers - barriers_after_load == 4
        assert store.wal.group_commits == 0


class TestQueueSemantics:
    def test_enqueue_with_nothing_pending_is_immediately_durable(self):
        wal = WriteAheadLog()
        queue = GroupCommitQueue(wal, max_batch=4)

        class Stub:
            session_id = 1
            durable = False

        session = Stub()
        assert queue.enqueue(session) is False
        assert session.durable is True

    def test_flush_marks_all_waiters_durable(self):
        wal = WriteAheadLog()
        queue = GroupCommitQueue(wal, max_batch=4)

        class Stub:
            def __init__(self, n):
                self.session_id = n
                self.durable = False

        waiters = []
        for n in range(3):
            wal.append(RecordType.TXN_COMMIT, b"p", sync=False)
            stub = Stub(n)
            assert queue.enqueue(stub) is True
            waiters.append(stub)
        assert not queue.should_flush  # 3 < max_batch
        queue.flush(reason="test")
        assert all(w.durable for w in waiters)
        assert queue.waiting == []
        assert wal.group_commit_batches == [3]


class TestCrashDurability:
    def _run_to_crash(self, crash_at):
        """One seeded serving run over a faulty disk, crashed at WAL
        frame ``crash_at``; returns (wal bytes, frames completed)."""
        config = StoreConfig(page_size=512, server_group_commit_max_batch=2)
        harness = build_fault_harness(
            FaultConfig(seed=9, crash_at=crash_at, torn_wal_appends=True),
            MemoryBlockDevice(block_size=512),
        )
        wal = WriteAheadLog()
        wal.fault_adapter = harness.wal_adapter
        store = XMLStore.open(config, device=harness.device, wal=wal)
        crashed = False
        try:
            store.load_document(BASE)
            run_server(store, writers=4)
        except SimulatedCrashError:
            crashed = True
        harness.disk.crash()
        return wal.to_bytes(), harness.wal_adapter.frames_completed, crashed

    def _control_states(self):
        """Document content after each durable frame prefix of the same
        (deterministic) run, crash-free."""
        config = StoreConfig(page_size=512, server_group_commit_max_batch=2)
        store = XMLStore.open(config)
        store.load_document(BASE)
        run_server(store, writers=4)
        records = list(store.wal.records())
        states = []
        for prefix in range(len(records) + 1):
            replayed = WriteAheadLog()
            for record in records[:prefix]:
                replayed.append(record.record_type, record.payload)
            states.append(XMLStore.recover(replayed).read())
        return records, states

    def test_crash_loses_whole_transactions_never_partial_frames(self):
        records, states = self._control_states()
        commit_frames = [
            record for record in records
            if record.record_type == RecordType.TXN_COMMIT
        ]
        assert len(commit_frames) == 4
        # each commit frame holds a whole transaction (2 ops)
        for record in commit_frames:
            assert len(decode_commit(record.payload).ops) == 2
        for crash_at in range(len(records) + 1):
            wal_bytes, durable_frames, crashed = self._run_to_crash(crash_at)
            recovered = XMLStore.recover(WriteAheadLog.from_bytes(wal_bytes))
            observed = recovered.read()
            # the durable image is exactly a frame-prefix state: whole
            # transactions up to the crash, the torn tail discarded
            assert observed == states[durable_frames], (
                f"crash_at={crash_at}: recovered content is not the "
                f"{durable_frames}-frame prefix state"
            )
            # atomicity: a writer's two inserts appear together or not
            # at all
            for index in range(4):
                assert (f"<w{index}a>" in observed) == (f"<w{index}b>" in observed)

    def test_crash_free_faulty_run_matches_plain_run(self):
        wal_bytes, durable_frames, crashed = self._run_to_crash(crash_at=None)
        assert not crashed
        records, states = self._control_states()
        assert durable_frames == len(records)
        recovered = XMLStore.recover(WriteAheadLog.from_bytes(wal_bytes))
        assert recovered.read() == states[-1]
