"""XMLServer front-end: admission control, scheduling outcomes, and the
run report (repro.server.sessions + scheduler).
"""

import pytest

from repro.core.config import StoreConfig
from repro.core.store import XMLStore
from repro.errors import ConcurrencyError, SessionLimitError
from repro.server.sessions import Session, SessionOp, XMLServer

BASE = "<lib><a>one</a><b>two</b></lib>"
# ids: 1=lib, 2=a, 3=text, 4=b, 5=text


def make_server(**config_kwargs):
    store = XMLStore.open(StoreConfig(**config_kwargs))
    store.load_document(BASE)
    return store, XMLServer(store)


def write_program(tag="w"):
    return [SessionOp("insert_into_last", 1, f"<{tag}>x</{tag}>")]


class TestAdmission:
    def test_submissions_beyond_the_slots_queue_up(self):
        store, server = make_server(server_max_sessions=2, server_max_queue_depth=4)
        first = server.submit(write_program("p"))
        second = server.submit(write_program("q"))
        third = server.submit(write_program("r"))
        assert server.sessions == [first, second]
        assert server.backlog == [third]
        assert server.stats.sessions_admitted == 2
        assert server.stats.sessions_queued == 1

    def test_full_backlog_sheds_with_an_error(self):
        store, server = make_server(server_max_sessions=1, server_max_queue_depth=1)
        server.submit(write_program("p"))
        server.submit(write_program("q"))
        with pytest.raises(SessionLimitError):
            server.submit(write_program("r"))
        assert server.stats.sessions_shed == 1
        assert server.stats.sessions_submitted == 3

    def test_shed_session_never_runs(self):
        store, server = make_server(server_max_sessions=1, server_max_queue_depth=0)
        server.submit(write_program("p"))
        try:
            server.submit(write_program("dropped"))
        except SessionLimitError:
            pass
        report = server.run()
        assert report.outcomes == {1: "committed"}
        assert "dropped" not in store.read()

    def test_retire_finished_keeps_only_unfinished_sessions(self):
        store, server = make_server()
        done = server.submit(write_program("p"))
        report = server.run()
        assert report.outcomes == {1: "committed"}  # a run's report sees it
        pending = server.submit(write_program("q"))
        server.retire_finished()
        assert done.finished and server.sessions == [pending]
        assert server.run().outcomes == {2: "committed"}
        assert server.stats.sessions_committed == 2

    def test_backlog_drains_as_slots_free_up(self):
        store, server = make_server(server_max_sessions=1, server_max_queue_depth=8)
        sessions = [server.submit(write_program(f"t{i}")) for i in range(4)]
        server.run()
        assert all(s.outcome == "committed" for s in sessions)
        assert server.stats.sessions_admitted == 4
        for i in range(4):
            assert f"<t{i}>" in store.read()


class TestOutcomes:
    def test_report_collects_outcomes_results_and_wal_counters(self):
        store, server = make_server()
        writer = server.submit(
            [SessionOp("insert_into_last", 1, "<c>three</c>"), SessionOp("read", 2)]
        )
        report = server.run()
        assert report.outcomes == {writer.session_id: "committed"}
        assert report.results[writer.session_id][1] == "<a>one</a>"
        assert report.stats["sessions_committed"] == 1
        assert report.sync_barriers == store.wal.sync_barriers
        data = report.to_dict()
        assert data["schema"] == "repro.server.report/v1"
        assert data["outcomes"] == {"1": "committed"}

    def test_explicit_abort_rolls_the_session_back(self):
        store, server = make_server()
        session = server.submit(
            [SessionOp("replace_content", 2, "DOOMED"), SessionOp("abort")]
        )
        server.run()
        assert session.outcome == "aborted"
        assert store.read() == BASE

    def test_store_error_aborts_only_the_failing_session(self):
        store, server = make_server()
        failing = server.submit(
            [
                SessionOp("replace_content", 2, "LOST"),
                SessionOp("delete_node", 999),
            ]
        )
        healthy = server.submit(write_program("ok"))
        server.run()
        assert failing.outcome == "error"
        assert "NodeNotFoundError" in failing.error
        assert healthy.outcome == "committed"
        assert "LOST" not in store.read()
        assert "<ok>" in store.read()
        assert server.stats.errors == 1

    def test_deadlock_victim_is_deterministic(self):
        def run_once():
            store, server = make_server()
            program = [SessionOp("read", 2), SessionOp("replace_content", 2, "MINE")]
            first = server.submit(list(program))
            second = server.submit(list(program))
            # strict alternation: both take S on the hot range, then both
            # try to widen to X — the second widening closes the cycle
            server.run(script=[0, 1] * 32)
            return first.outcome, second.outcome, server.stats.deadlocks

        outcomes = run_once()
        assert outcomes == run_once()  # same script, same victim
        first_outcome, second_outcome, deadlocks = outcomes
        assert deadlocks == 1
        assert sorted([first_outcome, second_outcome]) == ["committed", "deadlock"]

    def test_lock_wait_suspends_and_resumes_the_loser(self):
        store, server = make_server()
        first = server.submit(
            [SessionOp("replace_content", 2, "FIRST"), SessionOp("read", 4)]
        )
        second = server.submit([SessionOp("replace_content", 2, "SECOND")])
        server.run(script=[0, 1] * 64)
        assert first.outcome == "committed"
        assert second.outcome == "committed"
        assert server.stats.lock_waits >= 1
        # strict 2PL: the waiter ran after the holder committed
        assert "SECOND" in store.read()


class TestGroupCommitReporting:
    def test_report_shows_batched_commits(self):
        store, server = make_server(server_group_commit_max_batch=8)
        sessions = [server.submit(write_program(f"g{i}")) for i in range(3)]
        report = server.run()
        assert all(s.durable for s in sessions)
        assert report.group_commits >= 1
        assert sum(report.group_commit_batches) == 3

    def test_per_commit_mode_reports_no_groups(self):
        store, server = make_server(server_group_commit=False)
        [server.submit(write_program(f"g{i}")) for i in range(3)]
        report = server.run()
        assert report.group_commits == 0
        assert report.group_commit_batches == []

    def test_read_only_commit_skips_the_durability_wait(self):
        store, server = make_server()
        reader = server.submit([SessionOp("read")], read_only=True)
        writer_without_changes = server.submit([SessionOp("read", 2)])
        server.run()
        assert reader.outcome == "committed"
        assert writer_without_changes.outcome == "committed"
        # nothing was written: no commit frames, no barriers paid
        assert store.wal.group_commits == 0


class TestDeterminism:
    def test_same_script_gives_identical_traces(self):
        def run_once():
            store, server = make_server()
            server.submit(write_program("p"))
            server.submit(write_program("q"))
            report = server.run(script=[1, 0, 1, 1, 0, 0] * 8)
            return report.trace, store.wal.to_bytes(), store.read()

        assert run_once() == run_once()

    def test_seeded_runs_are_reproducible(self):
        def run_once(seed):
            store, server = make_server()
            server.submit(write_program("p"))
            server.submit(write_program("q"))
            report = server.run(seed=seed)
            return report.to_dict()

        assert run_once(5) == run_once(5)


class TestSessionValidation:
    def test_unknown_writer_op_is_rejected(self):
        store, server = make_server()
        server.submit([SessionOp("defragment")])
        # a malformed program is a harness bug, not a session outcome:
        # it surfaces loudly instead of silently aborting
        with pytest.raises(ConcurrencyError):
            server.run()

    def test_reader_program_rejects_mutations(self):
        store, server = make_server()
        server.submit(
            [SessionOp("insert_into_last", 1, "<x>no</x>")], read_only=True
        )
        with pytest.raises(ConcurrencyError):
            server.run()
        assert store.read() == BASE
