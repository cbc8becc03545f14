"""Asyncio socket adapter (repro.server.netadapter): the deterministic
core served over a real TCP socket, exercised with the blocking one-shot
client the CLI uses.
"""

import asyncio
import json
import socket
import threading

import pytest

from repro.core.store import XMLStore
from repro.server.netadapter import AsyncXMLServer, client_request
from repro.server.sessions import SessionOp, XMLServer

BASE = "<lib><a>one</a><b>two</b></lib>"


class ServerThread:
    """Run one AsyncXMLServer on a private event loop in a thread."""

    def __init__(self):
        store = XMLStore.open()
        store.load_document(BASE)
        self.store = store
        self.adapter = AsyncXMLServer(XMLServer(store))
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._serve())

    async def _serve(self):
        await self.adapter.start()
        self._ready.set()
        await self.adapter.serve_until_shutdown()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=10), "server did not come up"
        return self

    def __exit__(self, *exc_info):
        if self._thread.is_alive():
            try:
                client_request("127.0.0.1", self.adapter.port, {"cmd": "shutdown"})
            except OSError:  # pragma: no cover - already down
                pass
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()

    def request(self, payload):
        return client_request("127.0.0.1", self.adapter.port, payload)


def test_ping_round_trip():
    with ServerThread() as server:
        assert server.request({"cmd": "ping"}) == {"ok": True, "pong": True}


def test_writer_session_commits_over_the_wire():
    with ServerThread() as server:
        response = server.request(
            {
                "cmd": "session",
                "ops": [
                    {"op": "insert_into_last", "node_id": 1, "xml": "<c>three</c>"},
                    {"op": "read", "node_id": 2},
                ],
            }
        )
        assert response["ok"] is True
        assert response["outcome"] == "committed"
        assert isinstance(response["results"][0], int)  # the new node's id
        assert response["results"][1] == "<a>one</a>"
        assert "<c>three</c>" in server.store.read()


def test_read_only_session_uses_a_snapshot():
    with ServerThread() as server:
        response = server.request(
            {"cmd": "session", "read_only": True, "ops": [{"op": "read"}]}
        )
        assert response["ok"] is True
        assert response["results"] == [BASE]
        stats = server.request({"cmd": "stats"})
        assert stats["stats"]["snapshot_reads"] == 1


def test_failing_session_reports_its_error():
    with ServerThread() as server:
        response = server.request(
            {
                "cmd": "session",
                "ops": [{"op": "delete_node", "node_id": 999}],
            }
        )
        assert response["ok"] is False
        assert response["outcome"] == "error"
        assert "NodeNotFoundError" in response["error"]


def test_stats_exposes_server_and_wal_counters():
    with ServerThread() as server:
        server.request(
            {
                "cmd": "session",
                "ops": [{"op": "insert_into_last", "node_id": 1, "xml": "<x>y</x>"}],
            }
        )
        stats = server.request({"cmd": "stats"})
        assert stats["ok"] is True
        assert stats["stats"]["sessions_committed"] == 1
        assert stats["wal"]["appends"] >= 1
        assert stats["requests_served"] == 2
        assert stats["batches_driven"] == 1


def test_unknown_command_is_rejected():
    with ServerThread() as server:
        response = server.request({"cmd": "defragment"})
        assert response["ok"] is False
        assert "unknown cmd" in response["error"]


def test_malformed_line_gets_a_bad_request_reply():
    with ServerThread() as server:
        with socket.create_connection(
            ("127.0.0.1", server.adapter.port), timeout=10
        ) as conn:
            conn.sendall(b"this is not json\n")
            raw = conn.makefile().readline()
        response = json.loads(raw)
        assert response["ok"] is False
        assert "bad request" in response["error"]


def test_shutdown_command_stops_the_loop():
    server = ServerThread()
    with server:
        response = server.request({"cmd": "shutdown"})
        assert response == {"ok": True, "stopping": True}
        server._thread.join(timeout=10)
        assert not server._thread.is_alive()


def test_long_lived_server_retires_answered_sessions():
    """A served request must not cost O(requests served so far): the
    adapter drops a batch's finished sessions once it has answered them.
    The answers are those of a server that forgets nothing."""
    requests = []
    for index in range(300):
        if index % 3 == 0:
            op = {"op": "insert_into_last", "node_id": 1, "xml": f"<n>{index}</n>"}
        elif index % 3 == 1:
            op = {"op": "read", "node_id": 2}
        else:
            op = {"op": "delete_node", "node_id": 10_000 + index}  # fails
        requests.append({"cmd": "session", "ops": [op]})

    # the same programs through a one-shot style server that keeps them all
    store = XMLStore.open()
    store.load_document(BASE)
    keeper = XMLServer(store)
    expected = []
    for request in requests:
        session = keeper.submit([SessionOp.from_dict(op) for op in request["ops"]])
        keeper.run(seed=0)
        expected.append(
            {
                "ok": session.outcome == "committed",
                "session": session.session_id,
                "outcome": session.outcome,
                "results": session.results,
                "error": session.error,
            }
        )
    assert len(keeper.sessions) == 300

    with ServerThread() as server:
        high_water = 0
        for request, want in zip(requests, expected):
            assert server.request(request) == want
            high_water = max(high_water, len(server.adapter.server.sessions))
        # sequential single-op requests: every batch is one session
        assert high_water <= 1
        assert server.adapter.server.active_sessions == 0
        stats = server.request({"cmd": "stats"})["stats"]
        assert stats["sessions_submitted"] == 300
        assert stats["sessions_committed"] == keeper.stats.sessions_committed == 200
        assert server.store.read() == store.read()
