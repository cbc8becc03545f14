"""Asyncio socket adapter: the deterministic core, served for real.

The cooperative scheduler is synchronous on purpose — determinism comes
from owning every interleaving decision.  This adapter is the thin
bridge to actual concurrency: connections speak newline-delimited JSON,
their session programs are collected into batches, and a single driver
task feeds each batch to :meth:`XMLServer.run`.  Requests that arrive
together are multiplexed through one scheduler run, so real concurrent
clients share group-commit barriers exactly like logical sessions do.

Protocol (one JSON object per line, response mirrors request order):

* ``{"cmd": "session", "read_only": false, "ops": [{"op": "read",
  "node_id": 1}]}`` → ``{"ok": true, "session": N, "outcome":
  "committed", "results": [...]}``
* ``{"cmd": "stats"}`` → server counters + WAL group-commit counters
* ``{"cmd": "ping"}`` → ``{"ok": true, "pong": true}``
* ``{"cmd": "shutdown"}`` → acks, then stops the server loop
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError, ServerUnavailableError, SessionLimitError
from repro.server.sessions import SessionOp, XMLServer


def _jsonable(value):
    """Session results may hold tuples or store objects; wire-safe them."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return str(value)


class AsyncXMLServer:
    """Serves one :class:`XMLServer` over a TCP socket."""

    def __init__(
        self,
        server: XMLServer,
        host: str = "127.0.0.1",
        port: int = 0,
        seed: int = 0,
    ) -> None:
        self.server = server
        self.host = host
        self.port = port
        self.seed = seed
        self.requests_served = 0
        self.batches_driven = 0
        self._queue: "asyncio.Queue[Tuple[dict, asyncio.Future]]" = asyncio.Queue()
        self._stop = asyncio.Event()
        self._sock_server: Optional[asyncio.AbstractServer] = None
        self._driver_task: Optional[asyncio.Task] = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        self._sock_server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._sock_server.sockets[0].getsockname()[1]
        self._driver_task = asyncio.ensure_future(self._driver())

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` request arrives."""
        if self._sock_server is None:
            await self.start()
        await self._stop.wait()
        await self.stop()

    async def stop(self) -> None:
        self._stop.set()
        if self._driver_task is not None:
            self._driver_task.cancel()
            try:
                await self._driver_task
            except asyncio.CancelledError:
                pass
            self._driver_task = None
        if self._sock_server is not None:
            self._sock_server.close()
            await self._sock_server.wait_closed()
            self._sock_server = None

    # -- the driver: batches of sessions through one scheduler run -------------

    async def _driver(self) -> None:
        while True:
            first = await self._queue.get()
            batch = [first]
            while not self._queue.empty():
                batch.append(self._queue.get_nowait())
            submitted: List[Tuple[object, asyncio.Future]] = []
            for request, future in batch:
                try:
                    ops = [SessionOp.from_dict(op) for op in request.get("ops", [])]
                    session = self.server.submit(
                        ops, read_only=bool(request.get("read_only", False))
                    )
                except SessionLimitError as exc:
                    if not future.done():
                        future.set_result(
                            {"ok": False, "outcome": "shed", "error": str(exc)}
                        )
                    continue
                submitted.append((session, future))
            if submitted:
                try:
                    self.server.run(seed=self.seed)
                except ReproError as exc:
                    for session, future in submitted:
                        if not future.done():
                            future.set_result({"ok": False, "error": str(exc)})
                    continue
                self.batches_driven += 1
            for session, future in submitted:
                if not future.done():
                    future.set_result(
                        {
                            "ok": session.outcome == "committed",
                            "session": session.session_id,
                            "outcome": session.outcome,
                            "results": [_jsonable(r) for r in session.results],
                            "error": session.error,
                        }
                    )
            self.server.retire_finished()

    # -- connections -----------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as exc:
                    response = {"ok": False, "error": f"bad request: {exc}"}
                else:
                    response = await self._respond(request)
                writer.write((json.dumps(response, sort_keys=True) + "\n").encode())
                await writer.drain()
                if isinstance(request, dict) and request.get("cmd") == "shutdown":
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _respond(self, request: dict) -> dict:
        self.requests_served += 1
        command = request.get("cmd")
        if command == "ping":
            return {"ok": True, "pong": True}
        if command == "stats":
            wal = self.server.store.wal
            return {
                "ok": True,
                "stats": self.server.stats.to_dict(),
                "wal": {
                    "group_commits": wal.group_commits,
                    "group_commit_batches": list(wal.group_commit_batches),
                    "sync_barriers": wal.sync_barriers,
                    "appends": wal.appends,
                },
                "requests_served": self.requests_served,
                "batches_driven": self.batches_driven,
            }
        if command == "shutdown":
            self._stop.set()
            return {"ok": True, "stopping": True}
        if command == "session":
            future: asyncio.Future = asyncio.get_event_loop().create_future()
            await self._queue.put((request, future))
            return await future
        return {"ok": False, "error": f"unknown cmd {command!r}"}


def _attempt_request(host: str, port: int, payload: dict, timeout: float) -> dict:
    """One connection, one request line, one response line."""
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall((json.dumps(payload) + "\n").encode())
        chunks: List[bytes] = []
        while True:
            data = conn.recv(65536)
            if not data:
                break
            chunks.append(data)
            if data.endswith(b"\n"):
                break
    raw = b"".join(chunks)
    if not raw:
        # the server died between accept and respond: surface it as a
        # connection-class failure so the retry loop reconnects
        raise ConnectionError("server closed the connection without responding")
    return json.loads(raw.decode())


def client_request(
    host: str,
    port: int,
    payload: dict,
    timeout: float = 10.0,
    retries: int = 0,
    retry_backoff: float = 0.1,
) -> dict:
    """Blocking one-shot client with capped reconnect.

    A refused, dropped or half-finished connection is retried up to
    ``retries`` times on a fresh socket, backing off ``retry_backoff *
    2**(attempt-1)`` wall seconds between attempts (via the sanctioned
    :func:`repro.obs.clock.sleep` — the server being restarted really
    does take wall time to come back).  Requests are whole lines over
    fresh connections, so a retry can at worst re-submit an idempotent
    read or re-run a session the server never acknowledged — the same
    at-least-once contract every line-oriented retrying client has.
    Exhausting the budget raises the typed
    :class:`repro.errors.ServerUnavailableError` (exit 1).
    """
    from repro.obs.clock import sleep

    attempts = max(1, retries + 1)
    failure: Optional[Exception] = None
    for attempt in range(1, attempts + 1):
        try:
            return _attempt_request(host, port, payload, timeout)
        except (ConnectionError, socket.timeout, OSError) as exc:
            failure = exc
            if attempt < attempts:
                sleep(retry_backoff * 2 ** (attempt - 1))
    raise ServerUnavailableError(
        f"server {host}:{port} unreachable after {attempts} attempt(s): "
        f"{failure}",
        attempts=attempts,
    )
