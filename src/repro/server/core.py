"""The asyncio server: connections on the loop, statements on a worker.

One :class:`ReproServer` owns a listening socket and a single-thread
executor.  Connection handling (frame parsing, response writes) stays
on the event loop; every engine call — session open/close and
statement execution — is submitted to the worker, which serializes
them.  Concurrency comes from pipelining: while the worker runs one
client's statement, the loop keeps reading and queueing every other
client's requests, and MVCC snapshot isolation keeps those interleaved
statements consistent.

Shutdown is a graceful drain: stop accepting, close client transports
(an in-flight statement still completes on the worker), wait for the
handlers to finish their session teardown, then stop the worker.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Optional

from repro.sqlengine.errors import ExecutionError, SqlError
from repro.server.protocol import (
    FrameError,
    FramedReader,
    encode_frame,
    encode_result,
)
from repro.server.session import ServerSession


class ReproServer:
    """Serve a temporal stratum to concurrent wire clients."""

    def __init__(self, stratum, host: str = "127.0.0.1", port: int = 0) -> None:
        self.stratum = stratum
        self.db = stratum.db
        self.host = host
        self.port = port
        # all engine access funnels through this one thread: the engine
        # is not thread-safe, and the GIL would serialize CPU-bound
        # statement execution anyway
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-db"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._handlers: set = set()
        self._connections: set = set()
        self._session_seq = 0
        self._closing = False

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> tuple:
        """Bind and listen; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._client_connected, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Serve until ``stop`` is set, then drain and shut down."""
        await stop.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Graceful drain: no new connections, in-flight statements
        finish, sessions tear down, then the worker stops."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._connections):
            writer.close()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        self._worker.shutdown(wait=True)

    # -- connection handling ---------------------------------------------

    async def _db(self, fn, *args) -> Any:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._worker, fn, *args)

    async def _client_connected(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        self._connections.add(writer)
        try:
            await self._handle(reader, writer)
        finally:
            self._handlers.discard(task)
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def _handle(self, reader, writer) -> None:
        if self._closing:
            return
        self._session_seq += 1
        name = f"client-{self._session_seq}"
        framed = FramedReader(reader)
        try:
            session = await self._open_session(name)
        except ExecutionError as exc:
            await self._send(writer, {
                "ok": False, "error": str(exc), "sqlstate": None,
            })
            return
        try:
            while True:
                try:
                    request = await framed.read()
                except FrameError as exc:
                    # a torn or oversized frame poisons the stream:
                    # report once (with the stream offset the bad frame
                    # began at), then drop the connection
                    self.db.obs.inc("server.frame_errors", 1)
                    await self._send(writer, {
                        "ok": False, "error": str(exc), "sqlstate": None,
                    })
                    break
                if request is None:
                    break  # clean EOF
                response = await self._dispatch(session, request)
                if "rid" in request:
                    response["rid"] = request["rid"]
                if not await self._send(writer, response):
                    break
                if request.get("op") == "quit":
                    break
        finally:
            # disconnect tear-down: rolls back an open transaction and
            # releases the session's snapshot pin, no matter how the
            # connection ended
            await self._db(session.close)

    async def _send(self, writer, message: dict) -> bool:
        try:
            writer.write(encode_frame(message))
            await writer.drain()
            return True
        except FrameError as exc:
            # the *response* overflowed the frame cap: report a typed
            # error in its place instead of dying in the drain path
            fallback = {
                "ok": False,
                "error": f"response too large for the wire: {exc}",
                "sqlstate": "54000",
            }
            if "rid" in message:
                fallback["rid"] = message["rid"]
            try:
                writer.write(encode_frame(fallback))
                await writer.drain()
                return True
            except (ConnectionError, OSError):
                return False
        except (ConnectionError, OSError):
            return False

    async def _open_session(self, name: str) -> ServerSession:
        # registration needs the store quiescent only for the dormant →
        # multi-session transition; with the server owning all sessions
        # that window is tiny, so a short retry loop suffices
        for _ in range(200):
            try:
                return await self._db(ServerSession.open, self.stratum, name)
            except ExecutionError:
                await asyncio.sleep(0.005)
        raise ExecutionError(
            "could not register a session: writes stayed in flight"
        )

    # -- request dispatch ------------------------------------------------

    async def _dispatch(self, session: ServerSession, request: dict) -> dict:
        op = request.get("op")
        if op == "execute":
            response = await self._execute(session, request.get("sql"))
            # the client learns from this alone whether a transaction is
            # open, whatever verb opened, kept or ended it
            response["in_txn"] = session.txn.explicit
            return response
        if op == "set":
            try:
                kwargs = {}
                if "timeout" in request:
                    kwargs["timeout"] = request["timeout"]
                if "strategy" in request:
                    kwargs["strategy"] = request["strategy"]
                session.configure(**kwargs)
            except ValueError as exc:
                return {"ok": False, "error": str(exc), "sqlstate": None}
            return {"ok": True, "result": {"kind": "ok"}}
        if op == "ping":
            return {
                "ok": True,
                "result": {"kind": "ok"},
                "snapshot": self.db.mvcc.csn,
            }
        if op == "quit":
            return {"ok": True, "result": {"kind": "ok"}}
        return {
            "ok": False,
            "error": f"unknown op {op!r}",
            "sqlstate": None,
        }

    async def _execute(self, session: ServerSession, sql: Any) -> dict:
        if not isinstance(sql, str):
            return {
                "ok": False,
                "error": "execute needs a 'sql' string",
                "sqlstate": None,
            }
        try:
            result, snapshot = await self._db(session.run_statement, sql)
        except SqlError as exc:
            return {
                "ok": False,
                "error": str(exc),
                "sqlstate": getattr(exc, "sqlstate", None),
            }
        return {
            "ok": True,
            "result": encode_result(result),
            "snapshot": snapshot,
        }
