"""Asyncio client library for the repro wire protocol.

::

    client = await ReproClient.connect("127.0.0.1", 7878)
    await client.execute("BEGIN")
    result = await client.execute("VALIDTIME SELECT name FROM author")
    print(result.rows, client.last_snapshot)
    await client.execute("COMMIT")
    await client.close()

Engine errors arrive as :class:`ServerError` with the originating
``sqlstate`` (``'40001'`` for a serialization failure the caller
should retry).

**Reconnection.** Every request carries a monotonically increasing
request id (``rid``) that the server echoes, so a response can never be
attributed to the wrong request.  When the connection drops, the client
reconnects with bounded jittered backoff and — *only* for requests that
are safe to repeat (pings, session settings, read-only statements
outside an explicit transaction) — resends the same request under the
same rid.  Anything else surfaces as :class:`ConnectionLostError`
instead of a raw ``ConnectionError``, and a drop inside an open
transaction always does: the server-side session (and its open
transaction) died with the link, which no retry can hide.
"""

from __future__ import annotations

import asyncio
import random
import re
from typing import Any, Optional

from repro.server.protocol import (
    ClientResult,
    ConnectionClosed,
    FrameError,
    FramedReader,
    decode_result,
    encode_frame,
)

__all__ = [
    "ClientResult",
    "ConnectionLostError",
    "ReproClient",
    "ServerError",
]

# reconnection: retries of a request safe to resend, and the bounds of
# the jittered exponential backoff between them, in seconds
RECONNECT_ATTEMPTS = 5
RECONNECT_BASE_DELAY = 0.05
RECONNECT_MAX_DELAY = 1.0


class ServerError(Exception):
    """An error the server reported for one request."""

    def __init__(self, message: str, sqlstate: Optional[str] = None) -> None:
        super().__init__(message)
        self.sqlstate = sqlstate


class ConnectionLostError(ConnectionError):
    """The connection died and the request could not be safely retried
    (non-idempotent statement, open transaction, or retries exhausted)."""


# a statement is safe to resend iff it cannot have changed server state:
# plain or sequenced SELECTs (VALIDTIME UPDATE/DELETE deliberately do
# not match).  EXPLAIN is excluded: EXPLAIN ANALYZE executes.
_READ_ONLY_RE = re.compile(
    r"^\s*(?:NONSEQUENCED\s+)?(?:VALIDTIME|TRANSACTIONTIME)?"
    r"\s*(?:\[[^\]]*\])?\s*SELECT\b",
    re.IGNORECASE,
)


class ReproClient:
    """One connection = one server-side session (own MVCC snapshot)."""

    def __init__(
        self,
        reader,
        writer,
        *,
        host: Optional[str] = None,
        port: Optional[int] = None,
        reconnect: bool = True,
    ) -> None:
        self._framed = FramedReader(reader)
        self._writer = writer
        self._host = host
        self._port = port
        self._reconnect = reconnect and host is not None
        self._rng = random.Random()
        self._next_rid = 1
        self._in_txn = False
        # session settings, replayed onto a fresh connection so a
        # reconnected session behaves like the one that dropped
        self._settings: dict[str, Any] = {}
        # the csn the most recent statement read through
        self.last_snapshot: Optional[int] = None
        self.reconnects = 0

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        reconnect: bool = True,
    ) -> "ReproClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, host=host, port=port, reconnect=reconnect)

    # -- transport ------------------------------------------------------

    def _teardown_transport(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._writer = None
        self._framed = None

    async def _open_transport(self) -> None:
        reader, writer = await asyncio.open_connection(self._host, self._port)
        self._framed = FramedReader(reader)
        self._writer = writer
        self.reconnects += 1
        for key, value in self._settings.items():
            rid = self._next_rid
            self._next_rid += 1
            self._writer.write(
                encode_frame({"op": "set", key: value, "rid": rid})
            )
            await self._writer.drain()
            response = await self._framed.read()
            if response is None:
                raise ConnectionClosed("server closed the connection")
            if not response.get("ok"):
                raise ServerError(
                    response.get("error", "could not replay session settings"),
                    response.get("sqlstate"),
                )

    def _backoff(self, attempt: int) -> float:
        delay = min(RECONNECT_MAX_DELAY, RECONNECT_BASE_DELAY * (2 ** attempt))
        return delay * (0.5 + self._rng.random() / 2)  # full-ish jitter

    # -- request machinery ----------------------------------------------

    def _is_safe_to_retry(self, message: dict) -> bool:
        op = message.get("op")
        if op in ("ping", "set"):
            return True
        if op == "execute":
            return _READ_ONLY_RE.match(message.get("sql", "")) is not None
        return False

    async def request(
        self, message: dict, *, retryable: Optional[bool] = None
    ) -> dict:
        """Send one raw request, return the raw response dict.

        ``retryable`` overrides the built-in safe-to-resend detection.
        """
        rid = self._next_rid
        self._next_rid += 1
        message = dict(message)
        message["rid"] = rid
        can_retry = (
            self._reconnect
            and not self._in_txn
            and (
                retryable
                if retryable is not None
                else self._is_safe_to_retry(message)
            )
        )
        attempt = 0
        while True:
            try:
                if self._writer is None:
                    await self._open_transport()
                self._writer.write(encode_frame(message))
                await self._writer.drain()
                response = await self._framed.read()
                if response is None:
                    raise ConnectionClosed("server closed the connection")
                break
            except (ConnectionClosed, ConnectionError, OSError) as exc:
                self._teardown_transport()
                dropped_txn = self._in_txn
                self._in_txn = False  # the server-side session is gone
                if dropped_txn:
                    raise ConnectionLostError(
                        "connection dropped inside an open transaction;"
                        " its state is lost — reconnect and retry the"
                        f" whole transaction ({exc})"
                    ) from exc
                if not can_retry or attempt >= RECONNECT_ATTEMPTS:
                    raise ConnectionLostError(
                        f"connection lost and request is not retryable"
                        f" (or retries exhausted): {exc}"
                    ) from exc
                await asyncio.sleep(self._backoff(attempt))
                attempt += 1
        echoed = response.get("rid")
        if echoed is not None and echoed != rid:
            raise FrameError(
                f"response rid {echoed} does not match request rid {rid}"
            )
        if "in_txn" in response:
            # every execute response, errors included, carries whether
            # the server-side session holds an open transaction
            self._in_txn = response["in_txn"]
        return response

    async def _roundtrip(self, message: dict) -> Any:
        response = await self.request(message)
        if not response.get("ok"):
            raise ServerError(
                response.get("error", "unknown server error"),
                response.get("sqlstate"),
            )
        if "snapshot" in response:
            self.last_snapshot = response["snapshot"]
        return decode_result(response["result"]) if "result" in response else None

    # -- public API -----------------------------------------------------

    async def execute(self, sql: str) -> Any:
        """Run one statement; returns a :class:`ClientResult`, a row
        count, a list (CALL result sets), text, or ``None``."""
        return await self._roundtrip({"op": "execute", "sql": sql})

    async def set_timeout(self, seconds: Optional[float]) -> None:
        """Set (or with ``None`` clear) this session's statement
        deadline; other sessions are unaffected."""
        await self._roundtrip({"op": "set", "timeout": seconds})
        self._settings["timeout"] = seconds

    async def set_strategy(self, strategy: str) -> None:
        """Set this session's sequenced slicing strategy."""
        await self._roundtrip({"op": "set", "strategy": strategy})
        self._settings["strategy"] = strategy

    async def ping(self) -> None:
        await self._roundtrip({"op": "ping"})

    async def close(self) -> None:
        """Polite shutdown: quit, then close the transport."""
        if self._writer is None:
            return
        try:
            await self.request({"op": "quit"}, retryable=False)
        except (ConnectionError, FrameError, OSError):
            pass
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._writer = None
        self._framed = None

    async def __aenter__(self) -> "ReproClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
