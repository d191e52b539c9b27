"""The wire protocol: length-prefixed JSON frames.

A frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON (always a JSON object).  Requests carry an ``op``
(``execute`` / ``set`` / ``ping`` / ``quit``); responses carry ``ok``
plus either an encoded ``result`` and the ``snapshot`` csn the
statement read through, or ``error`` text with its ``sqlstate``.

Cell values reuse the WAL's JSON coding (:func:`encode_value`), so a
:class:`~repro.sqlengine.values.Date` travels as ``{"d": ordinal}`` and
SQL NULL as JSON ``null`` — one codec for both persistence and wire.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Optional

from repro.sqlengine.executor import ResultSet
from repro.sqlengine.wal import decode_row, encode_row
from repro.temporal.stratum import TemporalResult

MAX_FRAME_BYTES = 8 * 1024 * 1024  # reject anything larger outright

_HEADER = struct.Struct(">I")


class FrameError(Exception):
    """A malformed, torn, or oversized frame.

    ``offset`` (when known) is the byte offset into the stream at which
    the offending frame began, so a malformed peer is diagnosable from
    the server log instead of leaving an opaque traceback in the drain
    path.
    """

    def __init__(self, message: str, offset: Optional[int] = None) -> None:
        if offset is not None:
            message = f"{message} (stream offset {offset})"
        super().__init__(message)
        self.offset = offset


class ConnectionClosed(FrameError):
    """The transport dropped: clean or torn EOF, or an I/O error.

    Distinguished from plain :class:`FrameError` (a *protocol*
    violation) so the client can tell "the link died — maybe retry"
    from "the peer is speaking garbage — don't".
    """


def encode_frame(message: dict) -> bytes:
    """One JSON object → length-prefixed bytes."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds the"
            f" {MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(payload)) + payload


class FramedReader:
    """A frame reader that tracks its cumulative stream offset.

    Short reads never surface here: ``StreamReader.readexactly``
    assembles full reads from partial ones, and the event loop retries
    ``EINTR``-interrupted syscalls internally (PEP 475).  What this
    wrapper adds is *attribution*: every torn, oversized, or
    undecodable frame raises :class:`FrameError` carrying the byte
    offset at which the bad frame began, and transport ``OSError``s
    surface as typed :class:`ConnectionClosed` instead of leaking
    asyncio tracebacks out of the server's drain path.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        max_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self._reader = reader
        self.max_bytes = max_bytes
        self.offset = 0  # bytes consumed from the stream so far

    async def read(self) -> Optional[dict]:
        """Read one frame; ``None`` on clean EOF between frames."""
        start = self.offset
        try:
            header = await self._reader.readexactly(_HEADER.size)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            self.offset += len(exc.partial)
            raise ConnectionClosed(
                "torn frame: connection closed mid-header", start
            ) from exc
        except OSError as exc:
            raise ConnectionClosed(
                f"connection I/O error: {exc}", start
            ) from exc
        self.offset += _HEADER.size
        (length,) = _HEADER.unpack(header)
        if length > self.max_bytes:
            raise FrameError(
                f"frame of {length} bytes exceeds the"
                f" {self.max_bytes}-byte limit",
                start,
            )
        try:
            payload = await self._reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            self.offset += len(exc.partial)
            raise ConnectionClosed(
                "torn frame: connection closed mid-payload", start
            ) from exc
        except OSError as exc:
            raise ConnectionClosed(
                f"connection I/O error: {exc}", start
            ) from exc
        self.offset += length
        try:
            message = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FrameError(
                f"frame payload is not valid JSON: {exc}", start
            ) from exc
        if not isinstance(message, dict):
            raise FrameError("frame payload must be a JSON object", start)
        return message


# -- result coding ---------------------------------------------------------


def encode_result(result: Any) -> dict:
    """One stratum result (DDL/DML/query/CALL) → a JSON-able envelope."""
    if result is None:
        return {"kind": "ok"}
    if isinstance(result, bool):  # before int: bool is an int subclass
        return {"kind": "text", "text": str(result)}
    if isinstance(result, int):
        return {"kind": "count", "count": result}
    if isinstance(result, TemporalResult):
        return {
            "kind": "temporal",
            "columns": list(result.columns),
            "rows": [encode_row(row) for row in result.rows],
        }
    if isinstance(result, ResultSet):
        return {
            "kind": "rows",
            "columns": list(result.columns),
            "rows": [encode_row(row) for row in result.rows],
        }
    if isinstance(result, list):  # CALL: a list of result sets
        return {"kind": "list", "items": [encode_result(r) for r in result]}
    return {"kind": "text", "text": str(result)}


def decode_result(payload: dict) -> Any:
    """Inverse of :func:`encode_result`, into client-side objects."""
    kind = payload.get("kind")
    if kind == "ok":
        return None
    if kind == "count":
        return payload["count"]
    if kind in ("rows", "temporal"):
        return ClientResult(
            kind,
            list(payload["columns"]),
            [decode_row(row) for row in payload["rows"]],
        )
    if kind == "list":
        return [decode_result(item) for item in payload["items"]]
    if kind == "text":
        return payload["text"]
    raise FrameError(f"unknown result kind {kind!r}")


class ClientResult:
    """A decoded query result: columns plus rows of SQL values.

    ``kind`` distinguishes plain (``rows``) from sequenced
    (``temporal``, last two columns are the validity period) results.
    """

    __slots__ = ("kind", "columns", "rows")

    def __init__(self, kind: str, columns: list, rows: list) -> None:
        self.kind = kind
        self.columns = columns
        self.rows = rows

    def scalar(self) -> Any:
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ValueError("result is not a single scalar")
        return self.rows[0][0]

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return (
            f"ClientResult({self.kind}, columns={self.columns},"
            f" rows={len(self.rows)})"
        )
