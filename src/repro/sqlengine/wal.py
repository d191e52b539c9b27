"""The write-ahead log: record framing, encoding, and the durability manager.

Durability is **opt-in** (``Database.attach_durability`` /
``Database.open`` / ``TemporalStratum.open``) and mirrors the tracing
design: while detached, every storage primitive pays one attribute load
(``txn.wal is None``) and nothing else.

When attached, the same primitives that feed the undo log also append a
*redo* record describing the mutation to an in-memory buffer on this
manager.  The buffer follows the transaction manager's mark discipline:

* rolling back to a mark truncates the buffer to the mark's position,
  so an aborted statement (or savepoint window) never reaches disk;
* releasing the last mark outside an explicit transaction — the
  autocommit commit point — frames the buffered records between
  ``begin``/``commit`` markers and appends them to the WAL file in one
  write, followed by one ``fsync`` (group commit);
* explicit ``COMMIT`` does the same for the whole transaction;
  ``ROLLBACK`` discards the buffer and writes nothing.

On-disk format (``wal.log`` inside the database directory): a sequence
of length-prefixed, CRC-checksummed frames::

    <u32 payload length> <u32 crc32(payload)> <payload bytes>

The payload is a JSON array ``[tag, ...args]``; values are encoded with
:func:`encode_value` (NULL ↔ ``null``, DATE ↔ ``{"d": ordinal}``).
The first frame of every WAL file is a ``["walhdr", generation]``
header; a checkpoint bumps the generation so a crash between snapshot
rename and WAL reset can never double-apply a stale log (see
:mod:`repro.sqlengine.checkpoint`).  Recovery semantics live in
:mod:`repro.sqlengine.recovery`.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Optional, Union

from repro.sqlengine.errors import DurabilityError  # noqa: F401  (re-export)
from repro.sqlengine.errors import ExecutionError
from repro.sqlengine.resilience import retry_durable
from repro.sqlengine.values import Date, Null

WAL_FILE = "wal.log"
SNAPSHOT_FILE = "snapshot.json"

_FRAME_HEADER = struct.Struct("<II")
# anything larger than this is treated as a corrupt length prefix
MAX_RECORD_BYTES = 64 * 1024 * 1024

# default auto-checkpoint threshold: once the WAL grows past this many
# bytes, the next commit triggers a checkpoint (None disables)
DEFAULT_AUTO_CHECKPOINT_BYTES = 8 * 1024 * 1024


class WalError(ExecutionError):
    """A durability-layer failure (bad directory, closed manager, ...)."""


# ---------------------------------------------------------------------------
# value / record encoding
# ---------------------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """One SQL cell value → a JSON-representable form."""
    if value is Null:
        return None
    if isinstance(value, Date):
        return {"d": value.ordinal}
    if isinstance(value, (bool, int, float, str)):
        return value
    raise WalError(f"cannot encode value of type {type(value).__name__} for WAL")


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if value is None:
        return Null
    if isinstance(value, dict):
        return Date(value["d"])
    return value


def encode_row(row: list) -> list:
    return [encode_value(v) for v in row]


def decode_row(row: list) -> list:
    return [decode_value(v) for v in row]


def encode_rows_columnar(rows: list) -> dict:
    """A whole row set → transposed (columnar) JSON.

    ``{"n": row_count, "cols": [{"k": kind, "v": values}, ...]}`` with
    one entry per column and NULL encoded as ``null`` throughout:

    * ``"d"`` — day ordinals (plain ints): every non-NULL cell is a Date,
    * ``"v"`` — raw JSON scalars (bool/int/float/str),
    * ``"m"`` — mixed: cells via :func:`encode_value` (Date-dict form).

    Against the row-list encoding this drops the per-cell ``{"d": ...}``
    wrapper for date columns — the bulk of temporal checkpoint volume —
    and lets homogeneous columns serialize as flat scalar arrays.
    """
    if not rows:
        return {"n": 0, "cols": []}
    cols = []
    for index in range(len(rows[0])):
        values = [row[index] for row in rows]
        dates = 0
        scalars = 0
        for value in values:
            if value is Null:
                continue
            if isinstance(value, Date):
                dates += 1
            elif isinstance(value, (bool, int, float, str)):
                scalars += 1
            else:
                raise WalError(
                    f"cannot encode value of type {type(value).__name__} for WAL"
                )
        if dates and not scalars:
            kind = "d"
            encoded = [None if v is Null else v.ordinal for v in values]
        elif not dates:
            kind = "v"
            encoded = [None if v is Null else v for v in values]
        else:
            kind = "m"
            encoded = [encode_value(v) for v in values]
        cols.append({"k": kind, "v": encoded})
    return {"n": len(rows), "cols": cols}


def decode_rows_columnar(data: dict) -> list:
    """Inverse of :func:`encode_rows_columnar`.  The per-row list an
    earlier format wrote is refused, not guessed at."""
    if not isinstance(data, dict):
        raise WalError("row set in the retired per-row layout")
    columns = []
    for col in data["cols"]:
        kind = col["k"]
        values = col["v"]
        if kind == "d":
            columns.append([Null if v is None else Date(v) for v in values])
        elif kind == "v":
            columns.append([Null if v is None else v for v in values])
        else:
            columns.append([decode_value(v) for v in values])
    if not columns:
        return []
    return [list(cells) for cells in zip(*columns)]


def frame(payload: bytes) -> bytes:
    """One length-prefixed, CRC-checksummed WAL frame."""
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def encode_record(record: list) -> bytes:
    return json.dumps(record, separators=(",", ":")).encode("utf-8")


def read_frames(data: bytes) -> tuple[list[list], list[int]]:
    """Decode frames from raw WAL bytes.

    Returns ``(records, ends)``: ``ends[i]`` is the offset just past
    ``records[i]``'s frame, so the last end (0 when nothing decoded) is
    the end of the intact prefix.  Scanning stops at the first torn
    (short) frame, checksum mismatch, implausible length prefix, or
    undecodable payload — truncate-at-first-bad-record semantics.
    """
    records: list[list] = []
    ends: list[int] = []
    offset = 0
    size = len(data)
    while offset + _FRAME_HEADER.size <= size:
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            break
        start = offset + _FRAME_HEADER.size
        end = start + length
        if end > size:
            break  # torn final record
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break  # corrupt record
        try:
            record = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            break
        if not isinstance(record, list) or not record:
            break
        records.append(record)
        ends.append(end)
        offset = end
    return records, ends


# ---------------------------------------------------------------------------
# the durability manager
# ---------------------------------------------------------------------------


class DurabilityManager:
    """Owns one database directory: ``wal.log`` plus ``snapshot.json``.

    Created by :meth:`repro.sqlengine.engine.Database.attach_durability`;
    holds the redo buffer the storage/catalog/registry primitives append
    to, and the open WAL file handle commits are flushed to.
    """

    def __init__(
        self,
        db,
        path: Union[str, Path],
        sync: bool = True,
        auto_checkpoint_bytes: Optional[int] = DEFAULT_AUTO_CHECKPOINT_BYTES,
    ) -> None:
        self.db = db
        self.dir = Path(path)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.sync = sync
        self.auto_checkpoint_bytes = auto_checkpoint_bytes
        self.buffer = []  # encoded records awaiting commit (per-txn)
        self.generation = 0
        self.txn_counter = 0
        self.replaying = False
        self.closed = False
        self._file = None  # append handle, opened after recovery
        # temporal-stratum integration (None for engine-only databases)
        self.stratum = None
        self.registries: dict[str, Any] = {}
        self.obs = db.obs

    # -- redo buffer ----------------------------------------------------

    # The buffer lives on the *active transaction*, not the manager:
    # each session accumulates its own uncommitted redo records, so one
    # session's commit never flushes another's in-flight writes.  With a
    # single session this is exactly the old manager-owned list.
    @property
    def buffer(self) -> list:
        return self.db.txn.redo

    @buffer.setter
    def buffer(self, records: list) -> None:
        self.db.txn.redo = records

    # -- paths ----------------------------------------------------------

    @property
    def wal_path(self) -> Path:
        return self.dir / WAL_FILE

    @property
    def snapshot_path(self) -> Path:
        return self.dir / SNAPSHOT_FILE

    # -- stratum binding ------------------------------------------------

    def bind_stratum(self, stratum) -> None:
        """Attach a temporal stratum: its registries get WAL dimensions
        so registrations are logged and replayable."""
        self.stratum = stratum
        self.registries = {"vt": stratum.registry, "tt": stratum.tt_registry}
        stratum.registry.wal_dim = "vt"
        stratum.tt_registry.wal_dim = "tt"

    # -- buffer management (driven by TransactionManager) ---------------

    def position(self) -> int:
        return len(self.buffer)

    def discard_buffer_from(self, position: int) -> None:
        """Discard records buffered after ``position`` (rollback)."""
        del self.buffer[position:]

    def commit_buffered(self) -> None:
        """Flush the buffer as one committed transaction (group commit)."""
        if not self.buffer or self.closed:
            return
        self.txn_counter += 1
        records = (
            [["begin", self.txn_counter]]
            + self.buffer
            + [["commit", self.txn_counter, self.db.now.ordinal]]
        )
        self.buffer = []
        data = b"".join(frame(encode_record(r)) for r in records)
        fault_plan = self.db.txn.fault_plan

        # both steps run under bounded-backoff retry: transient OSErrors
        # (EINTR/ENOSPC-style, injectable at the wal.write / wal.fsync
        # fault sites) are absorbed and counted under wal.retries;
        # exhaustion or a non-transient error raises a typed
        # DurabilityError.  Injected FaultInjected crashes pass through
        # untouched.
        start = self._file.tell()

        def _write() -> None:
            if fault_plan is not None:
                fault_plan.hit("wal.write", "wal")
            if self._file.tell() != start:
                # a failed earlier attempt left partial bytes behind;
                # cut back so the retry cannot duplicate frames (the
                # handle is O_APPEND, so writes land at the new end)
                self._file.truncate(start)
            self._file.write(data)
            self._file.flush()

        def _sync() -> None:
            if fault_plan is not None:
                # fires between write and fsync — the "crash before the
                # log reached disk" point the crash-matrix tests kill at
                fault_plan.hit("wal.fsync", "wal")
            if self.sync:
                os.fsync(self._file.fileno())

        retry_durable("wal.write", self.wal_path, _write, obs=self.obs)
        retry_durable("wal.fsync", self.wal_path, _sync, obs=self.obs)
        self.obs.inc("wal.records_written", len(records))
        self.obs.inc("wal.bytes", len(data))
        self.obs.inc("wal.fsyncs", 1)
        self.obs.inc("wal.commits", 1)
        self.auto_checkpoint()

    def auto_checkpoint(self) -> None:
        """Checkpoint once the WAL has outgrown ``auto_checkpoint_bytes``
        — deferred while a transaction is open: an explicit COMMIT
        flushes before it closes, and calls this again once it has."""
        txn = self.db.txn
        if (
            self.auto_checkpoint_bytes is not None
            and not (txn.explicit or txn.marks)
            and self._file.tell() >= self.auto_checkpoint_bytes
        ):
            self.checkpoint()

    def log_now(self, ordinal: int) -> None:
        """Record a CURRENT_DATE change; its own commit when idle."""
        if self.replaying or self.closed:
            return
        self.buffer.append(["now", ordinal])
        txn = self.db.txn
        if not txn.marks and not txn.explicit:
            self.commit_buffered()

    # -- record constructors (called from the mutation primitives) ------

    def record_insert(self, table: str, row: list) -> None:
        self.buffer.append(["ins", table, encode_row(row)])

    def record_update(self, table: str, position: int, pairs: list) -> None:
        self.buffer.append(
            ["upd", table, position, [[i, encode_value(v)] for i, v in pairs]]
        )

    def record_delete(self, table: str, positions: list[int]) -> None:
        self.buffer.append(["delpos", table, positions])

    def record_set_rows(self, table: str, rows: list) -> None:
        self.buffer.append(["setrows", table, encode_rows_columnar(rows)])

    def record_add_column(self, table: str, column, default: Any) -> None:
        self.buffer.append(
            ["addcol", table, _encode_column(column), encode_value(default)]
        )

    def record_create_table(self, table) -> None:
        self.buffer.append(
            [
                "mktable",
                table.name,
                [_encode_column(c) for c in table.columns],
                encode_rows_columnar(table.rows),
            ]
        )

    def record_drop_table(self, name: str) -> None:
        self.buffer.append(["rmtable", name])

    def record_view(self, name: str, sql: str) -> None:
        self.buffer.append(["mkview", name, sql])

    def record_drop_view(self, name: str) -> None:
        self.buffer.append(["rmview", name])

    def record_routine(self, sql: str) -> None:
        self.buffer.append(["mkroutine", sql])

    def record_drop_routine(self, name: str) -> None:
        self.buffer.append(["rmroutine", name])

    def record_stratum_routine(self, sql: str) -> None:
        """A routine registered through the stratum, stored in original
        (pre-rewrite) form so recovery can rebuild the stratum's
        nonsequenced-only bookkeeping."""
        self.buffer.append(["troutine", sql])

    def record_registry(self, dim: str, info) -> None:
        self.buffer.append(
            ["reg", dim, info.name, info.begin_column, info.end_column]
        )

    def record_unregistry(self, dim: str, name: str) -> None:
        self.buffer.append(["unreg", dim, name])

    # -- file lifecycle -------------------------------------------------

    def open_for_append(self) -> None:
        """(Re)open the WAL for appending; write a header when empty."""
        if self._file is not None:
            self._file.close()
        fresh = not self.wal_path.exists() or self.wal_path.stat().st_size == 0
        self._file = open(self.wal_path, "ab")
        if fresh:
            self._file.write(frame(encode_record(["walhdr", self.generation])))
            self._file.flush()
            if self.sync:
                os.fsync(self._file.fileno())

    def reset_wal(self, generation: int) -> None:
        """Truncate the WAL and stamp a new generation header."""
        if self._file is not None:
            self._file.close()
        self.generation = generation
        self._file = open(self.wal_path, "wb")
        self._file.write(frame(encode_record(["walhdr", generation])))
        self._file.flush()
        if self.sync:
            os.fsync(self._file.fileno())

    def cut_wal_to(self, offset: int) -> None:
        """Cut the WAL back to ``offset`` (drop a corrupt/uncommitted tail)."""
        if self._file is not None:
            self._file.close()
            self._file = None
        with open(self.wal_path, "r+b") as handle:
            handle.truncate(offset)
            handle.flush()
            os.fsync(handle.fileno())

    def wal_size(self) -> int:
        if self._file is not None:
            return self._file.tell()
        return self.wal_path.stat().st_size if self.wal_path.exists() else 0

    def checkpoint(self) -> int:
        """Snapshot everything and truncate the WAL; returns the new
        generation.  Not allowed mid-transaction."""
        from repro.sqlengine.checkpoint import write_checkpoint

        txn = self.db.txn
        if txn.explicit or txn.marks:
            raise WalError("cannot checkpoint inside an open transaction")
        self.commit_buffered()
        return write_checkpoint(self)

    def close(self, checkpoint: bool = True) -> None:
        """Flush (and by default checkpoint) before detaching."""
        if self.closed:
            return
        self.commit_buffered()
        if checkpoint:
            self.checkpoint()
        if self._file is not None:
            self._file.close()
            self._file = None
        self.closed = True


def _encode_column(column) -> list:
    type_ = column.type
    return [
        column.name,
        [type_.name, type_.length, type_.precision, type_.scale],
        column.not_null,
        column.primary_key,
    ]


def decode_column(data: list):
    from repro.sqlengine.storage import Column
    from repro.sqlengine.types import SqlType

    name, (type_name, length, precision, scale), not_null, primary_key = data
    return Column(
        name,
        SqlType(type_name, length=length, precision=precision, scale=scale),
        not_null=not_null,
        primary_key=primary_key,
    )
