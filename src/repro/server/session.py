"""One connected client's engine session.

Everything here runs on the server's single database worker thread —
never on the event loop — so plain attribute swaps (``activate_txn``,
the statement-timeout save/restore) need no locking: the worker
serializes all engine access.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.errors import ReadOnlyError
from repro.temporal.stratum import SlicingStrategy, parse_set_strategy

_UNSET = object()


def _assert_read_allowed(stmt) -> None:
    """The standby's syntactic write gate.

    SELECT (plain or sequenced), transaction control, and EXPLAIN over
    an allowed statement pass; everything else — DML, DDL, CALL, and
    any PSM statement — raises a typed 25006.  The MVCC claim guard is
    the backstop for writes reached *through* an allowed statement
    (a function invoked by a SELECT mutating a table); this gate stops
    schema/registry mutations, which never claim a table.
    """
    if isinstance(stmt, (ast.Select, ast.TransactionStatement)):
        return
    if isinstance(stmt, ast.ExplainStatement) and not stmt.analyze:
        _assert_read_allowed(stmt.statement)
        return
    raise ReadOnlyError(
        f"cannot execute {type(stmt).__name__} on a read-only standby"
        " (25006); promote it first or write to the primary"
    )


class ServerSession:
    """A session's transaction manager plus per-session settings."""

    def __init__(self, stratum, txn) -> None:
        self.stratum = stratum
        self.txn = txn
        # per-session statement deadline: installed into the (global)
        # resilience config only for the duration of this session's own
        # statements, so one client's `.timeout` never affects another
        self.timeout: Optional[float] = None
        self.strategy = SlicingStrategy.AUTO
        # replication position captured when this session's snapshot
        # was pinned (standby role only)
        self._applied_at_pin: Optional[int] = None

    @classmethod
    def open(cls, stratum, name: str) -> "ServerSession":
        return cls(stratum, stratum.db.create_session(name))

    def configure(self, timeout: Any = _UNSET, strategy: Any = _UNSET) -> None:
        if timeout is not _UNSET:
            self.timeout = timeout
        if strategy is not _UNSET:
            self.strategy = SlicingStrategy(str(strategy).lower())

    def run_statement(self, sql: str) -> tuple:
        """Execute one statement; returns
        ``(result, snapshot_csn, applied_csn)``.

        The snapshot is pinned *here*, before execution, so the
        response can report the csn the statement read through even for
        autocommit statements (whose pin is otherwise released before
        the result leaves the engine).  A ``BEGIN`` inherits the pin —
        the transaction's repeatable-read snapshot dates from the
        arrival of the BEGIN statement itself.

        On a standby, ``applied_csn`` is the replication position
        captured at the same instant the pin was taken — the commit
        sequence number this statement's snapshot corresponds to — so
        every replica response makes its staleness explicit.  On a
        primary it is ``None``.
        """
        db = self.stratum.db
        # session setting, not SQL: intercepted before the parser (the
        # shell's `.strategy` equivalent for wire clients)
        chosen = parse_set_strategy(sql)
        if chosen is not None:
            self.strategy = chosen
            return f"sequenced strategy = {chosen.value}", db.mvcc.csn, None
        db.activate_txn(self.txn)
        mvcc = db.mvcc
        txn = self.txn
        statement = self.stratum.parse(sql, self.strategy)
        if mvcc.read_only and txn is not db.root_txn:
            _assert_read_allowed(statement)
        pinned = txn.snapshot is None
        if pinned:
            mvcc.pin(txn)
            if mvcc.read_only and db.durability is not None:
                # the applier keeps txn_counter current; captured under
                # the pin so it names exactly this snapshot's position
                self._applied_at_pin = db.durability.txn_counter
        applied = (
            self._applied_at_pin
            if (mvcc.read_only and db.durability is not None)
            else None
        )
        resilience = db.resilience
        previous_timeout = resilience.statement_timeout
        resilience.statement_timeout = self.timeout
        try:
            result = self.stratum.execute_ast(statement, self.strategy)
            snapshot = txn.snapshot
            if snapshot is None:  # COMMIT/ROLLBACK released the pin
                snapshot = mvcc.csn
            return result, snapshot, applied
        finally:
            resilience.statement_timeout = previous_timeout
            if pinned and not txn.explicit:
                mvcc.unpin(txn)

    def close(self) -> None:
        """Tear down on disconnect: any open transaction rolls back and
        the snapshot pin is released (``Database.close_session``)."""
        self.stratum.db.close_session(self.txn)
