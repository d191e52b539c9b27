"""One connected client's engine session.

Everything here runs on the server's single database worker thread —
never on the event loop — so plain attribute swaps (``activate_txn``,
the statement-timeout save/restore) need no locking: the worker
serializes all engine access.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.temporal.stratum import SlicingStrategy, parse_set_strategy

_UNSET = object()


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

    @classmethod
    def open(cls, stratum, name: str) -> "ServerSession":
        return cls(stratum, stratum.db.create_session(name))

    def configure(self, timeout: Any = _UNSET, strategy: Any = _UNSET) -> None:
        if timeout is not _UNSET:
            self.timeout = timeout
        if strategy is not _UNSET:
            self.strategy = SlicingStrategy(str(strategy).lower())

    def run_statement(self, sql: str) -> tuple:
        """Execute one statement; returns ``(result, snapshot_csn)``.

        The snapshot is pinned *here*, before execution, so the
        response can report the csn the statement read through even for
        autocommit statements (whose pin is otherwise released before
        the result leaves the engine).  A ``BEGIN`` inherits the pin —
        the transaction's repeatable-read snapshot dates from the
        arrival of the BEGIN statement itself.
        """
        db = self.stratum.db
        # session setting, not SQL: intercepted before the parser (the
        # shell's `.strategy` equivalent for wire clients)
        chosen = parse_set_strategy(sql)
        if chosen is not None:
            self.strategy = chosen
            return f"sequenced strategy = {chosen.value}", db.mvcc.csn
        db.activate_txn(self.txn)
        mvcc = db.mvcc
        txn = self.txn
        statement = self.stratum.parse(sql, self.strategy)
        pinned = txn.snapshot is None
        if pinned:
            mvcc.pin(txn)
        resilience = db.resilience
        previous_timeout = resilience.statement_timeout
        resilience.statement_timeout = self.timeout
        try:
            result = self.stratum.execute_ast(statement, self.strategy)
            snapshot = txn.snapshot
            if snapshot is None:  # COMMIT/ROLLBACK released the pin
                snapshot = mvcc.csn
            return result, snapshot
        finally:
            resilience.statement_timeout = previous_timeout
            if pinned and not txn.explicit:
                mvcc.unpin(txn)

    def close(self) -> None:
        """Tear down on disconnect: any open transaction rolls back and
        the snapshot pin is released (``Database.close_session``)."""
        self.stratum.db.close_session(self.txn)
