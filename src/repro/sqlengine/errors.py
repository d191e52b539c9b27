"""Exception hierarchy for the SQL/PSM engine.

Every error raised by the engine derives from :class:`SqlError`, so
callers (including the temporal stratum) can catch one base class.
"""

from __future__ import annotations


class SqlError(Exception):
    """Base class for all engine errors."""


class LexError(SqlError):
    """Raised when the lexer encounters malformed input."""

    def __init__(self, message: str, position: int, line: int) -> None:
        super().__init__(f"{message} (line {line}, offset {position})")
        self.position = position
        self.line = line


class ParseError(SqlError):
    """Raised when the parser cannot make sense of a token stream."""


class StarArgumentError(ParseError):
    """``f(*)`` for an ``f`` other than ``COUNT``: SQL has no other
    ``(*)`` argument list."""

    sqlstate = "42601"  # syntax error


class CatalogError(SqlError):
    """Raised for unknown or duplicate tables, routines, views, columns."""


class TypeError_(SqlError):
    """Raised on type mismatches and impossible coercions.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class ExecutionError(SqlError):
    """Raised for runtime errors during statement execution."""


class DivisionByZeroError(ExecutionError):
    """Raised when SQL arithmetic divides by zero."""


class CardinalityError(ExecutionError):
    """Raised when a scalar subquery or row SELECT yields more than one row."""


class SignalError(ExecutionError):
    """Raised by ``SIGNAL SQLSTATE '...'`` — an explicitly raised
    condition, catchable by ``DECLARE ... HANDLER FOR SQLSTATE '...'``
    (or a generic SQLEXCEPTION handler)."""

    def __init__(self, sqlstate: str, message: "str | None" = None) -> None:
        super().__init__(message if message is not None else f"SQLSTATE {sqlstate}")
        self.sqlstate = sqlstate
        self.message = message


class QueryCancelled(SignalError):
    """Raised by the query watchdog when a statement's deadline expires
    or an explicit cancellation is requested.

    Carries SQLSTATE ``57014`` (operator intervention / query canceled),
    so PSM ``DECLARE ... HANDLER FOR SQLSTATE '57014'`` catches it
    exactly like a SIGNAL-raised condition; an unhandled cancellation
    unwinds through the statement marks to full routine atomicity.
    """

    SQLSTATE = "57014"

    def __init__(self, message: "str | None" = None) -> None:
        super().__init__(
            self.SQLSTATE,
            message if message is not None else "query cancelled (57014)",
        )


class SerializationError(SignalError):
    """Raised by the MVCC manager when a transaction's write conflicts
    with another session's in-flight or already-committed write
    (first-writer-wins / first-committer-wins under snapshot isolation).

    Carries SQLSTATE ``40001`` (serialization failure), so PSM
    ``DECLARE ... HANDLER FOR SQLSTATE '40001'`` catches it exactly like
    a SIGNAL-raised condition; unhandled, it unwinds through the
    statement marks and the client is expected to roll back and retry.
    """

    SQLSTATE = "40001"

    def __init__(self, message: "str | None" = None) -> None:
        super().__init__(
            self.SQLSTATE,
            message if message is not None else "serialization failure (40001)",
        )


class FaultInjected(ExecutionError):
    """Raised by an armed ``txn.fault_plan`` at a mutation or durability
    site — the fault-injection harness's stand-in for a mid-statement
    crash."""


class DurabilityError(ExecutionError):
    """A durable-storage operation (WAL write/fsync, checkpoint
    tmp+rename) failed with an :class:`OSError` that bounded retry could
    not absorb.

    Carries the failing ``operation`` tag, the ``path`` involved, and
    how many ``attempts`` were made, so callers and PSM handlers can
    distinguish durability faults from engine bugs.  Defined here (not
    in :mod:`repro.sqlengine.wal`) so the resilience layer's retry
    helper can raise it without an import cycle.
    """

    def __init__(
        self,
        operation: str,
        path: str,
        attempts: int = 1,
        cause: "BaseException | None" = None,
    ) -> None:
        detail = f": {cause}" if cause is not None else ""
        super().__init__(
            f"durability failure in {operation} on {path}"
            f" after {attempts} attempt(s){detail}"
        )
        self.operation = operation
        self.path = path
        self.attempts = attempts


# Errors that report the engine's state rather than an expression's value:
# the watchdog, MVCC, the fault harness and durable storage.  Code that
# holds an expression's error to raise it later (the grouped fold of
# ``planner.SelectPlan._run_grouped``) lets these through at once.
INTERRUPTS = (
    QueryCancelled,
    SerializationError,
    FaultInjected,
    DurabilityError,
)


class RoutineError(ExecutionError):
    """Raised for errors inside stored-routine execution."""


class CursorError(RoutineError):
    """Raised for cursor misuse (fetch before open, double open, ...)."""


class PlanInvalidated(Exception):
    """Internal signal: a cached execution plan no longer matches the
    catalog (schema drift, replaced view, redefined table function).

    Deliberately *not* an :class:`SqlError` — it never escapes the
    engine; the executor catches it, drops the stale plan, re-plans and
    re-runs the statement once.
    """
