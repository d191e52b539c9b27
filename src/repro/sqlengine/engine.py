"""The `Database` facade: parse + execute conventional SQL/PSM.

Also owns :class:`EngineStats`, the handles on the registry counters the
benchmark harness reports: per-routine invocation counts, statements
executed and rows written are the machine-independent cost drivers
behind the paper's MAX-vs-PERST comparison.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.tracing import Tracer
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.errors import ExecutionError
from repro.sqlengine.executor import Executor, ResultSet
from repro.sqlengine.mvcc import MvccManager
from repro.sqlengine.parser import parse_script, parse_statement
from repro.sqlengine.resilience import ResilienceManager
from repro.sqlengine.txn import TransactionManager
from repro.sqlengine.values import Date


class EngineStats:
    """Handles on the registry counters the engine bumps per statement,
    plan or row, and the harness's view of them.

    Every count lives in the registry (``db.obs``); one event is one
    counter.  Written rows are attributed by source
    (``engine.rows_written.<source>``) and routine work by routine
    (``engine.routine.<what>.<routine>``, with ``what`` one of the
    ``ROUTINE_*`` families); a family's total is its prefix sum.
    """

    ROWS_WRITTEN = "engine.rows_written."
    # per routine: bodies run, invocations the result memo served, plan
    # runs of the body's own statements; while the tracer is on also the
    # nanoseconds inside its invocations (callees included) and inside
    # those plan runs
    ROUTINE_CALLS = "engine.routine.calls."
    ROUTINE_REUSES = "engine.routine.reuses."
    ROUTINE_PLAN_RUNS = "engine.routine.plan_runs."
    ROUTINE_NS = "engine.routine.ns."
    ROUTINE_PLAN_NS = "engine.routine.plan_ns."

    def __init__(self, obs: Optional[MetricsRegistry] = None) -> None:
        self.obs = obs = obs if obs is not None else MetricsRegistry()
        self.call_depth = 0  # transient: nested routine invocations
        self.executed = obs.counter("engine.statements")
        self.compiled = obs.counter("engine.plans_compiled")
        self.plan_hits = obs.counter("engine.plan_cache.hits")
        self.transformed = obs.counter("stratum.transforms")
        self.transform_hits = obs.counter("stratum.transform_cache.hits")
        self.scanned = obs.counter("engine.rows_scanned")
        self.pruned = obs.counter("engine.period_probe.rows_pruned")
        self.rejects = obs.counter("engine.join.level_rejects")
        self.waived = obs.counter("engine.read_window.versions_waived")
        # stab-shaped probes a stab structure answered (the others count
        # as engine.stab.full_pass.<reason>)
        self.stab_served = obs.counter("engine.stab.served")

    def count_rows(self, n: int, source: str = "insert") -> None:
        """Attribute ``n`` written rows to one mutation ``source``."""
        self.obs.inc(self.ROWS_WRITTEN + source, n)

    def reset(self) -> None:
        self.call_depth = 0
        self.obs.reset_prefix("engine.")
        self.transformed.reset()
        self.transform_hits.reset()

    def snapshot(self) -> dict[str, int]:
        """The program-wide totals the benchmark harness reads."""
        return {
            "statements": self.executed.value,
            "rows_written": self.obs.sum_prefix(self.ROWS_WRITTEN),
            "rows_scanned": self.scanned.value,
            "total_routine_calls": self.obs.sum_prefix(self.ROUTINE_CALLS),
            "plans_compiled": self.compiled.value,
            "plan_cache_hits": self.plan_hits.value,
            "transforms": self.transformed.value,
            "transform_cache_hits": self.transform_hits.value,
        }


class PlanCache:
    """A bounded LRU of what was compiled from a statement against the
    catalog: the engine's plans, and the temporal stratum's
    transformations and prepared statements.

    An entry records the catalog schema version it was stored at.  One
    of the current version is served after that one comparison; one of
    an older version is served, re-stamped, if nothing the statement it
    was compiled from reaches changed since
    (:meth:`Catalog.unchanged_since`), else dropped.  No version counter
    ever repeats a value — a rollback moves them forward too — so a
    stamp names one catalog state and nothing is ever evicted for being
    too new.  At capacity, storing evicts the least recently fetched or
    stored entry.
    """

    __slots__ = ("_entries", "capacity", "_revalidated")

    def __init__(self, capacity: int, revalidated: Counter) -> None:
        self._entries: dict[Any, tuple] = {}
        self.capacity = capacity
        self._revalidated = revalidated

    def fetch(self, key: Any, stmt: ast.Statement, catalog: Catalog) -> Any:
        """The value under ``key``, compiled from ``stmt``, while nothing
        ``stmt`` reaches changed since it was stored; else None."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return None
        if entry[0] != catalog.schema_version:
            if not catalog.unchanged_since(entry[0], stmt):
                return None
            entry = (catalog.schema_version, entry[1])
            self._revalidated.inc()
        # LRU refresh: re-insert at the end of the (insertion-ordered) dict
        self._entries[key] = entry
        return entry[1]

    def peek(self, key: Any) -> Any:
        """The value under ``key``, however stale, leaving its recency."""
        entry = self._entries.get(key)
        return None if entry is None else entry[1]

    def store(self, key: Any, schema_version: int, value: Any) -> None:
        entries = self._entries
        if len(entries) >= self.capacity and key not in entries:
            del entries[next(iter(entries))]  # least recently used
        entries[key] = (schema_version, value)

    def drop(self, key: Any) -> None:
        self._entries.pop(key, None)

    def values(self) -> list:
        return [value for _, value in self._entries.values()]

    def clear(self) -> None:
        self._entries.clear()


class Database:
    """An in-memory SQL/PSM database.

    ``now`` is the value of CURRENT_DATE, settable so current-semantics
    queries are reproducible; it defaults to 2011-01-01 (inside the
    benchmark datasets' two-year window).
    """

    def __init__(self, now: Optional[Date] = None) -> None:
        self.catalog = Catalog()
        # observability: one metrics registry + tracer per database;
        # EngineStats keeps its hot counters but reports row mutations
        # into the registry (DESIGN.md §3.3)
        self.obs = MetricsRegistry()
        self.tracer = Tracer()
        self.stats = EngineStats(self.obs)
        # durability: None until attach_durability wires a WAL +
        # checkpoint directory (DESIGN.md §3.4); must exist before the
        # `now` property setter runs below
        self.durability = None
        self._now = now if now is not None else Date.from_ymd(2011, 1, 1)
        self._executor = Executor(self)
        # the routine-result memo, one top-level statement long: a
        # function that writes nothing (Catalog.write_free) is
        # deterministic over data that does not change while the
        # statement runs, so a repeated TABLE(f(args)) reuses its rows
        # and a function the stratum declared a point parameter on
        # (Routine.window_param) reuses its result across every point of
        # the read window the run established — `read_window` is the
        # innermost open one.  RoutineInterpreter._reused owns both.
        self.table_function_cache: dict = {}
        self.read_window: Optional[list] = None
        # bind/plan layer: compiled statement plans, revalidated after a
        # catalog schema change (values ``(statement, plan)`` under the
        # statement's id, see Executor.plan), and expression closures
        self.plan_cache = PlanCache(512, self.obs.counter("engine.plan_cache.revalidated"))
        self.expr_cache: dict = {}
        # `cp_cache` memoizes the last constant-period materialization
        # per cp table (source table versions + context), letting the
        # stratum skip the rebuild when nothing changed.
        self.cp_cache: dict = {}
        # MVCC: snapshot pins, write claims, version-chain GC (DESIGN.md
        # §3.8); fully dormant — one bool per mutation — until a second
        # session registers.  Must exist before any TransactionManager.
        self.mvcc = MvccManager(self)
        # undo-log transaction manager: statement guards, explicit
        # BEGIN/COMMIT/ROLLBACK, savepoints, fault injection.  `txn` is
        # the *active* session's manager; `root_txn` is the built-in
        # session direct API callers use.  Objects whose `txn` pointer
        # must follow session switches (the catalog, and the temporal
        # registries once a stratum binds) register in `txn_followers`.
        self.txn = TransactionManager(self)
        self.root_txn = self.txn
        self.catalog.txn = self.txn
        self.txn_followers: list[Any] = [self.catalog]
        self._session_txns: list[TransactionManager] = []
        # resilience: the query watchdog (DESIGN.md §3.7); disarmed by
        # default, so hot paths pay one bool check
        self.resilience = ResilienceManager(self)

    # -- sessions (MVCC) -------------------------------------------------

    def create_session(self, name: Optional[str] = None) -> TransactionManager:
        """Register a new session: its own :class:`TransactionManager`
        with its own snapshot, write set, and redo buffer.

        Only allowed while no write claims are in flight (the committed
        pre-image of an already-claimed table cannot be captured
        retroactively); the server retries registration until the store
        is quiescent.  Statement execution across sessions must be
        serialized by the caller — :meth:`activate_txn` switches the
        whole engine's transaction pointer.
        """
        if not self.mvcc.multi and (self.txn.explicit or self.txn.marks):
            raise ExecutionError(
                "cannot create a session while a transaction is open"
            )
        txn = TransactionManager(
            self, name=name or f"session-{len(self._session_txns) + 1}"
        )
        txn.wal = self.root_txn.wal
        self.mvcc.register_session()
        self._session_txns.append(txn)
        return txn

    def close_session(self, txn: TransactionManager) -> None:
        """Roll back anything the session left open and unregister it."""
        if txn is self.root_txn:
            raise ExecutionError("the root session cannot be closed")
        if txn not in self._session_txns:
            return  # already closed
        previous = self.txn
        self.activate_txn(txn)
        try:
            if txn.explicit:
                txn.rollback()  # releases claims and the snapshot pin
            else:
                if txn.write_set:
                    self.mvcc.release_writes(txn, committed=False)
                self.mvcc.unpin(txn)
        finally:
            self._session_txns.remove(txn)
            self.mvcc.unregister_session()
            self.activate_txn(
                previous if previous is not txn else self.root_txn
            )

    def activate_txn(self, txn: TransactionManager) -> None:
        """Make ``txn`` the engine's active session: every component
        that consults a ``txn`` pointer (catalog, registries, tables)
        follows, so the undo log, WAL buffer, claims, and snapshot all
        belong to the session that is executing."""
        if self.txn is txn:
            return
        self.txn = txn
        for follower in self.txn_followers:
            follower.txn = txn
        for table in self.catalog._tables.values():
            table.txn = txn

    def read_table(self, name: str):
        """The version of a catalog table visible to the active
        session's snapshot (the live table while single-session)."""
        table = self.catalog.get_table(name)
        if self.mvcc.multi:
            return self.mvcc.read_view(table, self.txn)
        return table

    # -- CURRENT_DATE ----------------------------------------------------

    @property
    def now(self) -> Date:
        """CURRENT_DATE.  Settable for reproducible current semantics;
        under durability each change is WAL-logged so a reopened
        database resumes at the clock it was closed at."""
        return self._now

    @now.setter
    def now(self, value: Date) -> None:
        self._now = value
        if self.durability is not None:
            self.durability.log_now(value.ordinal)

    # -- durability ------------------------------------------------------

    @classmethod
    def open(cls, path, *, now: Optional[Date] = None, sync: bool = True,
             auto_checkpoint_bytes: Optional[int] = None) -> "Database":
        """Open (or create) a durable database at ``path``.

        Equivalent to ``Database()`` + :meth:`attach_durability`; for a
        database with temporal tables use ``TemporalStratum.open`` so
        the registries are rebuilt too.
        """
        db = cls(now=now)
        db.attach_durability(
            path, sync=sync, auto_checkpoint_bytes=auto_checkpoint_bytes
        )
        return db

    def attach_durability(self, path, *, stratum=None, sync: bool = True,
                          auto_checkpoint_bytes: Optional[int] = None):
        """Bind a WAL + snapshot directory, running crash recovery first.

        ``stratum`` (a :class:`~repro.temporal.stratum.TemporalStratum`)
        makes registry changes durable and lets recovery rebuild them.
        Returns the :class:`~repro.sqlengine.wal.DurabilityManager`.
        """
        from repro.sqlengine.recovery import recover
        from repro.sqlengine.wal import (
            DEFAULT_AUTO_CHECKPOINT_BYTES,
            DurabilityManager,
            WalError,
        )

        if self.durability is not None:
            raise WalError("durability is already attached to this database")
        if self.txn.explicit or self.txn.marks:
            raise WalError("cannot attach durability inside a transaction")
        manager = DurabilityManager(
            self,
            path,
            sync=sync,
            auto_checkpoint_bytes=(
                auto_checkpoint_bytes
                if auto_checkpoint_bytes is not None
                else DEFAULT_AUTO_CHECKPOINT_BYTES
            ),
        )
        if stratum is not None:
            manager.bind_stratum(stratum)
        recover(manager)
        self.durability = manager
        self.txn.wal = manager
        # recovery may have rebuilt arbitrary schema/data: every compiled
        # artifact bound against the pre-recovery state must go
        self.plan_cache.clear()
        self.expr_cache.clear()
        self.table_function_cache.clear()
        self.cp_cache.clear()
        if stratum is not None:
            stratum._transform_cache.clear()
        return manager

    def checkpoint(self) -> int:
        """Snapshot state and truncate the WAL (durability required)."""
        if self.durability is None:
            raise ExecutionError("checkpoint: durability is not attached")
        return self.durability.checkpoint()

    def close(self, checkpoint: bool = True) -> None:
        """Flush (and by default checkpoint) and detach durability.

        Idempotent: the WAL buffer is flushed exactly once; repeated
        calls (and closes of purely in-memory databases) are no-ops.
        """
        if self.durability is None:
            return
        self.durability.close(checkpoint=checkpoint)
        self.txn.wal = None
        self.durability = None

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # don't checkpoint on the error path: leave the WAL as the
        # authoritative record of what committed before the failure
        self.close(checkpoint=exc_type is None)

    def verify(self, *, quarantine: bool = False):
        """Scrub the attached durable store (see
        :func:`repro.sqlengine.resilience.verify_store`).

        The WAL buffer is flushed first when idle, so everything
        committed so far is on disk and subject to verification.
        Returns a :class:`~repro.sqlengine.resilience.VerifyReport`.
        """
        from repro.sqlengine.resilience import verify_store
        from repro.sqlengine.wal import WalError

        if self.durability is None:
            raise WalError("verify: durability is not attached")
        if not self.txn.explicit and not self.txn.marks:
            self.durability.commit_buffered()
        return verify_store(self.durability.dir, quarantine=quarantine)

    # -- execution -------------------------------------------------------

    def execute(self, sql: str) -> Any:
        """Parse and execute one statement.

        Returns a :class:`ResultSet` for queries, a row count for DML,
        a list of result sets for CALL, and None for DDL.
        """
        return self.execute_ast(parse_statement(sql))

    def execute_ast(self, stmt: ast.Statement) -> Any:
        if isinstance(stmt, ast.TransactionStatement):
            return self.txn.execute_statement(stmt)
        if isinstance(stmt, ast.ExplainStatement):
            from repro.obs.explain import explain_engine_statement

            return explain_engine_statement(self, stmt.statement, stmt.analyze)
        self.table_function_cache.clear()
        resilience = self.resilience
        txn = self.txn
        # pin the snapshot this statement reads through; statements the
        # stratum or an explicit transaction re-enter with (snapshot
        # already pinned) inherit it, giving repeatable reads
        pinned = txn.snapshot is None
        if pinned:
            self.mvcc.pin(txn)
        resilience.begin_statement()  # arms the watchdog clock at depth 0
        token = txn.mark()  # implicit statement-level atomicity
        try:
            result = self._executor.execute(stmt)
        except BaseException:
            txn.rollback_to(token)
            raise
        finally:
            resilience.end_statement()
            self.table_function_cache.clear()
            if pinned and not txn.explicit:
                self.mvcc.unpin(txn)
        txn.release(token)
        return result

    def execute_script(self, sql: str) -> list[Any]:
        """Execute a semicolon-separated script; returns per-statement results."""
        return [self.execute_ast(stmt) for stmt in parse_script(sql)]

    def query(self, sql: str) -> ResultSet:
        """Execute a statement that must produce a result set."""
        result = self.execute(sql)
        if not isinstance(result, ResultSet):
            raise TypeError(f"statement did not produce a result set: {sql!r}")
        return result

    # -- convenience -------------------------------------------------------

    @property
    def executor(self) -> Executor:
        return self._executor

    def table(self, name: str):
        return self.catalog.get_table(name)

    def insert_rows(self, table_name: str, rows: list[list[Any]]) -> None:
        """Bulk-load rows (bypasses SQL parsing; used by data generators)."""
        table = self.catalog.get_table(table_name)
        for row in rows:
            table.insert(row)
        self.stats.count_rows(len(rows), "bulk_load")
        # bulk loads run outside any statement mark: flush the redo
        # records now so the load is one durable transaction
        if self.txn.wal is not None and not self.txn.explicit and not self.txn.marks:
            self.txn.wal.commit_buffered()
