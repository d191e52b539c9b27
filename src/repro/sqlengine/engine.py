"""The `Database` facade: parse + execute conventional SQL/PSM.

Also owns :class:`EngineStats`, the instrumentation the benchmark
harness reports: per-routine invocation counts, statements executed and
rows written are the machine-independent cost drivers behind the
paper's MAX-vs-PERST comparison.
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
    """Counters accumulated across statement executions.

    Hot counters stay plain ints; row mutations are routed into the
    metrics registry under ``engine.rows_written.<source>`` so every
    write path (insert/update/delete, sequenced rewrites, TT
    maintenance, bulk loads) is attributed.  ``rows_written`` is the
    read-only sum across sources, read by the e2e harness.
    """

    ROWS_WRITTEN_PREFIX = "engine.rows_written."
    ROWS_SCANNED = "engine.rows_scanned"

    def __init__(self, obs: Optional[MetricsRegistry] = None) -> None:
        self.obs = obs if obs is not None else MetricsRegistry()
        self.statements = 0
        self.total_routine_calls = 0
        self.routine_calls: dict[str, int] = {}  # bodies run
        self.routine_reuses: dict[str, int] = {}  # served by the result memo
        # inclusive seconds per routine, taken only while the tracer is
        # on (EXPLAIN ANALYZE)
        self.routine_seconds: dict[str, float] = {}
        # routine bodies' own plan runs; per routine [count, seconds] while tracing
        self.embedded_plan_runs = 0
        self.embedded_runs: dict[str, list] = {}
        self.call_depth = 0  # transient: nested routine invocations
        # hot registry counters, bumped through their handles
        self.scanned = self.obs.counter(self.ROWS_SCANNED)
        self.pruned = self.obs.counter("engine.period_probe.rows_pruned")
        self.rejects = self.obs.counter("engine.join.level_rejects")
        self.memo_hits = self.obs.counter("engine.routine_memo.hits")
        self.waived = self.obs.counter("engine.read_window.versions_waived")
        # stab-shaped probes a stab structure answered (the others count
        # as engine.stab.full_pass.<reason>)
        self.stab_served = self.obs.counter("engine.stab.served")
        self.plans_compiled = 0
        self.plan_cache_hits = 0
        self.transforms = 0
        self.transform_cache_hits = 0
        self.rollbacks = 0

    def count_rows(self, n: int, source: str = "insert") -> None:
        """Attribute ``n`` written rows to one mutation ``source``."""
        self.obs.inc(self.ROWS_WRITTEN_PREFIX + source, n)

    @property
    def rows_written(self) -> int:
        """Total across ``engine.rows_written.*`` sources; read by the e2e
        harness."""
        return self.obs.sum_prefix(self.ROWS_WRITTEN_PREFIX)

    @property
    def rows_scanned(self) -> int:
        return self.obs.value(self.ROWS_SCANNED)

    def reset(self) -> None:
        self.statements = 0
        self.total_routine_calls = 0
        self.routine_calls = {}
        self.routine_reuses = {}
        self.routine_seconds = {}
        self.embedded_plan_runs = 0
        self.embedded_runs = {}
        self.call_depth = 0
        self.plans_compiled = 0
        self.plan_cache_hits = 0
        self.transforms = 0
        self.transform_cache_hits = 0
        self.rollbacks = 0
        self.obs.reset_prefix("engine.")

    def snapshot(self) -> dict[str, Any]:
        return {
            "statements": self.statements,
            "rows_written": self.rows_written,
            "rows_written_by_source": {
                name[len(self.ROWS_WRITTEN_PREFIX):]: value
                for name, value in self.obs.flat().items()
                if name.startswith(self.ROWS_WRITTEN_PREFIX)
            },
            "rows_scanned": self.rows_scanned,
            "total_routine_calls": self.total_routine_calls,
            "routine_calls": dict(self.routine_calls),
            "routine_reuses": dict(self.routine_reuses),
            "embedded_plan_runs": self.embedded_plan_runs,
            "plans_compiled": self.plans_compiled,
            "plan_cache_hits": self.plan_cache_hits,
            "transforms": self.transforms,
            "transform_cache_hits": self.transform_cache_hits,
            "rollbacks": self.rollbacks,
        }


class PlanCache:
    """Statement-plan cache keyed by AST identity.

    An entry holds a strong reference to the statement node, so a
    recycled ``id()`` can never alias a different statement, and records
    the catalog schema version the plan was bound against.  An entry of
    the current version is served after that one comparison; one of an
    older version is served, re-stamped, if nothing the statement reaches
    changed since (:meth:`Catalog.unchanged_since`), else dropped.  At
    capacity, storing evicts the least recently fetched or stored plan.
    """

    __slots__ = ("_entries", "_revalidated")

    CAPACITY = 512

    def __init__(self, revalidated: Counter) -> None:
        self._entries: dict[int, tuple] = {}
        self._revalidated = revalidated

    def fetch(self, stmt: ast.Statement, catalog: Catalog) -> tuple[bool, Any]:
        entry = self._entries.pop(id(stmt), None)
        if entry is None or entry[0] is not stmt:
            return False, None
        if entry[1] != catalog.schema_version:
            if not catalog.unchanged_since(entry[1], stmt):
                return False, None
            entry = (stmt, catalog.schema_version, entry[2])
            self._revalidated.inc()
        # LRU refresh: re-insert at the end of the (insertion-ordered) dict
        self._entries[id(stmt)] = entry
        return True, entry[2]

    def store(self, stmt: ast.Statement, schema_version: int, plan: Any) -> None:
        if len(self._entries) >= self.CAPACITY and id(stmt) not in self._entries:
            del self._entries[next(iter(self._entries))]  # least recently used
        self._entries[id(stmt)] = (stmt, schema_version, plan)

    def drop(self, stmt: ast.Statement) -> None:
        self._entries.pop(id(stmt), None)

    def evict_newer(self, schema_version: int) -> None:
        """Drop entries bound after ``schema_version``.

        Called after a rollback restores the catalog's version counter:
        an entry stored during the rolled-back window would otherwise
        falsely revalidate once later DDL pushes the counter back up to
        the version it was bound at.
        """
        stale = [
            key for key, (_, version, _) in self._entries.items()
            if version > schema_version
        ]
        for key in stale:
            del self._entries[key]

    def pipeline_plans(self) -> list[tuple]:
        """``(statement, plan)`` of every cached SELECT, UPDATE and
        DELETE plan (EXPLAIN ANALYZE reads their per-level row counts)."""
        return [
            (stmt, plan) for stmt, _, plan in self._entries.values()
            if hasattr(plan, "pipeline")
        ]

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
        # catalog schema change, and expression closures
        self.plan_cache = PlanCache(self.obs.counter("engine.plan_cache.revalidated"))
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
        # resilience: query watchdog + resource governor (DESIGN.md
        # §3.7); disarmed by default, so hot paths pay one bool check
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
        # the undo log is per-session, but rollback cache eviction is
        # global: share the hook list so a stratum's transform purge
        # runs no matter which session rolled back
        txn.rollback_hooks = self.root_txn.rollback_hooks
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
