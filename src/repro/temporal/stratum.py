"""The temporal stratum (paper §III, §IV).

:class:`TemporalStratum` sits in front of a conventional
:class:`~repro.sqlengine.Database` exactly like the paper's stratum sits
in front of DB2: Temporal SQL/PSM comes in, conventional SQL/PSM goes
down to the engine.

* Tables gain valid-time support via ``ALTER TABLE t ADD VALIDTIME`` or
  :meth:`TemporalStratum.create_temporal_table`.
* Statements without a temporal modifier keep their legacy meaning on
  the current state (temporal upward compatibility): they are run
  through the ``cur⟦·⟧`` transformation when they touch temporal tables.
* ``VALIDTIME [bt, et] Q`` executes Q with sequenced semantics using
  either maximally-fragmented slicing (MAX) or per-statement slicing
  (PERST); ``SlicingStrategy.AUTO`` applies the paper's §VII-F
  heuristic.
* ``NONSEQUENCED VALIDTIME Q`` runs Q conventionally with timestamp
  columns exposed.

Use :meth:`TemporalStratum.transform` to inspect the conventional SQL a
statement turns into (the paper's Figures 5-11).
"""

from __future__ import annotations

import copy
import enum
import re
import time
from typing import Any, Optional, Union

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.catalog import Routine
from repro.sqlengine.engine import Database
from repro.sqlengine.errors import CatalogError, ExecutionError
from repro.sqlengine.executor import Env, ResultSet
from repro.sqlengine.parser import parse_script, parse_statement
from repro.sqlengine.storage import Column
from repro.sqlengine.types import SqlType
from repro.sqlengine.values import Date
from repro.temporal import analysis
from repro.temporal.constant_periods import materialize_constant_periods
from repro.temporal.current import CurrentTransformResult, transform_current
from repro.temporal.errors import SequencedContextError, TemporalError
from repro.temporal.max_slicing import (
    MaxTransformResult,
    statement_key,
    transform_query_max,
)
from repro.temporal.modifications import (
    execute_current_modification,
    execute_sequenced_modification,
    match_statement,
)
from repro.temporal.period import Period, coalesce
from repro.temporal.perst_slicing import (
    BEGIN_PARAM,
    END_PARAM,
    PerstTransformer,
    PerstTransformResult,
)
from repro.obs.tracing import _NOOP as _NO_SPAN
from repro.temporal.schema import TemporalRegistry, TemporalTableInfo
from repro.temporal.transform_util import clone, rewrite_expressions

MAX_CP_TABLE = "taupsm_cp"


class SlicingStrategy(enum.Enum):
    """How to evaluate a sequenced statement.

    ``AUTO`` applies the paper's §VII-F rule heuristic (extended with a
    SEQ-SET rule); ``COST`` uses the §VIII future-work cost model
    (predicted relative cost from the constant-period count and expected
    routine invocations) instead.  ``SEQSET`` compiles routine-free
    queries into one set-oriented pass (interval alignment + interval
    join, :mod:`repro.temporal.seqset`) and transparently falls back to
    MAX whenever a routine is invoked or the shape is not covered.
    """

    MAX = "max"
    PERST = "perst"
    AUTO = "auto"
    COST = "cost"
    SEQSET = "seqset"


_SET_STRATEGY_RE = re.compile(
    r"^\s*SET\s+STRATEGY\s+(\w+)\s*;?\s*$", re.IGNORECASE
)


def parse_set_strategy(sql: str) -> Optional[SlicingStrategy]:
    """Recognize the session statement ``SET STRATEGY <name>``.

    Returns the named :class:`SlicingStrategy`, ``None`` when ``sql`` is
    not a SET STRATEGY statement at all, and raises
    :class:`TemporalError` for an unknown strategy name — callers (the
    shell, a server session) intercept this before the SQL parser sees
    the text.
    """
    match = _SET_STRATEGY_RE.match(sql)
    if match is None:
        return None
    try:
        return SlicingStrategy(match.group(1).lower())
    except ValueError:
        names = ", ".join(member.value for member in SlicingStrategy)
        raise TemporalError(
            f"unknown strategy {match.group(1)!r}; expected one of: {names}"
        ) from None


class TemporalResult:
    """A sequenced result: value columns plus a validity period per row."""

    def __init__(self, columns: list[str], rows: list[list[Any]]) -> None:
        if len(columns) < 2:
            raise TemporalError("temporal result needs period columns")
        self.columns = columns
        self.rows = rows

    @property
    def value_columns(self) -> list[str]:
        return self.columns[:-2]

    def temporal_rows(self) -> list[tuple[tuple, Period]]:
        """Rows as (value_tuple, Period) pairs."""
        out = []
        for row in self.rows:
            begin, end = row[-2], row[-1]
            out.append(
                (tuple(row[:-2]), Period(begin.ordinal, end.ordinal))
            )
        return out

    def coalesced(self) -> list[tuple[tuple, Period]]:
        """Canonical coalesced form (for comparisons)."""
        return coalesce(self.temporal_rows())

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TemporalResult({self.columns}, {len(self.rows)} rows)"


class TemporalStratum:
    """Temporal SQL/PSM in, conventional SQL/PSM down to the engine."""

    def __init__(self, db: Optional[Database] = None) -> None:
        self.db = db if db is not None else Database()
        self.registry = TemporalRegistry()  # valid time
        self.tt_registry = TemporalRegistry()  # transaction time
        self._installed_clones: set[str] = set()
        self._nonseq_only_routines: set[str] = set()
        self._inner_cp_requirements: dict[str, list[str]] = {}
        # transformed-statement cache: (flavor, statement text, registry
        # versions, …) → (catalog schema version at store, payload).  An
        # entry is served only while the catalog schema version still
        # matches, so DDL and routine redefinition can never expose a
        # stale transformation; registry versions are part of the key.
        self._transform_cache: dict = {}
        self.last_strategy: Optional[SlicingStrategy] = None
        # the CostEstimate behind the most recent COST-mode decision
        self.last_estimate = None
        # why the most recent SEQ-SET attempt fell back to MAX (None
        # when the last sequenced statement ran without a fallback)
        self.last_fallback: Optional[str] = None
        # transaction clock: None tracks db.now; set a past date for
        # time-travel ("as of") reads of transaction-time tables
        self.transaction_clock: Optional[Date] = None
        # undo-log integration: registry changes are logged like catalog
        # changes, and a rollback that restores the catalog's schema
        # version must also drop transformations cached during the
        # rolled-back window (they would falsely revalidate once later
        # DDL pushes the version back up)
        self.registry.txn = self.db.txn
        self.tt_registry.txn = self.db.txn
        # session switches (Database.activate_txn) must repoint these too
        self.db.txn_followers.extend([self.registry, self.tt_registry])
        self.db.txn.rollback_hooks.append(self._evict_stale_transforms)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path,
        *,
        now: Optional[Date] = None,
        sync: bool = True,
        auto_checkpoint_bytes: Optional[int] = None,
        replay_cap: Optional[int] = None,
    ) -> "TemporalStratum":
        """Open (or create) a durable temporal database at ``path``.

        The stratum is bound before recovery runs, so temporal-table
        registrations and stratum routine bookkeeping are rebuilt along
        with the catalog.
        """
        stratum = cls(Database(now=now))
        stratum.attach_durability(
            path,
            sync=sync,
            auto_checkpoint_bytes=auto_checkpoint_bytes,
            replay_cap=replay_cap,
        )
        return stratum

    def attach_durability(
        self,
        path,
        *,
        sync: bool = True,
        auto_checkpoint_bytes: Optional[int] = None,
        replay_cap: Optional[int] = None,
    ):
        """Bind a WAL + snapshot directory to the underlying database,
        registering this stratum so registry changes are durable."""
        return self.db.attach_durability(
            path,
            stratum=self,
            sync=sync,
            auto_checkpoint_bytes=auto_checkpoint_bytes,
            replay_cap=replay_cap,
        )

    def checkpoint(self) -> int:
        return self.db.checkpoint()

    def close(self, checkpoint: bool = True) -> None:
        """Idempotent close of the underlying database (see
        :meth:`repro.sqlengine.engine.Database.close`)."""
        self.db.close(checkpoint=checkpoint)

    def __enter__(self) -> "TemporalStratum":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.db.close(checkpoint=exc_type is None)

    def verify(self, *, quarantine: bool = False):
        """Scrub the attached durable store; see :meth:`Database.verify`."""
        return self.db.verify(quarantine=quarantine)

    @property
    def clock(self) -> Date:
        """The transaction-time clock (defaults to ``db.now``)."""
        return self.transaction_clock if self.transaction_clock is not None else self.db.now

    # ------------------------------------------------------------------
    # transform cache
    # ------------------------------------------------------------------

    TRANSFORM_CACHE_CAPACITY = 256

    def _cache_key(self, flavor: str, stmt: ast.Statement, *extra) -> tuple:
        """Key for one transformation: flavor tag + statement text +
        registry versions + the transaction clock (embedded as a literal
        by the transaction-currency pass), plus path-specific extras."""
        return (
            flavor,
            statement_key(stmt),
            self.registry.version,
            self.tt_registry.version,
            self.clock.ordinal,
            *extra,
        )

    def _transform_fetch(self, key: tuple) -> Any:
        entry = self._transform_cache.get(key)
        if entry is None:
            return None
        version, payload = entry
        if version != self.db.catalog.schema_version:
            del self._transform_cache[key]
            return None
        # LRU refresh: re-insert at the end of the (insertion-ordered)
        # dict so hot transformations survive capacity pressure
        self._transform_cache[key] = self._transform_cache.pop(key)
        self.db.stats.transform_cache_hits += 1
        return payload

    def _evict_stale_transforms(self) -> None:
        current = self.db.catalog.schema_version
        stale = [
            key for key, (version, _) in self._transform_cache.items()
            if version > current
        ]
        for key in stale:
            del self._transform_cache[key]

    def _transform_store(self, key: tuple, payload: Any) -> None:
        """Record a transformation against the *current* schema version —
        called after routine clones are installed, so the version already
        reflects them and stays stable across reuse."""
        cache = self._transform_cache
        if key not in cache and len(cache) >= self.TRANSFORM_CACHE_CAPACITY:
            # evict the least recently used entry (dict order: oldest
            # first, fetches re-insert at the end)
            del cache[next(iter(cache))]
        cache[key] = (self.db.catalog.schema_version, payload)

    # ------------------------------------------------------------------
    # registration / DDL
    # ------------------------------------------------------------------

    def execute(
        self,
        sql: str,
        strategy: SlicingStrategy = SlicingStrategy.AUTO,
    ) -> Any:
        """Parse and execute one Temporal SQL/PSM statement."""
        return self.execute_ast(parse_statement(sql), strategy)

    def execute_script(
        self, sql: str, strategy: SlicingStrategy = SlicingStrategy.AUTO
    ) -> list[Any]:
        return [self.execute_ast(stmt, strategy) for stmt in parse_script(sql)]

    def execute_ast(
        self,
        stmt: ast.Statement,
        strategy: SlicingStrategy = SlicingStrategy.AUTO,
    ) -> Any:
        if isinstance(stmt, ast.TransactionStatement):
            return self.db.txn.execute_statement(stmt)
        if isinstance(stmt, ast.ExplainStatement):
            from repro.obs.explain import explain_statement

            return explain_statement(self, stmt.statement, stmt.analyze, strategy)
        # one savepoint around the whole temporal statement: a sequenced
        # statement expands into many engine statements (the MAX
        # per-period CALL loop, PERST's delete+insert pairs, currency
        # close+reinsert), and a failure partway through must not leave a
        # partially-applied temporal operation behind
        txn = self.db.txn
        resilience = self.db.resilience
        # pin the snapshot for the whole temporal statement: the engine
        # statements it expands into inherit it, so a sequenced query
        # reads one consistent version of every underlying table
        pinned = txn.snapshot is None
        if pinned:
            self.db.mvcc.pin(txn)
        # the temporal statement is the top-level unit the watchdog
        # deadline covers: the per-period engine statements it expands
        # into re-enter Database.execute_ast at depth > 0
        resilience.begin_statement()
        token = txn.mark()
        tracer = self.db.tracer
        span_cm = (
            tracer.span("statement", sql=stmt.to_sql())
            if tracer.enabled
            else _NO_SPAN
        )
        try:
            with span_cm:
                result = self._execute_ast_inner(stmt, strategy)
        except BaseException:
            txn.rollback_to(token)
            raise
        finally:
            resilience.end_statement()
            if pinned and not txn.explicit:
                self.db.mvcc.unpin(txn)
        txn.release(token)
        return result

    def _execute_ast_inner(
        self,
        stmt: ast.Statement,
        strategy: SlicingStrategy,
    ) -> Any:
        if isinstance(stmt, ast.AlterTable):
            if stmt.action == "ADD TRANSACTIONTIME":
                return self.add_transactiontime(stmt.name)
            return self.add_validtime(stmt.name)
        if isinstance(stmt, (ast.CreateFunction, ast.CreateProcedure)):
            return self.register_routine_ast(stmt)
        if isinstance(stmt, ast.CreateView) and stmt.select.modifier is not None:
            return self._create_sequenced_view(stmt)
        modifier = getattr(stmt, "modifier", None)
        if modifier is None:
            return self._execute_current_or_plain(stmt)
        registry = (
            self.tt_registry if modifier.dimension == "TRANSACTION" else self.registry
        )
        if modifier.flavor is ast.TemporalFlavor.NONSEQUENCED:
            return self._execute_nonsequenced(stmt, modifier.dimension)
        context = self._resolve_context(stmt, modifier, registry)
        return self._execute_sequenced(stmt, context, strategy, registry)

    def add_validtime(self, table_name: str) -> TemporalTableInfo:
        """``ALTER TABLE t ADD VALIDTIME``: give ``t`` valid-time support.

        Missing timestamp columns are added; existing rows become valid
        over the whole timeline (the usual migration semantics).
        """
        table = self.db.catalog.get_table(table_name)
        info = TemporalTableInfo(name=table.name)
        columns_added = False
        for column_name, default in (
            (info.begin_column, Date(Date.MIN_ORDINAL)),
            (info.end_column, Date(Date.MAX_ORDINAL)),
        ):
            if not table.has_column(column_name):
                table.add_column(Column(column_name, SqlType("DATE")), default)
                columns_added = True
        if columns_added:
            # the table's shape changed out-of-band: compiled plans that
            # bound against the old column layout must not be reused
            self.db.catalog.note_schema_change()
        self.registry.add(info, table)
        return info

    def add_transactiontime(self, table_name: str) -> TemporalTableInfo:
        """``ALTER TABLE t ADD TRANSACTIONTIME``: system-maintained
        ``[tt_start, tt_stop)`` columns; see :mod:`repro.temporal.transaction`."""
        from repro.temporal.transaction import add_transactiontime

        return add_transactiontime(self.db, self.tt_registry, table_name, self.clock)

    def _create_sequenced_view(self, stmt: "ast.CreateView") -> None:
        """A view whose body carries a temporal modifier (paper §III lists
        view definitions among the statements modifiers apply to).

        Sequenced bodies are transformed with per-statement slicing's
        algebraic fragment (self-contained SQL, no cp tables), so the
        stored view stays an ordinary view whose rows carry a validity
        period; nonsequenced bodies are stored raw.
        """
        modifier = stmt.select.modifier
        if modifier.flavor is ast.TemporalFlavor.NONSEQUENCED:
            body = clone(stmt.select)
            body.modifier = None
            self.db.catalog.add_view(stmt.name, body)
            return None
        registry = (
            self.tt_registry if modifier.dimension == "TRANSACTION" else self.registry
        )
        self._check_sequenced_preconditions(stmt.select)
        transformer = PerstTransformer(self.db.catalog, registry)
        result = transformer.transform(stmt.select)
        if result.cp_requirements:
            raise TemporalError(
                "sequenced views support the algebraic fragment only"
                " (no per-statement constant-period loops)"
            )
        self._install_routines(result.routines)
        body = clone(result.statement)
        context = self._resolve_context(stmt.select, modifier, registry)
        substitute_context(body, context)
        self.db.catalog.add_view(stmt.name, body)
        return None

    def create_temporal_table(self, ddl: str) -> TemporalTableInfo:
        """CREATE TABLE followed by ADD VALIDTIME, as one call."""
        stmt = parse_statement(ddl)
        if not isinstance(stmt, ast.CreateTable):
            raise TemporalError("create_temporal_table expects CREATE TABLE")
        self.db.execute_ast(stmt)
        return self.add_validtime(stmt.name)

    def register_routine(self, sql: str) -> None:
        """Register a Temporal SQL/PSM routine (stored in original form)."""
        stmt = parse_statement(sql)
        if not isinstance(stmt, (ast.CreateFunction, ast.CreateProcedure)):
            raise TemporalError("register_routine expects CREATE FUNCTION/PROCEDURE")
        self.register_routine_ast(stmt)

    def register_routine_ast(
        self, stmt: Union[ast.CreateFunction, ast.CreateProcedure]
    ) -> None:
        kind = "FUNCTION" if isinstance(stmt, ast.CreateFunction) else "PROCEDURE"
        if analysis.has_inner_modifier(stmt.body):
            prepared = self._prepare_inner_modifiers(stmt)
            self.db.catalog.add_routine(Routine(kind=kind, definition=prepared))
            self._nonseq_only_routines.add(stmt.name.lower())
        else:
            self.db.catalog.add_routine(Routine(kind=kind, definition=stmt))
        # durable form: the *original* (pre-rewrite) definition, so
        # recovery re-registers through the stratum and rebuilds the
        # nonsequenced-only bookkeeping the catalog records can't carry
        txn = self.db.txn
        if txn.wal is not None:
            txn.wal.record_stratum_routine(stmt.to_sql())
        # a re-registration invalidates any clones derived from old bodies
        self._installed_clones = {
            c for c in self._installed_clones
            if not c.endswith("_" + stmt.name.lower())
        }

    # ------------------------------------------------------------------
    # transformation inspection
    # ------------------------------------------------------------------

    def transform(
        self,
        sql: str,
        strategy: SlicingStrategy = SlicingStrategy.MAX,
    ) -> Union[CurrentTransformResult, MaxTransformResult, PerstTransformResult]:
        """Return the conventional SQL/PSM a statement transforms into."""
        stmt = parse_statement(sql)
        modifier = getattr(stmt, "modifier", None)
        if modifier is None:
            return transform_current(stmt, self.db.catalog, self.registry)
        if modifier.flavor is ast.TemporalFlavor.NONSEQUENCED:
            plain = clone(stmt)
            plain.modifier = None
            return CurrentTransformResult(statement=plain, routines=[])
        self._check_sequenced_preconditions(stmt)
        if strategy is SlicingStrategy.PERST:
            transformer = PerstTransformer(self.db.catalog, self.registry)
            result = transformer.transform(stmt)
            context = self._resolve_context(stmt, modifier)
            substitute_context(result.statement, context)
            return result
        return transform_query_max(stmt, self.db.catalog, self.registry, MAX_CP_TABLE)

    # ------------------------------------------------------------------
    # current / nonsequenced execution
    # ------------------------------------------------------------------

    def _execute_current_or_plain(self, stmt: ast.Statement) -> Any:
        touches_vt = analysis.reads_temporal(stmt, self.db.catalog, self.registry)
        touches_tt = analysis.reads_temporal(stmt, self.db.catalog, self.tt_registry)
        if not touches_vt and not touches_tt:
            return self.db.execute_ast(stmt)
        self._reject_nonseq_only(stmt, "current")
        if isinstance(stmt, (ast.Insert, ast.Update, ast.Delete)):
            dml_result = self._execute_dml(stmt)
            if dml_result is not NotImplemented:
                return dml_result
        tracer = self.db.tracer
        key = self._cache_key("cur", stmt)
        cached = self._transform_fetch(key)
        if cached is not None:
            with tracer.span("stratum.transform", strategy="current") as span:
                span.set(cached=True)
            return self.db.execute_ast(cached)
        with tracer.span("stratum.transform", strategy="current") as span:
            span.set(cached=False)
            self.db.stats.transforms += 1
            if touches_vt:
                result = transform_current(stmt, self.db.catalog, self.registry)
                self._install_routines(result.routines)
                stmt = result.statement
            if touches_tt:
                stmt = self._apply_transaction_currency(stmt)
            self._transform_store(key, stmt)
        return self.db.execute_ast(stmt)

    def _execute_dml(self, stmt) -> Any:
        """Dispatch modifications of temporal tables.

        Returns NotImplemented when the statement is not a temporal DML
        (plain tables, or a SELECT-shaped statement) so the caller falls
        through to the read path.
        """
        is_vt = self.registry.is_temporal(stmt.table)
        is_tt = self.tt_registry.is_temporal(stmt.table)
        if is_vt and is_tt:
            raise TemporalError(
                "direct modification of a bitemporal table through the"
                " stratum is not supported; load history at the engine"
                " level or use a transaction-time-only table"
            )
        if is_tt:
            from repro.temporal.transaction import TransactionTimeDml

            dml = TransactionTimeDml(self.db, self.tt_registry)
            if isinstance(stmt, ast.Insert):
                return dml.execute_insert(stmt, self.clock)
            matcher = self._match_statement(stmt, self.tt_registry, "believed")
            return dml.execute_modification(matcher, self.clock)
        if is_vt and not isinstance(stmt, ast.Insert):
            # TUC: close the currently-valid versions at now (an UPDATE
            # re-inserts them changed); current INSERT is a transformation
            return execute_current_modification(
                self.db, self.registry.get(stmt.table),
                self._match_statement(stmt, self.registry, "current"),
                self.db.now, "current_rewrite",
            )
        return NotImplemented

    def _match_statement(
        self, stmt: Union[ast.Update, ast.Delete], registry: TemporalRegistry,
        restriction: str,
    ) -> Union[ast.Update, ast.Delete]:
        """The cached :func:`~repro.temporal.modifications.match_statement`
        of ``stmt`` (without its modifier): one statement object, hence
        one engine plan, however often the text is re-parsed and
        whatever ``now``, the context or the clock is by then."""
        plain = copy.copy(stmt)
        plain.modifier = None
        key = (
            "match", restriction, statement_key(plain),
            self.registry.version, self.tt_registry.version,
        )
        matcher = self._transform_fetch(key)
        if matcher is None:
            self.db.stats.transforms += 1
            matcher = match_statement(plain, registry.get(stmt.table), restriction)
            self._transform_store(key, matcher)
        return matcher

    def _apply_transaction_currency(self, stmt: ast.Statement) -> ast.Statement:
        """Restrict transaction-time tables to the rows believed at the
        clock — the second dimension's current semantics, applied after
        any valid-time transformation (so it also covers the clones the
        first pass installed)."""
        result = transform_current(
            stmt,
            self.db.catalog,
            self.tt_registry,
            prefix="curtt_",
            point=ast.Literal(value=self.clock),
        )
        self._install_routines(result.routines)
        return result.statement

    def _execute_nonsequenced(self, stmt: ast.Statement, dimension: str = "VALID") -> Any:
        with self.db.tracer.span("stratum.nonsequenced", dim=dimension.lower()):
            plain = clone(stmt)
            plain.modifier = None
            self._refresh_inner_cp_tables(stmt)
            # nonsequenced exposes the named dimension's timestamps raw, but
            # the *other* dimension keeps its current semantics on tables
            # that carry it
            if dimension == "VALID":
                if analysis.reads_temporal(plain, self.db.catalog, self.tt_registry):
                    plain = self._apply_transaction_currency(plain)
            else:
                if analysis.reads_temporal(plain, self.db.catalog, self.registry):
                    result = transform_current(plain, self.db.catalog, self.registry)
                    self._install_routines(result.routines)
                    plain = result.statement
            return self.db.execute_ast(plain)

    # ------------------------------------------------------------------
    # sequenced execution
    # ------------------------------------------------------------------

    def _resolve_context(
        self,
        stmt: ast.Statement,
        modifier: ast.TemporalModifier,
        registry: Optional[TemporalRegistry] = None,
    ) -> Period:
        registry = registry if registry is not None else self.registry
        if modifier.begin is not None:
            env = Env()
            begin = self.db.executor.evaluate(modifier.begin, env)
            end = self.db.executor.evaluate(modifier.end, env)
            if not isinstance(begin, Date) or not isinstance(end, Date):
                raise TemporalError("temporal context bounds must be DATEs")
            return Period(begin.ordinal, end.ordinal)
        # default: the span of the data, so cp stays finite
        tables = analysis.reachable_temporal_tables(stmt, self.db.catalog, registry)
        points: set[int] = set()
        for name in tables:
            info = registry.get(name)
            table = self.db.read_table(name)
            points |= table.change_points(
                table.column_index(info.begin_column),
                table.column_index(info.end_column),
            )
        if not points:
            return Period(Date.MIN_ORDINAL, Date.MAX_ORDINAL)
        return Period(min(points), max(points))

    def _check_sequenced_preconditions(self, stmt: ast.Statement) -> None:
        self._reject_nonseq_only(stmt, "sequenced")

    def _reject_nonseq_only(self, stmt: ast.Statement, flavor: str) -> None:
        flagged = [
            name
            for name in analysis.reachable_routines(stmt, self.db.catalog)
            if name in self._nonseq_only_routines
        ]
        if flagged:
            raise SequencedContextError(
                f"routine(s) {', '.join(sorted(flagged))} contain explicit"
                f" temporal modifiers and may only be invoked from a"
                f" nonsequenced context (attempted: {flavor})"
            )

    def _execute_sequenced(
        self,
        stmt: ast.Statement,
        context: Period,
        strategy: SlicingStrategy,
        registry: Optional[TemporalRegistry] = None,
    ) -> Union[TemporalResult, list[TemporalResult]]:
        registry = registry if registry is not None else self.registry
        self._check_sequenced_preconditions(stmt)
        if isinstance(stmt, (ast.Insert, ast.Update, ast.Delete)):
            if registry is self.tt_registry:
                raise TemporalError(
                    "transaction time is system-maintained; sequenced"
                    " TRANSACTIONTIME modifications are not meaningful"
                )
            info = registry.get(stmt.table)
            if info is None:
                raise TemporalError(
                    f"sequenced modification requires a temporal table;"
                    f" {stmt.table!r} has no valid-time support"
                )
            if isinstance(stmt, ast.Insert):
                plain = copy.copy(stmt)
                plain.modifier = None
            else:
                plain = self._match_statement(stmt, registry, "sequenced")
            return execute_sequenced_modification(self.db, info, plain, context)
        self.last_fallback = None
        other_registry = (
            self.registry if registry is self.tt_registry else self.tt_registry
        )
        if strategy is SlicingStrategy.AUTO:
            from repro.temporal.heuristic import choose_strategy

            strategy = choose_strategy(
                stmt, self.db, registry, context,
                other_registry=other_registry,
            ).strategy
        elif strategy is SlicingStrategy.COST:
            from repro.temporal.heuristic import choose_by_cost

            # measured unit costs when the registry has samples,
            # static calibration otherwise
            strategy, estimate, _why = choose_by_cost(
                stmt, self.db, registry, context,
                other_registry=other_registry,
            )
            if estimate is not None:
                self.last_estimate = estimate
        self.last_strategy = strategy
        if strategy is SlicingStrategy.SEQSET:
            outcome = self._execute_sequenced_seqset(stmt, context, registry)
            if outcome is not NotImplemented:
                return outcome
            # transparent fallback: MAX reproduces results (and errors)
            # for every statement SEQ-SET declines
            self.last_strategy = SlicingStrategy.MAX
            return self._execute_sequenced_max(stmt, context, registry)
        if strategy is SlicingStrategy.MAX:
            return self._execute_sequenced_max(stmt, context, registry)
        return self._execute_sequenced_perst(stmt, context, registry)

    # -- MAX ---------------------------------------------------------------

    def _execute_sequenced_max(
        self,
        stmt: ast.Statement,
        context: Period,
        registry: Optional[TemporalRegistry] = None,
    ) -> Union[TemporalResult, list[TemporalResult]]:
        registry = registry if registry is not None else self.registry
        dim = "tt" if registry is self.tt_registry else "vt"
        tracer = self.db.tracer
        key = self._cache_key("max", stmt, dim)
        cached = self._transform_fetch(key)
        if cached is not None:
            # context only drives the cp materialization (redone per
            # execution over the live data), never the transformation
            with tracer.span("stratum.transform", strategy="max", dim=dim) as span:
                span.set(cached=True)
                temporal_tables, statement = cached
            with tracer.span("stratum.constant_periods", cp_table=MAX_CP_TABLE) as span:
                slices = materialize_constant_periods(
                    self.db, temporal_tables, registry, context, MAX_CP_TABLE
                )
                span.set(slices=slices)
        else:
            with tracer.span("stratum.transform", strategy="max", dim=dim) as span:
                span.set(cached=False)
                self.db.stats.transforms += 1
                result = transform_query_max(
                    stmt, self.db.catalog, registry, MAX_CP_TABLE
                )
            with tracer.span("stratum.constant_periods", cp_table=MAX_CP_TABLE) as span:
                slices = materialize_constant_periods(
                    self.db, result.temporal_tables, registry, context, MAX_CP_TABLE
                )
                span.set(slices=slices)
            # only this transformation knows that a clone's appended
            # point parameter sits in overlap-at-point predicates and
            # pass-along arguments alone, so it is what declares it —
            # when nothing the statement reaches writes
            catalog = self.db.catalog
            self._install_routines(
                result.routines,
                declare_point=catalog.write_free(
                    *analysis.called_routines(stmt, catalog)
                ),
            )
            statement = self._apply_other_dimension_currency(
                result.statement, registry
            )
            self._transform_store(key, (result.temporal_tables, statement))
        if isinstance(statement, ast.Select):
            started = time.perf_counter()
            with tracer.span("stratum.max.execute", slices=slices):
                engine_result = self.db.execute_ast(statement)
            self.db.obs.timer("stratum.max.slice_seconds").record(
                time.perf_counter() - started, slices
            )
            return TemporalResult(engine_result.columns, engine_result.rows)
        if isinstance(statement, ast.CallStatement):
            return self._drive_max_call(statement, context, slices)
        raise TemporalError(
            f"sequenced {type(stmt).__name__} unsupported under MAX"
        )

    def _apply_other_dimension_currency(
        self, statement: ast.Statement, registry: TemporalRegistry
    ) -> ast.Statement:
        """After a sequenced transformation along one dimension, restrict
        the other dimension to its current state on tables that carry it
        (bitemporal composition, paper §III)."""
        if registry is self.registry:
            other = self.tt_registry
            if analysis.reads_temporal(statement, self.db.catalog, other):
                return self._apply_transaction_currency(statement)
            return statement
        other = self.registry
        if analysis.reads_temporal(statement, self.db.catalog, other):
            result = transform_current(statement, self.db.catalog, other)
            self._install_routines(result.routines)
            return result.statement
        return statement

    def _drive_max_call(
        self, call_stmt: ast.CallStatement, context: Period, slices: int = 0
    ) -> list[TemporalResult]:
        """Invoke the max_ procedure once per constant period (§V).

        Result sets from each invocation are stamped with the period.
        """
        cp = self.db.catalog.get_table(MAX_CP_TABLE)
        stamped: list[TemporalResult] = []
        # one clone for the whole loop: the point argument is a shared
        # literal whose value advances per period, so the engine sees the
        # same statement (and routine-body) AST every iteration and its
        # plan cache can hit on every period after the first
        per_period = clone(call_stmt)
        placeholder = ast.Literal(value=None)
        per_period.args = per_period.args + [placeholder]
        tracer = self.db.tracer
        stats = self.db.stats
        resilience = self.db.resilience

        def invocations() -> int:
            # an invocation the result memo served still counts as one
            return stats.total_routine_calls + self.db.obs.value(
                "engine.routine_memo.hits"
            )

        calls_before = invocations()
        started = time.perf_counter()
        with tracer.span("stratum.max.loop", slices=slices):
            for row in list(cp.rows):
                # watchdog: a MAX evaluation is tens to thousands of
                # routine invocations (DS1-LARGE × 365 d: q9 = 106
                # through this loop, one engine statement per period, so
                # the result memo never spans two; q17b = 31 160 as one
                # SELECT, 3 681 of them run); every constant period is a
                # cancellation point
                if resilience.armed:
                    resilience.check()
                begin, end = row[0], row[1]
                placeholder.value = begin
                if tracer.enabled:
                    with tracer.span(
                        "stratum.max.period",
                        begin=begin.to_iso(), end=end.to_iso(),
                    ):
                        results = self.db.execute_ast(per_period)
                else:
                    results = self.db.execute_ast(per_period)
                for index, result in enumerate(results or []):
                    columns = result.columns + ["begin_time", "end_time"]
                    rows = [list(r) + [begin, end] for r in result.rows]
                    if index < len(stamped):
                        stamped[index].rows.extend(rows)
                    else:
                        stamped.append(TemporalResult(columns, rows))
        # one aggregate timing for the whole loop feeds the measured-cost
        # heuristic with per-slice and per-invocation means
        elapsed = time.perf_counter() - started
        self.db.obs.timer("stratum.max.slice_seconds").record(elapsed, slices)
        self.db.obs.timer("stratum.max.invocation_seconds").record(
            elapsed, invocations() - calls_before
        )
        return stamped

    # -- SEQ-SET ------------------------------------------------------------

    def _execute_sequenced_seqset(
        self,
        stmt: ast.Statement,
        context: Period,
        registry: Optional[TemporalRegistry] = None,
    ) -> Union[TemporalResult, Any]:
        """One set-oriented pass (:mod:`repro.temporal.seqset`).

        Returns ``NotImplemented`` when the statement is outside the
        covered fragment (or the vectorized path degrades at run time);
        the caller then re-runs it under MAX, with the reason recorded
        in :attr:`last_fallback`.
        """
        from repro.temporal.seqset import (
            SeqSetRuntimeFallback,
            SeqSetUnsupportedError,
            compile_seqset,
            execute_seqset,
        )

        registry = registry if registry is not None else self.registry
        dim = "tt" if registry is self.tt_registry else "vt"
        other_registry = (
            self.registry if registry is self.tt_registry else self.tt_registry
        )
        tracer = self.db.tracer
        key = self._cache_key("seqset", stmt, dim)
        cached = self._transform_fetch(key)
        if cached is not None:
            with tracer.span("stratum.transform", strategy="seqset", dim=dim) as span:
                span.set(cached=True)
                tag, payload = cached
            if tag == "fallback":
                self.last_fallback = payload
                return NotImplemented
            plan = payload
        else:
            with tracer.span("stratum.transform", strategy="seqset", dim=dim) as span:
                span.set(cached=False)
                self.db.stats.transforms += 1
                try:
                    plan = compile_seqset(
                        self.db, registry, stmt, other_registry=other_registry
                    )
                except SeqSetUnsupportedError as exc:
                    span.set(fallback=str(exc))
                    # negative entries are cached too: re-deciding the
                    # fallback must not recompile on every execution
                    self._transform_store(key, ("fallback", str(exc)))
                    self.last_fallback = str(exc)
                    return NotImplemented
            self._transform_store(key, ("plan", plan))
        with tracer.span("stratum.constant_periods", cp_table=MAX_CP_TABLE) as span:
            slices = materialize_constant_periods(
                self.db, plan.temporal_tables, registry, context, MAX_CP_TABLE
            )
            span.set(slices=slices)
        started = time.perf_counter()
        try:
            with tracer.span("stratum.seqset.execute", slices=slices):
                columns, rows = execute_seqset(
                    self.db, plan, context, MAX_CP_TABLE
                )
        except SeqSetRuntimeFallback as exc:
            self.last_fallback = str(exc)
            return NotImplemented
        # mean per combination of the plan's shape (per row for a single
        # table), the unit the measured-cost model prices SEQ-SET in —
        # so a cross product's seconds do not inflate a selection's unit
        self.db.obs.timer("stratum.seqset.row_seconds").record(
            time.perf_counter() - started, plan.combinations(self.db)
        )
        return TemporalResult(columns, rows)

    # -- PERST --------------------------------------------------------------

    def _execute_sequenced_perst(
        self,
        stmt: ast.Statement,
        context: Period,
        registry: Optional[TemporalRegistry] = None,
    ) -> Union[TemporalResult, list[TemporalResult]]:
        registry = registry if registry is not None else self.registry
        dim = "tt" if registry is self.tt_registry else "vt"
        tracer = self.db.tracer
        # the context is substituted into the statement as literals, so
        # unlike MAX it is part of the key
        key = self._cache_key("perst", stmt, dim, context.begin, context.end)
        cached = self._transform_fetch(key)
        if cached is not None:
            cp_requirements, statement = cached
            with tracer.span("stratum.transform", strategy="perst", dim=dim) as span:
                span.set(cached=True)
            for cp_table, tables in cp_requirements.items():
                with tracer.span("stratum.constant_periods", cp_table=cp_table) as span:
                    span.set(slices=materialize_constant_periods(
                        self.db, tables, registry, context, cp_table
                    ))
        else:
            with tracer.span("stratum.transform", strategy="perst", dim=dim) as span:
                span.set(cached=False)
                self.db.stats.transforms += 1
                transformer = PerstTransformer(self.db.catalog, registry)
                result = transformer.transform(stmt)
            for cp_table, tables in result.cp_requirements.items():
                with tracer.span("stratum.constant_periods", cp_table=cp_table) as span:
                    span.set(slices=materialize_constant_periods(
                        self.db, tables, registry, context, cp_table
                    ))
            self._install_routines(result.routines)
            statement = clone(result.statement)
            substitute_context(statement, context)
            statement = self._apply_other_dimension_currency(statement, registry)
            self._transform_store(key, (result.cp_requirements, statement))
        data_rows = sum(
            len(self.db.catalog.get_table(name))
            for name in analysis.reachable_temporal_tables(
                stmt, self.db.catalog, registry
            )
        )
        started = time.perf_counter()
        with tracer.span("stratum.perst.execute", rows=data_rows):
            if isinstance(statement, ast.Select):
                engine_result = self.db.execute_ast(statement)
                outcome = TemporalResult(engine_result.columns, engine_result.rows)
            elif isinstance(statement, ast.CallStatement):
                results = self.db.execute_ast(statement) or []
                outcome = [TemporalResult(r.columns, r.rows) for r in results]
            else:
                raise TemporalError(
                    f"sequenced {type(stmt).__name__} unsupported under PERST"
                )
        # per-row mean over the temporal data PERST passes over once
        self.db.obs.timer("stratum.perst.row_seconds").record(
            time.perf_counter() - started, data_rows
        )
        return outcome

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _install_routines(self, definitions: list, declare_point: bool = False) -> None:
        """Install transformation clones.  ``declare_point`` marks the
        last parameter of each function — the point MAX appended — as
        its ``Routine.window_param``."""
        catalog = self.db.catalog
        for definition in definitions:
            key = definition.name.lower()
            self._installed_clones.add(key)
            is_function = isinstance(definition, ast.CreateFunction)
            window_param = (
                len(definition.params) - 1 if declare_point and is_function else None
            )
            if catalog.has_routine(key):
                installed = catalog.get_routine(key)
                if installed.window_param == window_param and (
                    installed.definition is definition
                    or installed.definition.to_sql() == definition.to_sql()
                ):
                    # a re-transform renders the clone it installed last
                    # time: installing it again would bump the catalog
                    # schema version and evict every *other* statement's
                    # cached transform and compiled plans.  (A changed
                    # declaration must do exactly that: a statement that
                    # shares the clone decided it under the old one.)
                    continue
            catalog.add_routine(
                Routine(
                    kind="FUNCTION" if is_function else "PROCEDURE",
                    definition=definition,
                    window_param=window_param,
                ),
                replace=True,
            )

    def _prepare_inner_modifiers(
        self, definition: Union[ast.CreateFunction, ast.CreateProcedure]
    ):
        """Rewrite explicit inner VALIDTIME statements (nonsequenced-only
        routines) into conventional SQL via maximal slicing."""
        new_def = clone(definition)
        cp_table = f"taupsm_cp_nonseq_{definition.name.lower()}"

        def rewrite_statements(statements: list[ast.Statement]) -> None:
            for index, inner in enumerate(statements):
                modifier = getattr(inner, "modifier", None)
                if modifier is not None and modifier.flavor is ast.TemporalFlavor.SEQUENCED:
                    if not isinstance(inner, ast.Select):
                        raise TemporalError(
                            "inner VALIDTIME is supported on SELECT"
                            " statements only"
                        )
                    result = transform_query_max(
                        inner, self.db.catalog, self.registry, cp_table
                    )
                    self._install_routines(result.routines)
                    self._inner_cp_requirements[cp_table] = result.temporal_tables
                    statements[index] = result.statement
                elif modifier is not None:
                    plain = clone(inner)
                    plain.modifier = None
                    statements[index] = plain
                else:
                    recurse(inner)

        def recurse(node: ast.Statement) -> None:
            if isinstance(node, ast.Compound):
                rewrite_statements(node.statements)
            elif isinstance(node, ast.IfStatement):
                for _, body in node.branches:
                    rewrite_statements(body)
                if node.else_branch is not None:
                    rewrite_statements(node.else_branch)
            elif isinstance(node, ast.CaseStatement):
                for _, body in node.whens:
                    rewrite_statements(body)
                if node.else_branch is not None:
                    rewrite_statements(node.else_branch)
            elif isinstance(
                node,
                (ast.WhileStatement, ast.RepeatStatement, ast.LoopStatement,
                 ast.ForStatement),
            ):
                rewrite_statements(node.body)

        recurse(new_def.body)
        return new_def

    def _refresh_inner_cp_tables(self, stmt: ast.Statement) -> None:
        """Materialize cp tables needed by nonsequenced-only routines."""
        if not self._inner_cp_requirements:
            return
        reachable = set(analysis.reachable_routines(stmt, self.db.catalog))
        for cp_table, tables in self._inner_cp_requirements.items():
            owner = cp_table.replace("taupsm_cp_nonseq_", "")
            if owner in reachable or owner in {
                r.lower() for r in reachable
            }:
                context = Period(Date.MIN_ORDINAL, Date.MAX_ORDINAL)
                points: set[int] = set()
                for name in tables:
                    info = self.registry.get(name)
                    table = self.db.read_table(name)
                    points |= table.change_points(
                        table.column_index(info.begin_column),
                        table.column_index(info.end_column),
                    )
                if points:
                    context = Period(min(points), max(points))
                materialize_constant_periods(
                    self.db, tables, self.registry, context, cp_table
                )


def substitute_context(stmt: ast.Statement, context: Period) -> None:
    """Replace top-level ``ps_begin`` / ``ps_end`` names with literals."""

    def rewriter(expr: ast.Expression):
        if isinstance(expr, ast.Name) and expr.qualifier is None:
            if expr.name.lower() == BEGIN_PARAM:
                return ast.Literal(value=Date(context.begin))
            if expr.name.lower() == END_PARAM:
                return ast.Literal(value=Date(context.end))
        return None

    rewrite_expressions(stmt, rewriter)
