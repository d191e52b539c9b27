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

Every statement takes one path (DESIGN.md §3.10, *The statement
pipeline*): :meth:`TemporalStratum.prepare` decides and transforms —
it returns a :class:`PreparedStatement` naming the semantics, the
strategy and why it was chosen, and the :class:`Candidate`
transformation the engine will receive — and ``_run`` installs that
candidate's routine clones, materializes its constant periods and
executes it.  ``execute_ast`` is *prepare + run*; ``EXPLAIN`` renders
the same record (:mod:`repro.obs.explain`); the §VII-F heuristic asks
:meth:`TemporalStratum.candidate` — the one cached place a
transformation is built — which strategies apply.  Nothing is
installed, and no catalog version moves, until a candidate runs.

Use :meth:`TemporalStratum.transform` to inspect the conventional SQL a
statement turns into (the paper's Figures 5-11).
"""

from __future__ import annotations

import copy
import enum
import re
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Union

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.catalog import Catalog, Routine, body_facts
from repro.sqlengine.engine import Database, PlanCache
from repro.sqlengine.executor import Env
from repro.sqlengine.parser import parse_script, parse_statement
from repro.sqlengine.storage import Column
from repro.sqlengine.types import SqlType
from repro.sqlengine.values import Date
from repro.temporal import analysis
from repro.temporal.constant_periods import materialize_constant_periods
from repro.temporal.current import transform_current
from repro.temporal.errors import (
    FeatureNotSupportedError,
    SequencedContextError,
    TemporalError,
)
from repro.temporal.heuristic import StrategyChoice, choose_strategy
from repro.temporal.max_slicing import statement_key, transform_query_max
from repro.temporal.modifications import (
    execute_current_modification,
    execute_sequenced_modification,
    match_statement,
    reads,
)
from repro.temporal.period import Period, coalesce
from repro.temporal.perst_slicing import PerstTransformer, substitute_context
from repro.obs.tracing import _NOOP as _NO_SPAN
from repro.temporal.schema import TemporalRegistry, TemporalTableInfo
from repro.temporal.seqset import compile_seqset, execute_seqset
from repro.temporal.transaction import add_transactiontime
from repro.temporal.transform_util import clone, map_bodies

MAX_CP_TABLE = "taupsm_cp"


class SlicingStrategy(enum.Enum):
    """How to evaluate a sequenced statement.

    ``AUTO`` applies the paper's §VII-F rule heuristic (extended with
    rule (s): a routine-free SELECT runs under MAX, whose constant-period
    join the planner aligns in one pass).  ``SEQSET`` is only another
    name for ``MAX`` and ``COST`` for ``AUTO``: neither is accepted where
    a strategy is named, and there is no cost model.
    """

    MAX = "max"
    PERST = "perst"
    AUTO = "auto"
    SEQSET = "max"
    COST = "auto"


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


@dataclass
class Candidate:
    """What one flavor of transformation makes of one statement — or why
    it has none (``statement`` is None; ``reason`` and ``error`` say what
    a caller that insisted on this flavor is told)."""

    # the conventional statement the engine receives, every dimension the
    # modifier did not name already restricted to its current state (for
    # "match" the statement that finds a modification's versions)
    statement: Optional[ast.Statement] = None
    # routine clones the statement calls, in installation order
    clones: list[Routine] = field(default_factory=list)
    # constant-period table → the temporal tables whose change points it
    # holds; materialized over the context before the statement runs
    cp_requirements: dict[str, list[str]] = field(default_factory=dict)
    temporal_tables: list[str] = field(default_factory=list)
    # the transaction clock the transaction-currency pass wrote into the
    # statement or its clones as a literal (None: it wrote none)
    clock: Optional[Date] = None
    reason: str = ""
    error: type = TemporalError

    @property
    def applicable(self) -> bool:
        return self.statement is not None

    def require(self) -> "Candidate":
        """This candidate, or the refusal its transformation raised."""
        if self.statement is None:
            raise self.error(self.reason)
        return self

    def to_sql(self) -> str:
        parts = [routine.definition.to_sql() + ";" for routine in self.clones]
        parts.append(self.statement.to_sql() + ";")
        return "\n\n".join(parts)


@dataclass
class PreparedStatement:
    """Everything decided about one statement before it runs: what
    ``_run`` executes and what ``EXPLAIN`` renders."""

    statement: ast.Statement  # as submitted
    # "conventional" (no temporal table reached), "current",
    # "nonsequenced", "sequenced" (a query) or "modification" (DML the
    # stratum carries out itself through the candidate's match statement)
    semantics: str
    candidate: Candidate
    # the dimensions whose semantics apply: the one the modifier names,
    # or each one a statement without a modifier reads
    dimensions: tuple = ()
    # the registry sliced along, or whose periods a modification maintains
    registry: Optional[TemporalRegistry] = None
    context: Optional[Period] = None  # sequenced statements only
    # sequenced queries: the decision (requested or a §VII-F rule) and
    # the strategy that runs
    choice: Optional[StrategyChoice] = None
    strategy: Optional[SlicingStrategy] = None
    # registry versions, clock and ``now`` when preparing read no data: the
    # statement cache reuses the record while they hold (None: never)
    stamp: Optional[tuple] = None


def _reusable(prepared: PreparedStatement, strategy: SlicingStrategy) -> bool:
    """Whether ``prepared`` decided nothing from the data: not under a
    context without two literal bounds (the data span, or an expression),
    nor by an AUTO rule that compares row totals with thresholds (rules
    s and a read only the catalog)."""
    modifier = getattr(prepared.statement, "modifier", None)
    literal = prepared.context is None or (
        isinstance(modifier.begin, ast.Literal) and isinstance(modifier.end, ast.Literal)
    )
    return literal and (
        strategy is not SlicingStrategy.AUTO
        or prepared.choice is None or prepared.choice.rule in ("s", "a")
    )


def _refuse_limit(stmt: ast.Statement) -> None:
    """A sequenced SELECT must not carry a LIMIT of its own, in any
    set-operation arm: every strategy would cut the rows of the whole
    context instead of each snapshot's.  A subquery's LIMIT is evaluated
    per snapshot, so it stays allowed."""
    arm = stmt
    while isinstance(arm, ast.Select):
        if arm.limit is not None:
            raise FeatureNotSupportedError(
                "LIMIT on a sequenced SELECT is not supported: it would cut"
                " the rows of the whole context, not of each period's snapshot"
            )
        arm = arm.set_rhs


class _WithClones:
    """The catalog as it will read once ``clones`` are installed: the
    view a second transformation pass takes of the first pass's output,
    since a candidate is built without installing anything."""

    def __init__(self, catalog, clones: list[Routine]) -> None:
        self._catalog = catalog
        self._clones = {routine.name.lower(): routine for routine in clones}

    def get_routine(self, name: str) -> Routine:
        return self._clones.get(name.lower()) or self._catalog.get_routine(name)

    def find_routine(self, key: str) -> Optional[Routine]:
        return self._clones.get(key) or self._catalog.find_routine(key)

    reach = Catalog.reach  # over this view's find_routine

    def __getattr__(self, attribute: str) -> Any:
        return getattr(self._catalog, attribute)


def _as_clones(definitions: list, declare_point: bool = False) -> list[Routine]:
    """Transformation output as installable routines.  ``declare_point``
    marks the last parameter of each function — the point MAX appended —
    as its ``Routine.window_param``."""
    clones = []
    for definition in definitions:
        is_function = isinstance(definition, ast.CreateFunction)
        clones.append(Routine(
            kind="FUNCTION" if is_function else "PROCEDURE",
            definition=definition,
            window_param=(
                len(definition.params) - 1 if declare_point and is_function else None
            ),
        ))
    return clones


class TemporalStratum:
    """Temporal SQL/PSM in, conventional SQL/PSM down to the engine."""

    def __init__(self, db: Optional[Database] = None) -> None:
        self.db = db if db is not None else Database()
        self.registry = TemporalRegistry()  # valid time
        self.tt_registry = TemporalRegistry()  # transaction time
        self._nonseq_only_routines: set[str] = set()
        self._inner_cp_requirements: dict[str, list[str]] = {}
        # candidate cache: :meth:`candidate`'s key → Candidate.  An entry
        # is served while nothing the submitted statement reaches changed
        # since it was stored (:class:`PlanCache`), so DDL and routine
        # redefinition can never expose a stale transformation or
        # verdict; the statement's own clones are not among those names,
        # so installing them leaves its entries valid.  Registry
        # versions are part of the key.  Statement-cache
        # entries, ("statement", strategy, text) → PreparedStatement, too.
        self._transform_cache = PlanCache(
            256, self.db.obs.counter("stratum.transform_cache.revalidated")
        )
        self._served: tuple = (None, None)  # :meth:`parse`'s last
        self.last_strategy: Optional[SlicingStrategy] = None
        # transaction clock: None tracks db.now; set a past date for
        # time-travel ("as of") reads of transaction-time tables
        self.transaction_clock: Optional[Date] = None
        # undo-log integration: registry changes are logged like catalog
        # changes
        self.registry.txn = self.db.txn
        self.tt_registry.txn = self.db.txn
        # session switches (Database.activate_txn) must repoint these too
        self.db.txn_followers.extend([self.registry, self.tt_registry])

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
        )
        return stratum

    def attach_durability(
        self,
        path,
        *,
        sync: bool = True,
        auto_checkpoint_bytes: Optional[int] = None,
    ):
        """Bind a WAL + snapshot directory to the underlying database,
        registering this stratum so registry changes are durable."""
        return self.db.attach_durability(
            path,
            stratum=self,
            sync=sync,
            auto_checkpoint_bytes=auto_checkpoint_bytes,
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
    # candidates: the one cached place a transformation is built
    # ------------------------------------------------------------------

    def candidate(
        self, flavor: str, stmt: ast.Statement, registry: TemporalRegistry,
        baked: Any = None,
    ) -> Candidate:
        """``stmt`` transformed the ``flavor`` way along ``registry``'s
        dimension, or the verdict that ``flavor`` does not apply.

        ``flavor`` is ``"current"``, ``"nonsequenced"``, ``"max"``,
        ``"perst"``, ``"match"`` (a modification of a
        table temporal along ``registry``, whose modifier, if any, has no
        bounds) or ``"seqset"``: rule (s)'s verdict, applicable when the
        statement is routine-free (:func:`compile_seqset`), which
        transforms nothing.  ``baked`` is what PERST writes into its output besides
        the statement, hence part of its key: the context
        (:func:`substitute_context`; every other strategy's context only
        drives the cp materialization, redone per execution over the live
        data, and a modification reads its period per execution).
        Building installs nothing and moves no catalog version, so asking
        is free of side effects — the heuristic asks about strategies it
        then does not choose.

        Verdicts, like transformations, are deterministic in (statement
        text, registries, catalog) and — for one the transaction-currency
        pass wrote its clock into (:attr:`Candidate.clock`) — the clock:
        both are cached under the one key scheme and served while the
        schema version they were stored at, and that clock, still stand.
        """
        key = (
            flavor,
            registry is self.tt_registry,
            statement_key(stmt),
            self.registry.version,
            self.tt_registry.version,
            baked if flavor == "perst" else None,
        )
        catalog = self.db.catalog
        found = self._transform_cache.fetch(key, stmt, catalog)
        if found is not None and found.clock in (None, self.clock):
            self.db.stats.transform_hits.value += 1
            return found
        self.db.stats.transformed.value += 1
        try:
            found = self._build_candidate(flavor, stmt, registry, baked)
        except TemporalError as exc:
            found = Candidate(reason=str(exc), error=type(exc))
        self._transform_cache.store(key, catalog.schema_version, found)
        return found

    def _build_candidate(
        self, flavor: str, stmt: ast.Statement, registry: TemporalRegistry,
        baked: Any,
    ) -> Candidate:
        catalog = self.db.catalog
        if flavor == "seqset":
            other = self.registry if registry is self.tt_registry else self.tt_registry
            refusal = compile_seqset(self.db, registry, stmt, other)
            return Candidate(statement=stmt if refusal is None else None, reason=refusal or "")
        found = Candidate(
            temporal_tables=analysis.reachable_temporal_tables(stmt, catalog, registry)
        )
        modifier = getattr(stmt, "modifier", None)
        if flavor == "match":
            found.statement = self._match_statement(stmt, modifier, registry)
        elif flavor == "max":
            result = transform_query_max(stmt, catalog, registry, MAX_CP_TABLE)
            found.statement = result.statement
            # only this transformation knows that a clone's appended
            # point parameter sits in overlap-at-point predicates and
            # pass-along arguments alone, so it is what declares it —
            # when nothing the statement reaches writes
            found.clones = _as_clones(
                result.routines,
                declare_point=catalog.write_free(*catalog.reach(stmt).routines),
            )
            found.cp_requirements = result.cp_requirements
        elif flavor == "perst":
            result = PerstTransformer(catalog, registry).transform(stmt)
            found.statement = clone(result.statement)
            substitute_context(found.statement, baked)
            found.clones = _as_clones(result.routines)
            found.cp_requirements = result.cp_requirements
        else:
            found.statement = clone(stmt)
            found.statement.modifier = None
        # every dimension the modifier did not name keeps its current
        # semantics on the tables that carry it (bitemporal composition,
        # paper §III): valid time at CURRENT_DATE, transaction time at
        # the clock — applied last, so it also covers the clones above
        for dimension, other in (
            ("VALID", self.registry), ("TRANSACTION", self.tt_registry)
        ):
            if modifier is None or modifier.dimension != dimension:
                self._apply_currency(found, other)
        return found

    def _match_statement(
        self, stmt: ast.Statement, modifier: Any, registry: TemporalRegistry
    ) -> ast.Statement:
        """The one statement a modification of a table temporal along
        ``registry`` runs (:func:`match_statement`): sequenced under a
        sequenced modifier, else current along ``registry``."""
        if modifier is not None and modifier.flavor is ast.TemporalFlavor.SEQUENCED:
            # each version is read at no single point: the reads would
            # have to be split at their own constant periods
            if analysis.reads_temporal(
                body_facts(*reads(stmt)), self.db.catalog, registry
            ):
                raise FeatureNotSupportedError(
                    "a sequenced modification may not read data temporal"
                    " along its own dimension (its WHERE, SET, VALUES or"
                    " SELECT reaches a valid-time table)"
                )
            restriction = "sequenced"
        else:
            restriction = "believed" if registry is self.tt_registry else "current"
        columns = self.db.catalog.get_table(stmt.table).column_names
        return match_statement(stmt, registry.get(stmt.table), restriction, columns)

    def _apply_currency(self, found: Candidate, registry: TemporalRegistry) -> None:
        catalog = _WithClones(self.db.catalog, found.clones)
        if not analysis.reads_temporal(
            body_facts(*reads(found.statement)), catalog, registry
        ):
            return
        along_tt = {}
        if registry is self.tt_registry:
            found.clock = self.clock
            along_tt = {"prefix": "curtt_", "point": ast.Literal(value=self.clock)}
        result = transform_current(found.statement, catalog, registry, **along_tt)
        found.statement = result.statement
        found.clones = found.clones + _as_clones(result.routines)

    def _install(self, clones: list[Routine]) -> None:
        """Install the routine clones a statement's transformation calls."""
        catalog = self.db.catalog
        for routine in clones:
            key = routine.name.lower()
            if catalog.has_routine(key):
                installed = catalog.get_routine(key)
                if installed.window_param == routine.window_param and (
                    installed.definition is routine.definition
                    or installed.definition.to_sql() == routine.definition.to_sql()
                ):
                    # a re-transform renders the clone it installed last
                    # time: installing it again would bump the catalog
                    # schema version and send every plan that calls it
                    # through a revalidation that fails.  (A changed
                    # declaration must do exactly that: a statement that
                    # shares the clone decided it under the old one.)
                    continue
            catalog.add_routine(routine, replace=True)

    # ------------------------------------------------------------------
    # registration / DDL
    # ------------------------------------------------------------------

    def execute(
        self,
        sql: str,
        strategy: SlicingStrategy = SlicingStrategy.AUTO,
    ) -> Any:
        """Parse and execute one Temporal SQL/PSM statement."""
        return self.execute_ast(self.parse(sql, strategy), strategy)

    def parse(
        self, sql: str, strategy: SlicingStrategy = SlicingStrategy.AUTO
    ) -> ast.Statement:
        """``sql`` parsed: the statement cache's own AST — shared, never to
        be mutated — while it holds the text under ``strategy``;
        :meth:`execute_ast` then reuses what was prepared for it, while
        that still holds (DESIGN.md §3.10)."""
        key = ("statement", strategy, sql)
        # a stale entry still serves its AST: parsing reads no catalog
        prepared = self._transform_cache.peek(key)
        if prepared is None:
            self.db.obs.inc("stratum.statement_cache.misses")
            stmt = parse_statement(sql)
        else:
            self.db.obs.inc("stratum.statement_cache.hits")
            stmt = prepared.statement
        self._served = (key, stmt)
        return stmt

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
        prepared = self._prepare_served(stmt, strategy)
        if prepared.choice is not None and strategy is SlicingStrategy.AUTO:
            # a decision counts once it is acted on: EXPLAIN prepares too
            self.db.obs.inc(f"heuristic.choice.{prepared.choice.strategy.value}")
        return self._run(prepared)

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
            self.db.catalog.note_schema_change(table.name)
        self.registry.add(info, table)
        return info

    def add_transactiontime(self, table_name: str) -> TemporalTableInfo:
        """``ALTER TABLE t ADD TRANSACTIONTIME``: system-maintained
        ``[tt_start, tt_stop)`` columns; see :mod:`repro.temporal.transaction`."""
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
        found = self.prepare(stmt.select, SlicingStrategy.PERST).candidate
        if found.cp_requirements:
            raise TemporalError(
                "sequenced views support the algebraic fragment only"
                " (no per-statement constant-period loops)"
            )
        self._install(found.clones)
        self.db.catalog.add_view(stmt.name, found.statement)
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
            self._nonseq_only_routines.discard(stmt.name.lower())
        # durable form: the *original* (pre-rewrite) definition, so
        # recovery re-registers through the stratum and rebuilds the
        # nonsequenced-only bookkeeping the catalog records can't carry
        txn = self.db.txn
        if txn.wal is not None:
            txn.wal.record_stratum_routine(stmt.to_sql())

    # ------------------------------------------------------------------
    # prepare: decide and transform
    # ------------------------------------------------------------------

    def transform(
        self,
        sql: str,
        strategy: SlicingStrategy = SlicingStrategy.MAX,
    ) -> Candidate:
        """Return the conventional SQL/PSM a statement transforms into
        (PERST's transformation on request, else MAX's)."""
        if strategy is not SlicingStrategy.PERST:
            strategy = SlicingStrategy.MAX
        prepared = self.prepare(parse_statement(sql), strategy)
        if prepared.semantics == "modification":
            raise FeatureNotSupportedError(
                "a modification of a temporal table has no single-statement"
                " form: the stratum carries it out (EXPLAIN shows the steps)"
            )
        return prepared.candidate

    def prepare(
        self,
        stmt: ast.Statement,
        strategy: SlicingStrategy = SlicingStrategy.AUTO,
    ) -> PreparedStatement:
        """Decide how ``stmt`` will run and transform it, without running
        or installing anything; raises whatever executing it would raise
        before its first engine statement."""
        modifier = getattr(stmt, "modifier", None)
        catalog = self.db.catalog
        if modifier is None:
            dimensions = tuple(
                dimension
                for dimension, registry in (
                    ("valid", self.registry), ("transaction", self.tt_registry)
                )
                if analysis.reads_temporal(stmt, catalog, registry)
            )
            if not dimensions:
                return PreparedStatement(stmt, "conventional", Candidate(stmt))
            self._reject_nonseq_only(stmt, "current")
            prepared = self._prepare_modification(stmt, dimensions)
            if prepared is None:
                found = self._transformed("current", stmt, self.registry).require()
                prepared = PreparedStatement(stmt, "current", found, dimensions)
            return prepared
        registry = (
            self.tt_registry if modifier.dimension == "TRANSACTION" else self.registry
        )
        dimensions = (modifier.dimension.lower(),)
        if modifier.flavor is ast.TemporalFlavor.NONSEQUENCED:
            prepared = self._prepare_modification(stmt, None, registry)
            if prepared is None:
                found = self.candidate("nonsequenced", stmt, registry).require()
                prepared = PreparedStatement(
                    stmt, "nonsequenced", found, dimensions, registry
                )
            return prepared
        context = self._resolve_context(stmt, modifier, registry)
        self._reject_nonseq_only(stmt, "sequenced")
        if isinstance(stmt, (ast.Insert, ast.Update, ast.Delete)):
            return self._prepare_modification(stmt, dimensions, registry, context)
        _refuse_limit(stmt)
        if strategy is SlicingStrategy.AUTO:
            choice = choose_strategy(stmt, self, registry, context)
        else:
            choice = StrategyChoice(strategy, "", "requested")
        found = self._transformed(choice.strategy.value, stmt, registry, context)
        return PreparedStatement(
            stmt, "sequenced", found.require(),
            dimensions, registry, context, choice, choice.strategy,
        )

    def _prepare_served(
        self, stmt: ast.Statement, strategy: SlicingStrategy
    ) -> PreparedStatement:
        """:meth:`prepare`; for a SELECT, CALL or DML statement :meth:`parse`
        just served, the record prepared last time while its stamp holds,
        else a fresh one, stored (unless preparing it raised)."""
        key, served = self._served
        if served is not stmt or key[1] is not strategy or not isinstance(
            stmt, (ast.Select, ast.CallStatement, ast.Insert, ast.Update, ast.Delete)
        ):
            return self.prepare(stmt, strategy)
        registries = (self.registry.version, self.tt_registry.version)
        stamp = registries + (self.transaction_clock, self.db.now)
        catalog = self.db.catalog
        last = self._transform_cache.fetch(key, stmt, catalog)
        if last is not None and last.stamp == stamp:
            self.db.stats.transform_hits.value += 1
            with self.db.tracer.span("stratum.prepare", cached=True):
                return last
        prepared = self.prepare(stmt, strategy)
        if _reusable(prepared, strategy):
            prepared.stamp = stamp
        self._transform_cache.store(key, catalog.schema_version, prepared)
        return prepared

    def _transformed(
        self, flavor: str, stmt: ast.Statement, registry: TemporalRegistry,
        context: Optional[Period] = None,
    ) -> Candidate:
        """:meth:`candidate` under the ``stratum.transform`` span."""
        attrs = {"strategy": flavor}
        if flavor != "current":
            attrs["dim"] = "tt" if registry is self.tt_registry else "vt"
        with self.db.tracer.span("stratum.transform", **attrs) as span:
            transformed = self.db.stats.transformed
            built = transformed.value
            found = self.candidate(flavor, stmt, registry, context)
            span.set(cached=transformed.value == built)
        return found

    def _prepare_modification(
        self,
        stmt: ast.Statement,
        dimensions: Optional[tuple],
        named: Optional[TemporalRegistry] = None,
        context: Optional[Period] = None,
    ) -> Optional[PreparedStatement]:
        """A modification of a temporal table the stratum carries out
        itself: sequenced over ``context`` along ``named``, the registry
        the modifier names, or (no context) current along the dimension
        the modifier does not name.  ``None`` for a statement that is not
        one — a query, DML on a table without that dimension.
        ``dimensions`` None: the one maintained."""
        if not isinstance(stmt, (ast.Insert, ast.Update, ast.Delete)):
            return None
        if context is not None:
            if named is self.tt_registry:
                raise TemporalError(
                    "transaction time is system-maintained; sequenced"
                    " TRANSACTIONTIME modifications are not meaningful"
                )
            if not named.is_temporal(stmt.table):
                raise TemporalError(
                    f"sequenced modification requires a temporal table;"
                    f" {stmt.table!r} has no valid-time support"
                )
            registry = named
        else:
            current = [
                (dimension, registry)
                for dimension, registry in (
                    ("valid", self.registry), ("transaction", self.tt_registry)
                )
                if registry is not named and registry.is_temporal(stmt.table)
            ]
            if not current:
                return None
            if len(current) > 1:
                raise TemporalError(
                    "direct modification of a bitemporal table through the"
                    " stratum is not supported; load history at the engine"
                    " level or use a transaction-time-only table"
                )
            (dimension, registry), = current
            dimensions = dimensions or (dimension,)
        # without the modifier's bounds: one statement, hence one engine
        # plan, however often the text is re-parsed and whatever ``now``,
        # the context or the clock is by then
        plain = copy.copy(stmt)
        if stmt.modifier is not None:
            plain.modifier = replace(stmt.modifier, begin=None, end=None)
        found = self.candidate("match", plain, registry).require()
        return PreparedStatement(
            stmt, "modification", found, dimensions, registry, context
        )

    def _resolve_context(
        self,
        stmt: ast.Statement,
        modifier: ast.TemporalModifier,
        registry: TemporalRegistry,
    ) -> Period:
        if modifier.begin is not None:
            env = Env()
            begin = self.db.executor.evaluate(modifier.begin, env)
            end = self.db.executor.evaluate(modifier.end, env)
            if not isinstance(begin, Date) or not isinstance(end, Date):
                raise TemporalError("temporal context bounds must be DATEs")
            return Period(begin.ordinal, end.ordinal)
        # default: the span of the data, so cp stays finite
        return self._data_span(
            analysis.reachable_temporal_tables(stmt, self.db.catalog, registry),
            registry,
        )

    def _data_span(self, tables: list[str], registry: TemporalRegistry) -> Period:
        """From the first to the last change point of ``tables`` (the
        whole timeline when they hold none)."""
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

    def _reject_nonseq_only(self, stmt: ast.Statement, flavor: str) -> None:
        flagged = [
            name
            for name in self.db.catalog.reach(stmt).routines
            if name in self._nonseq_only_routines
        ]
        if flagged:
            raise SequencedContextError(
                f"routine(s) {', '.join(sorted(flagged))} contain explicit"
                f" temporal modifiers and may only be invoked from a"
                f" nonsequenced context (attempted: {flavor})"
            )

    # ------------------------------------------------------------------
    # run: install, materialize, execute
    # ------------------------------------------------------------------

    def _run(self, prepared: PreparedStatement) -> Any:
        db = self.db
        found = prepared.candidate
        self._install(found.clones)
        if prepared.semantics == "modification":
            return self._run_modification(prepared)
        if prepared.semantics == "nonsequenced":
            with db.tracer.span("stratum.nonsequenced", dim=prepared.dimensions[0]):
                self._refresh_inner_cp_tables(prepared.statement)
                return db.execute_ast(found.statement)
        if prepared.semantics != "sequenced":
            return db.execute_ast(found.statement)
        strategy, registry, context = (
            prepared.strategy, prepared.registry, prepared.context
        )
        self.last_strategy = strategy
        tracer = db.tracer
        slices = 0
        for cp_table, tables in found.cp_requirements.items():
            with tracer.span("stratum.constant_periods", cp_table=cp_table) as span:
                slices = materialize_constant_periods(
                    db, tables, registry, context, cp_table
                )
                span.set(slices=slices)
        statement = found.statement
        if strategy is SlicingStrategy.MAX and isinstance(statement, ast.CallStatement):
            return self._drive_max_call(statement, context, slices)
        if strategy is SlicingStrategy.MAX:
            with tracer.span("stratum.max.execute", slices=slices):
                # without routine clones the planner may align the join
                outcome = (
                    db.execute_ast(statement) if found.clones
                    else execute_seqset(db, statement)
                )
            return TemporalResult(outcome.columns, outcome.rows)
        # PERST: one pass over the temporal data
        data_rows = sum(
            len(db.catalog.get_table(name)) for name in found.temporal_tables
        )
        with tracer.span("stratum.perst.execute", rows=data_rows):
            outcome = db.execute_ast(statement)
        if isinstance(statement, ast.CallStatement):
            return [TemporalResult(r.columns, r.rows) for r in outcome or []]
        return TemporalResult(outcome.columns, outcome.rows)

    def _run_modification(self, prepared: PreparedStatement) -> int:
        """``prepared.candidate.statement`` is the modification's one
        statement (:func:`match_statement`), run over its period."""
        registry, statement = prepared.registry, prepared.candidate.statement
        info = registry.get(statement.table)
        if prepared.context is not None:
            return execute_sequenced_modification(
                self.db, info, statement, prepared.context
            )
        if registry is self.tt_registry:
            point, source = self.clock, "tt_maintenance"
        else:
            point, source = self.db.now, "current_rewrite"
        return execute_current_modification(self.db, info, statement, point, source)

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
        resilience = self.db.resilience
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
        return stamped

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _prepare_inner_modifiers(
        self, definition: Union[ast.CreateFunction, ast.CreateProcedure]
    ):
        """Rewrite explicit inner VALIDTIME statements (nonsequenced-only
        routines) into conventional SQL via maximal slicing."""
        new_def = clone(definition)
        new_def.body = self._slice_inner(new_def.body, _inner_cp_table(definition.name))
        return new_def

    def _slice_inner(self, inner: ast.Statement, cp_table: str) -> ast.Statement:
        """``inner`` with its explicit VALIDTIME statements rewritten
        (:meth:`_prepare_inner_modifiers`), reading ``cp_table``."""
        modifier = getattr(inner, "modifier", None)
        if modifier is None:
            mapped = map_bodies(
                inner, lambda body: [self._slice_inner(s, cp_table) for s in body]
            )
            return inner if mapped is None else mapped
        if modifier.flavor is not ast.TemporalFlavor.SEQUENCED:
            plain = clone(inner)
            plain.modifier = None
            return plain
        if not isinstance(inner, ast.Select):
            raise TemporalError(
                "inner VALIDTIME is supported on SELECT statements only"
            )
        result = transform_query_max(inner, self.db.catalog, self.registry, cp_table)
        self._install(_as_clones(result.routines))
        self._inner_cp_requirements.update(result.cp_requirements)
        return result.statement

    def _refresh_inner_cp_tables(self, stmt: ast.Statement) -> None:
        """Materialize cp tables needed by nonsequenced-only routines."""
        if not self._inner_cp_requirements:
            return
        for owner in self.db.catalog.reach(stmt).routines:
            cp_table = _inner_cp_table(owner)
            tables = self._inner_cp_requirements.get(cp_table)
            if tables is not None:
                materialize_constant_periods(
                    self.db, tables, self.registry,
                    self._data_span(tables, self.registry), cp_table,
                )


def _inner_cp_table(routine_name: str) -> str:
    """The constant-period table of a nonsequenced-only routine's inner
    ``VALIDTIME`` statements."""
    return f"taupsm_cp_nonseq_{routine_name.lower()}"
