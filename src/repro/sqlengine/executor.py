"""Statement execution: dispatch, set operations, DDL, and the plan and
expression caches in front of the one SELECT/DML/expression engine.

The executor is *conventional*: it refuses to run any statement carrying
a temporal modifier (those belong to the stratum).  PSM control flow
lives in :mod:`repro.sqlengine.routines`.  Every SELECT arm and DML
statement runs through a plan from :mod:`repro.sqlengine.planner`, every
expression through a closure from :mod:`repro.sqlengine.exprcompile`;
this module keeps what they share: environments, result sets, name and
table resolution, and the value-level operators.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from typing import Any, Optional, Sequence

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine import functions as fn
from repro.sqlengine.errors import (
    CardinalityError,
    CatalogError,
    DivisionByZeroError,
    ExecutionError,
    PlanInvalidated,
    SignalError,
    SqlError,
    TypeError_,
)
from repro.sqlengine.interval_index import stab_point
from repro.sqlengine.storage import Column, Table
from repro.sqlengine.types import SqlType, infer_type
from repro.sqlengine.values import (
    Date,
    Null,
    Unknown,
    compare,
    logic_and,
    logic_or,
    sort_key,
    sorted_rows,
)

# the comparison flip used when a column sits on the right-hand side
_FLIPPED_COMPARISON = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


class ResultSet:
    """Columns plus a list of row value-lists."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: Sequence[str], rows: list[list[Any]]) -> None:
        self.columns = list(columns)
        self.rows = rows

    def scalar(self) -> Any:
        """The single value of a 1x1 result (Null when empty)."""
        if not self.rows:
            return Null
        if len(self.rows) > 1:
            raise CardinalityError("query returned more than one row")
        return self.rows[0][0]

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ResultSet({self.columns}, {len(self.rows)} rows)"


class Binding:
    """One FROM-clause binding: a column→index map plus the current row."""

    __slots__ = ("columns", "row")

    def __init__(self, columns: dict[str, int], row: Sequence[Any]) -> None:
        self.columns = columns
        self.row = row


class Env:
    """Lexical environment for name resolution during evaluation.

    Resolution order for an unqualified name: the bindings of this env,
    then enclosing envs (correlated subqueries), then the routine frame's
    variables.  Qualified names resolve against binding aliases first and
    record variables (FOR-loop rows) second.
    """

    __slots__ = ("bindings", "parent", "frame")

    def __init__(self, parent: Optional["Env"] = None, frame: Any = None) -> None:
        self.bindings: dict[str, Binding] = {}
        self.parent = parent
        self.frame = frame if frame is not None else (parent.frame if parent else None)

    def child(self) -> "Env":
        return Env(parent=self)

    def lookup(self, qualifier: Optional[str], name: str) -> Any:
        return self.lookup_keyed(
            qualifier.lower() if qualifier is not None else None,
            name.lower(),
            qualifier,
            name,
        )

    def lookup_keyed(
        self,
        qual: Optional[str],
        key: str,
        qualifier: Optional[str] = None,
        name: Optional[str] = None,
    ) -> Any:
        """Resolution with pre-lowered qualifier/name.

        Compiled expressions lower names once at bind time and call this
        directly; ``qualifier``/``name`` keep the original spellings for
        error messages.
        """
        if qualifier is None and name is None:
            qualifier, name = qual, key
        if qual is not None:
            env: Optional[Env] = self
            while env is not None:
                binding = env.bindings.get(qual)
                if binding is not None:
                    index = binding.columns.get(key)
                    if index is None:
                        raise CatalogError(
                            f"no column {name!r} in {qualifier!r}"
                        )
                    return binding.row[index]
                env = env.parent
            if self.frame is not None:
                found, value = self.frame.lookup_record_field(qual, key)
                if found:
                    return value
            raise CatalogError(f"unknown table alias {qualifier!r}")
        env = self
        while env is not None:
            if env.bindings:
                hits = []
                for binding in env.bindings.values():
                    index = binding.columns.get(key)
                    if index is not None:
                        hits.append(binding.row[index])
                if len(hits) == 1:
                    return hits[0]
                if len(hits) > 1:
                    raise ExecutionError(f"ambiguous column name {name!r}")
            env = env.parent
        if self.frame is not None:
            found, value = self.frame.lookup_variable(key)
            if found:
                return value
        raise CatalogError(f"unknown column or variable {name!r}")


class Executor:
    """Executes conventional SQL statements against a Database."""

    def __init__(self, database: "Database") -> None:  # noqa: F821
        self.db = database

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def execute(self, stmt: ast.Statement, env: Optional[Env] = None) -> Any:
        if getattr(stmt, "modifier", None) is not None:
            raise ExecutionError(
                "temporal statement modifiers require the temporal stratum"
            )
        resilience = self.db.resilience
        if resilience.armed:
            # watchdog checkpoint: every engine statement
            resilience.check()
        self.db.stats.executed.value += 1
        if isinstance(stmt, ast.Select):
            return self.execute_select(stmt, env)
        if isinstance(stmt, (ast.Insert, ast.Update, ast.Delete)):
            return self._run_planned(stmt, env)
        if isinstance(stmt, ast.CreateTable):
            return self.execute_create_table(stmt, env)
        if isinstance(stmt, ast.DropTable):
            self.db.catalog.drop_table(stmt.name)
            return None
        if isinstance(stmt, ast.CreateView):
            self.db.catalog.add_view(stmt.name, stmt.select)
            return None
        if isinstance(stmt, ast.DropView):
            self.db.catalog.drop_view(stmt.name)
            return None
        if isinstance(stmt, (ast.CreateFunction, ast.CreateProcedure)):
            from repro.sqlengine.catalog import Routine

            kind = "FUNCTION" if isinstance(stmt, ast.CreateFunction) else "PROCEDURE"
            self.db.catalog.add_routine(Routine(kind=kind, definition=stmt))
            return None
        if isinstance(stmt, ast.DropRoutine):
            self.db.catalog.drop_routine(stmt.name)
            return None
        if isinstance(stmt, ast.CallStatement):
            from repro.sqlengine.routines import RoutineInterpreter

            return RoutineInterpreter(self).call_procedure(stmt, env)
        if isinstance(stmt, ast.AlterTable):
            raise ExecutionError(
                "ALTER TABLE ... ADD VALIDTIME requires the temporal stratum"
            )
        if isinstance(stmt, ast.TransactionStatement):
            return self.db.txn.execute_statement(stmt)
        if isinstance(stmt, ast.SignalStatement):
            raise SignalError(stmt.sqlstate, stmt.message)
        if isinstance(stmt, ast.PsmStatement):
            raise ExecutionError(
                f"{type(stmt).__name__} is only valid inside a routine body"
            )
        raise ExecutionError(f"cannot execute {type(stmt).__name__}")

    # ------------------------------------------------------------------
    # SELECT (and, through _run_planned, DML)
    # ------------------------------------------------------------------

    def execute_select(self, select: ast.Select, env: Optional[Env] = None) -> ResultSet:
        if select.set_op:
            result = self._run_planned(select, env, False)
            result = self._apply_set_ops(select, result, env)
            if select.order_by:
                result = self._apply_order_on_output(select, result, env)
        else:
            result = self._run_planned(select, env, bool(select.order_by))
        if select.limit is not None:
            result.rows = result.rows[: select.limit]
        return result

    def match(self, stmt: ast.Statement, env: Optional[Env] = None) -> tuple:
        """What an UPDATE or DELETE would touch, claimed and not yet
        written: ``MatchPlan.match``'s ``(table, rows, cells)``.  The
        temporal stratum's modifications find their versions here and
        close / split / re-insert them themselves."""
        return self._run_planned(stmt, env, step="match")

    def plan(self, stmt: ast.Statement, env: Optional[Env]) -> Any:
        """The plan of a SELECT arm or DML statement: the cached one
        while it holds (:class:`~repro.sqlengine.engine.PlanCache`),
        else one built now and stored; a plan-time error propagates as
        itself and caches nothing.  The cache holds the statement beside
        its plan, so a recycled ``id()`` can never alias another one."""
        db = self.db
        cached = db.plan_cache.fetch(id(stmt), stmt, db.catalog)
        if cached is not None and cached[0] is stmt:
            db.stats.plan_hits.value += 1
            return cached[1]
        build = (
            planner.build_select_plan
            if isinstance(stmt, ast.Select)
            else planner.build_dml_plan
        )
        plan = build(self, stmt, env)
        db.stats.compiled.value += 1
        db.plan_cache.store(id(stmt), db.catalog.schema_version, (stmt, plan))
        return plan

    def _run_planned(
        self, stmt: ast.Statement, env: Optional[Env], *run_args, step: str = "run"
    ) -> Any:
        """Run one SELECT arm or DML statement through its plan.

        The bind/plan phase (:meth:`plan`) happens once per statement,
        and again only after a change to something it reaches.  A plan
        validates its sources before it produces or
        consumes a row: on :class:`PlanInvalidated` the entry is dropped
        and the statement is re-planned and re-run, once.
        """
        db = self.db
        started = None
        if env is not None and env.parent is None and env.frame is not None:
            # a routine body's statement (timed per routine while tracing)
            env.frame.plan_runs.value += 1
            if db.tracer.enabled:
                started = time.perf_counter_ns()
        try:
            for replanned in (False, True):
                plan = self.plan(stmt, env)
                try:
                    return getattr(plan, step)(self, env, *run_args)
                except PlanInvalidated as stale:
                    db.plan_cache.drop(id(stmt))
                    if replanned:
                        raise ExecutionError(
                            f"plan invalidated twice in one execution: {stale}"
                        ) from None
                    db.obs.inc("engine.plan_invalidated")
        finally:
            if started is not None:
                db.obs.inc(
                    db.stats.ROUTINE_PLAN_NS + env.frame.routine_name.lower(),
                    time.perf_counter_ns() - started,
                )

    def _apply_set_ops(
        self, select: ast.Select, left: ResultSet, env: Optional[Env]
    ) -> ResultSet:
        node = select
        result = left
        while node.set_op:
            rhs_node = node.set_rhs
            right = self._run_planned(rhs_node, env, False)
            if len(right.columns) != len(result.columns):
                raise ExecutionError("set operands differ in column count")
            op = node.set_op
            if op == "UNION ALL":
                result = ResultSet(result.columns, result.rows + right.rows)
            elif op == "UNION":
                result = ResultSet(
                    result.columns, _distinct_rows(result.rows + right.rows)
                )
            elif op in ("EXCEPT", "INTERSECT"):
                right_keys = {_row_key(row) for row in right.rows}
                kept = [
                    row for row in result.rows
                    if (_row_key(row) in right_keys) == (op == "INTERSECT")
                ]
                result = ResultSet(result.columns, _distinct_rows(kept))
            else:  # EXCEPT ALL, INTERSECT ALL (the parser allows no other)
                # bags: a row held m times on the left and n on the right
                # is kept max(m - n, 0) / min(m, n) times, its first
                # copies in left order
                keys = [_row_key(row) for row in result.rows]
                have, other = Counter(keys), Counter(map(_row_key, right.rows))
                quota = have - other if op == "EXCEPT ALL" else have & other
                kept = []
                for key, row in zip(keys, result.rows):
                    if quota[key] > 0:
                        quota[key] -= 1
                        kept.append(row)
                result = ResultSet(result.columns, kept)
            node = rhs_node
        return result

    def _output_columns(self, select: ast.Select, env: Env) -> list[str]:
        columns: list[str] = []
        for item in select.items:
            if item.is_star:
                columns.extend(self._star_columns(select.from_items, item, env))
            elif item.alias:
                columns.append(item.alias)
            elif isinstance(item.expr, ast.Name):
                columns.append(item.expr.name)
            else:
                columns.append(f"c{len(columns) + 1}")
        return columns

    def _star_columns(
        self, from_items: list[ast.FromItem], item: ast.SelectItem, env: Env
    ) -> list[str]:
        names: list[str] = []
        for source in _flatten_from(from_items):
            alias, columns = self._source_shape(source, env)
            if item.star_qualifier and alias.lower() != item.star_qualifier.lower():
                continue
            names.extend(columns)
        if not names:
            raise CatalogError("SELECT * with no resolvable source")
        return names

    def _source_shape(self, source: ast.FromItem, env: Env) -> tuple[str, list[str]]:
        """(alias, column names) for a FROM source, without scanning rows."""
        if isinstance(source, ast.TableRef):
            view = self.db.catalog.get_view(source.name)
            if view is not None:
                return source.binding, self._output_columns(view, env)
            table = self._resolve_table(source.name, env)
            return source.binding, table.column_names
        if isinstance(source, ast.SubqueryRef):
            return source.alias, self._output_columns(source.select, env)
        if isinstance(source, ast.TableFunctionRef):
            routine = self.db.catalog.get_routine(source.call.name)
            returns = routine.returns
            if not isinstance(returns, ast.RowArrayType):
                raise ExecutionError(
                    f"{source.call.name} is not a table function"
                )
            return source.alias, list(returns.column_names)
        raise ExecutionError(f"unsupported FROM source {type(source).__name__}")

    def _resolve_table(self, name: str, env: Optional[Env]) -> Table:
        """Resolve a table name: routine-frame table variables shadow catalog."""
        frame = env.frame if env is not None else None
        if frame is not None:
            table = frame.lookup_table_var(name)
            if table is not None:
                return table
        return self.db.catalog.get_table(name)

    def _read_table(self, name: str, env: Optional[Env]) -> Table:
        """Resolve a table for *reading*: the version visible to the
        current transaction's snapshot.  DML resolution stays on
        :meth:`_resolve_table` — writes always target the live table and
        surface conflicts through the MVCC claim in the primitives."""
        table = self._resolve_table(name, env)
        mvcc = self.db.mvcc
        if mvcc.multi:
            return mvcc.read_view(table, self.db.txn)
        return table

    def _interval_candidate_positions(
        self, table: Table, begin_index: int, end_index: int, limits: Optional[list]
    ) -> list[int]:
        """Candidate *positions* (ascending) for an interval probe with
        ``limits = [begin_min, begin_max, end_min]`` (None: no row can
        match) — a plan level's, or an aligned level's — counted as
        ``engine.interval_index_hits`` / ``engine.interval_rows_pruned``,
        and a stab as ``engine.stab.served`` or
        ``engine.stab.full_pass.too_wide``."""
        obs = self.db.obs
        if limits is None:
            positions: list[int] = []
        else:
            begin_min, begin_max, end_min = limits
            index = table.interval_index(begin_index, end_index)
            positions = index.search_positions(begin_max, end_min, begin_min)
            if stab_point(limits) is not None:
                if index.serves_stabs():
                    self.db.stats.stab_served.value += 1
                else:
                    obs.inc("engine.stab.full_pass.too_wide")
        obs.inc("engine.interval_index_hits")
        pruned = len(table.rows) - len(positions)
        if pruned:
            obs.inc("engine.interval_rows_pruned", pruned)
        return positions

    def _apply_order_on_output(
        self, select: ast.Select, result: ResultSet, env: Optional[Env]
    ) -> ResultSet:
        """ORDER BY over a set-operation result: output columns only."""
        colmap = {name.lower(): i for i, name in enumerate(result.columns)}

        def value_of(item: ast.OrderItem, row: list[Any]) -> Any:
            expr = item.expr
            if isinstance(expr, ast.Name) and expr.qualifier is None:
                index = colmap.get(expr.name.lower())
                if index is None:
                    raise ExecutionError(
                        f"ORDER BY column {expr.name!r} not in output"
                    )
                return row[index]
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                return row[expr.value - 1]
            bound = Env(parent=env)
            bound.bindings["__row__"] = Binding(colmap, row)
            return self.evaluate(expr, bound)

        values = [[value_of(item, row) for item in select.order_by] for row in result.rows]
        result.rows = sorted_rows(result.rows, [
            ([keys[j] for keys in values], item.descending)
            for j, item in enumerate(select.order_by)
        ])
        return result

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def execute_create_table(self, stmt: ast.CreateTable, env: Optional[Env]) -> None:
        if stmt.as_select is not None:
            result = self.execute_select(stmt.as_select, env)
            declared = self._ctas_declared_schema(
                stmt.as_select, env, len(result.columns)
            )
            types, pairs = declared if declared is not None else ({}, [])
            columns = [
                Column(name, types.get(i) or _infer_column_type(result.rows, i))
                for i, name in enumerate(result.columns)
            ]
            table = Table(stmt.name, columns, temporary=stmt.temporary)
            for row in result.rows:
                table.rows.append(list(row))
            table.version += 1
            for begin_column, end_column in pairs:
                table.declare_interval(begin_column, end_column)
            self.db.stats.count_rows(len(result.rows), "insert")
            self.db.catalog.add_table(table, replace=stmt.temporary)
            return
        pk_columns = set(stmt.primary_key or [])
        columns = [
            Column(
                c.name,
                c.type,
                not_null=c.not_null,
                primary_key=c.primary_key or c.name in pk_columns,
            )
            for c in stmt.columns
        ]
        self.db.catalog.add_table(
            Table(stmt.name, columns, temporary=stmt.temporary),
            replace=stmt.temporary,
        )

    def _ctas_declared_schema(
        self, select: ast.Select, env: Optional[Env], expected_count: int
    ) -> Optional[tuple[dict[int, SqlType], list[tuple[str, str]]]]:
        """Statically propagated schema for ``CREATE TABLE ... AS select``.

        When the select is a projection over base tables (one, or a join
        of several in FROM), every output that is a plain column
        reference of exactly one of them (or part of a ``*``) keeps the
        *declared* source column type instead of a row-sampled
        inference; over one table, any declared interval pair whose both
        columns survive the projection is re-declared under the output
        names.  Without this, temp tables built by the temporal
        transforms (cp tables, PERST auxiliaries) silently lose their
        DATE declarations on empty results and their period pairs
        always — and with them typed date filters, interval probes and
        the plans of every statement that reads a rebuilt one.

        Returns ``(output index → type, [(begin, end), ...])`` or None
        when FROM holds anything but base tables.
        """
        if select.set_op is not None or not select.from_items:
            return None
        sources: list[tuple[str, Any]] = []  # (binding, table) in FROM order
        for ref in select.from_items:
            if not isinstance(ref, ast.TableRef) or self.db.catalog.has_view(ref.name):
                return None
            try:
                sources.append((ref.binding.lower(), self._resolve_table(ref.name, env)))
            except SqlError:
                return None
        types: dict[int, SqlType] = {}
        # (source, column lowercased) → output name, for surviving pairs;
        # a source column projected twice keeps its first output name
        out_names: dict[tuple[int, str], str] = {}
        position = 0
        for item in select.items:
            if item.is_star:
                qualifier = item.star_qualifier
                starred = [
                    index for index, (binding, _) in enumerate(sources)
                    if qualifier is None or qualifier.lower() == binding
                ]
                if not starred:
                    return None
                for index in starred:
                    for column in sources[index][1].columns:
                        types[position] = column.type
                        out_names.setdefault((index, column.name.lower()), column.name)
                        position += 1
                continue
            expr = item.expr
            while isinstance(expr, ast.Parenthesized):
                expr = expr.expr
            owners = [
                index for index, (binding, table) in enumerate(sources)
                if isinstance(expr, ast.Name)
                and (expr.qualifier is None or expr.qualifier.lower() == binding)
                and table.has_column(expr.name)
            ]
            if len(owners) == 1:
                table = sources[owners[0]][1]
                types[position] = table.columns[table.column_index(expr.name)].type
                out_names.setdefault(
                    (owners[0], expr.name.lower()), item.alias or expr.name
                )
            position += 1
        if position != expected_count:
            return None
        pairs = [
            (out_names[(0, begin)], out_names[(0, end)])
            for begin, end in sources[0][1].interval_pairs
            if len(sources) == 1 and (0, begin) in out_names and (0, end) in out_names
        ]
        return types, pairs

    # ------------------------------------------------------------------
    # expression evaluation
    # ------------------------------------------------------------------

    def evaluate(self, expr: ast.Expression, env: Env) -> Any:
        """Evaluate ``expr`` in ``env`` through its compiled closure.

        Closures are memoized by AST identity with a strong reference to
        the node, so a recycled ``id()`` can never alias a different
        expression.  Names resolve through ``env`` at call time.
        """
        cache = self.db.expr_cache
        entry = cache.get(id(expr))
        if entry is None or entry[0] is not expr:
            from repro.sqlengine.exprcompile import compile_expression

            if len(cache) > 4096:
                cache.clear()
            entry = cache[id(expr)] = (expr, compile_expression(self, expr, {}))
        return entry[1](env)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _negate(value: Any) -> Any:
    if value is Null:
        return Null
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return -value
    raise TypeError_(f"cannot negate {value!r}")


def _apply_binary(op: str, left: Any, right: Any) -> Any:
    if op in ("=", "<>", "<", "<=", ">", ">="):
        verdict = compare(left, right)
        if verdict is Unknown:
            return Unknown
        if op == "=":
            return verdict == 0
        if op == "<>":
            return verdict != 0
        if op == "<":
            return verdict < 0
        if op == "<=":
            return verdict <= 0
        if op == ">":
            return verdict > 0
        return verdict >= 0
    if op == "AND":
        return logic_and(left, right)
    if op == "OR":
        return logic_or(left, right)
    if left is Null or right is Null:
        return Null
    if op == "||":
        return _to_text(left) + _to_text(right)
    if op == "+":
        if isinstance(left, Date) and isinstance(right, int):
            return left.plus_days(right)
        if isinstance(right, Date) and isinstance(left, int):
            return right.plus_days(left)
        _require_numeric(op, left, right)
        return left + right
    if op == "-":
        if isinstance(left, Date) and isinstance(right, Date):
            return left.ordinal - right.ordinal
        if isinstance(left, Date) and isinstance(right, int):
            return left.plus_days(-right)
        _require_numeric(op, left, right)
        return left - right
    if op == "*":
        _require_numeric(op, left, right)
        return left * right
    if op == "/":
        _require_numeric(op, left, right)
        if right == 0:
            raise DivisionByZeroError("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            quotient = left // right
            if quotient < 0 and left % right != 0:
                quotient += 1  # SQL integer division truncates toward zero
            return quotient
        return left / right
    raise ExecutionError(f"unknown operator {op}")


def _require_numeric(op: str, left: Any, right: Any) -> None:
    """Arithmetic needs numbers (bool counts, as elsewhere in SQL)."""
    for value in (left, right):
        if not isinstance(value, (int, float)):
            raise TypeError_(
                f"operator {op} requires numeric operands,"
                f" got {type(value).__name__}"
            )


def _to_text(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, Date):
        return value.to_iso()
    return str(value)


def _like_regex(pattern: str) -> "re.Pattern[str]":
    parts: list[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("".join(parts), re.DOTALL)


def _split_conjuncts(where: Optional[ast.Expression]) -> list[ast.Expression]:
    """Flatten the top-level AND tree of a predicate."""
    if where is None:
        return []
    if isinstance(where, ast.Parenthesized):
        return _split_conjuncts(where.expr)
    if isinstance(where, ast.BinaryOp) and where.op == "AND":
        return _split_conjuncts(where.left) + _split_conjuncts(where.right)
    return [where]


def _row_key(row: list[Any]) -> tuple:
    """A row's identity for DISTINCT and the set operations."""
    return tuple(sort_key(v) for v in row)


def _distinct_rows(rows: list[list[Any]]) -> list[list[Any]]:
    seen: set = set()
    unique: list[list[Any]] = []
    for row in rows:
        key = _row_key(row)
        if key not in seen:
            seen.add(key)
            unique.append(row)
    return unique


def _contains_aggregate(expr: ast.Expression) -> bool:
    """True if the expression has an aggregate call not inside a subquery."""
    if isinstance(expr, ast.FunctionCall):
        if fn.is_aggregate(expr.name):
            return True
        return any(_contains_aggregate(a) for a in expr.args)
    if isinstance(expr, (ast.ScalarSubquery, ast.ExistsPredicate)):
        return False
    if isinstance(expr, ast.InPredicate):
        return _contains_aggregate(expr.expr) or any(
            _contains_aggregate(i) for i in expr.items or []
        )
    for child in ast.iter_children(expr):
        if isinstance(child, ast.Expression) and _contains_aggregate(child):
            return True
    return False


def _flatten_from(from_items: list[ast.FromItem]) -> list[ast.FromItem]:
    """Sources in *binding* order (a RIGHT join binds its right side first)."""
    flat: list[ast.FromItem] = []
    for item in from_items:
        if isinstance(item, ast.Join):
            if item.kind == "RIGHT":
                flat.extend(_flatten_from([item.right, item.left]))
            else:
                flat.extend(_flatten_from([item.left, item.right]))
        else:
            flat.append(item)
    return flat


def _freeze_env(env: Env) -> Env:
    """Snapshot the current bindings of ``env`` into a standalone Env.

    The FROM iterator mutates bindings in place, so grouping must copy.
    """
    frozen = Env(parent=env.parent, frame=env.frame)
    for alias, binding in env.bindings.items():
        frozen.bindings[alias] = Binding(binding.columns, list(binding.row))
    return frozen


def _infer_column_type(rows: list[list[Any]], index: int) -> SqlType:
    """Unify a declared type over *all* of the column's non-NULL values.

    Inferring from the first value alone would declare too narrow a type
    when later rows widen (int → float, longer strings) — and the
    declared type is trusted: the planner's typed filters compare a
    column by its declared value class, and
    ``planner._Scan.validate`` keeps a plan while the declared types
    stay the same.  Numeric kinds unify upward
    (bool → int → float); anything heterogeneous beyond that keeps the
    legacy first-value inference.
    """
    saw: Any = None
    length = 1
    first: Any = None
    for row in rows:
        value = row[index]
        if value is Null:
            continue
        if first is None:
            first = value
        if isinstance(value, bool):
            kind = "bool"
        elif isinstance(value, int):
            kind = "int"
        elif isinstance(value, float):
            kind = "float"
        elif isinstance(value, str):
            kind = "str"
            length = max(length, len(value))
        elif isinstance(value, Date):
            kind = "date"
        else:
            return infer_type(first)
        if saw is None or saw == kind:
            saw = kind
        elif {saw, kind} <= {"bool", "int", "float"}:
            saw = "float" if "float" in (saw, kind) else "int"
        else:
            return infer_type(first)
    if saw is None:
        return SqlType("VARCHAR", length=255)
    if saw == "str":
        return SqlType("VARCHAR", length=length)
    return SqlType(
        {"bool": "BOOLEAN", "int": "INTEGER", "float": "FLOAT", "date": "DATE"}[saw]
    )


from repro.sqlengine import planner  # noqa: E402  (imports the names above)
