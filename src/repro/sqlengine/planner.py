"""Logical plans: the bind phase for whole statements.

``build_select_plan`` turns an ``ast.Select`` into a tree of source
nodes (scan → join → filter → group → project → order) whose predicates
and projections are pre-compiled closures from
:mod:`repro.sqlengine.exprcompile`.  ``SelectPlan.run`` then mirrors the
interpreted ``Executor._select_no_order`` / ``_grouped_select`` step for
step — same rows, same ordering, same errors — while skipping all
per-row AST dispatch and name resolution.

Plans are validated, not trusted: every source node checks at run time
that the catalog object it was bound against is still current (same
table schema, same view object, same routine definition) and raises
:class:`PlanInvalidated` otherwise; the executor then falls back to the
interpreted path.  ``build_select_plan`` returns ``None`` for any
statement shape it cannot reproduce exactly, which the plan cache
remembers so the statement is not re-analyzed per execution.

Equality-predicate pushdown reuses the executor's existing probe
analysis (``_find_index_probe``) against the lazy hash indexes in
:mod:`repro.sqlengine.storage` — pruning only, never filtering, so the
full WHERE clause still runs over every candidate row.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.errors import CatalogError, PlanInvalidated, SqlError
from repro.sqlengine.executor import (
    Binding,
    Env,
    Executor,
    ResultSet,
    _contains_aggregate,
    _distinct_rows,
    _flatten_from,
    _freeze_env,
    _FLIPPED_COMPARISON,
    _Reversed,
    _split_conjuncts,
)
from repro.sqlengine.exprcompile import (
    compile_batch_filter,
    compile_expression,
    compile_grouped,
)
from repro.sqlengine.values import Null, sort_key, truth


class _CannotPlan(Exception):
    """Internal: statement shape the planner does not handle."""


def build_select_plan(
    executor: Executor, select: ast.Select, env: Optional[Env] = None
) -> Optional["SelectPlan"]:
    """Bind ``select`` into a plan, or None if it must stay interpreted."""
    try:
        return _build_select(executor, select, env)
    except (_CannotPlan, SqlError):
        return None


def build_dml_plan(
    executor: Executor, stmt: ast.Statement, env: Optional[Env] = None
) -> Optional[Any]:
    try:
        if isinstance(stmt, ast.Insert):
            return _build_insert(executor, stmt, env)
        if isinstance(stmt, ast.Update):
            return _build_update(executor, stmt, env)
        if isinstance(stmt, ast.Delete):
            return _build_delete(executor, stmt, env)
    except (_CannotPlan, SqlError):
        return None
    return None


def _compile_or_bail(executor: Executor, expr: ast.Expression, layout: dict):
    closure = compile_expression(executor, expr, layout)
    if closure is None:
        raise _CannotPlan(type(expr).__name__)
    return closure


def _compile_grouped_or_bail(executor: Executor, expr: ast.Expression, layout: dict):
    closure = compile_grouped(executor, expr, layout)
    if closure is None:
        raise _CannotPlan(type(expr).__name__)
    return closure


# ---------------------------------------------------------------------------
# source nodes
# ---------------------------------------------------------------------------


class _Scan:
    """Base-table scan, optionally narrowed through a hash-index probe,
    an interval-index probe, and/or the vectorized batch kernels."""

    __slots__ = ("name", "alias", "key", "colmap", "expected", "conjuncts",
                 "from_items", "batch")

    def __init__(
        self,
        name: str,
        alias: str,
        colmap: dict,
        expected: dict,
        conjuncts: list,
        from_items: Optional[list],
        batch: Optional[Any] = None,
    ) -> None:
        self.name = name
        self.alias = alias
        self.key = alias.lower()
        self.colmap = colmap
        self.expected = expected
        self.conjuncts = conjuncts
        self.from_items = from_items
        self.batch = batch

    def _table(self, executor: Executor, env: Env):
        if executor.db.catalog.has_view(self.name):
            raise PlanInvalidated(self.name)
        table = executor._read_table(self.name, env)
        if table._index != self.expected:
            raise PlanInvalidated(self.name)
        return table

    def validate(self, executor: Executor, env: Env) -> None:
        self._table(executor, env)

    def _candidates(
        self, executor: Executor, table, env: Env
    ) -> tuple[list, bool]:
        """Candidate rows plus a *fully filtered* flag.

        The flag is True only when the batch kernels ran and cover every
        WHERE conjunct, so the caller may skip the per-row predicate.
        Candidate counts feed ``engine.rows_scanned`` identically on the
        vectorized and row-at-a-time paths (pre-kernel counts).
        """
        db = executor.db
        obs = db.obs
        resilience = db.resilience
        if resilience.armed:
            # watchdog/governor checkpoint: every scan batch
            resilience.check()
        if self.conjuncts:
            probe = executor._find_index_probe(
                table, self.alias, self.conjuncts, env, self.from_items
            )
            if probe is not None:
                column_index, value = probe
                if value is Null:
                    rows = []
                else:
                    rows = table.hash_index(column_index).get(sort_key(value), [])
                obs.inc("engine.rows_scanned", len(rows))
                return rows, False
            # batch kernels only run when they cover *every* conjunct:
            # a partial batch could drop a row before another conjunct
            # gets the chance to raise the error the interpreted path
            # would have raised on it
            batch = self.batch
            if batch is not None and not (
                batch.consumes_all and db.vectorized_filtering_enabled
            ):
                batch = None
            if batch is not None and not resilience.allow_columnar(table):
                # governor degradation: under resident-bytes pressure,
                # stream row-at-a-time instead of building a columnar
                # image (counted; visible in EXPLAIN ANALYZE)
                batch = None
            interval = executor._find_interval_probe(
                table, self.alias, self.conjuncts, env, self.from_items
            )
            if interval is not None:
                positions = executor._interval_candidate_positions(table, interval)
                obs.inc("engine.rows_scanned", len(positions))
                table_rows = table.rows
                if batch is not None:
                    selected = batch.apply(table, positions, env)
                    if selected is not None:
                        obs.inc("engine.vectorized_batches")
                        pruned = len(positions) - len(selected)
                        if pruned:
                            obs.inc("engine.vectorized_rows_pruned", pruned)
                        return [table_rows[p] for p in selected], True
                return [table_rows[p] for p in positions], False
            obs.inc("engine.rows_scanned", len(table.rows))
            if batch is not None:
                selected = batch.apply(table, range(len(table.rows)), env)
                if selected is not None:
                    obs.inc("engine.vectorized_batches")
                    pruned = len(table.rows) - len(selected)
                    if pruned:
                        obs.inc("engine.vectorized_rows_pruned", pruned)
                    table_rows = table.rows
                    return [table_rows[p] for p in selected], True
            return table.rows, False
        obs.inc("engine.rows_scanned", len(table.rows))
        return table.rows, False

    def bind(self, executor: Executor, env: Env) -> Iterator[Env]:
        table = self._table(executor, env)
        rows, _ = self._candidates(executor, table, env)
        key = self.key
        colmap = self.colmap
        bindings = env.bindings
        for row in rows:
            bindings[key] = Binding(colmap, row)
            yield env
        bindings.pop(key, None)

    def materialize(self, executor: Executor, env: Env) -> list:
        return list(self._table(executor, env).rows)


class _IntervalScan(_Scan):
    """A scan whose conjuncts statically bound a declared (begin, end)
    interval pair at build time.

    Execution is identical to :class:`_Scan` — probing happens at bind
    time either way, so a plan stays correct when pairs are declared (or
    the ablation switch flips) after it was compiled.  The subclass
    exists so EXPLAIN can render the access path as ``IntervalIndexScan``.
    """

    __slots__ = ("pair",)

    def __init__(self, *args, pair: tuple) -> None:
        super().__init__(*args)
        self.pair = pair


class TemporalAlign:
    """SEQ-SET plan node: one FROM table's rows aligned onto the
    constant-period grid in a single pass (interval-index overlap probe
    against the temporal context, vectorized single-table filters, then
    a bisect of each row's period onto the sorted period begins).

    Execution lives in :mod:`repro.temporal.seqset`; the node exists at
    the planner layer so EXPLAIN renders the access path alongside the
    engine's scan nodes.
    """

    __slots__ = ("name", "alias", "pair", "kernel_count", "temporal")

    def __init__(
        self,
        name: str,
        alias: str,
        pair: "tuple | None",
        kernel_count: int,
        temporal: bool,
    ) -> None:
        self.name = name
        self.alias = alias
        self.pair = pair
        self.kernel_count = kernel_count
        self.temporal = temporal


class IntervalJoin:
    """SEQ-SET plan node: interval hash join of aligned inputs.  Each
    input after the first is hashed once on its equi-join key
    (``keys[i]`` lists the ``a.col = b.col`` conjuncts binding input
    ``i + 1`` to earlier inputs; empty = nested, every run under one
    key), outer runs probe in ascending position and period ranges
    intersect; output is period-major in FROM order — MAX's emission
    order — with one compiled residual per matched combination."""

    __slots__ = ("inputs", "keys", "residual_conjuncts", "distinct")

    def __init__(
        self,
        inputs: list,
        keys: list,
        residual_conjuncts: int,
        distinct: bool,
    ) -> None:
        self.inputs = inputs
        self.keys = keys
        self.residual_conjuncts = residual_conjuncts
        self.distinct = distinct


def _static_interval_pair(
    executor: Executor,
    table,
    alias: str,
    conjuncts: list,
    from_items: Optional[list],
) -> Optional[tuple]:
    """The declared pair the conjuncts bound on both sides, if any.

    Shape-only analysis (no evaluation): the begin column needs an upper
    bound and the end column a lower bound, each against a literal or a
    name — mirroring what `_find_interval_probe` will accept at bind
    time with values in hand.
    """
    for begin_column, end_column in table.interval_pairs:
        if _static_bound_exists(
            executor, table, alias, begin_column, conjuncts, from_items, upper=True
        ) and _static_bound_exists(
            executor, table, alias, end_column, conjuncts, from_items, upper=False
        ):
            return begin_column, end_column
    return None


def _static_bound_exists(
    executor: Executor,
    table,
    alias: str,
    column: str,
    conjuncts: list,
    from_items: Optional[list],
    upper: bool,
) -> bool:
    target = table.column_index(column)
    wanted = ("<", "<=") if upper else (">", ">=")
    for conjunct in conjuncts:
        if not isinstance(conjunct, ast.BinaryOp):
            continue
        op = conjunct.op
        if op not in ("<", "<=", ">", ">="):
            continue
        for lhs, rhs, normalized in (
            (conjunct.left, conjunct.right, op),
            (conjunct.right, conjunct.left, _FLIPPED_COMPARISON[op]),
        ):
            if normalized not in wanted:
                continue
            if not isinstance(rhs, (ast.Literal, ast.Name)):
                continue
            if executor._column_of(lhs, table, alias, from_items) == target:
                return True
    return False


class _View:
    __slots__ = ("name", "key", "colmap", "expected", "view_ast")

    def __init__(
        self, name: str, alias: str, columns: list, view_ast: ast.Select
    ) -> None:
        self.name = name
        self.key = alias.lower()
        self.colmap = {name.lower(): i for i, name in enumerate(columns)}
        self.expected = [name.lower() for name in columns]
        self.view_ast = view_ast

    def validate(self, executor: Executor, env: Env) -> None:
        if executor.db.catalog.get_view(self.name) is not self.view_ast:
            raise PlanInvalidated(self.name)

    def _rows(self, executor: Executor, env: Env) -> list:
        self.validate(executor, env)
        result = executor.execute_select(self.view_ast, Env(frame=env.frame))
        if [c.lower() for c in result.columns] != self.expected:
            raise PlanInvalidated(self.name)
        return result.rows

    def bind(self, executor: Executor, env: Env) -> Iterator[Env]:
        rows = self._rows(executor, env)
        key = self.key
        colmap = self.colmap
        bindings = env.bindings
        for row in rows:
            bindings[key] = Binding(colmap, row)
            yield env
        bindings.pop(key, None)

    def materialize(self, executor: Executor, env: Env) -> list:
        return list(self._rows(executor, env))


class _Subquery:
    __slots__ = ("key", "colmap", "expected", "select_ast")

    def __init__(self, alias: str, columns: list, select_ast: ast.Select) -> None:
        self.key = alias.lower()
        self.colmap = {name.lower(): i for i, name in enumerate(columns)}
        self.expected = [name.lower() for name in columns]
        self.select_ast = select_ast

    def validate(self, executor: Executor, env: Env) -> None:
        pass

    def _rows(self, executor: Executor, env: Env) -> list:
        result = executor.execute_select(self.select_ast, env)
        if [c.lower() for c in result.columns] != self.expected:
            raise PlanInvalidated(self.key)
        return result.rows

    def bind(self, executor: Executor, env: Env) -> Iterator[Env]:
        rows = self._rows(executor, env)
        key = self.key
        colmap = self.colmap
        bindings = env.bindings
        for row in rows:
            bindings[key] = Binding(colmap, row)
            yield env
        bindings.pop(key, None)

    def materialize(self, executor: Executor, env: Env) -> list:
        return list(self._rows(executor, env))


class _TableFunc:
    __slots__ = ("name", "key", "colmap", "expected", "definition", "arg_cs")

    def __init__(
        self,
        name: str,
        alias: str,
        columns: list,
        definition: Any,
        arg_cs: list,
    ) -> None:
        self.name = name
        self.key = alias.lower()
        self.colmap = {name.lower(): i for i, name in enumerate(columns)}
        self.expected = [name.lower() for name in columns]
        self.definition = definition
        self.arg_cs = arg_cs

    def validate(self, executor: Executor, env: Env) -> None:
        try:
            routine = executor.db.catalog.get_routine(self.name)
        except CatalogError:
            raise PlanInvalidated(self.name) from None
        if routine.definition is not self.definition:
            raise PlanInvalidated(self.name)

    def _rows_cols(self, executor: Executor, env: Env) -> tuple[list, list]:
        from repro.sqlengine.routines import RoutineInterpreter

        self.validate(executor, env)
        db = executor.db
        args = [c(env) for c in self.arg_cs]
        if not db.memoize_table_functions:
            columns, rows = RoutineInterpreter(executor).invoke_table_function(
                self.name, args
            )
        else:
            cache_key = (self.name.lower(), tuple(sort_key(a) for a in args))
            cached = db.table_function_cache.get(cache_key)
            if cached is not None:
                columns, rows = cached
            else:
                columns, rows = RoutineInterpreter(executor).invoke_table_function(
                    self.name, args
                )
                db.table_function_cache[cache_key] = (columns, rows)
        if [c.lower() for c in columns] != self.expected:
            raise PlanInvalidated(self.name)
        return columns, rows

    def bind(self, executor: Executor, env: Env) -> Iterator[Env]:
        _, rows = self._rows_cols(executor, env)
        key = self.key
        colmap = self.colmap
        bindings = env.bindings
        for row in rows:
            bindings[key] = Binding(colmap, row)
            yield env
        bindings.pop(key, None)

    def materialize(self, executor: Executor, env: Env) -> list:
        return list(self._rows_cols(executor, env)[1])


class _JoinNode:
    """INNER/CROSS nested-loop join (a RIGHT join is built pre-swapped)."""

    __slots__ = ("left", "right", "condition_c")

    def __init__(self, left: Any, right: Any, condition_c: Optional[Callable]) -> None:
        self.left = left
        self.right = right
        self.condition_c = condition_c

    def validate(self, executor: Executor, env: Env) -> None:
        self.left.validate(executor, env)
        self.right.validate(executor, env)

    def bind(self, executor: Executor, env: Env) -> Iterator[Env]:
        condition_c = self.condition_c
        for env2 in self.left.bind(executor, env):
            for env3 in self.right.bind(executor, env2):
                if condition_c is None or truth(condition_c(env3)):
                    yield env3


class _LeftJoinNode:
    """LEFT OUTER join: the right side materializes once per execution."""

    __slots__ = ("left", "right", "condition_c", "null_row")

    def __init__(self, left: Any, right: Any, condition_c: Optional[Callable]) -> None:
        self.left = left
        self.right = right
        self.condition_c = condition_c
        self.null_row = [Null] * len(right.colmap)

    def validate(self, executor: Executor, env: Env) -> None:
        self.left.validate(executor, env)
        self.right.validate(executor, env)

    def bind(self, executor: Executor, env: Env) -> Iterator[Env]:
        right = self.right
        rows = right.materialize(executor, env)
        key = right.key
        colmap = right.colmap
        condition_c = self.condition_c
        null_row = self.null_row
        for env2 in self.left.bind(executor, env):
            matched = False
            for row in rows:
                env2.bindings[key] = Binding(colmap, row)
                if condition_c is None or truth(condition_c(env2)):
                    matched = True
                    yield env2
            if not matched:
                env2.bindings[key] = Binding(colmap, null_row)
                yield env2
            env2.bindings.pop(key, None)


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------


def _leaf_layout_entries(node: Any, entries: list) -> None:
    if isinstance(node, (_JoinNode, _LeftJoinNode)):
        _leaf_layout_entries(node.left, entries)
        _leaf_layout_entries(node.right, entries)
    else:
        entries.append((node.key, node.colmap))


def _build_leaf(
    executor: Executor,
    source: ast.FromItem,
    env: Optional[Env],
    conjuncts: list,
    from_items: Optional[list],
) -> Any:
    catalog = executor.db.catalog
    if isinstance(source, ast.TableRef):
        view = catalog.get_view(source.name)
        if view is not None:
            columns = executor._output_columns(view, env if env is not None else Env())
            return _View(source.name, source.binding, columns, view)
        table = executor._read_table(source.name, env)
        colmap = {name.lower(): i for i, name in enumerate(table.column_names)}
        batch = (
            compile_batch_filter(
                executor, table, source.binding, conjuncts, from_items
            )
            if conjuncts
            else None
        )
        scan_args = (
            source.name,
            source.binding,
            colmap,
            dict(table._index),
            conjuncts,
            from_items,
            batch,
        )
        if conjuncts and table.interval_pairs:
            pair = _static_interval_pair(
                executor, table, source.binding, conjuncts, from_items
            )
            if pair is not None:
                return _IntervalScan(*scan_args, pair=pair)
        return _Scan(*scan_args)
    if isinstance(source, ast.SubqueryRef):
        columns = executor._output_columns(
            source.select, env if env is not None else Env()
        )
        return _Subquery(source.alias, columns, source.select)
    if isinstance(source, ast.TableFunctionRef):
        routine = catalog.get_routine(source.call.name)
        if not isinstance(routine.returns, ast.RowArrayType):
            raise _CannotPlan(source.call.name)
        columns = list(routine.returns.column_names)
        # argument closures are compiled later (they may see the layout:
        # lateral references to earlier FROM sources)
        return _TableFunc(
            source.call.name, source.alias, columns, routine.definition, []
        )
    raise _CannotPlan(type(source).__name__)


def _build_source(
    executor: Executor,
    source: ast.FromItem,
    env: Optional[Env],
    conjuncts: list,
    from_items: Optional[list],
    join_specs: list,
) -> Any:
    if isinstance(source, ast.Join):
        if source.kind == "RIGHT":
            swapped = ast.Join(
                left=source.right, right=source.left, kind="LEFT",
                condition=source.condition,
            )
            return _build_source(executor, swapped, env, [], None, join_specs)
        left = _build_source(executor, source.left, env, [], None, join_specs)
        if source.kind in ("INNER", "CROSS"):
            right = _build_source(executor, source.right, env, [], None, join_specs)
            node = _JoinNode(left, right, None)
        elif source.kind == "LEFT":
            if isinstance(source.right, ast.Join):
                raise _CannotPlan("join right operand is a join")
            right = _build_leaf(executor, source.right, env, [], None)
            node = _LeftJoinNode(left, right, None)
        else:
            raise _CannotPlan(f"join kind {source.kind}")
        if source.condition is not None:
            join_specs.append((node, source.condition))
        return node
    return _build_leaf(executor, source, env, conjuncts, from_items)


def _build_sources(
    executor: Executor, select: ast.Select, env: Optional[Env]
) -> tuple[list, dict, list]:
    conjuncts = _split_conjuncts(select.where)
    join_specs: list = []
    sources = [
        _build_source(
            executor, item, env, conjuncts, select.from_items, join_specs
        )
        for item in select.from_items
    ]
    entries: list = []
    for node in sources:
        _leaf_layout_entries(node, entries)
    layout: dict = {}
    for key, colmap in entries:
        if key in layout:
            raise _CannotPlan(f"duplicate alias {key}")
        layout[key] = colmap
    # second pass now that the full layout is known: join conditions and
    # lateral table-function arguments
    for node, condition in join_specs:
        node.condition_c = _compile_or_bail(executor, condition, layout)
    _compile_table_func_args(executor, select.from_items, sources, layout)
    return sources, layout, conjuncts


def _compile_table_func_args(
    executor: Executor, from_items: list, sources: list, layout: dict
) -> None:
    table_func_nodes: list = []

    def collect(node: Any) -> None:
        if isinstance(node, (_JoinNode, _LeftJoinNode)):
            collect(node.left)
            collect(node.right)
        elif isinstance(node, _TableFunc):
            table_func_nodes.append(node)

    for node in sources:
        collect(node)
    refs = [
        item
        for item in _flatten_from(from_items)
        if isinstance(item, ast.TableFunctionRef)
    ]
    by_key = {ref.alias.lower(): ref for ref in refs}
    for node in table_func_nodes:
        ref = by_key.get(node.key)
        if ref is None:
            raise _CannotPlan(node.key)
        node.arg_cs = [
            _compile_or_bail(executor, a, layout) for a in ref.call.args
        ]


def _build_order(
    executor: Executor,
    order_by: list,
    colmap: dict,
    layout: dict,
    grouped: bool,
) -> list:
    entries = []
    for item in order_by:
        expr = item.expr
        desc = item.descending
        if isinstance(expr, ast.Name) and expr.qualifier is None:
            index = colmap.get(expr.name.lower())
            if index is not None:
                entries.append(("slot", index, desc))
                continue
        if isinstance(expr, ast.Literal):
            # position literals are re-read per run (Literal.value is
            # mutable); the fallback closure covers non-int values
            fallback = (
                _compile_grouped_or_bail(executor, expr, layout)
                if grouped
                else _compile_or_bail(executor, expr, layout)
            )
            entries.append(("lit", expr, fallback, desc))
            continue
        closure = (
            _compile_grouped_or_bail(executor, expr, layout)
            if grouped
            else _compile_or_bail(executor, expr, layout)
        )
        entries.append(("expr", closure, desc))
    return entries


def _build_select(
    executor: Executor, select: ast.Select, env: Optional[Env]
) -> "SelectPlan":
    grouped = bool(select.group_by) or any(
        item.expr is not None and _contains_aggregate(item.expr)
        for item in select.items
    ) or (select.having is not None)
    sources, layout, _ = _build_sources(executor, select, env)
    where_c = (
        _compile_or_bail(executor, select.where, layout)
        if select.where is not None
        else None
    )
    columns = executor._output_columns(select, env if env is not None else Env())
    colmap = {name.lower(): i for i, name in enumerate(columns)}
    order_entries = _build_order(
        executor, select.order_by, colmap, layout, grouped
    )
    if grouped:
        for item in select.items:
            if item.is_star:
                raise _CannotPlan("star item in grouped select")
        group_cs = [
            _compile_or_bail(executor, g, layout) for g in select.group_by
        ]
        having_c = (
            _compile_grouped_or_bail(executor, select.having, layout)
            if select.having is not None
            else None
        )
        item_cs = [
            _compile_grouped_or_bail(executor, item.expr, layout)
            for item in select.items
        ]
        return SelectPlan(
            sources=sources,
            where_c=where_c,
            columns=columns,
            grouped=True,
            group_cs=group_cs,
            having_c=having_c,
            item_plans=item_cs,
            order_entries=order_entries,
            distinct=select.distinct,
        )
    item_plans: list = []
    for item in select.items:
        if item.is_star:
            qualifier = (
                item.star_qualifier.lower() if item.star_qualifier else None
            )
            item_plans.append(("star", qualifier))
        else:
            item_plans.append(
                ("expr", _compile_or_bail(executor, item.expr, layout))
            )
    return SelectPlan(
        sources=sources,
        where_c=where_c,
        columns=columns,
        grouped=False,
        group_cs=None,
        having_c=None,
        item_plans=item_plans,
        order_entries=order_entries,
        distinct=select.distinct,
    )


# ---------------------------------------------------------------------------
# SELECT plan
# ---------------------------------------------------------------------------


class SelectPlan:
    __slots__ = ("sources", "where_c", "columns", "grouped", "group_cs",
                 "having_c", "item_plans", "order_entries", "distinct",
                 "single_scan")

    def __init__(
        self,
        sources: list,
        where_c: Optional[Callable],
        columns: list,
        grouped: bool,
        group_cs: Optional[list],
        having_c: Optional[Callable],
        item_plans: list,
        order_entries: list,
        distinct: bool,
    ) -> None:
        self.sources = sources
        self.where_c = where_c
        self.columns = columns
        self.grouped = grouped
        self.group_cs = group_cs
        self.having_c = having_c
        self.item_plans = item_plans
        self.order_entries = order_entries
        self.distinct = distinct
        # the WHERE fast path: a lone base-table scan whose batch
        # kernels cover the whole predicate may skip `where_c` per row
        self.single_scan = (
            sources[0]
            if (
                len(sources) == 1
                and isinstance(sources[0], _Scan)
                and sources[0].batch is not None
                and sources[0].batch.consumes_all
            )
            else None
        )

    def run(self, executor: Executor, env: Optional[Env], apply_order: bool) -> ResultSet:
        base_env = env if env is not None else Env()
        # validate every source before producing (or consuming) any rows:
        # an invalidation discovered mid-run would re-execute side effects
        # on the interpreted fallback
        for node in self.sources:
            node.validate(executor, base_env)
        if self.grouped:
            return self._run_grouped(executor, base_env, apply_order)
        order = self.order_entries if (apply_order and self.order_entries) else None
        rows: list = []
        keys: list = []
        for row_env in self._filtered_envs(executor, base_env):
            row = self._project(row_env)
            rows.append(row)
            if order:
                keys.append(self._order_key(order, row, row_env))
        if order:
            paired = sorted(zip(keys, range(len(rows)), rows), key=lambda p: p[:2])
            rows = [row for _, _, row in paired]
        if self.distinct:
            rows = _distinct_rows(rows)
        return ResultSet(self.columns, rows)

    def _filtered_envs(self, executor: Executor, base_env: Env) -> Iterator[Env]:
        """Row environments with the WHERE clause already applied.

        On the vectorized fast path (one base-table scan, batch kernels
        covering every conjunct, kernels applicable at run time) the
        per-row compiled predicate is skipped entirely; every other
        shape evaluates ``where_c`` per row exactly as before.
        """
        where_c = self.where_c
        scan = self.single_scan
        if scan is not None:
            env = base_env.child()
            table = scan._table(executor, env)
            src_rows, fully = scan._candidates(executor, table, env)
            key = scan.key
            colmap = scan.colmap
            bindings = env.bindings
            if fully:
                for row in src_rows:
                    bindings[key] = Binding(colmap, row)
                    yield env
            else:
                for row in src_rows:
                    bindings[key] = Binding(colmap, row)
                    if truth(where_c(env)):
                        yield env
            bindings.pop(key, None)
            return
        for row_env in self._row_envs(executor, base_env):
            if where_c is not None and not truth(where_c(row_env)):
                continue
            yield row_env

    def _row_envs(self, executor: Executor, base_env: Env) -> Iterator[Env]:
        if not self.sources:
            yield base_env.child()
            return
        yield from self._expand(executor, 0, base_env.child())

    def _expand(self, executor: Executor, index: int, env: Env) -> Iterator[Env]:
        if index >= len(self.sources):
            yield env
            return
        for env2 in self.sources[index].bind(executor, env):
            yield from self._expand(executor, index + 1, env2)

    def _project(self, env: Env) -> list:
        values: list = []
        for plan in self.item_plans:
            if plan[0] == "star":
                qualifier = plan[1]
                for binding_alias, binding in env.bindings.items():
                    if qualifier and binding_alias != qualifier:
                        continue
                    values.extend(binding.row)
            else:
                values.append(plan[1](env))
        return values

    def _order_key(self, order: list, row: list, row_env: Env) -> tuple:
        parts = []
        for entry in order:
            kind = entry[0]
            if kind == "slot":
                value = row[entry[1]]
                desc = entry[2]
            elif kind == "lit":
                literal, fallback, desc = entry[1], entry[2], entry[3]
                position = literal.value - 1 if isinstance(literal.value, int) else -1
                if 0 <= position < len(row):
                    value = row[position]
                else:
                    value = fallback(row_env)
            else:
                value = entry[1](row_env)
                desc = entry[2]
            key = sort_key(value)
            parts.append(_Reversed(key) if desc else key)
        return tuple(parts)

    def _grouped_order_key(
        self, order: list, row: list, group: list, base_env: Env
    ) -> tuple:
        parts = []
        for entry in order:
            kind = entry[0]
            if kind == "slot":
                value = row[entry[1]]
                desc = entry[2]
            elif kind == "lit":
                literal, fallback, desc = entry[1], entry[2], entry[3]
                position = literal.value - 1 if isinstance(literal.value, int) else -1
                if 0 <= position < len(row):
                    value = row[position]
                else:
                    value = fallback(group, base_env)
            else:
                value = entry[1](group, base_env)
                desc = entry[2]
            key = sort_key(value)
            parts.append(_Reversed(key) if desc else key)
        return tuple(parts)

    def _run_grouped(
        self, executor: Executor, base_env: Env, apply_order: bool
    ) -> ResultSet:
        source_envs: list = []
        for row_env in self._filtered_envs(executor, base_env):
            source_envs.append(_freeze_env(row_env))
        groups: dict = {}
        if self.group_cs:
            for row_env in source_envs:
                key = tuple(sort_key(g(row_env)) for g in self.group_cs)
                groups.setdefault(key, []).append(row_env)
        else:
            groups[()] = source_envs
        order = self.order_entries if (apply_order and self.order_entries) else None
        having_c = self.having_c
        rows: list = []
        keys: list = []
        for group in groups.values():
            if having_c is not None and not truth(having_c(group, base_env)):
                continue
            row = [item_c(group, base_env) for item_c in self.item_plans]
            rows.append(row)
            if order:
                keys.append(self._grouped_order_key(order, row, group, base_env))
        if order:
            paired = sorted(zip(keys, range(len(rows)), rows), key=lambda p: p[:2])
            rows = [row for _, _, row in paired]
        if self.distinct:
            rows = _distinct_rows(rows)
        return ResultSet(self.columns, rows)


# ---------------------------------------------------------------------------
# DML plans
# ---------------------------------------------------------------------------


def _table_colmap(executor: Executor, name: str, env: Optional[Env]) -> tuple:
    table = executor._resolve_table(name, env)
    colmap = {n.lower(): i for i, n in enumerate(table.column_names)}
    return table, colmap


class InsertPlan:
    __slots__ = ("table", "expected", "columns", "value_rows", "select")

    def __init__(self, table, expected, columns, value_rows, select) -> None:
        self.table = table
        self.expected = expected
        self.columns = columns
        self.value_rows = value_rows
        self.select = select

    def run(self, executor: Executor, env: Optional[Env]) -> int:
        table = executor._resolve_table(self.table, env)
        if table._index != self.expected:
            raise PlanInvalidated(self.table)
        if self.select is not None:
            result = executor.execute_select(self.select, env)
            source_rows = result.rows
        else:
            eval_env = env if env is not None else Env()
            source_rows = [
                [c(eval_env) for c in row_cs] for row_cs in self.value_rows
            ]
        # validate every row before appending any, so a failure on row N
        # does not leave rows 1..N-1 behind
        prepared = [table.prepare_row(values, self.columns) for values in source_rows]
        for row in prepared:
            table.append_row(row)
        executor.db.stats.count_rows(len(prepared), "insert")
        return len(prepared)


def _build_insert(executor: Executor, stmt: ast.Insert, env: Optional[Env]) -> InsertPlan:
    table, _ = _table_colmap(executor, stmt.table, env)
    if stmt.select is not None:
        return InsertPlan(
            stmt.table, dict(table._index), stmt.columns, None, stmt.select
        )
    value_rows = [
        [_compile_or_bail(executor, e, {}) for e in row]
        for row in stmt.values or []
    ]
    return InsertPlan(stmt.table, dict(table._index), stmt.columns, value_rows, None)


class UpdatePlan:
    __slots__ = ("table", "expected", "key", "colmap", "where_c",
                 "assign_indexes", "assign_cs")

    def __init__(
        self, table, expected, key, colmap, where_c, assign_indexes, assign_cs
    ) -> None:
        self.table = table
        self.expected = expected
        self.key = key
        self.colmap = colmap
        self.where_c = where_c
        self.assign_indexes = assign_indexes
        self.assign_cs = assign_cs

    def run(self, executor: Executor, env: Optional[Env]) -> int:
        table = executor._resolve_table(self.table, env)
        if table._index != self.expected:
            raise PlanInvalidated(self.table)
        eval_env = Env(parent=env)
        key = self.key
        colmap = self.colmap
        where_c = self.where_c

        def predicate(row: list) -> bool:
            eval_env.bindings[key] = Binding(colmap, row)
            return where_c is None or truth(where_c(eval_env))

        def updater(row: list) -> dict:
            eval_env.bindings[key] = Binding(colmap, row)
            return {
                index: c(eval_env)
                for index, c in zip(self.assign_indexes, self.assign_cs)
            }

        count = table.update_where(predicate, updater)
        executor.db.stats.count_rows(count, "update")
        return count


def _build_update(executor: Executor, stmt: ast.Update, env: Optional[Env]) -> UpdatePlan:
    table, colmap = _table_colmap(executor, stmt.table, env)
    alias = stmt.alias or stmt.table
    layout = {alias.lower(): colmap}
    where_c = (
        _compile_or_bail(executor, stmt.where, layout)
        if stmt.where is not None
        else None
    )
    assign_indexes = [table.column_index(c) for c, _ in stmt.assignments]
    assign_cs = [
        _compile_or_bail(executor, e, layout) for _, e in stmt.assignments
    ]
    return UpdatePlan(
        stmt.table, dict(table._index), alias.lower(), colmap, where_c,
        assign_indexes, assign_cs,
    )


class DeletePlan:
    __slots__ = ("table", "expected", "key", "colmap", "where_c")

    def __init__(self, table, expected, key, colmap, where_c) -> None:
        self.table = table
        self.expected = expected
        self.key = key
        self.colmap = colmap
        self.where_c = where_c

    def run(self, executor: Executor, env: Optional[Env]) -> int:
        table = executor._resolve_table(self.table, env)
        if table._index != self.expected:
            raise PlanInvalidated(self.table)
        eval_env = Env(parent=env)
        key = self.key
        colmap = self.colmap
        where_c = self.where_c

        def predicate(row: list) -> bool:
            eval_env.bindings[key] = Binding(colmap, row)
            return where_c is None or truth(where_c(eval_env))

        count = table.delete_where(predicate)
        executor.db.stats.count_rows(count, "delete")
        return count


def _build_delete(executor: Executor, stmt: ast.Delete, env: Optional[Env]) -> DeletePlan:
    table, colmap = _table_colmap(executor, stmt.table, env)
    alias = stmt.alias or stmt.table
    layout = {alias.lower(): colmap}
    where_c = (
        _compile_or_bail(executor, stmt.where, layout)
        if stmt.where is not None
        else None
    )
    return DeletePlan(
        stmt.table, dict(table._index), alias.lower(), colmap, where_c
    )
