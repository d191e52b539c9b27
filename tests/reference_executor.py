"""The reference the planner differential compares against.

``ReferenceExecutor`` runs every SELECT arm as a FROM-order nested loop
that walks the AST: each source is bound in FROM order by a full scan,
the whole WHERE is evaluated at the leaf, and every expression is
evaluated by a tree walk — no plan, no plan or expression cache, no
compiled closure, no hash or interval probe, no typed filter, no join
reordering.  It shares nothing with ``planner.py``/``exprcompile.py``;
what it inherits from ``Executor`` is dispatch, LIMIT, DDL, name/table
resolution and the value-level operator helpers; set operations are its
own, over ``Counter`` multisets.

A test installs it on a database (``db._executor = ReferenceExecutor(db)``,
or for a block ``with installed(db):``), so routine bodies and
subqueries the statement reaches run through it too:
function calls and CALL go to ``tests/reference_psm.py``, the walking
PSM interpreter, never to a compiled routine body.
DML keeps the engine's plan: the only DML the differential reaches is
``INSERT INTO TABLE var (SELECT …)``, whose plan holds no closure and
whose SELECT comes back here.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine import functions as fn
from repro.sqlengine.errors import CardinalityError, CatalogError, ExecutionError
from repro.sqlengine.executor import (
    Binding,
    Env,
    Executor,
    ResultSet,
    _apply_binary,
    _contains_aggregate,
    _distinct_rows,
    _flatten_from,
    _freeze_env,
    _like_regex,
    _negate,
)
from repro.sqlengine.types import coerce
from repro.sqlengine.values import (
    Null,
    Unknown,
    compare,
    logic_not,
    sort_key,
    truth,
)
from tests.reference_psm import ReferenceInterpreter


def _key(row: list[Any]) -> tuple:
    return tuple(map(sort_key, row))


def _first_copies(rows: list, counts: Counter, cap: Optional[int]) -> list:
    """The first ``counts[key]`` rows of each key, in order (at most
    ``cap`` of them when given)."""
    left = Counter({
        key: count if cap is None else min(count, cap)
        for key, count in counts.items()
    })
    kept = []
    for row in rows:
        key = _key(row)
        if left[key] > 0:
            left[key] -= 1
            kept.append(row)
    return kept


@contextmanager
def installed(db) -> Iterator[None]:
    """Run what the block executes on ``db`` through the reference."""
    engine = db._executor
    db._executor = ReferenceExecutor(db)
    try:
        yield
    finally:
        db._executor = engine


class ReferenceExecutor(Executor):
    def execute(self, stmt: ast.Statement, env: Optional[Env] = None) -> Any:
        if isinstance(stmt, ast.CallStatement) and stmt.modifier is None:
            # what Executor.execute does before it hands a CALL over
            if self.db.resilience.armed:
                self.db.resilience.check()
            self.db.stats.executed.value += 1
            return ReferenceInterpreter(self).call_procedure(stmt, env)
        return super().execute(stmt, env)

    # -- SELECT -------------------------------------------------------------

    def _run_planned(
        self, stmt: ast.Statement, env: Optional[Env], *run_args, step: str = "run"
    ) -> Any:
        """A SELECT arm runs as :meth:`_nested_loop`, ordered when the
        engine would order it; DML keeps the engine's plan."""
        if isinstance(stmt, ast.Select):
            return self._nested_loop(stmt, env, stmt.order_by if run_args[0] else None)
        return super()._run_planned(stmt, env, *run_args, step=step)

    def _nested_loop(
        self,
        select: ast.Select,
        env: Optional[Env],
        order_by: Optional[list[ast.OrderItem]],
    ) -> ResultSet:
        base = env if env is not None else Env()
        grouped = bool(select.group_by) or select.having is not None or any(
            item.expr is not None and _contains_aggregate(item.expr)
            for item in select.items
        )
        columns = self._output_columns(select, base)
        colmap = {name.lower(): i for i, name in enumerate(columns)}
        matches = (
            row_env
            for row_env in self._from_rows(select.from_items, 0, base.child())
            if select.where is None or truth(self.evaluate(select.where, row_env))
        )
        rows: list[list[Any]] = []
        keys: list[tuple] = []
        if grouped:
            frozen = [_freeze_env(row_env) for row_env in matches]
            groups: dict[tuple, list[Env]] = {}
            for row_env in frozen:
                key = tuple(
                    sort_key(self.evaluate(g, row_env)) for g in select.group_by
                )
                groups.setdefault(key, []).append(row_env)
            if not select.group_by:
                groups = {(): frozen}  # one group, even over no rows
            for group in groups.values():
                def value_of(expr: ast.Expression) -> Any:
                    return self._evaluate_grouped(expr, group, base)
                if select.having is not None and not truth(value_of(select.having)):
                    continue
                rows.append([value_of(item.expr) for item in select.items])
                if order_by:
                    keys.append(_order_key(order_by, rows[-1], colmap, value_of))
        else:
            for row_env in matches:
                rows.append(self._project(select.items, row_env))
                if order_by:
                    keys.append(_order_key(
                        order_by, rows[-1], colmap,
                        lambda expr: self.evaluate(expr, row_env),
                    ))
        if order_by:
            paired = sorted(zip(keys, range(len(rows)), rows), key=lambda p: p[:2])
            rows = [row for _, _, row in paired]
        if select.distinct:
            rows = _distinct_rows(rows)
        return ResultSet(columns, rows)

    def _apply_set_ops(
        self, select: ast.Select, left: ResultSet, env: Optional[Env]
    ) -> ResultSet:
        """Set operations over multisets of rows keyed by ``sort_key``
        (NULLs group): UNION ALL adds counts, UNION / EXCEPT / INTERSECT
        keep each surviving key once (EXCEPT: the keys the right operand
        lacks), EXCEPT ALL keeps ``max(m - n, 0)``
        and INTERSECT ALL ``min(m, n)`` copies — always the first ones
        in left-operand order."""
        node, rows, columns = select, left.rows, left.columns
        while node.set_op:
            node, op = node.set_rhs, node.set_op
            right = self._nested_loop(node, env, None)
            if len(right.columns) != len(columns):
                raise ExecutionError("set operands differ in column count")
            if op.startswith("UNION"):
                rows = rows + right.rows
                if op == "UNION":
                    rows = _first_copies(rows, Counter(map(_key, rows)), 1)
                continue
            have, other = Counter(map(_key, rows)), Counter(map(_key, right.rows))
            if op == "EXCEPT":
                kept = Counter(key for key in have if key not in other)
            else:
                kept = have - other if op == "EXCEPT ALL" else have & other
            rows = _first_copies(rows, kept, None if op.endswith("ALL") else 1)
        return ResultSet(columns, rows)

    def _evaluate_grouped(
        self, expr: ast.Expression, group: list[Env], base: Env
    ) -> Any:
        """Evaluate an expression that may contain aggregate calls."""
        if (
            isinstance(expr, ast.FunctionCall)
            and fn.is_aggregate(expr.name)
            and not self.db.catalog.has_routine(expr.name)
        ):
            if expr.star:
                return fn.evaluate_aggregate(expr.name, [None] * len(group), star=True)
            values = [self.evaluate(expr.args[0], row_env) for row_env in group]
            return fn.evaluate_aggregate(expr.name, values, distinct=expr.distinct)
        if isinstance(expr, ast.BinaryOp):
            # no short circuit among aggregates: both sides evaluate
            return _apply_binary(
                expr.op,
                self._evaluate_grouped(expr.left, group, base),
                self._evaluate_grouped(expr.right, group, base),
            )
        if isinstance(expr, ast.Parenthesized):
            return self._evaluate_grouped(expr.expr, group, base)
        if isinstance(expr, ast.UnaryOp):
            value = self._evaluate_grouped(expr.operand, group, base)
            return logic_not(value) if expr.op == "NOT" else _negate(value)
        if isinstance(expr, ast.Cast):
            return coerce(self._evaluate_grouped(expr.expr, group, base), expr.target)
        # non-aggregate parts evaluate on a representative group row
        return self.evaluate(expr, group[0] if group else base)

    def _project(self, items: list[ast.SelectItem], env: Env) -> list[Any]:
        values: list[Any] = []
        for item in items:
            if not item.is_star:
                values.append(self.evaluate(item.expr, env))
                continue
            for alias, binding in env.bindings.items():
                if not item.star_qualifier or alias == item.star_qualifier.lower():
                    values.extend(binding.row)
        return values

    # -- FROM: nested loop in FROM order -----------------------------------

    def _from_rows(
        self, from_items: list[ast.FromItem], index: int, env: Env
    ) -> Iterator[Env]:
        if index == len(from_items):
            yield env
            return
        for bound in self._bind(from_items[index], env):
            yield from self._from_rows(from_items, index + 1, bound)

    def _bind(self, source: ast.FromItem, env: Env) -> Iterator[Env]:
        if isinstance(source, ast.Join):
            yield from self._bind_join(source, env)
            return
        alias, columns, rows = self._rows_of(source, env)
        colmap = {name.lower(): i for i, name in enumerate(columns)}
        for row in rows:
            env.bindings[alias.lower()] = Binding(colmap, row)
            yield env
        env.bindings.pop(alias.lower(), None)

    def _bind_join(self, join: ast.Join, env: Env) -> Iterator[Env]:
        def holds(bound: Env) -> bool:
            return join.condition is None or truth(self.evaluate(join.condition, bound))

        if join.kind in ("INNER", "CROSS"):
            for left in self._bind(join.left, env):
                yield from filter(holds, self._bind(join.right, left))
            return
        if join.kind not in ("LEFT", "RIGHT"):
            raise ExecutionError(f"unsupported join kind {join.kind}")
        # a RIGHT join is a LEFT join with the operands swapped; the
        # null-extended side is bound once, before the preserved side
        kept, extended = (
            (join.left, join.right) if join.kind == "LEFT" else (join.right, join.left)
        )
        nulls = {}
        for leaf in _flatten_from([extended]):
            alias, columns = self._source_shape(leaf, env)
            colmap = {name.lower(): i for i, name in enumerate(columns)}
            nulls[alias.lower()] = Binding(colmap, [Null] * len(columns))
        snapshots = [
            {alias: bound.bindings[alias] for alias in nulls}
            for bound in self._bind(extended, env)
        ]
        for left in self._bind(kept, env):
            matched = False
            for snapshot in snapshots:
                left.bindings.update(snapshot)
                if holds(left):
                    matched = True
                    yield left
            if not matched:
                left.bindings.update(nulls)
                yield left
            for alias in nulls:
                left.bindings.pop(alias, None)

    def _rows_of(
        self, source: ast.FromItem, env: Env
    ) -> tuple[str, list[str], list[list[Any]]]:
        """Alias, columns and rows of a leaf FROM source (lateral-aware)."""
        if isinstance(source, ast.TableRef):
            view = self.db.catalog.get_view(source.name)
            if view is not None:
                result = self.execute_select(view, Env(frame=env.frame))
                return source.binding, result.columns, result.rows
            table = self._read_table(source.name, env)
            return source.binding, table.column_names, table.rows
        if isinstance(source, ast.SubqueryRef):
            result = self.execute_select(source.select, env)
            return source.alias, result.columns, result.rows
        if isinstance(source, ast.TableFunctionRef):
            args = [self.evaluate(a, env) for a in source.call.args]
            columns, rows = ReferenceInterpreter(self).invoke_table_function(
                source.call.name, args
            )
            return source.alias, columns, rows
        raise ExecutionError(f"unsupported FROM source {type(source).__name__}")

    # -- expressions: a tree walk ------------------------------------------

    def evaluate(self, expr: ast.Expression, env: Env) -> Any:
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Name):
            return env.lookup(expr.qualifier, expr.name)
        if isinstance(expr, ast.Parenthesized):
            return self.evaluate(expr.expr, env)
        if isinstance(expr, ast.BinaryOp):
            left = self.evaluate(expr.left, env)
            if expr.op == "AND" and left is False:
                return False
            if expr.op == "OR" and left is True:
                return True
            return _apply_binary(expr.op, left, self.evaluate(expr.right, env))
        if isinstance(expr, ast.UnaryOp):
            value = self.evaluate(expr.operand, env)
            return logic_not(value) if expr.op == "NOT" else _negate(value)
        if isinstance(expr, ast.FunctionCall):
            return self._evaluate_call(expr, env)
        if isinstance(expr, ast.Cast):
            return coerce(self.evaluate(expr.expr, env), expr.target)
        if isinstance(expr, ast.CaseExpr):
            if expr.operand is not None:
                operand = self.evaluate(expr.operand, env)
            for when, then in expr.whens:
                candidate = self.evaluate(when, env)
                if (
                    truth(candidate) if expr.operand is None
                    else compare(operand, candidate) == 0
                ):
                    return self.evaluate(then, env)
            if expr.else_expr is not None:
                return self.evaluate(expr.else_expr, env)
            return Null
        if isinstance(expr, ast.IsNullPredicate):
            return (self.evaluate(expr.expr, env) is Null) != expr.negated
        if isinstance(expr, ast.BetweenPredicate):
            # SQL defines it as ``value >= low AND value <= high``: one
            # False half makes it False even when the other is Unknown
            value = self.evaluate(expr.expr, env)
            lower = compare(value, self.evaluate(expr.low, env))
            upper = compare(value, self.evaluate(expr.high, env))
            if (lower is not Unknown and lower < 0) or (
                upper is not Unknown and upper > 0
            ):
                answer = False
            elif lower is Unknown or upper is Unknown:
                answer = Unknown
            else:
                answer = True
            return logic_not(answer) if expr.negated else answer
        if isinstance(expr, ast.InPredicate):
            return self._evaluate_in(expr, env)
        if isinstance(expr, ast.ExistsPredicate):
            found = len(self.execute_select(expr.subquery, env).rows) > 0
            return found != expr.negated
        if isinstance(expr, ast.LikePredicate):
            value = self.evaluate(expr.expr, env)
            pattern = self.evaluate(expr.pattern, env)
            if value is Null or pattern is Null:
                return Unknown
            found = _like_regex(str(pattern)).fullmatch(str(value)) is not None
            return found != expr.negated
        if isinstance(expr, ast.ScalarSubquery):
            rows = self.execute_select(expr.select, env).rows
            if len(rows) > 1:
                raise CardinalityError("scalar subquery returned more than one row")
            return rows[0][0] if rows else Null
        raise ExecutionError(f"cannot evaluate {type(expr).__name__}")

    def _evaluate_call(self, expr: ast.FunctionCall, env: Env) -> Any:
        name, upper = expr.name, expr.name.upper()
        if self.db.catalog.has_routine(name):
            args = [self.evaluate(a, env) for a in expr.args]
            return ReferenceInterpreter(self).invoke_function(name, args)
        if upper == "CURRENT_DATE":
            return self.db.now
        if fn.is_aggregate(upper):
            raise ExecutionError(f"aggregate {name} used outside of a grouped query")
        if fn.is_scalar_builtin(upper):
            args = [self.evaluate(a, env) for a in expr.args]
            return fn.call_scalar_builtin(upper, args)
        raise CatalogError(f"no such function: {name}")

    def _evaluate_in(self, expr: ast.InPredicate, env: Env) -> Any:
        value = self.evaluate(expr.expr, env)
        if expr.subquery is not None:
            rows = self.execute_select(expr.subquery, env).rows
            candidates = [row[0] for row in rows]
        else:
            candidates = [self.evaluate(e, env) for e in expr.items or []]
        saw_unknown = False
        for candidate in candidates:
            verdict = compare(value, candidate)
            if verdict is Unknown:
                saw_unknown = True
            elif verdict == 0:
                return not expr.negated
        return Unknown if saw_unknown else expr.negated


class _Reversed:
    """Inverts comparison for DESC sort keys."""

    __slots__ = ("key",)

    def __init__(self, key: Any) -> None:
        self.key = key

    def __lt__(self, other: "_Reversed") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.key == other.key


def _order_key(
    order_by: list[ast.OrderItem],
    row: list[Any],
    colmap: dict[str, int],
    value_of: Callable[[ast.Expression], Any],
) -> tuple:
    """Output column by name, then by position literal, else the
    expression evaluated in the row's (or group's) scope."""
    parts = []
    for item in order_by:
        expr = item.expr
        if isinstance(expr, ast.Name) and expr.qualifier is None and (
            expr.name.lower() in colmap
        ):
            value = row[colmap[expr.name.lower()]]
        elif isinstance(expr, ast.Literal) and isinstance(expr.value, int) and (
            0 < expr.value <= len(row)
        ):
            value = row[expr.value - 1]
        else:
            value = value_of(expr)
        key = sort_key(value)
        parts.append(_Reversed(key) if item.descending else key)
    return tuple(parts)
