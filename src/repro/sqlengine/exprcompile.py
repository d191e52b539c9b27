"""Expression compilation: AST → Python closures (the *bind* phase).

This is the engine's one expression evaluator.  Names are resolved once
per statement instead of per row: given a *slot layout* — the mapping
from FROM-clause alias to its column→index map — a column reference
compiles to an integer row-index fetch, and every other node compiles to
a closure over its children's closures.  ``Executor.evaluate`` (PSM
statements, the stratum's row passes) is the same compiler with an empty
layout, memoized by AST identity.

Compiled closures implement SQL's three-valued logic and NULL
propagation, raise per call exactly where the value-level operators
raise, and re-read mutable AST leaves (``Literal.value``) on every call,
so the stratum's placeholder-literal trick keeps working.

Safety: a slot closure only takes the fast path when the runtime binding
carries the *identical* column map the expression was compiled against
(``binding.columns is colmap``); anything else — unbound alias,
shadowing parent environment, routine-frame record — goes through
``Env.lookup_keyed``, the one statement of the name-resolution rules.

A node the compiler does not know (there is none in the grammar the
parser accepts) is an ``ExecutionError`` at compile time.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine import functions as fn
from repro.sqlengine.errors import (
    CardinalityError,
    CatalogError,
    ExecutionError,
)
from repro.sqlengine.executor import (
    Env,
    Executor,
    _apply_binary,
    _like_regex,
    _negate,
)
from repro.sqlengine.types import coerce
from repro.sqlengine.values import (
    Null,
    Unknown,
    compare,
    logic_and,
    logic_not,
    logic_or,
    truth,
)

# A compiled scalar expression: Env → value.
Compiled = Callable[[Env], Any]
# A compiled grouped expression: (group, base env) → value.
CompiledGrouped = Callable[[list, Env], Any]

# Layout: alias (lowercased) → column→index map.  The colmap dicts must
# be the very objects later placed into Binding.columns — slot closures
# guard on their identity.
Layout = dict


class FrameLayout(dict):
    """The layout of a PSM-level expression (an IF condition, a SET
    value, a call argument): no FROM source binds a name, so every name
    is a routine variable, and ``scope`` — the routine compiler's
    ``_Scope`` at the statement — resolves it to a frame slot once."""

    __slots__ = ("scope",)

    def __init__(self, scope: Any) -> None:
        super().__init__()
        self.scope = scope


# ---------------------------------------------------------------------------
# per-row compilation
# ---------------------------------------------------------------------------


def compile_expression(
    executor: Executor, expr: ast.Expression, layout: Layout
) -> Compiled:
    """Compile ``expr`` to a closure over the row environment."""
    if isinstance(expr, ast.Literal):
        # Literal.value is mutable (the stratum substitutes context
        # bounds and period placeholders in place); read it per call.
        return lambda env, e=expr: e.value
    if isinstance(expr, ast.Name):
        return _compile_name(expr, layout)
    if isinstance(expr, ast.Parenthesized):
        return compile_expression(executor, expr.expr, layout)
    if isinstance(expr, ast.BinaryOp):
        return _compile_binary(executor, expr, layout)
    if isinstance(expr, ast.UnaryOp):
        operand_c = compile_expression(executor, expr.operand, layout)
        if expr.op == "NOT":
            return lambda env: logic_not(operand_c(env))
        return lambda env: _negate(operand_c(env))
    if isinstance(expr, ast.FunctionCall):
        return _compile_call(executor, expr, layout)
    if isinstance(expr, ast.Cast):
        inner_c = compile_expression(executor, expr.expr, layout)
        target = expr.target
        return lambda env: coerce(inner_c(env), target)
    if isinstance(expr, ast.CaseExpr):
        return _compile_case(executor, expr, layout)
    if isinstance(expr, ast.IsNullPredicate):
        inner_c = compile_expression(executor, expr.expr, layout)
        if expr.negated:
            return lambda env: inner_c(env) is not Null
        return lambda env: inner_c(env) is Null
    if isinstance(expr, ast.BetweenPredicate):
        return _compile_between(executor, expr, layout)
    if isinstance(expr, ast.InPredicate):
        return _compile_in(executor, expr, layout)
    if isinstance(expr, ast.ExistsPredicate):
        subquery = expr.subquery
        negated = expr.negated
        def exists_closure(env: Env) -> Any:
            result = executor.execute_select(subquery, env)
            answer = len(result.rows) > 0
            return not answer if negated else answer
        return exists_closure
    if isinstance(expr, ast.LikePredicate):
        return _compile_like(executor, expr, layout)
    if isinstance(expr, ast.ScalarSubquery):
        select = expr.select
        def scalar_closure(env: Env) -> Any:
            result = executor.execute_select(select, env)
            if not result.rows:
                return Null
            if len(result.rows) > 1:
                raise CardinalityError("scalar subquery returned more than one row")
            return result.rows[0][0]
        return scalar_closure
    raise ExecutionError(f"cannot evaluate {type(expr).__name__}")


def _compile_name(expr: ast.Name, layout: Layout) -> Compiled:
    qualifier, name = expr.qualifier, expr.name
    qual = qualifier.lower() if qualifier is not None else None
    key = name.lower()
    if isinstance(layout, FrameLayout):
        return layout.scope.reader(qual, key, qualifier, name)
    if qual is not None:
        colmap = layout.get(qual)
        if colmap is not None:
            index = colmap.get(key)
            if index is not None:
                def qualified_slot(env: Env) -> Any:
                    binding = env.bindings.get(qual)
                    if binding is not None and binding.columns is colmap:
                        return binding.row[index]
                    return env.lookup_keyed(qual, key, qualifier, name)
                return qualified_slot
        return lambda env: env.lookup_keyed(qual, key, qualifier, name)
    hits = [
        (alias, colmap, colmap[key])
        for alias, colmap in layout.items()
        if key in colmap
    ]
    if len(hits) == 1:
        alias, colmap, index = hits[0]
        def bare_slot(env: Env) -> Any:
            binding = env.bindings.get(alias)
            if binding is not None and binding.columns is colmap:
                return binding.row[index]
            return env.lookup_keyed(None, key, None, name)
        return bare_slot
    # zero hits (parent env / frame variable) or an ambiguity: resolve
    # dynamically so the resolution rules (and errors) apply per row
    return lambda env: env.lookup_keyed(None, key, None, name)


def _compile_binary(
    executor: Executor, expr: ast.BinaryOp, layout: Layout
) -> Compiled:
    left_c = compile_expression(executor, expr.left, layout)
    right_c = compile_expression(executor, expr.right, layout)
    op = expr.op
    if op == "AND":
        def and_closure(env: Env) -> Any:
            left = left_c(env)
            if left is False:
                return False
            return logic_and(left, right_c(env))
        return and_closure
    if op == "OR":
        def or_closure(env: Env) -> Any:
            left = left_c(env)
            if left is True:
                return True
            return logic_or(left, right_c(env))
        return or_closure
    if op == "=":
        def eq_closure(env: Env) -> Any:
            left, right = left_c(env), right_c(env)
            if type(left) is int and type(right) is int:
                return left == right
            verdict = compare(left, right)
            if verdict is Unknown:
                return Unknown
            return verdict == 0
        return eq_closure
    return lambda env: _apply_binary(op, left_c(env), right_c(env))


def _compile_call(
    executor: Executor, expr: ast.FunctionCall, layout: Layout
) -> Compiled:
    from repro.sqlengine.routines import RoutineInterpreter

    name = expr.name
    key = name.lower()
    upper = name.upper()
    arg_cs = [compile_expression(executor, a, layout) for a in expr.args]
    db = executor.db
    find_routine = db.catalog.find_routine
    interpreter = RoutineInterpreter(executor)

    # what the name means while no routine claims it is fixed here; the
    # routine, if any, is read per call — one probe, and the callee's
    # compiled body and memo-key shape hang off the object it returns
    if upper == "CURRENT_DATE":
        def builtin(env: Env) -> Any:
            return db.now
    elif fn.is_aggregate(upper):
        def builtin(env: Env) -> Any:
            raise ExecutionError(
                f"aggregate {name} used outside of a grouped query"
            )
    elif fn.is_scalar_builtin(upper):
        def builtin(env: Env) -> Any:
            return fn.call_scalar_builtin(upper, [c(env) for c in arg_cs])
    else:
        def builtin(env: Env) -> Any:
            raise CatalogError(f"no such function: {name}")

    def call_closure(env: Env) -> Any:
        routine = find_routine(key)
        if routine is None:
            return builtin(env)
        return interpreter.invoke_function(
            name, [c(env) for c in arg_cs] if len(arg_cs) != 2
            else [arg_cs[0](env), arg_cs[1](env)],  # a MAX clone's (argument, point)
            routine,
        )

    return call_closure


def _compile_case(
    executor: Executor, expr: ast.CaseExpr, layout: Layout
) -> Compiled:
    operand_c = (
        compile_expression(executor, expr.operand, layout)
        if expr.operand is not None
        else None
    )
    whens = [
        (
            compile_expression(executor, when, layout),
            compile_expression(executor, then, layout),
        )
        for when, then in expr.whens
    ]
    else_c = (
        compile_expression(executor, expr.else_expr, layout)
        if expr.else_expr is not None
        else None
    )

    def case_closure(env: Env) -> Any:
        if operand_c is not None:
            operand = operand_c(env)
            for when_c, then_c in whens:
                if compare(operand, when_c(env)) == 0:
                    return then_c(env)
        else:
            for when_c, then_c in whens:
                if truth(when_c(env)):
                    return then_c(env)
        if else_c is not None:
            return else_c(env)
        return Null

    return case_closure


def _compile_between(
    executor: Executor, expr: ast.BetweenPredicate, layout: Layout
) -> Compiled:
    value_c = compile_expression(executor, expr.expr, layout)
    low_c = compile_expression(executor, expr.low, layout)
    high_c = compile_expression(executor, expr.high, layout)
    negated = expr.negated

    def between_closure(env: Env) -> Any:
        # ``value >= low AND value <= high``: a False half decides even
        # when the other half is Unknown under a NULL bound
        value = value_c(env)
        lower = compare(value, low_c(env))
        upper = compare(value, high_c(env))
        answer = logic_and(
            Unknown if lower is Unknown else lower >= 0,
            Unknown if upper is Unknown else upper <= 0,
        )
        return logic_not(answer) if negated else answer

    return between_closure


def _compile_in(
    executor: Executor, expr: ast.InPredicate, layout: Layout
) -> Compiled:
    value_c = compile_expression(executor, expr.expr, layout)
    negated = expr.negated
    subquery = expr.subquery
    item_cs = (
        [compile_expression(executor, e, layout) for e in expr.items or []]
        if subquery is None
        else None
    )

    def in_closure(env: Env) -> Any:
        value = value_c(env)
        if subquery is not None:
            result = executor.execute_select(subquery, env)
            candidates = [row[0] for row in result.rows]
        else:
            candidates = [c(env) for c in item_cs]
        saw_unknown = False
        for candidate in candidates:
            verdict = compare(value, candidate)
            if verdict is Unknown:
                saw_unknown = True
            elif verdict == 0:
                return False if negated else True
        if saw_unknown:
            return Unknown
        return True if negated else False

    return in_closure


def _compile_like(
    executor: Executor, expr: ast.LikePredicate, layout: Layout
) -> Compiled:
    value_c = compile_expression(executor, expr.expr, layout)
    pattern_c = compile_expression(executor, expr.pattern, layout)
    negated = expr.negated
    regex_cache: dict = {}

    def like_closure(env: Env) -> Any:
        value = value_c(env)
        pattern = pattern_c(env)
        if value is Null or pattern is Null:
            return Unknown
        text = str(pattern)
        regex = regex_cache.get(text)
        if regex is None:
            regex = regex_cache[text] = _like_regex(text)
        answer = regex.fullmatch(str(value)) is not None
        return (not answer) if negated else answer

    return like_closure


# ---------------------------------------------------------------------------
# grouped compilation
# ---------------------------------------------------------------------------


def compile_grouped(
    executor: Executor, expr: ast.Expression, layout: Layout, aggregates: list
) -> CompiledGrouped:
    """Compile an expression that may contain aggregate calls, appending
    each call's argument closure to ``aggregates``."""
    if isinstance(expr, ast.FunctionCall) and fn.is_aggregate(expr.name):
        return _compile_g_aggregate(executor, expr, layout, aggregates)
    if isinstance(expr, ast.BinaryOp):
        left_c = compile_grouped(executor, expr.left, layout, aggregates)
        right_c = compile_grouped(executor, expr.right, layout, aggregates)
        op = expr.op
        # no short circuit in the grouped evaluator: both sides evaluate
        if op == "AND":
            return lambda group, base: logic_and(
                left_c(group, base), right_c(group, base)
            )
        if op == "OR":
            return lambda group, base: logic_or(
                left_c(group, base), right_c(group, base)
            )
        return lambda group, base: _apply_binary(
            op, left_c(group, base), right_c(group, base)
        )
    if isinstance(expr, ast.Parenthesized):
        return compile_grouped(executor, expr.expr, layout, aggregates)
    if isinstance(expr, ast.UnaryOp):
        operand_c = compile_grouped(executor, expr.operand, layout, aggregates)
        if expr.op == "NOT":
            return lambda group, base: logic_not(operand_c(group, base))
        return lambda group, base: _negate(operand_c(group, base))
    if isinstance(expr, ast.Cast):
        inner_c = compile_grouped(executor, expr.expr, layout, aggregates)
        target = expr.target
        return lambda group, base: coerce(inner_c(group, base), target)
    # every other form evaluates per-row on the group's first row
    row_c = compile_expression(executor, expr, layout)
    return lambda group, base: row_c(group[0] or base)


def _compile_g_aggregate(
    executor: Executor, expr: ast.FunctionCall, layout: Layout, aggregates: list
) -> CompiledGrouped:
    """A group is ``[first row's frozen env | None, row count, values of
    aggregate 0, …]``; an argument's held ``SqlError`` replaces its
    values and is raised here, when the aggregate is folded."""
    name = expr.name
    star = expr.star
    distinct = expr.distinct
    catalog = executor.db.catalog
    if not star and not expr.args:
        raise ExecutionError(f"aggregate {name} requires an argument")
    if not star:
        slot = 2 + len(aggregates)
        aggregates.append(compile_expression(executor, expr.args[0], layout))
    # a user routine shadowing the aggregate name is resolved per call
    row_c = compile_expression(executor, expr, layout)

    def aggregate_closure(group: list, base: Env) -> Any:
        if catalog.has_routine(name):
            return row_c(group[0] or base)
        if star:  # COUNT(*), the one star call the parser makes
            return group[1]
        values = group[slot]
        if values.__class__ is not list:
            raise values
        return fn.evaluate_aggregate(name, values, distinct=distinct)

    return aggregate_closure
