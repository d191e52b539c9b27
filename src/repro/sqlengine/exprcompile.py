"""Expression compilation: AST → Python closures (the *bind* phase).

This is the engine's one expression evaluator.  Names are resolved once
per statement instead of per row: given a *slot layout* — the mapping
from FROM-clause alias to its column→index map — a column reference
compiles to an integer row-index fetch, and every other node compiles to
a closure over its children's closures.  ``Executor.evaluate`` (CALL
arguments, the stratum's row passes) is the same compiler with an empty
layout, memoized by AST identity.  A function call is one generated
function per name and argument count (:func:`call_lines`, which routine
bodies inline too, with :func:`psm_expression` for their PSM-level
expressions).

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

import functools
import re
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
    Date,
    Null,
    Unknown,
    compare,
    logic_and,
    logic_not,
    logic_or,
    sort_key,
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


def _indented(lines: list) -> list:
    return ["    " + line for line in lines]


def call_lines(name: str, args: list, before: list, out: str) -> list:
    """Source of one call site, ``out = name(*args)``: ``find_routine``
    once per call (a swapped routine object is met at once), ``before``
    (the argument atoms ``args``; run for a routine or a scalar
    built-in), then the call.  A memoised function's kept results (its
    point last: ``RoutineInterpreter._reused``) are probed in line,
    newest first: a hit counts a reuse and narrows the caller's read
    window; anything else goes to ``interp.invoke_function``."""
    upper, routine, body = name.upper(), f"r_{out}", f"b_{out}"
    listed = ", ".join(args)
    call = [f"{out} = interp.invoke_function({name!r}, [{listed}], {routine})"]
    if args:
        point, entries, window = args[-1], f"e_{out}", f"w_{out}"
        key = [f"{body}.key"] + [
            f"((3, ({a}).rstrip()) if type({a}) is str else sort_key({a}))" for a in args[:-1]
        ]
        call = [
            f"{body} = {routine}.compiled",
            f"if {body} is not None and {body}.memo_at == {len(args) - 1} and"
            f" type({point}) is Date and {body}.executor is executor and"
            f" ({entries} := cache.get(({', '.join(key)}{',' * (len(key) == 1)}))):",
            f"    for lo, hi, {out} in reversed({entries}):",
            f"        if lo <= ({point}).ordinal < hi:",
            f"            {body}.reuses.value += 1",
            f"            if ({window} := db.read_window) is not None:",  # _narrow_caller
            f"                if {window}[2] != ({point}).ordinal:",
            f"                    lo, hi = {window}[2], {window}[2] + 1",
            f"                if lo > {window}[0]:",
            f"                    {window}[0] = lo",
            f"                if hi < {window}[1]:",
            f"                    {window}[1] = hi",
            "            break",
            "    else:",
            *_indented(_indented(call)),
            "else:",
            *_indented(call),
        ]
    lines = [f"{routine} = find_routine({name.lower()!r})"]
    if fn.is_scalar_builtin(upper) and upper != "CURRENT_DATE":
        return lines + before + [
            f"if {routine} is None:",
            f"    {out} = call_scalar_builtin({upper!r}, [{listed}])",
            "else:",
        ] + _indented(call)
    if upper == "CURRENT_DATE":
        builtin = f"{out} = db.now"
    elif fn.is_aggregate(upper):
        builtin = f"raise ExecutionError({f'aggregate {name} used outside of a grouped query'!r})"
    else:
        builtin = f"raise CatalogError({f'no such function: {name}'!r})"
    return lines + [f"if {routine} is None:", "    " + builtin, "else:"] + _indented(before + call)


# what the source of a call site reads besides its make() arguments
CALL_NAMES = {
    "Date": Date, "sort_key": sort_key,
    "call_scalar_builtin": fn.call_scalar_builtin,
    "ExecutionError": ExecutionError, "CatalogError": CatalogError,
}


@functools.lru_cache(maxsize=256)
def _call_site(name: str, count: int) -> Callable:
    """The call closure of ``name`` over ``count`` arguments, generated
    from :func:`call_lines` and compiled once per shape."""
    cells = ", ".join(f"c{i}" for i in range(count))
    lines = ["def make(arg_cs, find_routine, interp, cache, db, executor):"] + _indented(
        [f"[{cells}] = arg_cs", "def call_closure(env):"]
        + _indented(call_lines(name, [f"a{i}" for i in range(count)],
                               [f"a{i} = c{i}(env)" for i in range(count)], "v") + ["return v"])
        + ["return call_closure"]
    )
    namespace = dict(CALL_NAMES)
    exec(compile("\n".join(lines), f"<call {name}>", "exec"), namespace)
    return namespace.pop("make")  # held by the cache, not by its globals


def _compile_call(executor: Executor, expr: ast.FunctionCall, layout: Layout) -> Compiled:
    from repro.sqlengine.routines import RoutineInterpreter

    db = executor.db
    return _call_site(expr.name, len(expr.args))(
        [compile_expression(executor, a, layout) for a in expr.args], db.catalog.find_routine,
        RoutineInterpreter(executor), db.table_function_cache, db, executor,
    )


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
    each call's argument expression to ``aggregates`` (the plan reads a
    column argument in line, compiles any other)."""
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
        aggregates.append(expr.args[0])
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


# ---------------------------------------------------------------------------
# PSM-level expressions as source
# ---------------------------------------------------------------------------

_ATOM = re.compile(r"-?\d+|t\d+|s\[\d+\]|'[^'\\]*'|True|False|Null")
_PY_OPS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _atom(value: str, lines: list, ctx: Any) -> str:
    """``value`` if a literal, slot or temporary, else a new temporary."""
    if _ATOM.fullmatch(value):
        return value
    temp = ctx.temp()
    lines.append(f"{temp} = {value}")
    return temp


def psm_expression(expr: ast.Expression, lines: list, ctx: Any) -> str:
    """A PSM-level expression as source for a generated routine body:
    the returned expression, after ``lines``.  Operands run left to
    right, AND / OR short-circuit, a comparison is ``compare``'s verdict
    with ``eq_closure``'s int/int fast path, a call is :func:`call_lines`;
    ``ctx`` (the routine generator) writes literals, names and
    temporaries, and leaves other nodes to their closure (``fallback``)."""
    if isinstance(expr, ast.Parenthesized):
        return psm_expression(expr.expr, lines, ctx)
    if isinstance(expr, ast.Literal):
        return ctx.literal(expr.value)
    if isinstance(expr, ast.Name):
        return ctx.name(expr)
    if isinstance(expr, ast.IsNullPredicate):
        operand = psm_expression(expr.expr, lines, ctx)
        return f"({operand} is {'not ' if expr.negated else ''}Null)"
    if isinstance(expr, ast.UnaryOp):
        operand = psm_expression(expr.operand, lines, ctx)
        return f"{'logic_not' if expr.op == 'NOT' else '_negate'}({operand})"
    if isinstance(expr, ast.FunctionCall):
        before: list = []
        args = [_atom(psm_expression(a, before, ctx), before, ctx) for a in expr.args]
        out = ctx.temp()
        lines.extend(call_lines(expr.name, args, before, out))
        return out
    if not isinstance(expr, ast.BinaryOp):
        return ctx.fallback(expr, lines)
    op = expr.op
    left = _atom(psm_expression(expr.left, lines, ctx), lines, ctx)
    if op in ("AND", "OR"):
        stop, verdict = ("False", "True") if op == "AND" else ("True", "False")
        right_lines: list = []
        right = _atom(psm_expression(expr.right, right_lines, ctx), right_lines, ctx)
        if not left.startswith("t"):
            left = _atom(f"({left})", lines, ctx)
        unknown = " or ".join(f"{x} is {y}" for x in (left, right) for y in ("Unknown", "Null"))
        lines.extend([f"if {left} is not {stop}:"] + _indented(right_lines + [
            f"{left} = {stop} if {right} is {stop} else Unknown if {unknown} else {verdict}"
        ]))
        return left
    right = _atom(psm_expression(expr.right, lines, ctx), lines, ctx)
    ints = " and ".join(f"type({x}) is int" for x in (left, right) if not x.lstrip("-").isdigit())
    if ints and (op in _PY_OPS or op in "+-*"):
        return (f"({left} {_PY_OPS.get(op, op)} {right} if {ints}"
                f" else _apply_binary({op!r}, {left}, {right}))")
    return f"_apply_binary({op!r}, {left}, {right})"


PSM_NAMES = dict(CALL_NAMES, Null=Null, Unknown=Unknown, coerce=coerce,
                 logic_not=logic_not, _negate=_negate, _apply_binary=_apply_binary)
