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

from operator import attrgetter
from typing import Any, Callable, Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine import functions as fn
from repro.sqlengine.errors import (
    CardinalityError,
    CatalogError,
    ExecutionError,
    SqlError,
)
from repro.sqlengine.executor import (
    Env,
    Executor,
    _apply_binary,
    _like_regex,
    _negate,
)
from repro.sqlengine.storage import _column_kind
from repro.sqlengine.types import coerce
from repro.sqlengine.values import (
    Date,
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


# ---------------------------------------------------------------------------
# batch WHERE kernels over rows
# ---------------------------------------------------------------------------
#
# A *batch kernel* evaluates one single-table WHERE conjunct over
# candidate positions of ``table.rows`` and keeps exactly those where it
# is **True** (False and Unknown drop: SQL's WHERE rule), so ANDing
# conjuncts is sequential filtering.  SEQ-SET's TemporalAlign applies
# them once over a table's aligned candidates.  Only shapes whose
# semantics are provably those of the row-at-a-time closures compile:
# ``col <op> const`` (either side), ``col [NOT] BETWEEN const AND const``,
# ``col IS [NOT] NULL`` and ``col [NOT] IN (const, ...)``, where *const*
# is a side-effect-free literal expression, re-read per apply (the
# stratum's mutable placeholder Literals).  A kernel reads a cell through
# its column's declared kind (``storage._column_kind``), trusting it as
# the planner's typed filters do, and orders it as ``compare`` does.  It
# *declines* — the caller evaluates row at a time, whose results *and
# errors* are the specification — when a constant's type does not fit
# the kind or a constant is NaN, constant evaluation raises an SqlError,
# or the table no longer has the kinds it was compiled against.  A
# comparison on an ``obj`` column gets no kernel.

_BATCH_FLIPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

# sentinels for constant-to-kind conversion
_FALLBACK = object()  # type cannot be compared under this kind
_KEEP_NONE = object()  # NULL constant: the conjunct is Unknown everywhere


class BatchFilter:
    """The batch kernels for one scanned table's conjuncts, compiled
    against the table's declared column kinds at ``stamp``."""

    __slots__ = ("kernels", "stamp", "kinds")

    def __init__(self, table) -> None:
        self.kernels: list = []
        self.stamp = table.schema_stamp
        self.kinds = [_column_kind(column.type) for column in table.columns]

    def add(
        self, executor: Executor, table, alias: str, conjunct: ast.Expression,
        from_items: Optional[list],
    ) -> bool:
        """Compile a kernel for ``conjunct``; False when it has none."""
        kernel = _batch_kernel(executor, table, alias, conjunct, from_items, self.kinds)
        if kernel is not None:
            self.kernels.append(kernel)
        return kernel is not None

    def apply(self, table, positions, env: Env) -> Optional[list]:
        """The candidate ``positions`` (ascending) that pass every kernel,
        or ``None`` when a kernel declines.  A table under another schema
        stamp (a snapshot view, a re-declared table) is read only while
        its column kinds are the compiled ones."""
        if table.schema_stamp is not self.stamp and self.kinds != [
            _column_kind(column.type) for column in table.columns
        ]:
            return None
        rows = table.rows
        try:
            for kernel in self.kernels:
                positions = kernel(rows, positions, env)
                if positions is None:
                    return None
                if not positions:
                    return []
        except SqlError:
            return None
        return list(positions) if not isinstance(positions, list) else positions


def _batch_const(expr: ast.Expression) -> Optional[Compiled]:
    """A closure for a side-effect-free constant expression, else None.

    Literals are re-read per call (mutable placeholder semantics); the
    only other accepted forms are parentheses and numeric sign unary.
    """
    if isinstance(expr, ast.Literal):
        return lambda env, e=expr: e.value
    if isinstance(expr, ast.Parenthesized):
        return _batch_const(expr.expr)
    if isinstance(expr, ast.UnaryOp) and expr.op != "NOT":
        inner = _batch_const(expr.operand)
        if inner is None:
            return None
        return lambda env: _negate(inner(env))
    return None


def _kind_const(kind: str, value: Any) -> Any:
    """A constant in a column kind's comparison domain; ``_KEEP_NONE``
    for NULL, ``_FALLBACK`` when the row path may raise on it."""
    if value is Null:
        return _KEEP_NONE
    if kind == "int" or kind == "float":
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, (int, float)) and value == value:
            return value
        return _FALLBACK  # (a NaN constant too: native comparison with it is False)
    if kind == "date":
        if isinstance(value, Date):
            return value.ordinal
        return _FALLBACK
    if isinstance(value, str):
        return value.rstrip()
    return _FALLBACK


# The loops keep ``p`` where the cell ``rows[p][c]`` passes, NULL tested
# inline: an inline comparison beats an ``operator`` call per row.
# ``not v <= k`` is ``v > k`` but for a NaN, which ``compare`` puts above
# every number.  Per kind: ``(op -> comparison loop, (BETWEEN, NOT
# BETWEEN), (IN, NOT IN))``.
_NUMBER_LOOPS = (
    {
        "=": lambda rows, ps, c, k: [p for p in ps if (v := rows[p][c]) is not Null and v == k],
        "<>": lambda rows, ps, c, k: [p for p in ps if (v := rows[p][c]) is not Null and v != k],
        "<": lambda rows, ps, c, k: [p for p in ps if (v := rows[p][c]) is not Null and v < k],
        "<=": lambda rows, ps, c, k: [p for p in ps if (v := rows[p][c]) is not Null and v <= k],
        ">": lambda rows, ps, c, k: [
            p for p in ps if (v := rows[p][c]) is not Null and not v <= k],
        ">=": lambda rows, ps, c, k: [
            p for p in ps if (v := rows[p][c]) is not Null and not v < k],
    },
    (
        lambda rows, ps, c, lo, hi: [
            p for p in ps if (v := rows[p][c]) is not Null and lo <= v <= hi],
        lambda rows, ps, c, lo, hi: [
            p for p in ps if (v := rows[p][c]) is not Null and not lo <= v <= hi],
    ),
    (
        lambda rows, ps, c, ks: [p for p in ps if (v := rows[p][c]) is not Null and v in ks],
        lambda rows, ps, c, ks: [p for p in ps if (v := rows[p][c]) is not Null and v not in ks],
    ),
)


def _read_loops(read: Callable[[Any], Any]) -> tuple:
    """The loops of a kind whose cells compare as ``read(cell)``."""
    return (
        {
            "=": lambda rows, ps, c, k: [
                p for p in ps if (v := rows[p][c]) is not Null and read(v) == k],
            "<>": lambda rows, ps, c, k: [
                p for p in ps if (v := rows[p][c]) is not Null and read(v) != k],
            "<": lambda rows, ps, c, k: [
                p for p in ps if (v := rows[p][c]) is not Null and read(v) < k],
            "<=": lambda rows, ps, c, k: [
                p for p in ps if (v := rows[p][c]) is not Null and read(v) <= k],
            ">": lambda rows, ps, c, k: [
                p for p in ps if (v := rows[p][c]) is not Null and read(v) > k],
            ">=": lambda rows, ps, c, k: [
                p for p in ps if (v := rows[p][c]) is not Null and read(v) >= k],
        },
        (
            lambda rows, ps, c, lo, hi: [
                p for p in ps if (v := rows[p][c]) is not Null and lo <= read(v) <= hi],
            lambda rows, ps, c, lo, hi: [
                p for p in ps if (v := rows[p][c]) is not Null and not lo <= read(v) <= hi],
        ),
        (
            lambda rows, ps, c, ks: [
                p for p in ps if (v := rows[p][c]) is not Null and read(v) in ks],
            lambda rows, ps, c, ks: [
                p for p in ps if (v := rows[p][c]) is not Null and read(v) not in ks],
        ),
    )


_LOOPS = {
    "int": _NUMBER_LOOPS,
    "float": _NUMBER_LOOPS,
    "date": _read_loops(attrgetter("ordinal")),
    "str": _read_loops(str.rstrip),
}


def _make_compare_kernel(column: int, kind: str, op: str, const_c: Compiled):
    loop = _LOOPS[kind][0][op]

    def kernel(rows, positions, env: Env):
        const = _kind_const(kind, const_c(env))
        if const is _FALLBACK:
            return None
        if const is _KEEP_NONE:
            return []
        return loop(rows, positions, column, const)

    return kernel


def _make_between_kernel(
    column: int, kind: str, low_c: Compiled, high_c: Compiled, negated: bool
):
    compares, (inside, outside), _ = _LOOPS[kind]

    def kernel(rows, positions, env: Env):
        low = _kind_const(kind, low_c(env))
        high = _kind_const(kind, high_c(env))
        if low is _FALLBACK or high is _FALLBACK:
            return None
        # ``x BETWEEN a AND b`` is ``x >= a AND x <= b``: a NULL bound
        # makes its half Unknown, so the predicate is never True, and its
        # negation is True exactly where the other half is False
        if low is _KEEP_NONE or high is _KEEP_NONE:
            if not negated or (low is _KEEP_NONE and high is _KEEP_NONE):
                return []
            if low is _KEEP_NONE:
                return compares[">"](rows, positions, column, high)
            return compares["<"](rows, positions, column, low)
        return (outside if negated else inside)(rows, positions, column, low, high)

    return kernel


def _make_null_kernel(column: int, negated: bool):
    def kernel(rows, positions, env: Env):
        if negated:  # IS NOT NULL
            return [p for p in positions if rows[p][column] is not Null]
        return [p for p in positions if rows[p][column] is Null]

    return kernel


def _make_in_kernel(column: int, kind: str, item_cs: list, negated: bool):
    loop = _LOOPS[kind][2][negated]

    def kernel(rows, positions, env: Env):
        members = set()
        saw_null = False
        for item_c in item_cs:
            const = _kind_const(kind, item_c(env))
            if const is _KEEP_NONE:
                saw_null = True
                continue
            if const is _FALLBACK:
                # a type-mismatched candidate raises in the row path
                # only when no earlier candidate matched — irreducibly
                # order-dependent, so let the row path handle it
                return None
            members.add(const)
        if negated and saw_null:
            # NOT IN with a NULL candidate is never True
            return []
        return loop(rows, positions, column, members)

    return kernel


def _batch_kernel(
    executor: Executor, table, alias: str, conjunct: ast.Expression,
    from_items: Optional[list], kinds: list,
):
    while isinstance(conjunct, ast.Parenthesized):
        conjunct = conjunct.expr
    if isinstance(conjunct, ast.IsNullPredicate):
        column = executor._column_of(conjunct.expr, table, alias, from_items)
        if column is None:
            return None
        return _make_null_kernel(column, conjunct.negated)
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op in _BATCH_FLIPPED:
        op = conjunct.op
        for lhs, rhs, normalized in (
            (conjunct.left, conjunct.right, op),
            (conjunct.right, conjunct.left, _BATCH_FLIPPED[op]),
        ):
            column = executor._column_of(lhs, table, alias, from_items)
            if column is None or kinds[column] == "obj":
                continue
            const_c = _batch_const(rhs)
            if const_c is None:
                continue
            return _make_compare_kernel(column, kinds[column], normalized, const_c)
        return None
    if isinstance(conjunct, ast.BetweenPredicate):
        column = executor._column_of(conjunct.expr, table, alias, from_items)
        if column is None or kinds[column] == "obj":
            return None
        low_c = _batch_const(conjunct.low)
        high_c = _batch_const(conjunct.high)
        if low_c is None or high_c is None:
            return None
        return _make_between_kernel(column, kinds[column], low_c, high_c, conjunct.negated)
    if isinstance(conjunct, ast.InPredicate):
        if conjunct.subquery is not None or not conjunct.items:
            return None
        column = executor._column_of(conjunct.expr, table, alias, from_items)
        if column is None or kinds[column] == "obj":
            return None
        item_cs = [_batch_const(item) for item in conjunct.items]
        if any(c is None for c in item_cs):
            return None
        return _make_in_kernel(column, kinds[column], item_cs, conjunct.negated)
    return None
