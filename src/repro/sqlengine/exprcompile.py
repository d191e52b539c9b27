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

import operator
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
# A compiled grouped expression: (group rows, base env) → value.
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
            verdict = compare(left_c(env), right_c(env))
            if verdict is Unknown:
                return Unknown
            return verdict == 0
        return eq_closure
    if op in ("<>", "<", "<=", ">", ">="):
        return lambda env: _apply_binary(op, left_c(env), right_c(env))
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
            name, [c(env) for c in arg_cs], routine
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
        value = value_c(env)
        lower = compare(value, low_c(env))
        upper = compare(value, high_c(env))
        if lower is Unknown or upper is Unknown:
            return Unknown
        answer = lower >= 0 and upper <= 0
        return (not answer) if negated else answer

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
    executor: Executor, expr: ast.Expression, layout: Layout
) -> CompiledGrouped:
    """Compile an expression that may contain aggregate calls."""
    if isinstance(expr, ast.FunctionCall) and fn.is_aggregate(expr.name):
        return _compile_g_aggregate(executor, expr, layout)
    if isinstance(expr, ast.BinaryOp):
        left_c = compile_grouped(executor, expr.left, layout)
        right_c = compile_grouped(executor, expr.right, layout)
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
        return compile_grouped(executor, expr.expr, layout)
    if isinstance(expr, ast.UnaryOp):
        operand_c = compile_grouped(executor, expr.operand, layout)
        if expr.op == "NOT":
            return lambda group, base: logic_not(operand_c(group, base))
        return lambda group, base: _negate(operand_c(group, base))
    if isinstance(expr, ast.Cast):
        inner_c = compile_grouped(executor, expr.expr, layout)
        target = expr.target
        return lambda group, base: coerce(inner_c(group, base), target)
    # every other form evaluates per-row on a representative group row
    row_c = compile_expression(executor, expr, layout)
    return lambda group, base: row_c(group[0] if group else base)


def _compile_g_aggregate(
    executor: Executor, expr: ast.FunctionCall, layout: Layout
) -> CompiledGrouped:
    name = expr.name
    star = expr.star
    distinct = expr.distinct
    catalog = executor.db.catalog
    if not star and not expr.args:
        raise ExecutionError(f"aggregate {name} requires an argument")
    arg_c = (
        compile_expression(executor, expr.args[0], layout) if expr.args else None
    )
    # a user routine shadowing the aggregate name is resolved per call
    row_c = compile_expression(executor, expr, layout)

    def aggregate_closure(group: list, base: Env) -> Any:
        if not catalog.has_routine(name):
            if star:
                return fn.evaluate_aggregate(name, [None] * len(group), star=True)
            values = [arg_c(row_env) for row_env in group]
            return fn.evaluate_aggregate(name, values, distinct=distinct)
        return row_c(group[0] if group else base)

    return aggregate_closure


# ---------------------------------------------------------------------------
# column-batch compilation (vectorized WHERE kernels)
# ---------------------------------------------------------------------------
#
# A *batch kernel* evaluates one WHERE conjunct over the table's derived
# column store (:class:`repro.sqlengine.storage.ColumnStore`) and keeps
# exactly the positions where the conjunct is **True** — rows where it is
# False *or* Unknown are dropped, which is precisely SQL's WHERE rule, so
# ANDing conjuncts reduces to sequentially filtering one selection vector.
#
# Kernels are deliberately conservative.  Only shapes whose semantics are
# provably identical to the row-at-a-time closures compile:
#
# * ``col <op> const`` / ``const <op> col`` for the six comparisons,
# * ``col [NOT] BETWEEN const AND const``,
# * ``col IS [NOT] NULL``,
# * ``col [NOT] IN (const, ...)`` over literal lists,
#
# where *const* is a side-effect-free literal expression (the stratum's
# mutable placeholder Literals included — they are re-read per apply).
# Everything else — routine calls, subqueries, column-vs-column, LIKE —
# yields no kernel, and any runtime surprise (vector degraded to ``obj``,
# a constant whose type does not match the vector domain, an SqlError
# during constant evaluation) makes the kernel return ``None`` so the
# caller falls back to the row-at-a-time path, whose results *and errors*
# are the specification.

_CMP_OPS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_BATCH_FLIPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

# sentinels for constant-to-vector-domain conversion
_FALLBACK = object()  # type cannot be compared in the vector domain
_KEEP_NONE = object()  # NULL constant: the conjunct is Unknown everywhere


class BatchFilter:
    """The compiled batch kernels for one scanned table's conjuncts.

    ``consumes_all`` is True when *every* WHERE conjunct got a kernel —
    only then may the caller skip the per-row compiled predicate after a
    successful :meth:`apply`.
    """

    __slots__ = ("kernels", "consumes_all")

    def __init__(self, kernels: list, consumes_all: bool) -> None:
        self.kernels = kernels
        self.consumes_all = consumes_all

    def apply(self, table, positions, env: Env) -> Optional[list]:
        """Filter candidate ``positions`` through every kernel.

        Returns the surviving positions (ascending, a subset of the
        input), or ``None`` when any kernel cannot run vectorized — the
        caller must then evaluate row-at-a-time.
        """
        store = table.column_store()
        try:
            for kernel in self.kernels:
                positions = kernel(store, positions, env)
                if positions is None:
                    return None
                if not positions:
                    return []
        except SqlError:
            return None
        return list(positions) if not isinstance(positions, list) else positions


def compile_batch_filter(
    executor: Executor,
    table,
    alias: str,
    conjuncts: list,
    from_items: Optional[list],
) -> Optional["BatchFilter"]:
    """Compile the batchable subset of ``conjuncts`` against ``table``.

    Returns ``None`` when no conjunct is batchable (the scan then runs
    the classic row path with nothing lost).
    """
    kernels = []
    for conjunct in conjuncts:
        kernel = _batch_kernel(executor, table, alias, conjunct, from_items)
        if kernel is not None:
            kernels.append(kernel)
    if not kernels:
        return None
    return BatchFilter(kernels, len(kernels) == len(conjuncts))


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


def _vector_const(kind: str, value: Any) -> Any:
    """Map a constant into a vector's comparison domain.

    Returns ``_KEEP_NONE`` for NULL (comparisons are Unknown on every
    row) and ``_FALLBACK`` when the constant's type cannot be compared
    against this vector without the row path's error behaviour.
    """
    if value is Null:
        return _KEEP_NONE
    if kind == "int" or kind == "float":
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, (int, float)):
            return value
        return _FALLBACK
    if kind == "date":
        if isinstance(value, Date):
            return value.ordinal
        return _FALLBACK
    if kind == "str":
        if isinstance(value, str):
            return value.rstrip()
        return _FALLBACK
    return _FALLBACK  # obj vectors are never batch-compared


# the comparison loops are specialized per operator: an inline compare
# in the comprehension beats an ``operator`` call per element by ~1.6x,
# and the NULL-free variants drop the validity lookup as well
_CMP_LOOPS = {
    "=": lambda data, ps, c: [p for p in ps if data[p] == c],
    "<>": lambda data, ps, c: [p for p in ps if data[p] != c],
    "<": lambda data, ps, c: [p for p in ps if data[p] < c],
    "<=": lambda data, ps, c: [p for p in ps if data[p] <= c],
    ">": lambda data, ps, c: [p for p in ps if data[p] > c],
    ">=": lambda data, ps, c: [p for p in ps if data[p] >= c],
}

_CMP_LOOPS_VALID = {
    "=": lambda data, v, ps, c: [p for p in ps if v[p] and data[p] == c],
    "<>": lambda data, v, ps, c: [p for p in ps if v[p] and data[p] != c],
    "<": lambda data, v, ps, c: [p for p in ps if v[p] and data[p] < c],
    "<=": lambda data, v, ps, c: [p for p in ps if v[p] and data[p] <= c],
    ">": lambda data, v, ps, c: [p for p in ps if v[p] and data[p] > c],
    ">=": lambda data, v, ps, c: [p for p in ps if v[p] and data[p] >= c],
}


def _make_compare_kernel(column_index: int, op: str, const_c: Compiled):
    loop = _CMP_LOOPS[op]
    loop_valid = _CMP_LOOPS_VALID[op]

    def kernel(store, positions, env: Env):
        vector = store.vectors[column_index]
        const = _vector_const(vector.kind, const_c(env))
        if const is _FALLBACK:
            return None
        if const is _KEEP_NONE:
            return []
        if vector.nulls:
            return loop_valid(vector.data, vector.valid, positions, const)
        return loop(vector.data, positions, const)

    return kernel


def _make_between_kernel(
    column_index: int, low_c: Compiled, high_c: Compiled, negated: bool
):
    def kernel(store, positions, env: Env):
        vector = store.vectors[column_index]
        low = _vector_const(vector.kind, low_c(env))
        high = _vector_const(vector.kind, high_c(env))
        if low is _FALLBACK or high is _FALLBACK:
            return None
        if low is _KEEP_NONE or high is _KEEP_NONE:
            # a NULL bound makes the predicate Unknown for every row,
            # negated or not (both compares must be known to negate)
            return []
        data = vector.data
        if vector.nulls:
            valid = vector.valid
            if negated:
                return [
                    p for p in positions
                    if valid[p] and not (low <= data[p] <= high)
                ]
            return [
                p for p in positions if valid[p] and low <= data[p] <= high
            ]
        if negated:
            return [p for p in positions if not (low <= data[p] <= high)]
        return [p for p in positions if low <= data[p] <= high]

    return kernel


def _make_null_kernel(column_index: int, negated: bool):
    def kernel(store, positions, env: Env):
        valid = store.vectors[column_index].valid
        if negated:  # IS NOT NULL
            return [p for p in positions if valid[p]]
        return [p for p in positions if not valid[p]]

    return kernel


def _make_in_kernel(column_index: int, item_cs: list, negated: bool):
    def kernel(store, positions, env: Env):
        vector = store.vectors[column_index]
        kind = vector.kind
        members = set()
        saw_null = False
        for item_c in item_cs:
            const = _vector_const(kind, item_c(env))
            if const is _KEEP_NONE:
                saw_null = True
                continue
            if const is _FALLBACK:
                # a type-mismatched candidate raises in the row path
                # only when no earlier candidate matched — irreducibly
                # order-dependent, so let the row path handle it
                return None
            members.add(const)
        data = vector.data
        if negated and saw_null:
            # NOT IN with a NULL candidate is never True
            return []
        if vector.nulls:
            valid = vector.valid
            if negated:
                return [
                    p for p in positions
                    if valid[p] and data[p] not in members
                ]
            return [p for p in positions if valid[p] and data[p] in members]
        if negated:
            return [p for p in positions if data[p] not in members]
        return [p for p in positions if data[p] in members]

    return kernel


def _batch_kernel(
    executor: Executor,
    table,
    alias: str,
    conjunct: ast.Expression,
    from_items: Optional[list],
):
    while isinstance(conjunct, ast.Parenthesized):
        conjunct = conjunct.expr
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op in _CMP_OPS:
        op = conjunct.op
        for lhs, rhs, normalized in (
            (conjunct.left, conjunct.right, op),
            (conjunct.right, conjunct.left, _BATCH_FLIPPED[op]),
        ):
            column = executor._column_of(lhs, table, alias, from_items)
            if column is None:
                continue
            const_c = _batch_const(rhs)
            if const_c is None:
                continue
            return _make_compare_kernel(column, normalized, const_c)
        return None
    if isinstance(conjunct, ast.BetweenPredicate):
        column = executor._column_of(conjunct.expr, table, alias, from_items)
        if column is None:
            return None
        low_c = _batch_const(conjunct.low)
        high_c = _batch_const(conjunct.high)
        if low_c is None or high_c is None:
            return None
        return _make_between_kernel(column, low_c, high_c, conjunct.negated)
    if isinstance(conjunct, ast.IsNullPredicate):
        column = executor._column_of(conjunct.expr, table, alias, from_items)
        if column is None:
            return None
        return _make_null_kernel(column, conjunct.negated)
    if isinstance(conjunct, ast.InPredicate):
        if conjunct.subquery is not None or not conjunct.items:
            return None
        column = executor._column_of(conjunct.expr, table, alias, from_items)
        if column is None:
            return None
        item_cs = [_batch_const(item) for item in conjunct.items]
        if any(c is None for c in item_cs):
            return None
        return _make_in_kernel(column, item_cs, conjunct.negated)
    return None
