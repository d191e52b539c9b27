"""Logical plans: the bind phase for whole statements (DESIGN.md §3.1).

``build_select_plan`` turns an ``ast.Select`` into source nodes plus one
**join pipeline** (access path → level filters → residual → group →
project → order) whose predicates and projections are pre-compiled
closures from :mod:`repro.sqlengine.exprcompile`.  Everything about the
FROM/WHERE evaluation is decided at plan time, and a pipeline runs as one
Python function generated per plan shape (:func:`_nest`): a ``for`` per
level with its key probe and typed tests in line, the residual and the
plan's consumer (select list, grouped fold, a match's rows) at the leaf.
``SelectPlan.run`` walks no AST and makes no generator frame.

*Total and partial conjuncts.*  A top-level WHERE conjunct is **total**
when it is a comparison (``= <> < <= > >=``) or a non-negated
``BETWEEN`` over columns of one ``sort_key`` value class (numeric /
character / date, by declared type), literals and outer names (routine
variables, parent-query bindings) whose value, read once per execution,
is NULL or of the column's class: ``compare`` cannot raise on it.
Everything else is **partial**.  A total conjunct runs at the first join
level where all its columns are bound, inlined by its value class;
partial conjuncts form the leaf residual, in their original order and
with the AND chain's short circuit.  An outer operand of the wrong class
(or one that cannot be read) makes its conjunct partial for that
execution.  Hence: a statement raises iff a partial conjunct raises on a
combination that satisfies every total conjunct.

*The aligned access* (DESIGN.md §3.9).  A SELECT that calls no routine,
over base tables whose later levels the WHERE stabs at one column of the
first (``t.b <= o.c AND o.c < t.e``: MAX's constant-period join), runs
as one pass that emits the nested loop's rows in its order
(:class:`_Alignment`).

*Access paths decide what they can.*  A level is keyed by its first
total ``col = <bound operand>`` conjunct in WHERE order; total bounds on
a declared ``(begin, end)`` pair are applied by the access path too —
behind a hash key to the bucket's versions, without one as an
interval-index search.  Decided conjuncts are no level filter.

*Join order and emission order.*  The leading run of base-table scans in
FROM is ordered by bound equality keys; the rest (views, derived tables,
table functions, explicit joins and any scan after them) follows in FROM
order.  A reordered prefix's combinations are sorted back into the
FROM-order nested loop's emission order (``Table.row_positions``) before
the rest is joined under each, so every opaque level, the residual,
ORDER BY tie-breaking and DISTINCT see that loop's rows.

*UPDATE and DELETE* are the same pipeline over the write-claimed target
(``MatchPlan``); all rows are found, then every SET value is evaluated,
then the table's row-set primitives write.

What the bind phase can decide raises at plan time, before any row is
read.  Plans are validated, not trusted: before a plan produces or
consumes a row, every source checks that the catalog object it was bound
against is still current (a table's schema stamp, else its columns and
declared types; the view object; the routine definition) and raises
:class:`PlanInvalidated` otherwise; the executor re-plans and re-runs the
statement once (``engine.plan_invalidated``).
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from itertools import chain
from types import CodeType, FunctionType
from typing import Any, Callable, Iterator, NamedTuple, Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.errors import (
    INTERRUPTS,
    CatalogError,
    ExecutionError,
    PlanInvalidated,
    SqlError,
)
from repro.sqlengine.executor import (
    Binding,
    Env,
    Executor,
    ResultSet,
    _contains_aggregate,
    _distinct_rows,
    _freeze_env,
    _FLIPPED_COMPARISON,
    _split_conjuncts,
)
from repro.sqlengine.exprcompile import _indented, compile_expression, compile_grouped
from repro.sqlengine.storage import _column_kind
from repro.sqlengine.values import Date, Null, sort_key, sorted_rows, truth

_INF = float("inf")


# ---------------------------------------------------------------------------
# source nodes
# ---------------------------------------------------------------------------


def _bind_rows(env: Env, key: str, colmap: dict, rows: list) -> Iterator[Env]:
    """Bind ``rows`` one at a time under ``key`` (an opaque join level)."""
    bindings = env.bindings
    for row in rows:
        bindings[key] = Binding(colmap, row)
        yield env
    bindings.pop(key, None)


class _Scan:
    """A base table in FROM.  As a pipeline level its access path and
    filters live on the :class:`_Level`; ``bind`` is the plain full scan
    an explicit JOIN's operand gets."""

    __slots__ = ("name", "alias", "key", "colmap", "stamp", "expected", "types",
                 "kinds", "pairs", "period_columns")

    def __init__(self, name: str, alias: str, table) -> None:
        self.name = name
        self.alias = alias
        self.key = alias.lower()
        self.colmap = {c.name.lower(): i for i, c in enumerate(table.columns)}
        self.stamp = table.schema_stamp
        self.expected = dict(table._index)
        self.types = [c.type for c in table.columns]
        self.kinds = [_column_kind(type_) for type_ in self.types]
        # declared (begin, end) pairs an interval probe may use
        self.pairs = [
            (table.column_index(b), table.column_index(e), b, e)
            for b, e in table.interval_pairs
        ]
        self.period_columns = tuple(index for pair in self.pairs for index in pair[:2])

    def validate(self, executor: Executor, env: Env):
        """The table this execution reads, if it is still the one the
        plan was bound against: same columns and — conjunct placement
        rests on the declared value classes — the same types (a
        temporary table re-created by CTAS infers them from the data).
        The schema stamp the plan took settles it without comparing.  (A
        view of the name is DDL: the plan cache has re-planned already.)"""
        table = executor._read_table(self.name, env)
        if table.schema_stamp is not self.stamp and (
            table._index != self.expected
            or [c.type for c in table.columns] != self.types
        ):
            raise PlanInvalidated(self.name)
        return table

    def bind(self, executor: Executor, env: Env) -> Iterator[Env]:
        table = self.validate(executor, env)
        db = executor.db
        if db.resilience.armed:
            db.resilience.check()
        if db.read_window is not None and self.pairs:
            _narrow_by_table(db.read_window, self.pairs, table)
        db.stats.scanned.value += len(table.rows)
        return _bind_rows(env, self.key, self.colmap, table.rows)


# A *read window* is ``[lo, hi, point]``: the routine interpreter opens
# one around the point a window-declared function evaluates at
# (``RoutineInterpreter._reused``), and every bind of a table with a
# declared period pair narrows the innermost open one so that each row
# the bind examines keeps its ``begin <= p < end`` verdict for every
# ``p`` of ``[lo, hi)`` — but a bucket version a point-free level filter
# rejects (:func:`_bucket_lines`).  Narrowing by more than the rows
# examined is always sound.


def _narrow_by_table(window: list, pairs: list, table) -> None:
    """Any row may be examined (full scan, interval probe):
    narrow to the table's change points around the point."""
    for begin_index, end_index, _, _ in pairs:
        lo, hi = table.change_window(begin_index, end_index, window[2])
        window[0], window[1] = max(window[0], lo), min(window[1], hi)


class _RowSource:
    """An opaque join level: a view, derived table or table function
    whose ``_rows`` are computed as a whole, then bound one at a time."""

    __slots__ = ()

    def bind(self, executor: Executor, env: Env) -> Iterator[Env]:
        return _bind_rows(env, self.key, self.colmap, self._rows(executor, env))


class _Query(_RowSource):
    """A view (``name``: the view's) or a derived table (``name`` None)."""

    __slots__ = ("name", "key", "colmap", "expected", "select_ast")

    def __init__(
        self, name: Optional[str], alias: str, columns: list, select_ast: ast.Select
    ) -> None:
        self.name = name
        self.key = alias.lower()
        self.colmap = {name.lower(): i for i, name in enumerate(columns)}
        self.expected = [name.lower() for name in columns]
        self.select_ast = select_ast

    def validate(self, executor: Executor, env: Env) -> None:
        if self.name is not None and (
            executor.db.catalog.get_view(self.name) is not self.select_ast
        ):
            raise PlanInvalidated(self.name)

    def _rows(self, executor: Executor, env: Env) -> list:
        self.validate(executor, env)
        # a view sees none of the bindings of the query that reads it
        scope = env if self.name is None else Env(frame=env.frame)
        result = executor.execute_select(self.select_ast, scope)
        if [c.lower() for c in result.columns] != self.expected:
            raise PlanInvalidated(self.name or self.key)
        return result.rows


class _TableFunc(_RowSource):
    __slots__ = ("name", "key", "colmap", "expected", "definition", "reusable",
                 "args", "arg_cs")

    def __init__(
        self,
        name: str,
        alias: str,
        columns: list,
        definition: Any,
        reusable: bool,
        args: list,
    ) -> None:
        self.name = name
        self.key = alias.lower()
        self.colmap = {name.lower(): i for i, name in enumerate(columns)}
        self.expected = [name.lower() for name in columns]
        self.definition = definition
        # may a kept result serve a repeated call (Catalog.write_free)?
        # decided here: any routine change re-plans
        self.reusable = reusable
        # compiled once the whole FROM layout is known: arguments may be
        # lateral references to earlier sources
        self.args = args
        self.arg_cs: list = []

    def validate(self, executor: Executor, env: Env) -> None:
        try:
            routine = executor.db.catalog.get_routine(self.name)
        except CatalogError:
            raise PlanInvalidated(self.name) from None
        if routine.definition is not self.definition:
            raise PlanInvalidated(self.name)

    def _rows(self, executor: Executor, env: Env) -> list:
        from repro.sqlengine.routines import RoutineInterpreter

        self.validate(executor, env)
        columns, rows = RoutineInterpreter(executor).invoke_table_function(
            self.name, [c(env) for c in self.arg_cs], self.reusable
        )
        if [c.lower() for c in columns] != self.expected:
            raise PlanInvalidated(self.name)
        return rows


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


class _LeftJoinNode(_JoinNode):
    """LEFT OUTER join.  The right side — a leaf or itself a join — is
    bound once per execution, before the left side, and kept as one
    ``{alias: Binding}`` per combination."""

    __slots__ = ("nulls",)

    def __init__(self, left: Any, right: Any, condition_c: Optional[Callable]) -> None:
        super().__init__(left, right, condition_c)
        self.nulls = {
            leaf.key: Binding(leaf.colmap, [Null] * len(leaf.colmap))
            for leaf in _leaves(right)
        }

    def bind(self, executor: Executor, env: Env) -> Iterator[Env]:
        nulls = self.nulls
        matches = [
            {key: env.bindings[key] for key in nulls}
            for _ in self.right.bind(executor, env)
        ]
        condition_c = self.condition_c
        for env2 in self.left.bind(executor, env):
            bindings = env2.bindings
            matched = False
            for match in matches:
                bindings.update(match)
                if condition_c is None or truth(condition_c(env2)):
                    matched = True
                    yield env2
            if not matched:
                bindings.update(nulls)
                yield env2
            for key in nulls:
                bindings.pop(key, None)


def _leaves(node: Any) -> list:
    """The leaf sources under ``node`` in binding order."""
    if isinstance(node, _JoinNode):
        return _leaves(node.left) + _leaves(node.right)
    return [node]


# ---------------------------------------------------------------------------
# the join pipeline
# ---------------------------------------------------------------------------

# ``sort_key`` value classes (see the module docstring), the Python
# types an outer operand of each must have, and the comparison operators
# as Python spells them
_CLASS_OF_KIND = {"int": "numeric", "float": "numeric", "str": "character",
                  "date": "date"}
_CLASS_TYPES = {"numeric": (int, float), "character": str, "date": Date}
_COMPARISONS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_UNREADABLE = object()  # an outer operand whose lookup raised
_NONE_DEMOTED: frozenset = frozenset()


class _Conjunct:
    """One top-level WHERE conjunct (``expr``).  ``at`` holds the operand addresses
    into the run-time row vector — FROM position and column index, or
    ``(len(sources), slot)`` for a literal or outer name — when the
    conjunct is a comparison (``left, right``) or a ``BETWEEN`` (``value,
    low, high``) over such operands, else None; ``operands`` their
    expressions, ``slots`` the outer ones' slots.  ``value_class`` is
    set when the operands share one value class: what an outer operand
    must be checked against per execution."""

    __slots__ = ("expr", "sql", "closure", "op", "at", "operands", "value_class", "slots")

    def __init__(self, expr: ast.Expression, closure: Callable) -> None:
        self.expr = expr
        self.sql = expr.to_sql()
        self.closure = closure
        self.op: Optional[str] = None
        self.at = self.operands = self.value_class = None
        self.slots: tuple = ()

    def sides(self) -> tuple:
        """``(own, other, op, other's expression)`` in both orientations
        of a comparison (none for a ``BETWEEN``)."""
        if self.op == "BETWEEN":
            return ()
        left, right = self.at
        return (
            (left, right, self.op, self.operands[1]),
            (right, left, _FLIPPED_COMPARISON.get(self.op, self.op),
             self.operands[0]),
        )

    def typed(self) -> tuple:
        """The conjunct as a typed test ``(value_class, op, at)``."""
        return self.value_class, self.op, self.at


# what a generated test compares for a value of each class: its day
# ordinal, its right-stripped string — or, for a number, compared as it
# is, whether it is NaN
_CLASS_FORMS = {"date": "{}.ordinal", "character": "{}.rstrip()", "numeric": "{} != {}"}


def _checks(pos: int, tests: tuple, read: Callable) -> tuple:
    """The typed tests ``(value_class, op, at)`` of the level at FROM
    position ``pos`` as source: ``reads`` (the operands bound before the
    level), ``guard`` (none of them is NULL), ``forms`` (their compared
    forms), ``once`` (the tests over them alone) and ``each`` (per
    candidate, its own NULL checks first); ``read(at)`` gives an
    operand's variable and the source reading it.

    Each test is inlined by class — day ordinals for dates, ``rstrip()``ped
    strings for characters, native comparison for numbers (bool is an
    int) but where a NaN takes its ``sort_key`` place — and a ``BETWEEN``
    is its ``>=`` and ``<=`` halves.  A test holds exactly where
    :func:`compare` makes it TRUE (``tests/sqlengine/test_typed_filters.py``),
    so NULL rejects, and a NULL bound before the level passes no row."""
    reads: list = []
    guard: list = []
    forms: list = []
    once: list = []
    each: list = []
    seen: set = set()

    def operand(at: tuple, value_class: str, checks: list) -> tuple:
        """``(value, is it NaN)`` as source; the first read of a name
        adds its NULL check."""
        own = at[0] == pos
        name, source = read(at)
        if name not in seen:
            seen.add(name)
            if own:
                checks.append(f"({name} := {source}) is not Null")
            else:
                reads.append(f"{name} = {source}")
                guard.append(f"{name} is not Null")
        form = _CLASS_FORMS[value_class].format(name, name)
        if not own:
            if name + value_class not in seen:
                seen.add(name + value_class)
                forms.append(f"{name}{value_class[0]} = {form}")
            form = name + value_class[0]
        return (name, form) if value_class == "numeric" else (form, None)

    for value_class, op, at in tests:
        halves = (
            ((">=", at[:2]), ("<=", at[::2])) if op == "BETWEEN" else ((op, at),)
        )
        for op, (left_at, right_at) in halves:
            checks = each if pos in (left_at[0], right_at[0]) else once
            (left, left_nan), (right, right_nan) = (
                operand(left_at, value_class, checks),
                operand(right_at, value_class, checks),
            )
            op = _COMPARISONS[op]
            checks.append(
                f"{left} {op} {right}" if left_nan is None else
                f"(sort_key({left}) {op} sort_key({right}) if {left_nan} or"
                f" {right_nan} else {left} {op} {right})"
            )
    return reads, guard, forms, once, each


def _guarded(guard: list, forms: list, once: list, block: list) -> list:
    """``block`` inside the tests of what a level reads once."""
    if once:
        block = [f"if {' and '.join(once)}:"] + _indented(block)
    if guard:
        block = [f"if {' and '.join(guard)}:"] + _indented(forms + block)
    return block


@functools.lru_cache(maxsize=1024)
def _level_loop(pos: int, tests: tuple) -> Callable:
    """``sieve(vector, rows)``: the ``rows`` of the level at FROM
    position ``pos`` that pass its typed ``tests`` (:func:`_checks`), in
    order, the operands bound before it read from ``vector`` once;
    compiled once per shape, file ``<sieve level N>``."""
    def read(at: tuple) -> tuple:
        if at[0] == pos:
            return f"c{at[1]}", f"row[{at[1]}]"
        return f"h{at[0]}_{at[1]}", f"vector[{at[0]}][{at[1]}]"

    reads, guard, forms, once, each = _checks(pos, tests, read)
    keep = ["kept.append(row)"]
    if each:
        keep = [f"if {' and '.join(each)}:"] + _indented(keep)
    block = reads + _guarded(guard, forms, once, ["for row in rows:"] + _indented(keep))
    lines = ["def sieve(vector, rows):", "    kept = []", *_indented(block), "    return kept"]
    namespace = {"Null": Null, "sort_key": sort_key}
    exec(compile("\n".join(lines), f"<sieve level {pos}>", "exec"), namespace)
    return namespace["sieve"]


# the sides a period bound can take: the begin column from below or
# from above, the end column from below
_BEGIN_FROM, _BEGIN_UPTO, _END_FROM = range(3)


class _PeriodProbe:
    """The total conjuncts bounding one declared ``(begin, end)`` pair
    of a level's table by operands bound before the level, each
    ``(side, a, b, offset, operand)``: which column from which side, the
    operand's row-vector address, the day added to make the bound
    inclusive (``begin > x`` is ``begin >= x + 1``) and its expression.
    The level's access path applies them, so they are no level filter."""

    __slots__ = ("begin_index", "end_index", "begin_name", "end_name", "bounds")

    def __init__(self, pair: tuple, bounds: list) -> None:
        self.begin_index, self.end_index, self.begin_name, self.end_name = pair
        self.bounds = bounds


class _Level:
    """One join level: a source plus, for a scan, its access path (hash
    ``key``, ``period`` bounds, both, or a full scan) and the total
    conjuncts that become checkable here and that the access path does
    not decide (``filters``, typed tests; ``free``: behind a hash key,
    those whose operands are columns of this or earlier levels or
    literals).  ``rows_in``/``rows_out`` accumulate over executions for
    EXPLAIN ANALYZE."""

    __slots__ = ("node", "pos", "key", "period", "filters", "free", "access",
                 "rows_in", "rows_out")

    def __init__(self, node: Any, pos: int) -> None:
        self.node = node
        self.pos = pos
        self.key: Optional[tuple] = None  # (column, a, b)
        self.period: Optional[_PeriodProbe] = None
        self.filters: list = []  # (value_class, op, at) tests
        self.free: list = []
        self.access = ("Scan", "")  # EXPLAIN: (operator, the key's SQL)
        self.rows_in = self.rows_out = 0


class _Pipeline:
    """Levels in join order plus the leaf residual, for one set of
    conjuncts demoted at run time (none, in the plan's default); the
    first ``split`` levels are the FROM's leading scans, ``reordered``
    when not in FROM order.  It runs as one generated ``function``
    (:func:`_nest`) or, aligned, as one pass (``alignment``)."""

    __slots__ = ("levels", "split", "reordered", "residual", "alignment", "function")

    def __init__(
        self, levels: list, split: int, residual: list,
        alignment: "Optional[_Alignment]" = None,
    ) -> None:
        self.levels = levels
        self.split = split
        self.reordered = any(level.pos != pos for pos, level in enumerate(levels))
        self.residual = residual
        self.alignment = alignment
        self.function: Optional[Callable] = None


def _join_order(prefix: int, count: int, keys: list) -> list:
    """Join order over ``count`` FROM positions: the leading ``prefix``
    scans greedily by ``keys`` — ``(own position, other position |
    None)`` per usable equality — then the rest in FROM order."""
    order: list = []
    while len(order) < prefix:
        waiting = [p for p in range(prefix) if p not in order]
        order.append(next(
            (
                p for p in waiting
                if any(
                    own == p and (other is None or other in order)
                    for own, other in keys
                )
            ),
            waiting[0],
        ))
    return order + list(range(prefix, count))


# the bounds a period probe takes, by (bounded column, operator): the
# side, and the day that makes the bound inclusive
_PERIOD_BOUNDS = {
    ("begin", ">="): (_BEGIN_FROM, 0), ("begin", ">"): (_BEGIN_FROM, 1),
    ("begin", "<="): (_BEGIN_UPTO, 0), ("begin", "<"): (_BEGIN_UPTO, -1),
    ("end", ">="): (_END_FROM, 0), ("end", ">"): (_END_FROM, 1),
}


def _period_probe(
    node: _Scan, bound_sides: list, keyed: bool
) -> tuple[Optional[_PeriodProbe], set]:
    """The bounds ``bound_sides`` (total comparisons of a level's column
    with an earlier-bound operand) put on the first declared date pair
    that has usable ones — any bound behind a hash key, which tests them
    on its bucket; else a begin range or a stab/overlap (begin from
    above *and* end from below), which the interval index searches —
    and the indexes of the conjuncts it decides."""
    for pair in node.pairs:
        begin_index, end_index = pair[0], pair[1]
        if not node.kinds[begin_index] == node.kinds[end_index] == "date":
            continue
        bounds = []
        decided: set = set()
        for i, column, other, op, operand in bound_sides:
            side = "begin" if column == begin_index else "end" if column == end_index else None
            found = _PERIOD_BOUNDS.get((side, op))
            if found is not None:
                bounds.append((found[0],) + other + (found[1], operand))
                decided.add(i)
        sides = {bound[0] for bound in bounds}
        if bounds and (
            keyed or _BEGIN_FROM in sides or {_BEGIN_UPTO, _END_FROM} <= sides
        ):
            return _PeriodProbe(pair, bounds), decided
    return None, set()


def _build_pipeline(owner: "_FromWhere", demoted: frozenset) -> _Pipeline:
    """Place the ``owner`` plan's conjuncts over its sources; ``demoted``
    holds the indexes of the conjuncts that are partial for this
    execution (none: the plan's default pipeline).  A plan that
    ``aligns`` (it calls no routine) takes the aligned access where its
    shape allows (:func:`_aligned_pipeline`); any other pipeline runs as
    one generated function (:func:`_nest`)."""
    sources, conjuncts = owner.sources, owner.conjuncts
    outer = len(sources)
    total = [
        c.value_class is not None and i not in demoted
        for i, c in enumerate(conjuncts)
    ]
    if owner.aligns:
        pipeline = _aligned_pipeline(
            sources, conjuncts, total, owner.projections, owner.consumer
        )
        if pipeline is not None:
            return pipeline
    # total equalities steer the join order, and at its level the first
    # bound one in WHERE order keys the probe
    keys = [
        (own[0], None if other[0] == outer else other[0])
        for i, c in enumerate(conjuncts) if total[i] and c.op == "="
        for own, other, _, _ in c.sides() if own[0] != outer and own[0] != other[0]
    ]
    split = next(
        (pos for pos, node in enumerate(sources) if not isinstance(node, _Scan)),
        outer,
    )
    order = _join_order(split, outer, keys)
    depth_of = {pos: depth for depth, pos in enumerate(order)}
    depth_of[outer] = -1
    levels = [_Level(sources[pos], pos) for pos in order]
    decided: set = set()  # the conjuncts an access path applies
    for depth, level in enumerate(levels):
        node, pos = level.node, level.pos
        if not isinstance(node, _Scan):
            continue
        bound_sides = [
            (i, own[1], other, op, operand)
            for i, c in enumerate(conjuncts) if total[i]
            for own, other, op, operand in c.sides()
            if own[0] == pos and depth_of[other[0]] < depth
        ]
        for i, column, other, op, _ in bound_sides:
            if op == "=":
                level.key = (column,) + other
                level.access = ("HashProbe", conjuncts[i].sql)
                decided.add(i)
                break
        level.period, settled = _period_probe(node, bound_sides, level.key is not None)
        decided |= settled
        if level.period is not None and level.key is None:
            level.access = ("IntervalIndexScan", "")
    for i, c in enumerate(conjuncts):
        if total[i] and i not in decided:
            level = levels[max(depth_of[at[0]] for at in c.at)]
            level.filters.append(c.typed())
            if level.key is not None and all(
                at[0] != outer or isinstance(expr, ast.Literal)
                for at, expr in zip(c.at, c.operands)
            ):
                level.free.append(c.typed())  # point-free
    residual = [c.closure for i, c in enumerate(conjuncts) if not total[i]]
    pipeline = _Pipeline(levels, split, residual)
    pipeline.function = _nest(pipeline, owner)
    return pipeline


# ---------------------------------------------------------------------------
# the generated plan function
# ---------------------------------------------------------------------------


class _Source:
    """The parameters ``k0``, ``k1``, … of one generated function: its
    column indexes, keys, closures and other constants, so that its text
    depends on the plan's shape alone (:func:`_code`)."""

    __slots__ = ("values", "names")

    def __init__(self) -> None:
        self.values: list = []
        self.names: dict = {}

    def __call__(self, value: Any, key: Any = None) -> str:
        """The parameter holding ``value``: one per ``key`` when given."""
        name = self.names.get(key) if key is not None else None
        if name is None:
            name = self.names[key] = f"k{len(self.values)}"  # None: a fresh one each time
            self.values.append(value)
        return name


def _star_cells(bindings: dict, qualifier: Optional[str]) -> list:
    """``*`` (``qualifier.*``) in a select list: the cells of every
    binding (of that alias), in binding order."""
    cells: list = []
    for alias, binding in bindings.items():
        if qualifier is None or alias == qualifier:
            cells.extend(binding.row)
    return cells


def _position_value(literal: ast.Literal, fallback: Callable, row: list, *scope: Any) -> Any:
    """An ORDER BY literal: the output column it numbers (re-read per
    run: ``Literal.value`` is mutable), else its value."""
    position = literal.value - 1 if isinstance(literal.value, int) else -1
    return row[position] if 0 <= position < len(row) else fallback(*scope)


class _Consumer(NamedTuple):
    """What a plan does with each combination that passes its WHERE
    (:func:`_consume` writes it).  ``"rows"`` projects the select
    ``items`` — ``("col", position, column)`` of a scan level,
    ``("closure", c)`` or ``("star", qualifier)`` — and, given ``order``
    (ORDER BY entries), keeps each row's sort values; ``"group"`` folds
    it by ``keys`` (items alike; None: one group) with the aggregate
    ``args``; ``"match"`` keeps the target's row."""

    kind: str
    items: tuple = ()
    order: Optional[list] = None
    keys: Optional[tuple] = None
    args: tuple = ()


def _consume(src: _Source, consumer: _Consumer) -> tuple:
    """``(setup, leaf, after, result)`` source: what prepares the
    ``consumer``'s output, takes one combination (rows in ``row<position>``,
    bindings current in ``env``), finishes and is returned.  A grouped
    fold holds a key's error until the join is done (a later WHERE error
    wins) and an argument's until its group folds that aggregate (a group
    HAVING drops raises nothing); ``INTERRUPTS`` are never held."""
    def cell(item: tuple) -> str:
        if item[0] == "col":
            return f"row{item[1]}[{src(item[2], ('column', item[1:]))}]"
        if item[0] == "closure":
            return f"{src(item[1])}(env)"
        return f"*_star_cells(env.bindings, {src(item[1])})"

    def held(target: str, value: str, handler: str) -> list:
        return ["try:", f"    {target}{value}", "except INTERRUPTS:", "    raise",
                "except SqlError as exc:", f"    {handler} = exc"]

    if consumer.kind == "match":
        return ["out = []"], ["out.append(row0)"], [], "out"
    if consumer.kind == "rows":
        cells = ", ".join(cell(item) for item in consumer.items)
        if consumer.order is None:
            return ["out = []"], [f"out.append([{cells}])"], [], "out, None, False"
        values = ", ".join(
            f"cells[{src(entry[1])}]" if entry[0] == "slot" else
            f"_position_value({src(entry[1])}, {src(entry[2])}, cells, env)"
            if entry[0] == "lit" else f"{src(entry[1])}(env)"
            for entry in consumer.order
        )
        return (["out = []", "okeys = []"],
                [f"cells = [{cells}]", "out.append(cells)", f"okeys.append(({values},))"],
                [], "out, okeys, False")
    fresh = "[None, 0" + ", []" * len(consumer.args) + "]"
    fold = ["if not group[1]:", "    group[0] = _freeze_env(env)", "group[1] += 1"]
    for slot, arg in enumerate(consumer.args, 2):
        fold += [f"gvalues = group[{slot}]", "if gvalues.__class__ is list:"] + _indented(
            [f"gvalues.append({cell(arg)})"] if arg[0] == "col"
            else held("gvalues.append", f"({cell(arg)})", f"group[{slot}]")
        )
    if consumer.keys is None:
        return [f"group = {fresh}", "groups = {(): group}"], fold, [], "groups"
    parts = [f"sort_key({cell(key)})" for key in consumer.keys]
    key = parts[0] if len(parts) == 1 else f"({', '.join(parts)})"
    fold = ["group = groups.get(gkey)", "if group is None:",
            f"    group = groups[gkey] = {fresh}"] + fold
    if all(key[0] == "col" for key in consumer.keys):  # nothing to hold
        return ["groups = {}"], [f"gkey = {key}"] + fold, [], "groups"
    leaf = ["if held is None:"] + _indented(
        held("gkey = ", key, "held") + ["else:"] + _indented(fold)
    )
    return ["groups = {}", "held = None"], leaf, ["if held is not None:", "    raise held"], "groups"


def _residual(src: _Source, residual: list, leaf: list) -> list:
    """``leaf`` behind the partial conjuncts' AND chain: it stops at the
    first False and evaluates past an Unknown, as the compiled AND does."""
    if not residual:
        return leaf
    names = [src(closure) for closure in residual]
    block = [f"if {' and '.join(f'r{j} is True' for j in range(len(names)))}:"] + _indented(leaf)
    for j in reversed(range(len(names))):
        if j < len(names) - 1:
            block = [f"if r{j} is not False:"] + _indented(block)
        block = [f"r{j} = {names[j]}(env)"] + block
    return block


def _bucket_versions(
    level: "_Level", table, bucket: tuple, rows: list, window: Optional[list],
    limits: Optional[list], at: Optional[int], free: Optional[Callable],
    vector: Optional[list], stats,
) -> list:
    """The versions of a hash-probed ``level``'s bucket ``rows`` (table
    order) whose bounds are Dates inside its period ``limits`` ``[begin_min,
    begin_max, end_min]`` (all without a period; none for ``limits`` None,
    a NULL bound).  A stab (at ``at``) takes them from ``Table.bucket_stab``
    unless a read ``window`` is open at another point, the point-free
    filter ``free`` (a sieve over ``vector``) could waive or the structure
    is too wide; else one pass narrows an open window to the bounds of
    every version around its point, but for a version that would tighten
    it and that ``free`` rejects: the level emits it at no point
    (``engine.read_window.versions_waived``)."""
    period, columns = level.period, level.node.period_columns
    if at is not None and rows:
        if window is not None and (at != window[2] or free is not None):
            reason = "window_point" if at != window[2] else "point_free_filter"
        else:
            stab = table.bucket_stab(level.key[0], bucket, period.begin_index, period.end_index, columns)
            if stab.live is not None:
                stats.stab_served.value += 1
                return stab.alive(at, window)
            reason = "too_wide"
        stats.obs.inc("engine.stab.full_pass." + reason)
    narrow = window is not None
    if narrow:
        lo, hi, point = window
    test_begin = test_end = False
    if period is not None:
        begin_index, end_index = period.begin_index, period.end_index
        if limits is None:
            test_begin, begin_min, begin_max = True, _INF, -_INF
        else:
            begin_min, begin_max, end_min = limits
            test_begin = begin_min is not None or begin_max is not None
            test_end = end_min is not None
            begin_min = -_INF if begin_min is None else begin_min
            begin_max = _INF if begin_max is None else begin_max
    kept = []
    for row in rows:
        if narrow:
            row_lo, row_hi = lo, hi
            for index in columns:
                value = row[index]
                if isinstance(value, Date):
                    ordinal = value.ordinal
                    if ordinal <= point:
                        if ordinal > row_lo:
                            row_lo = ordinal
                    elif ordinal < row_hi:
                        row_hi = ordinal
            if row_lo != lo or row_hi != hi:
                if free is not None and not free(vector, (row,)):
                    stats.waived.value += 1
                else:
                    lo, hi = row_lo, row_hi
        if test_begin:
            begin = row[begin_index]
            if not (isinstance(begin, Date) and begin_min <= begin.ordinal <= begin_max):
                continue
        if test_end:
            end = row[end_index]
            if not (isinstance(end, Date) and end.ordinal >= end_min):
                continue
        kept.append(row)
    if narrow:
        window[0], window[1] = lo, hi
    return kept


# what a generated plan function reads besides its parameters
_GENERATED = {
    "Null": Null, "Date": Date, "sort_key": sort_key, "Binding": Binding, "Env": Env,
    "SqlError": SqlError, "INTERRUPTS": INTERRUPTS, "_UNREADABLE": _UNREADABLE,
    "_INF": _INF, "_freeze_env": _freeze_env, "_narrow_by_table": _narrow_by_table,
    "_star_cells": _star_cells, "_position_value": _position_value,
    "_bucket_versions": _bucket_versions,
}


@functools.lru_cache(maxsize=512)
def _code(text: str, filename: str) -> CodeType:
    """``text``'s function ``run``, compiled once per distinct text."""
    namespace: dict = {}
    exec(compile(text, filename, "exec"), _GENERATED, namespace)
    return namespace["run"].__code__


# the sides of a stab-shaped probe (``begin <= x AND x < end``): a stab
# when its limits meet
_STAB = {_BEGIN_UPTO, _END_FROM}


def _limits(period: _PeriodProbe, p: int, value: Callable, stab: bool) -> list:
    """``lim<p>``: the period limits ``[begin_min, begin_max, end_min]``
    of the level at FROM position ``p`` in day ordinals (None for a side
    without a bound; None under a NULL bound) and, with ``stab`` on a
    stab shape, ``at<p>``: the point when ``end_min`` is ``begin_max +
    1``.  A total conjunct's operand is a Date or NULL."""
    names = [f"y{p}_{n}" for n in range(len(period.bounds))]
    terms: dict = {}
    for name, (side, _, _, offset, _) in zip(names, period.bounds):
        terms.setdefault(side, []).append(
            f"{name}.ordinal" + (f" + {offset}" if offset > 0 else f" - {-offset}" if offset else "")
        )
    sides = [  # the tightest bound of each side: begin from below, from above, end from below
        None if side not in terms else terms[side][0] if len(terms[side]) == 1
        else f"{('max', 'min', 'max')[side]}({', '.join(terms[side])})"
        for side in range(3)
    ]
    stab = stab and set(terms) == _STAB
    known = [f"lim{p} = [{', '.join(str(side) for side in sides)}]"]
    if stab:
        known += [f"at{p} = lim{p}[1] if lim{p}[2] == lim{p}[1] + 1 else None"]
    return [f"{name} = {value(bound[1:3])}" for name, bound in zip(names, period.bounds)] + [
        f"if {' or '.join(f'{name} is Null' for name in names)}:",
        f"    lim{p} = {f'at{p} = ' if stab else ''}None", "else:",
    ] + _indented(known)


def _bucket_lines(level: _Level, src: _Source, col: Callable, value: Callable, vector: str) -> list:
    """A hash-probed level's candidates ``cand<p>``: what
    :func:`_bucket_versions` keeps of the bound value's bucket ``found<p>``
    (``vector``: the source of the row vector its point-free sieve reads)."""
    node, period, p = level.node, level.period, level.pos
    column, a, b = level.key
    probe = [f"bucket{p} = sort_key(x{p})",
             f"found{p} = t{p}.hash_index({col(p, column)}).get(bucket{p}, [])"]
    versions = (
        f"_bucket_versions({src(level)}, t{p}, bucket{p}, found{p}, window,"
        f" {'None' if period is None else f'lim{p}'},"
        f" {f'at{p}' if period and {bound[0] for bound in period.bounds} == _STAB else 'None'},"
        f" {src(_level_loop(p, tuple(level.free))) if level.free else 'None'},"
        f" {vector if level.free else 'None'}, stats)"
    )
    if period is not None:
        probe += _limits(period, p, value, True) + [f"cand{p} = {versions}"]
    elif node.period_columns:
        probe.append(f"cand{p} = found{p} if window is None else {versions}")
    else:
        probe.append(f"cand{p} = found{p}")
    return [f"x{p} = {value((a, b))}", f"if x{p} is Null:", f"    found{p} = cand{p} = []",
            "else:"] + _indented(probe) + [f"scanned += len(cand{p})",
                                           f"pruned += len(found{p}) - len(cand{p})"]


def _level_lines(level: _Level, inner: list, src: _Source, count: int, vector: str) -> list:
    """One level of the nest around ``inner``: its candidates, then a
    ``for`` re-pointing its binding at each that passes its typed tests
    (an opaque level: its ``bind``), counting rows in and out."""
    node, p = level.node, level.pos
    if not isinstance(node, _Scan):
        return [f"bound{p} = 0", f"for _ in {src(node.bind)}(executor, env):"] + _indented(
            [f"bound{p} += 1"] + inner
        ) + [f"in{p} += bound{p}"]

    def col(pos: int, column: int) -> str:
        return src(column, ("column", (pos, column)))

    def value(at: tuple) -> str:
        """An operand bound before the level, as source."""
        return f"s{at[1]}" if at[0] == count else f"row{at[0]}[{col(*at)}]"

    def read(at: tuple) -> tuple:
        """A typed test's operand: its variable, the source reading it."""
        if at[0] == count:
            return f"h{p}_s{at[1]}", f"s{at[1]}"
        name = col(*at)
        return (f"c{p}_{name}" if at[0] == p else f"h{p}_{name}"), f"row{at[0]}[{name}]"

    lines = ["if resilience.armed:", "    resilience.check()"]
    period = level.period
    if level.key is not None:
        lines += _bucket_lines(level, src, col, value, vector)
    else:
        if node.pairs:  # any row may be examined
            lines += ["if window is not None:",
                      f"    _narrow_by_table(window, {src(node.pairs)}, t{p})"]
        if period is None:
            lines.append(f"cand{p} = t{p}.rows")
        else:
            lines += _limits(period, p, value, False) + [
                f"at{p} = executor._interval_candidate_positions(t{p},"
                f" {col(p, period.begin_index)}, {col(p, period.end_index)}, lim{p})",
                f"cand{p} = list(map(t{p}.rows.__getitem__, at{p}))",
            ]
        lines.append(f"scanned += len(cand{p})")
    reads, guard, forms, once, each = _checks(p, tuple(level.filters), read)
    key = src(node.key, ("key", p))
    body = [f"binding{p}.row = row{p}"] + inner
    block = [f"bindings[{key}] = binding{p}", f"for row{p} in cand{p}:"]
    if each:
        block = [f"passed{p} = 0"] + block + _indented(
            [f"if {' and '.join(each)}:"] + _indented([f"passed{p} += 1"] + body)
        ) + [f"del bindings[{key}]", f"out{p} += passed{p}"]
    else:
        block += _indented(body) + [f"del bindings[{key}]", f"out{p} += len(cand{p})"]
    return lines + reads + _guarded(guard, forms, once, block) + [f"in{p} += len(cand{p})"]


def _nest(pipeline: _Pipeline, owner: "_FromWhere") -> Callable:
    """``pipeline`` as one generated function ``run(executor, base_env,
    tables, slots)`` returning what the ``owner`` plan's consumer collects
    (:func:`_consume`) over the validated ``tables`` and the outer operands
    ``slots``: a ``for`` per level in join order, each re-pointing one
    ``Binding`` and a watchdog checkpoint, the residual at the leaf; a
    reordered scan prefix collects its combinations, sorts them into FROM
    order (``Table.row_positions``) and joins the rest under each.
    Constants are parameters (:class:`_Source`), so plans of one shape
    share the code; it holds no closure, so a result leaves no cycle.
    Counters are locals added in a ``finally``; file ``<plan N levels>``."""
    src = _Source()
    sources, levels = owner.sources, pipeline.levels
    count = len(sources)
    slots = ", ".join(f"s{slot}" for slot in range(len(owner.outer_cs)))
    lines = ["db = executor.db"]
    for names, given in ((", ".join(f"t{p}" for p in range(count)), "tables"), (slots, "slots")):
        if names:  # one name unpacks as ``t0, = tables``
            lines.append(f"{names}{',' if ',' not in names else ''} = {given}")
    scans = [level for level in levels if isinstance(level.node, _Scan)]
    hashed = [level for level in scans if level.key is not None]
    lines += ["env = Env(base_env)", "bindings = env.bindings"]
    if scans:
        lines += ["stats = db.stats", "resilience = db.resilience", "window = db.read_window",
                  "scanned = 0"]
        lines += [f"binding{level.pos} = Binding({src(level.node.colmap)}, None)" for level in scans]
    if hashed:
        lines.append("pruned = 0")
    lines += [f"in{level.pos} = out{level.pos} = 0" for level in levels]
    setup, leaf, after, result = _consume(src, owner.consumer)
    leaf = _residual(src, pipeline.residual, leaf)

    def wrap(chosen: list, block: list, before: tuple = ()) -> list:
        """``block`` inside the ``chosen`` levels, ``before`` bound already."""
        for i in reversed(range(len(chosen))):
            bound = set(before) | {level.pos for level in chosen[:i]}
            vector = "[" + "".join(
                f"row{q}, " if q in bound else "None, " for q in range(count)
            ) + f"[{slots}]]"
            block = _level_lines(chosen[i], block, src, count, vector)
        return block

    if not pipeline.reordered:
        body = wrap(levels, leaf)
    else:  # the scan prefix's combinations in FROM order, then the rest under each
        split = pipeline.split
        combo = ", ".join(f"row{p}" for p in range(split))
        keys = {level.pos: src(level.node.key, ("key", level.pos)) for level in levels[:split]}
        body = ['db.obs.inc("engine.join.reordered")', "combos = []"] + wrap(
            levels[:split], [f"combos.append(({combo}))"]
        ) + ["if len(combos) > 1:"] + _indented(
            [f"p{p} = t{p}.row_positions()" for p in range(split)] + [
                "keys = []", f"for {combo} in combos:",
                f"    keys.append(({', '.join(f'p{p}[id(row{p})]' for p in range(split))}))",
                "combos = list(map(combos.__getitem__,"
                " sorted(range(len(combos)), key=keys.__getitem__)))",
            ]
        ) + [f"bindings[{keys[p]}] = binding{p}" for p in range(split)] + [
            f"for {combo} in combos:"
        ] + _indented([f"binding{p}.row = row{p}" for p in range(split)] + wrap(
            levels[split:], leaf, tuple(range(split))
        )) + ["bindings.clear()"]
    finish = []
    for level in levels:
        p = level.pos
        out = f"out{p}" if isinstance(level.node, _Scan) else f"in{p}"
        name = src(level)
        finish += [f"{name}.rows_in += in{p}", f"{name}.rows_out += {out}"]
    if scans:
        finish += ["stats.scanned.value += scanned", "stats.rejects.value += " + " + ".join(
            f"in{level.pos} - out{level.pos}" for level in scans
        )]
    if hashed:
        finish.append("stats.pruned.value += pruned")
    if finish:
        body = ["try:"] + _indented(body) + ["finally:"] + _indented(finish)
    lines += setup + body + after + [f"return {result}"]
    params = ", ".join(["executor, base_env, tables, slots"] + [f"k{n}" for n in range(len(src.values))])
    text = "\n".join([f"def run({params}):"] + _indented(lines))
    code = _code(text, f"<plan {len(levels)} levels>")
    return FunctionType(code, _GENERATED, "run", tuple(src.values))


# ---------------------------------------------------------------------------
# the aligned access (DESIGN.md §3.9)
# ---------------------------------------------------------------------------

def _reads(expr: ast.Expression, node: _Scan) -> bool:
    """Whether ``expr`` may read ``node``'s binding: a name qualified by
    its alias or an unqualified one of its columns, nested subqueries
    included."""
    return any(
        isinstance(name, ast.Name) and (
            name.name.lower() in node.colmap if name.qualifier is None
            else name.qualifier.lower() == node.key
        )
        for name in ast.walk(expr)
    )


def _aligned_pipeline(
    sources: list, conjuncts: list, total: list, projections: Optional[tuple],
    consumer: _Consumer,
) -> Optional[_Pipeline]:
    """The levels in FROM order as one aligned pass when every source is
    a base table, some level after the first is stabbed at a column of
    the first (``t.b <= o.c AND o.c < t.e`` on a declared date pair) —
    the same column for all — no other total conjunct relates the first
    level to a later one, and no later level but the first stabbed one
    has a total equality with a literal of its class, which a hash probe
    of the nested loop serves better than a pass over the level; else
    None.  The other total
    conjuncts: an equality between columns of two later levels is a key
    part of the later one, a test over one level runs once over its
    candidates, any other test on each matched combination (the leaf
    sieve, reading the last level's row)."""
    count = len(sources)
    if count < 2 or not all(isinstance(node, _Scan) for node in sources):
        return None
    stabs = {}  # position -> (its stab, the conjuncts it decides)
    for pos in range(1, count):
        probe, decided = _period_probe(sources[pos], [
            (i, own[1], other, op, operand)
            for i, c in enumerate(conjuncts) if total[i]
            for own, other, op, operand in c.sides() if own[0] == pos and other[0] == 0
        ], False)
        if probe is not None and sorted((b[0], b[2], b[3]) for b in probe.bounds) == [
            (_BEGIN_UPTO, probe.bounds[0][2], 0), (_END_FROM, probe.bounds[0][2], 1)
        ]:  # exactly t.b <= o.c AND o.c < t.e
            stabs[pos] = probe, decided
    columns = {probe.bounds[0][2] for probe, _ in stabs.values()}
    if len(columns) != 1:
        return None
    if any(
        own[0] not in (0, min(stabs)) and other[0] == count
        and isinstance(operand, ast.Literal)
        and isinstance(operand.value, _CLASS_TYPES[c.value_class])
        for i, c in enumerate(conjuncts) if total[i] and c.op == "="
        for own, other, _, operand in c.sides()
    ):
        return None
    decided = {i for _, settled in stabs.values() for i in settled}
    tests: list = [[] for _ in range(count + 1)]  # per position, then the leaf's
    keys: list = [[] for _ in range(count)]  # (column, earlier, its column, sql)
    for i, c in enumerate(conjuncts):
        if not total[i] or i in decided:
            continue
        positions = {at[0] for at in c.at} - {count}
        if 0 in positions and len(positions) > 1:
            return None
        if c.op == "=" and not c.slots and len(positions) == 2:
            (earlier, earlier_column), (pos, column) = sorted(c.at)
            keys[pos].append((column, earlier, earlier_column, c.sql))
        else:
            tests[positions.pop() if len(positions) == 1 else count].append(c.typed())
    levels = []
    for pos, node in enumerate(sources):
        level = _Level(node, pos)
        level.filters = tests[pos]
        level.access = ("Align", " AND ".join(part[3] for part in keys[pos]))
        level.period = stabs.get(pos, (None,))[0]
        levels.append(level)
    # EXPLAIN: the first level is sorted on the stabbed column
    levels[0].access = ("Sort", next(iter(stabs.values()))[0].bounds[0][4].to_sql())
    residual = [c for i, c in enumerate(conjuncts) if not total[i]]
    alignment = _Alignment(levels, columns.pop(), keys, tests, residual, projections, consumer)
    return _Pipeline(levels, count, [c.closure for c in residual], alignment)


class _Alignment:
    """A pipeline's levels in FROM order as one pass (DESIGN.md §3.9):
    the first level's rows sorted on ``column``; each later level's
    candidates that pass its ``sieves`` as runs ``(row, lo, hi)``, alive
    at the sorted values ``[lo, hi)`` (a level without a stab at every
    value); the runs joined by :func:`_aligned_nest` on ``keys``, the
    ``leaf`` sieve and the ``residual`` (``mode`` 2: per value, 1: once
    per combination), into the plan's projection (``shape``) or, in
    the nested loop's order, its consumer (``consume``, ``params``)."""

    __slots__ = ("levels", "column", "keys", "keyless", "sieves", "leaf",
                 "leaf_tests", "residual", "mode", "shape", "closures", "distinct",
                 "consume", "params")

    def __init__(
        self, levels: list, column: int, keys: list, tests: list, residual: list,
        projections: Optional[tuple], consumer: _Consumer,
    ) -> None:
        count = len(levels)
        self.levels = levels
        self.column = column
        self.keys = tuple(tuple(part[:3] for part in parts) for parts in keys[2:])
        self.keyless = sum(not parts for parts in self.keys)
        self.sieves = [
            _level_loop(pos, tuple(t)) if t else None
            for pos, t in enumerate(tests[:count])
        ]
        self.leaf_tests = len(tests[count])
        self.leaf = _level_loop(count - 1, tuple(tests[count])) if tests[count] else None
        first = levels[0].node
        self.residual = [c.closure for c in residual]
        self.mode = 2 if any(_reads(c.expr, first) for c in residual) else int(bool(residual))
        self.shape = self.closures = self.consume = None
        self.distinct = False
        self.params = ()
        if projections is not None and consumer.order is None:
            items, self.distinct = projections
            # an item runs per value when it may read the first level, or
            # when the residual does
            self.shape = tuple(
                p if p[0] == "slot" else ("closure", self.mode == 2 or p[2])
                for p in items
            )
            self.closures = [p[1] for p in items if p[0] == "closure"]
        else:
            src = _Source()
            setup, leaf, after, result = _consume(src, consumer)
            self.consume = tuple(setup), tuple(leaf), tuple(after), result, len(src.values)
            self.params = tuple(src.values)

    def _passed(self, level: "_Level", rows: list, vector: list, stats) -> list:
        """``rows`` a level takes in that pass its own tests, counted as
        scanned, taken in and (the rest) rejected."""
        stats.scanned.value += len(rows)
        level.rows_in += len(rows)
        sieve = self.sieves[level.pos]
        if sieve is None:
            return rows
        kept = sieve(vector, rows)
        stats.rejects.value += len(rows) - len(kept)
        return kept

    def run(self, executor: Executor, env: Env, vector: list, tables: list) -> Any:
        """Join the levels; returns what the consumer collects — with a
        projection shape, the projected rows, DISTINCT already applied."""
        db = executor.db
        stats, obs, resilience = db.stats, db.obs, db.resilience
        if resilience.armed:
            resilience.check()
        levels = self.levels
        window = db.read_window
        if window is not None:  # any row may be examined
            for level, table in zip(levels, tables):
                if level.node.pairs:
                    _narrow_by_table(window, level.node.pairs, table)
        obs.inc("engine.join.aligned")
        column = self.column
        outer = [
            row for row in self._passed(levels[0], tables[0].rows, vector, stats)
            if row[column] is not Null
        ]
        levels[0].rows_out += len(outer)
        order = sorted(range(len(outer)), key=lambda i: outer[i][column].ordinal)
        values = [outer[i][column].ordinal for i in order]
        count = len(values)
        outputs: list = [[] for _ in range(count)]
        shape = self.shape
        distinct = self.distinct
        # DISTINCT: a set per first-level row, keyed on the other items
        targets = [
            (outputs[i].append, outer[i], set()) if distinct else (outputs[i].append, outer[i])
            for i in order
        ]
        runs: list = [None]
        for level in levels[1:] if count else ():
            table = tables[level.pos]
            period = level.period
            if period is None:
                rows = self._passed(level, table.rows, vector, stats)
                found = [(row, 0, count) for row in rows]
            else:
                begin, end = period.begin_index, period.end_index
                positions = executor._interval_candidate_positions(
                    table, begin, end, [None, values[-1], values[0] + 1]
                )
                table_rows = table.rows
                rows = self._passed(level, [table_rows[p] for p in positions], vector, stats)
                found = []
                for row in rows:
                    lo = bisect_left(values, row[begin].ordinal)
                    hi = bisect_left(values, row[end].ordinal)
                    if lo < hi:
                        found.append((row, lo, hi))
            level.rows_out += len(found)
            runs.append(found)
        obs.inc("engine.join.keyless_levels", self.keyless)
        if not count:  # nothing to join: what the consumer holds without rows
            runs += [[] for _ in levels[1:]]
        bindings = [Binding(level.node.colmap, None) for level in levels]
        for level, binding in zip(levels, bindings):
            env.bindings[level.node.key] = binding
        nest = _aligned_nest(
            self.keys, shape, distinct, self.leaf is not None, self.mode, self.consume
        )
        probes, matches, result = nest(
            runs, targets, vector, bindings, self.closures or (),
            self.leaf, self.residual, env, resilience, outer, outputs, self.params,
        )
        if count:
            obs.inc("engine.join.probes", probes)
            obs.inc("engine.join.matches", matches)
        if shape is None:
            return result
        rows = list(chain.from_iterable(outputs))
        columns = [p[2] for p in shape if p[:2] == ("slot", 0)]
        if distinct and len({
            tuple(sort_key(row[c]) for c in columns) for row in outer
        }) < count:  # first-level rows whose items agree share duplicates
            rows = _distinct_rows(rows)
        return rows, None, True


@functools.lru_cache(maxsize=256)
def _aligned_nest(
    keys: tuple, shape: Optional[tuple], distinct: bool, leaf: bool, mode: int,
    consume: Optional[tuple],
) -> Callable:
    """The aligned join of one shape, generated and compiled once:
    ``keys`` per level after the second (``(own column, earlier position,
    its column)`` parts, ``()``: keyless), ``shape`` per select item
    ``("slot", position, column)`` or ``("closure", per value)`` (None:
    the :func:`_consume` source ``consume`` takes the combinations, its
    parameters from ``params``), ``distinct`` (a set per first-level row),
    ``leaf`` and the residual's ``mode``.  One flat ``for`` per level:
    later levels hashed on ``sort_key`` (NULL keys excluded), the runs
    intersected as ``[max(lo), min(hi))``, each passing combination
    appended to its values' ``targets``; each second-level run and
    first-level row emitted is a cancellation point.  It holds no
    closure; returns ``(probes, matches, what the consumer collects)``;
    file ``<aligned join N>``."""
    def hashed(names: list) -> str:
        """The hash key of the values ``names``: one ``sort_key``, or a tuple."""
        parts = ", ".join(f"sort_key({name})" for name in names)
        return parts if len(names) == 1 else f"({parts})"

    depth = len(keys) + 2
    last = depth - 1
    items = list(enumerate(shape or ()))
    closures = [j for j, p in items if p[0] == "closure"]
    each = [j for j in closures if shape[j][1]]  # per value
    bind = mode or closures
    lines = ["runs1 = runs[1]"] + [f"f{j} = closures[{n}]" for n, j in enumerate(closures)]
    if bind:
        lines += [f"binding{i} = bindings[{i}]" for i in range(depth)]
    for i, parts in enumerate(keys, 2):  # the build sides
        if not parts:
            lines.append(f"runs{i} = runs[{i}]")
            continue
        names = [f"x{n}" for n in range(len(parts))]
        lines += [f"index{i} = {{}}", f"for run in runs[{i}]:"] + _indented(
            [f"{name} = run[0][{own}]" for name, (own, _, _) in zip(names, parts)] + [
                "if " + " and ".join(f"{name} is not Null" for name in names) + ":",
                f"    index{i}.setdefault({hashed(names)}, []).append(run)",
            ]
        )
    lines.append("probes = matches = 0")

    def bound(i: int) -> list:
        """Binding level ``i``'s row: what reads it, and its projected cells."""
        return ([f"vector[{i}] = row{i}"] if leaf else []) + (
            [f"binding{i}.row = row{i}"] if bind else []
        ) + [f"v{j} = row{i}[{p[2]}]" for j, p in items if p[:2] == ("slot", i)]

    # full depth: the combination is alive at the values [lo, hi)
    per_value = ["binding0.row = row0"] if mode == 2 or each else []
    if mode == 2:
        per_value += ["if not _all_true(residual, env):", "    continue"]
    per_value += [f"v{j} = f{j}(env)" for j in each]
    rows = ", ".join(f"row{i}" for i in range(1, depth))
    if shape is None:
        before = [] if depth == 2 else [f"combination = ({rows})"]
        per_value.append("append(row1)" if depth == 2 else "append(combination)")
    else:
        before = [f"v{j} = f{j}(env)" for j in closures if j not in each]
        values = ", ".join(
            f"row0[{p[2]}]" if p[:2] == ("slot", 0) else f"v{j}" for j, p in items
        )
        emit = [f"append([{values}])"]
        if distinct:
            key = f"key = {hashed([f'v{j}' for j, p in items if p[:2] != ('slot', 0)])}"
            (per_value if each else before).append(key)
            emit = ["if key not in seen:", "    seen.add(key)"] + _indented(emit)
        per_value += emit
    target = "append, row0, seen" if distinct else "append, row0"
    block = before + [f"for {target} in targets[lo{last}:hi{last}]:"] + _indented(per_value)
    if mode == 1:
        block = ["if _all_true(residual, env):"] + _indented(block)
    if leaf:
        block = [f"if leaf(vector, (row{last},)):"] + _indented(block)
    for i in range(last, 1, -1):  # wrap the levels, innermost first
        parts = keys[i - 2]
        block = [
            f"if lo{i} < lo{i - 1}:", f"    lo{i} = lo{i - 1}",
            f"if hi{i} > hi{i - 1}:", f"    hi{i} = hi{i - 1}",
            f"if lo{i} < hi{i}:",
        ] + _indented(["matches += 1"] + bound(i) + block)
        names = [f"p{i}_{n}" for n in range(len(parts))]
        source = f"index{i}.get({hashed(names)}, ())" if parts else f"runs{i}"
        block = ["probes += 1", f"for row{i}, lo{i}, hi{i} in {source}:"] + _indented(block)
        if parts:
            block = [
                f"{name} = row{earlier}[{column}]"
                for name, (_, earlier, column) in zip(names, parts)
            ] + ["if " + " and ".join(f"{name} is not Null" for name in names) + ":"] + _indented(block)
    lines += ["for row1, lo1, hi1 in runs1:"] + _indented(
        ["if resilience.armed:", "    resilience.check()"] + bound(1) + block
    )
    result = "None"
    if shape is None:  # the consumer takes the combinations, first-level rows in order
        setup, consumer, after, result, count = consume
        lines += [f"binding{i} = bindings[{i}]" for i in range(depth)] if not bind else []
        if count:
            lines.append("".join(f"k{n}, " for n in range(count)) + "= params")
        lines += list(setup) + ["for row0, combinations in zip(outer, outputs):"] + _indented([
            "if combinations:",
            "    if resilience.armed:",
            "        resilience.check()",
            "    binding0.row = row0",
            f"    for {rows} in combinations:",
        ] + _indented(_indented(_indented(
            [f"binding{i}.row = row{i}" for i in range(1, depth)] + list(consumer)
        )))) + list(after)
    lines.append(f"return probes, matches, ({result})")
    source = "\n".join(
        ["def nest(runs, targets, vector, bindings, closures, leaf, residual, env,"
         " resilience, outer, outputs, params):"] + _indented(lines)
    )
    namespace = dict(_GENERATED, _all_true=_all_true)
    exec(compile(source, f"<aligned join {depth}>", "exec"), namespace)
    return namespace["nest"]


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------


def _build_leaf(executor: Executor, source: ast.FromItem, env: Optional[Env]) -> Any:
    catalog = executor.db.catalog
    if isinstance(source, ast.TableRef):
        view = catalog.get_view(source.name)
        if view is not None:
            columns = executor._output_columns(view, env if env is not None else Env())
            return _Query(source.name, source.binding, columns, view)
        return _Scan(source.name, source.binding, executor._read_table(source.name, env))
    if isinstance(source, ast.SubqueryRef):
        columns = executor._output_columns(
            source.select, env if env is not None else Env()
        )
        return _Query(None, source.alias, columns, source.select)
    if isinstance(source, ast.TableFunctionRef):
        routine = catalog.get_routine(source.call.name)
        if not isinstance(routine.returns, ast.RowArrayType):
            raise ExecutionError(f"{source.call.name} is not a table function")
        return _TableFunc(
            source.call.name, source.alias, list(routine.returns.column_names),
            routine.definition, catalog.write_free(source.call.name),
            source.call.args,
        )
    raise ExecutionError(f"unsupported FROM source {type(source).__name__}")


def _build_source(
    executor: Executor, source: ast.FromItem, env: Optional[Env], join_specs: list
) -> Any:
    if isinstance(source, ast.Join):
        if source.kind == "RIGHT":
            swapped = ast.Join(
                left=source.right, right=source.left, kind="LEFT",
                condition=source.condition,
            )
            return _build_source(executor, swapped, env, join_specs)
        if source.kind not in ("INNER", "CROSS", "LEFT"):
            raise ExecutionError(f"unsupported join kind {source.kind}")
        left = _build_source(executor, source.left, env, join_specs)
        right = _build_source(executor, source.right, env, join_specs)
        node = (_LeftJoinNode if source.kind == "LEFT" else _JoinNode)(
            left, right, None
        )
        if source.condition is not None:
            join_specs.append((node, source.condition))
        return node
    return _build_leaf(executor, source, env)


def _build_sources(
    executor: Executor, select: ast.Select, env: Optional[Env]
) -> tuple[list, dict, list]:
    join_specs: list = []
    sources = [
        _build_source(executor, item, env, join_specs) for item in select.from_items
    ]
    leaves = [leaf for node in sources for leaf in _leaves(node)]
    layout: dict = {}
    for leaf in leaves:
        if leaf.key in layout:
            raise CatalogError(f"duplicate table alias {leaf.key!r} in FROM")
        layout[leaf.key] = leaf.colmap
    # second pass now that the full layout is known: join conditions and
    # lateral table-function arguments
    for node, condition in join_specs:
        node.condition_c = compile_expression(executor, condition, layout)
    for leaf in leaves:
        if isinstance(leaf, _TableFunc):
            leaf.arg_cs = [
                compile_expression(executor, a, layout) for a in leaf.args
            ]
    return sources, layout, _split_conjuncts(select.where)


def _operand(expr: ast.Expression, layout: dict, scans: dict) -> Any:
    """A scan column as ``(position, column)``; a literal or outer name
    as the expression itself; None for anything else.  ``scans`` maps a
    scan's key to its FROM position and node."""
    while isinstance(expr, ast.Parenthesized):
        expr = expr.expr
    if isinstance(expr, ast.Literal):
        return expr
    if not isinstance(expr, ast.Name):
        return None
    key = expr.name.lower()
    if expr.qualifier is None:
        owners = [a for a, colmap in layout.items() if key in colmap]
        if not owners:
            return expr  # routine variable or parent-query column
    else:
        owners = [expr.qualifier.lower()]
        if owners[0] not in layout:
            return expr  # parent-query alias or FOR-loop record
        if key not in layout[owners[0]]:
            return None
    if len(owners) != 1 or owners[0] not in scans:
        return None  # ambiguous, or an opaque source's column
    pos, node = scans[owners[0]]
    return pos, node.colmap[key]


def _scans(sources: list) -> dict:
    return {
        node.key: (pos, node)
        for pos, node in enumerate(sources) if isinstance(node, _Scan)
    }


def _analyze_conjuncts(
    executor: Executor, where: list, sources: list, layout: dict
) -> tuple[list, list]:
    """Compile each WHERE conjunct and resolve the operands of the
    comparisons among them (shape only: nothing is evaluated).  Returns
    the :class:`_Conjunct` list and the closures reading the outer
    operands (literals included: ``Literal.value`` is mutable), one per
    slot."""
    scans = _scans(sources)

    conjuncts: list = []
    outer_cs: list = []
    slots: dict = {}
    for expr in where:
        conjunct = _Conjunct(expr, compile_expression(executor, expr, layout))
        conjuncts.append(conjunct)
        while isinstance(expr, ast.Parenthesized):
            expr = expr.expr
        if isinstance(expr, ast.BinaryOp) and expr.op in _COMPARISONS:
            op, operands = expr.op, (expr.left, expr.right)
        elif isinstance(expr, ast.BetweenPredicate) and not expr.negated:
            op, operands = "BETWEEN", (expr.expr, expr.low, expr.high)
        else:
            continue
        sides = [_operand(e, layout, scans) for e in operands]
        columns = [side for side in sides if isinstance(side, tuple)]
        if None in sides or not columns:
            continue
        conjunct.op = op
        conjunct.operands = operands
        addresses = []
        for side in sides:
            if not isinstance(side, tuple):
                # a name several conjuncts compare with is read once
                name = isinstance(side, ast.Name) and (side.qualifier, side.name.lower())
                shared = name or id(side)
                if shared not in slots:
                    slots[shared] = len(outer_cs)
                    outer_cs.append(compile_expression(executor, side, layout))
                conjunct.slots += (slots[shared],)
                side = (len(sources), slots[shared])
            addresses.append(side)
        conjunct.at = tuple(addresses)
        classes = {
            _CLASS_OF_KIND.get(sources[pos].kinds[column]) for pos, column in columns
        }
        if len(classes) == 1 and None not in classes:
            conjunct.value_class = classes.pop()
    return conjuncts, outer_cs


def _build_order(
    executor: Executor,
    order_by: list,
    colmap: dict,
    layout: dict,
    compile_: Callable,
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
            entries.append(("lit", expr, compile_(executor, expr, layout), desc))
            continue
        entries.append(("expr", compile_(executor, expr, layout), desc))
    return entries


def _item(executor: Executor, expr: ast.Expression, layout: dict, scans: dict) -> tuple:
    """A select item, group key or aggregate argument as a consumer reads
    it: ``("col", position, column)`` for a scan level's column, else
    ``("closure", its compiled closure)``."""
    address = _operand(expr, layout, scans)
    if isinstance(address, tuple):
        return ("col",) + address
    return ("closure", compile_expression(executor, expr, layout))


def build_select_plan(
    executor: Executor, select: ast.Select, env: Optional[Env] = None
) -> "SelectPlan":
    """Bind ``select`` into a plan; what cannot be bound raises."""
    grouped = bool(select.group_by) or any(
        item.expr is not None and _contains_aggregate(item.expr)
        for item in select.items
    ) or (select.having is not None)
    sources, layout, where = _build_sources(executor, select, env)
    scans = _scans(sources)
    conjuncts, outer_cs = _analyze_conjuncts(executor, where, sources, layout)
    columns = executor._output_columns(select, env if env is not None else Env())
    colmap = {name.lower(): i for i, name in enumerate(columns)}
    aggregates: Optional[list] = [] if grouped else None
    order_entries = _build_order(
        executor, select.order_by, colmap, layout,
        functools.partial(compile_grouped, aggregates=aggregates)
        if grouped else compile_expression,
    )
    having_c = None
    if grouped:
        if any(item.is_star for item in select.items):
            raise ExecutionError("SELECT * is not allowed in a grouped or aggregate select")
        keys = tuple(_item(executor, g, layout, scans) for g in select.group_by)
        if select.having is not None:
            having_c = compile_grouped(executor, select.having, layout, aggregates)
        item_plans = [
            compile_grouped(executor, item.expr, layout, aggregates)
            for item in select.items
        ]
        consumer = _Consumer("group", keys=keys or None, args=tuple(
            _item(executor, arg, layout, scans) for arg in aggregates
        ))
    else:
        item_plans = [
            ("star", item.star_qualifier.lower() if item.star_qualifier else None)
            if item.is_star
            else ("expr", compile_expression(executor, item.expr, layout))
            for item in select.items
        ]
        items = tuple(
            plan if plan[0] == "star"
            else ("col",) + address
            if isinstance(address := _operand(item.expr, layout, scans), tuple)
            else ("closure", plan[1])
            for item, plan in zip(select.items, item_plans)
        )
        # an ORDER BY on anything but output columns keeps each row's
        # values as the join emits it (a set operation's order is applied
        # on its output)
        ordered = not select.set_op and any(entry[0] != "slot" for entry in order_entries)
        consumer = _Consumer("rows", items, order_entries if ordered else None)
    # only base tables align, and a statement that calls a routine keeps
    # the nested loop: its calls are made per combination and first-level row
    aligns = (
        len(sources) > 1 and all(isinstance(node, _Scan) for node in sources)
        and not executor.db.catalog.reach(select).routines
    )
    projections = None
    if aligns and not grouped and not any(item.is_star for item in select.items):
        projections = tuple(
            ("slot",) + item[1:] if item[0] == "col"
            else ("closure", item[1], _reads(expr.expr, sources[0]))
            for expr, item in zip(select.items, consumer.items)
        ), bool(select.distinct)
    return SelectPlan(
        sources=sources,
        conjuncts=conjuncts,
        outer_cs=outer_cs,
        consumer=consumer,
        columns=columns,
        having_c=having_c,
        item_plans=item_plans,
        order_entries=order_entries,
        distinct=select.distinct,
        aligns=aligns,
        projections=projections,
    )


# ---------------------------------------------------------------------------
# plans: the FROM/WHERE half every plan shares, then SELECT
# ---------------------------------------------------------------------------


def _outer_checks(conjuncts: list) -> list:
    """``(conjunct index, slot, admissible types | None)`` per outer
    operand of a conjunct: what :func:`_demoted` checks per execution."""
    return [
        (i, slot, _CLASS_TYPES.get(c.value_class))
        for i, c in enumerate(conjuncts) for slot in c.slots
    ]


def _demoted(checks: list, slots: list) -> frozenset:
    """The indexes of the conjuncts an unreadable outer operand, or one
    of the wrong class, makes partial for this execution."""
    demoted = [
        index for index, slot, types in checks
        if slots[slot] is _UNREADABLE or (
            types is not None and slots[slot] is not Null
            and not isinstance(slots[slot], types)
        )
    ]
    return frozenset(demoted) if demoted else _NONE_DEMOTED


def _all_true(residual: list, env: Env) -> bool:
    """The AND chain over the partial conjuncts: stops at the first
    False, evaluates past an Unknown (as the compiled AND does)."""
    unknown = False
    for closure in residual:
        value = closure(env)
        if value is False:
            return False
        if value is not True:
            unknown = True
    return not unknown


class _FromWhere:
    """What every plan that reads rows holds: the sources, the analyzed
    WHERE conjuncts, what it does with a combination that passes them
    (``consumer``) and the join pipelines placed over them."""

    __slots__ = ("sources", "conjuncts", "outer_cs", "checks", "aligns",
                 "projections", "consumer", "pipeline", "variants")

    def __init__(
        self, sources: list, conjuncts: list, outer_cs: list, consumer: _Consumer,
        aligns: bool = False, projections: Optional[tuple] = None,
    ) -> None:
        self.sources = sources
        self.conjuncts = conjuncts
        self.outer_cs = outer_cs
        self.checks = _outer_checks(conjuncts)
        self.aligns = aligns
        self.projections = projections
        self.consumer = consumer
        # the pipeline when every outer operand is readable and of its
        # column's class; executions that demote conjuncts get variants,
        # built on first need and kept by the demotion set
        self.pipeline = _build_pipeline(self, _NONE_DEMOTED)
        self.variants: dict = {}

    def _collect(self, executor: Executor, base_env: Env) -> Any:
        """What the consumer collects of the combinations that satisfy
        the WHERE clause, in the FROM-order nested loop's order.  Every
        source is validated before any row is read: an invalidation found
        mid-run would re-execute side effects on the re-planned run."""
        tables = [node.validate(executor, base_env) for node in self.sources]
        slots: list = []  # the outer operands, read once
        for closure in self.outer_cs:
            try:
                slots.append(closure(base_env))
            except SqlError:
                slots.append(_UNREADABLE)
        # an operand unreadable or of the wrong class: this execution's variant
        demoted = _demoted(self.checks, slots) if self.checks else _NONE_DEMOTED
        pipeline = self.pipeline if not demoted else self.variants.get(demoted)
        if pipeline is None:
            pipeline = self.variants[demoted] = _build_pipeline(self, demoted)
        if pipeline.function is not None:
            return pipeline.function(executor, base_env, tables, slots)
        vector: list = [None] * len(self.sources) + [slots]
        return pipeline.alignment.run(executor, base_env.child(), vector, tables)


class SelectPlan(_FromWhere):
    """A SELECT arm: its pipeline's consumer projects or folds, then
    ``run`` applies HAVING, ORDER BY and DISTINCT."""

    __slots__ = ("columns", "grouped", "having_c", "item_plans", "order_entries", "distinct")

    def __init__(
        self,
        sources: list,
        conjuncts: list,
        outer_cs: list,
        consumer: _Consumer,
        columns: list,
        having_c: Optional[Callable],
        item_plans: list,
        order_entries: list,
        distinct: bool,
        aligns: bool = False,
        projections: Optional[tuple] = None,
    ) -> None:
        super().__init__(sources, conjuncts, outer_cs, consumer, aligns, projections)
        self.columns = columns
        self.grouped = consumer.kind == "group"
        self.having_c = having_c
        self.item_plans = item_plans
        self.order_entries = order_entries
        self.distinct = distinct

    def run(self, executor: Executor, env: Optional[Env], apply_order: bool) -> ResultSet:
        base_env = env if env is not None else Env()
        order = self.order_entries if apply_order else []
        distinct = self.distinct
        if self.grouped:
            groups = self._collect(executor, base_env)
            executor.db.obs.inc("engine.group.groups", len(groups))
            rows: list = []
            values: Optional[list] = [] if order else None
            for group in groups.values():
                if self.having_c is not None and not truth(self.having_c(group, base_env)):
                    continue
                rows.append(row := [item_c(group, base_env) for item_c in self.item_plans])
                if order:
                    values.append([
                        row[entry[1]] if entry[0] == "slot" else
                        _position_value(entry[1], entry[2], row, group, base_env)
                        if entry[0] == "lit" else entry[1](group, base_env)
                        for entry in order
                    ])
        else:
            rows, values, deduped = self._collect(executor, base_env)
            distinct = distinct and not deduped
        if order:  # a stable sort: ties keep emission order
            rows = sorted_rows(rows, [
                ([row[entry[1]] for row in rows] if values is None
                 else [keys[j] for keys in values], entry[-1])
                for j, entry in enumerate(order)
            ])
        if distinct:
            rows = _distinct_rows(rows)
        return ResultSet(self.columns, rows)


# ---------------------------------------------------------------------------
# DML plans
# ---------------------------------------------------------------------------


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
    table = executor._resolve_table(stmt.table, env)
    if stmt.select is not None:
        return InsertPlan(
            stmt.table, dict(table._index), stmt.columns, None, stmt.select
        )
    value_rows = [
        [compile_expression(executor, e, {}) for e in row]
        for row in stmt.values or []
    ]
    return InsertPlan(stmt.table, dict(table._index), stmt.columns, value_rows, None)


class MatchPlan(_FromWhere):
    """UPDATE and DELETE: a one-level join pipeline over the target —
    the access path, filters, residual and checkpoints a single-table
    SELECT gets — plus the compiled SET expressions.  The rows are all
    found, and every new value is evaluated, before anything is written:
    no predicate or SET subquery sees the statement's own effects."""

    __slots__ = ("assign_indexes", "assign_cs")

    def __init__(
        self, scan: _Scan, conjuncts: list, outer_cs: list,
        assign_indexes: list, assign_cs: list,
    ) -> None:
        super().__init__([scan], conjuncts, outer_cs, _Consumer("match"))
        self.assign_indexes = assign_indexes
        self.assign_cs = assign_cs

    def match(self, executor: Executor, env: Optional[Env]) -> tuple:
        """``(table, rows, cells)``: the live target, its matching rows
        in table order and, per row, the prepared ``(column index, value)``
        pairs SET assigns.  The table is write-claimed first, so the scan
        reads the state this transaction may modify, never a snapshot view."""
        scan = self.sources[0]
        table = executor._resolve_table(scan.name, env)
        if table.txn is not None:
            table.txn.claim_write(table)
        base_env = env if env is not None else Env()
        key, colmap = scan.key, scan.colmap
        rows = self._collect(executor, base_env)
        indexes, assign_cs = self.assign_indexes, self.assign_cs
        if not assign_cs:
            return table, rows, [()] * len(rows)
        cells = []
        row_env = base_env.child()
        for row in rows:
            row_env.bindings[key] = Binding(colmap, row)
            cells.append(table.prepare_cells(indexes, [c(row_env) for c in assign_cs]))
        return table, rows, cells


class UpdatePlan(MatchPlan):
    __slots__ = ()

    def run(self, executor: Executor, env: Optional[Env]) -> int:
        table, rows, cells = self.match(executor, env)
        count = table.update_rows(rows, cells)
        executor.db.stats.count_rows(count, "update")
        return count


class DeletePlan(MatchPlan):
    __slots__ = ()

    def run(self, executor: Executor, env: Optional[Env]) -> int:
        table, rows, _ = self.match(executor, env)
        count = table.delete_rows(rows)
        executor.db.stats.count_rows(count, "delete")
        return count


def _build_match(
    executor: Executor, stmt: "ast.Update | ast.Delete", env: Optional[Env]
) -> MatchPlan:
    """Bind an UPDATE's or DELETE's target under its alias with the
    statement's WHERE conjuncts, as a single-table FROM/WHERE."""
    table = executor._resolve_table(stmt.table, env)
    source = ast.TableRef(name=stmt.table, alias=stmt.alias)
    where = _split_conjuncts(stmt.where)
    scan = _build_leaf(executor, source, env)
    layout = {scan.key: scan.colmap}
    conjuncts, outer_cs = _analyze_conjuncts(executor, where, [scan], layout)
    if isinstance(stmt, ast.Delete):
        return DeletePlan(scan, conjuncts, outer_cs, [], [])
    return UpdatePlan(
        scan, conjuncts, outer_cs,
        [table.column_index(c) for c, _ in stmt.assignments],
        [compile_expression(executor, e, layout) for _, e in stmt.assignments],
    )


def build_dml_plan(
    executor: Executor, stmt: ast.Statement, env: Optional[Env] = None
) -> Any:
    """Bind an INSERT, UPDATE or DELETE; what cannot be bound raises."""
    build = {
        ast.Insert: _build_insert, ast.Update: _build_match, ast.Delete: _build_match,
    }[type(stmt)]
    return build(executor, stmt, env)
