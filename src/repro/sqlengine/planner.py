"""Logical plans: the bind phase for whole statements (DESIGN.md §3.1).

``build_select_plan`` turns an ``ast.Select`` into source nodes plus one
**join pipeline** (access path → level filters → residual → group →
project → order) whose predicates and projections are pre-compiled
closures from :mod:`repro.sqlengine.exprcompile`.  Everything about the
FROM/WHERE evaluation is decided at plan time, the levels included: each
is a closure that binds its candidates and calls the next level's, the
leaf hands a passing combination to the plan's consumer (projection,
grouping, a match's rows).
``SelectPlan.run`` walks no AST and makes no generator frame.

*Total and partial conjuncts.*  A top-level WHERE conjunct is **total**
when it is a comparison (``= <> < <= > >=``) or a non-negated
``BETWEEN`` over columns of one ``sort_key`` value class (numeric /
character / date, by declared type), literals and outer names (routine
variables, parent-query bindings) whose value, read once per execution,
is NULL or of the column's class: ``compare`` cannot raise on it.
Everything else is **partial**.  A total conjunct runs at the first join
level where all its columns are bound, compiled to its value class;
partial conjuncts form the leaf residual, in their original order and
with the AND chain's short circuit.  An outer operand of the wrong class
(or one that cannot be read) makes its conjunct partial for that
execution.  Hence: a statement raises iff a partial conjunct raises on a
combination that satisfies every total conjunct.  SEQ-SET places the
same analysis over its aligned sources (:mod:`repro.temporal.seqset`).

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
import operator
from typing import Any, Callable, Iterator, Optional

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
    _Reversed,
    _split_conjuncts,
)
from repro.sqlengine.exprcompile import compile_expression, compile_grouped
from repro.sqlengine.interval_index import stab_point
from repro.sqlengine.storage import _column_kind
from repro.sqlengine.values import Date, Null, sort_key, truth

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
# rejects.  Narrowing by more than the rows examined is always sound.


def _narrow_by_table(window: list, pairs: list, table) -> None:
    """Any row may be examined (full scan, interval probe):
    narrow to the table's change points around the point."""
    for begin_index, end_index, _, _ in pairs:
        lo, hi = table.change_window(begin_index, end_index, window[2])
        window[0], window[1] = max(window[0], lo), min(window[1], hi)


def _bucket_versions(
    table, bucket, rows: list, level: "_Level", vector: list, window: Optional[list], stats
) -> list:
    """The versions of a hash probe's ``bucket`` (``rows``, table order)
    whose bounds are Dates inside the ``level``'s period limits (all
    without a period, none under a NULL limit).  A stab takes them from
    ``Table.bucket_stab`` unless a read window is open at another point,
    a point-free filter could waive or the structure is too wide; else
    one pass narrows an open ``window`` to the bounds of every version
    around its point, but for a version that would tighten it and that a
    point-free filter of the ``level`` rejects: the level emits it at no
    point (``engine.read_window.versions_waived``)."""
    period, columns = level.period, level.node.period_columns
    narrow = window is not None and bool(columns)
    if narrow:
        lo, hi, point = window
        free, pos = level.free, level.pos
    elif period is None:
        return rows
    test_begin = test_end = False
    if period is not None:
        begin_index, end_index = period.begin_index, period.end_index
        limits = period.limits(vector)
        at = stab_point(limits)
        if at is not None and rows:
            reason = "window_point" if narrow and at != point else "point_free_filter"
            if not (narrow and (at != point or free)):
                stab = table.bucket_stab(level.key[0], bucket, begin_index, end_index, columns)
                if stab.live is not None:
                    stats.stab_served.value += 1
                    return stab.alive(at, window if narrow else None)
                reason = "too_wide"
            stats.obs.inc("engine.stab.full_pass." + reason)
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
                vector[pos] = row
                for check in free:
                    if not check(vector):
                        stats.waived.value += 1
                        break
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


class _LeftJoinNode:
    """LEFT OUTER join.  The right side — a leaf or itself a join — is
    bound once per execution, before the left side, and kept as one
    ``{alias: Binding}`` per combination."""

    __slots__ = ("left", "right", "condition_c", "nulls")

    def __init__(self, left: Any, right: Any, condition_c: Optional[Callable]) -> None:
        self.left = left
        self.right = right
        self.condition_c = condition_c
        self.nulls = {
            leaf.key: Binding(leaf.colmap, [Null] * len(leaf.colmap))
            for leaf in _leaves(right)
        }

    def validate(self, executor: Executor, env: Env) -> None:
        self.left.validate(executor, env)
        self.right.validate(executor, env)

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
    if isinstance(node, (_JoinNode, _LeftJoinNode)):
        return _leaves(node.left) + _leaves(node.right)
    return [node]


# ---------------------------------------------------------------------------
# the join pipeline
# ---------------------------------------------------------------------------

# ``sort_key`` value classes (see the module docstring), the Python
# types an outer operand of each must have, and the comparison operators
_CLASS_OF_KIND = {"int": "numeric", "float": "numeric", "str": "character",
                  "date": "date"}
_CLASS_TYPES = {"numeric": (int, float), "character": str, "date": Date}
_COMPARISONS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_UNREADABLE = object()  # an outer operand whose lookup raised
_NONE_DEMOTED: frozenset = frozenset()


class _Conjunct:
    """One top-level WHERE conjunct.  ``at`` holds the operand addresses
    into the run-time row vector — FROM position and column index, or
    ``(len(sources), slot)`` for a literal or outer name — when the
    conjunct is a comparison (``left, right``) or a ``BETWEEN`` (``value,
    low, high``) over such operands, else None; ``operands`` their
    expressions, ``slots`` the outer ones' slots.  ``value_class`` is
    set when the operands share one value class: what an outer operand
    must be checked against per execution."""

    __slots__ = ("sql", "closure", "op", "at", "operands", "value_class", "slots")

    def __init__(self, sql: str, closure: Callable) -> None:
        self.sql = sql
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

    def test(self) -> Callable[[list], bool]:
        """The conjunct as a :func:`_typed_filter` test."""
        return _typed_filter(self.value_class, self.op, *self.at)


@functools.lru_cache(maxsize=4096)
def _typed_filter(value_class: str, op: str, *at: tuple) -> Callable[[list], bool]:
    """The total conjunct ``left op right`` — or ``value BETWEEN low AND
    high``, which is ``value >= low AND value <= high`` — its operands at
    the row-vector addresses ``at``, as a test over the run-time row
    vector, compiled to its value class: True exactly where
    :func:`compare` makes the conjunct true
    (``tests/sqlengine/test_typed_filters.py`` holds them to that), so
    NULL rejects the row.  A test depends on nothing but its arguments,
    so plans of one shape share it."""
    if op == "BETWEEN":
        value_at, low_at, high_at = at
        above = _typed_filter(value_class, ">=", value_at, low_at)
        below = _typed_filter(value_class, "<=", value_at, high_at)
        return lambda vector: above(vector) and below(vector)
    test = _COMPARISONS[op]
    (la, lb), (ra, rb) = at
    if value_class == "date":
        def check(vector: list) -> bool:
            left, right = vector[la][lb], vector[ra][rb]
            return left is not Null and right is not Null and test(
                left.ordinal, right.ordinal
            )
    elif value_class == "character":
        def check(vector: list) -> bool:
            left, right = vector[la][lb], vector[ra][rb]
            return left is not Null and right is not Null and test(
                left.rstrip(), right.rstrip()
            )
    else:
        # native comparison orders bool as int; NaN takes its sort_key
        # place (equal to itself, above every other number)
        def check(vector: list) -> bool:
            left, right = vector[la][lb], vector[ra][rb]
            if left is Null or right is Null:
                return False
            if left != left or right != right:
                return test(sort_key(left), sort_key(right))
            return test(left, right)
    return check


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

    def limits(self, vector: list) -> Optional[list]:
        """``[begin_min, begin_max, end_min]`` in day ordinals from the
        tightest bounds (None for a side without one), or None under a
        NULL bound: no row satisfies it.  A total conjunct's operand is
        a Date or NULL."""
        limits: list = [None, None, None]
        for side, a, b, offset, _ in self.bounds:
            value = vector[a][b]
            if value is Null:
                return None
            bound = value.ordinal + offset
            limit = limits[side]
            if limit is None or (
                bound < limit if side == _BEGIN_UPTO else bound > limit
            ):
                limits[side] = bound
        return limits


class _Level:
    """One join level: a source plus, for a scan, its access path (hash
    ``key``, ``period`` bounds, both, or a full scan) and the total
    conjuncts that become checkable here and that the access path does
    not decide (``filters``; ``free``: those whose operands are columns
    of this or earlier levels or literals).  ``rows_in``/``rows_out``
    accumulate over executions for EXPLAIN ANALYZE."""

    __slots__ = ("node", "pos", "key", "period", "filters", "free", "access",
                 "rows_in", "rows_out")

    def __init__(self, node: Any, pos: int) -> None:
        self.node = node
        self.pos = pos
        self.key: Optional[tuple] = None  # (column, a, b)
        self.period: Optional[_PeriodProbe] = None
        self.filters: list = []  # _typed_filter tests
        self.free: list = []  # the point-free ones among them
        self.access = ("Scan", "")  # EXPLAIN: (operator, the key's SQL)
        self.rows_in = self.rows_out = 0

    def candidates(self, executor: Executor, table, vector: list) -> list:
        """Candidate rows.  The access path always applies the level's
        period bounds exactly — behind a hash key or as an
        interval-index search.  ``engine.rows_scanned`` counts the rows
        the access path returns."""
        db = executor.db
        if db.resilience.armed:
            # watchdog checkpoint: every level bind
            db.resilience.check()
        window = db.read_window
        period = self.period
        if self.key is not None:
            column, a, b = self.key
            value = vector[a][b]
            bucket = None if value is Null else sort_key(value)
            rows = [] if bucket is None else table.hash_index(column).get(bucket, [])
            stats = db.stats
            versions = _bucket_versions(table, bucket, rows, self, vector, window, stats)
            stats.pruned.value += len(rows) - len(versions)
            stats.scanned.value += len(versions)
            return versions
        if window is not None and self.node.pairs:
            _narrow_by_table(window, self.node.pairs, table)
        table_rows = table.rows
        if period is None:
            db.stats.scanned.value += len(table_rows)
            return table_rows
        positions = executor._interval_candidate_positions(
            table, period.begin_index, period.end_index, period.limits(vector)
        )
        db.stats.scanned.value += len(positions)
        return [table_rows[p] for p in positions]


class _Pipeline:
    """Levels in join order plus the leaf residual, for one set of
    conjuncts demoted at run time (none, in the plan's default); the
    first ``split`` levels are the FROM's leading scans.  ``run`` chains
    them all; a reordered pipeline runs the scan ``prefix`` (no residual),
    sorts its combinations into FROM order and runs ``rest`` under each."""

    __slots__ = ("levels", "split", "reordered", "residual", "run", "prefix",
                 "rest")

    def __init__(self, levels: list, split: int, residual: list) -> None:
        self.levels = levels
        self.split = split
        self.reordered = any(level.pos != pos for pos, level in enumerate(levels))
        self.residual = residual
        if self.reordered:
            self.prefix = _chain(levels[:split], [])
            self.rest = _chain(levels[split:], residual)
        else:
            self.run = _chain(levels, residual)


# A *step* ``step(executor, env, vector, tables, emit)`` binds its level's
# candidates one at a time (``env.bindings`` for closures, ``vector`` for
# typed filters and later probes; ``tables`` by FROM position) and hands
# each that passes to the next step, at the leaf to ``emit(env)``.


def _chain(levels: list, residual: list) -> Callable:
    """``levels`` as nested steps; the leaf checks the ``residual`` (the
    partial conjuncts) before it emits."""
    after: Optional[Callable] = None
    if residual:
        def after(executor, env, vector, tables, emit) -> None:
            if _all_true(residual, env):
                emit(env)
    for level in reversed(levels):
        after = (_scan_step if isinstance(level.node, _Scan) else _opaque_step)(level, after)
    return after or (lambda executor, env, vector, tables, emit: emit(env))


def _scan_step(level: "_Level", after: Optional[Callable]) -> Callable:
    pos, key, colmap, filters = level.pos, level.node.key, level.node.colmap, level.filters

    def scan(executor, env, vector, tables, emit) -> None:
        rows = level.candidates(executor, tables[pos], vector)
        # one binding, re-pointed at each row that passes (grouping
        # freezes a copy)
        binding = env.bindings[key] = Binding(colmap, None)
        passed = 0
        for row in rows:
            vector[pos] = row
            for check in filters:
                if not check(vector):
                    break
            else:
                passed += 1
                binding.row = row
                if after is None:
                    emit(env)
                else:
                    after(executor, env, vector, tables, emit)
        del env.bindings[key]
        level.rows_in += len(rows)
        level.rows_out += passed
        if passed < len(rows):
            executor.db.stats.rejects.value += len(rows) - passed

    return scan


def _opaque_step(level: "_Level", after: Optional[Callable]) -> Callable:
    def opaque(executor, env, vector, tables, emit) -> None:
        bound = 0
        for _ in level.node.bind(executor, env):
            bound += 1
            if after is None:
                emit(env)
            else:
                after(executor, env, vector, tables, emit)
        level.rows_in += bound
        level.rows_out += bound

    return opaque


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


def _build_pipeline(sources: list, conjuncts: list, demoted: frozenset) -> _Pipeline:
    """Place ``conjuncts`` over ``sources``; ``demoted`` holds the
    indexes of the conjuncts that are partial for this execution."""
    outer = len(sources)
    total = [
        c.value_class is not None and i not in demoted
        for i, c in enumerate(conjuncts)
    ]
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
            test = c.test()
            level.filters.append(test)
            if all(at[0] != outer or isinstance(expr, ast.Literal)
                   for at, expr in zip(c.at, c.operands)):
                level.free.append(test)
    residual = [c.closure for i, c in enumerate(conjuncts) if not total[i]]
    return _Pipeline(levels, split, residual)


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


def _analyze_conjuncts(
    executor: Executor, where: list, sources: list, layout: dict
) -> tuple[list, list]:
    """Compile each WHERE conjunct and resolve the operands of the
    comparisons among them (shape only: nothing is evaluated).  Returns
    the :class:`_Conjunct` list and the closures reading the outer
    operands (literals included: ``Literal.value`` is mutable), one per
    slot."""
    scans = {
        node.key: (pos, node)
        for pos, node in enumerate(sources) if isinstance(node, _Scan)
    }

    def operand(expr: ast.Expression) -> Any:
        """A scan column as ``(position, column)``; a literal or outer
        name as the expression itself; None for anything else."""
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

    conjuncts: list = []
    outer_cs: list = []
    slots: dict = {}
    for expr in where:
        conjunct = _Conjunct(expr.to_sql(), compile_expression(executor, expr, layout))
        conjuncts.append(conjunct)
        while isinstance(expr, ast.Parenthesized):
            expr = expr.expr
        if isinstance(expr, ast.BinaryOp) and expr.op in _COMPARISONS:
            op, operands = expr.op, (expr.left, expr.right)
        elif isinstance(expr, ast.BetweenPredicate) and not expr.negated:
            op, operands = "BETWEEN", (expr.expr, expr.low, expr.high)
        else:
            continue
        sides = [operand(e) for e in operands]
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


def build_select_plan(
    executor: Executor, select: ast.Select, env: Optional[Env] = None
) -> "SelectPlan":
    """Bind ``select`` into a plan; what cannot be bound raises."""
    grouped = bool(select.group_by) or any(
        item.expr is not None and _contains_aggregate(item.expr)
        for item in select.items
    ) or (select.having is not None)
    sources, layout, where = _build_sources(executor, select, env)
    conjuncts, outer_cs = _analyze_conjuncts(executor, where, sources, layout)
    columns = executor._output_columns(select, env if env is not None else Env())
    colmap = {name.lower(): i for i, name in enumerate(columns)}
    aggregates: Optional[list] = [] if grouped else None
    order_entries = _build_order(
        executor, select.order_by, colmap, layout,
        functools.partial(compile_grouped, aggregates=aggregates)
        if grouped else compile_expression,
    )
    group_key = having_c = None
    if grouped:
        for item in select.items:
            if item.is_star:
                raise ExecutionError(
                    "SELECT * is not allowed in a grouped or aggregate select"
                )
        group_cs = [
            compile_expression(executor, g, layout) for g in select.group_by
        ]
        if len(group_cs) == 1:  # one key needs no tuple
            only = group_cs[0]
            group_key = lambda env: sort_key(only(env))
        elif group_cs:
            group_key = lambda env: tuple([sort_key(g(env)) for g in group_cs])
        if select.having is not None:
            having_c = compile_grouped(executor, select.having, layout, aggregates)
        item_plans = [
            compile_grouped(executor, item.expr, layout, aggregates)
            for item in select.items
        ]
    else:
        item_plans = [
            ("star", item.star_qualifier.lower() if item.star_qualifier else None)
            if item.is_star
            else ("expr", compile_expression(executor, item.expr, layout))
            for item in select.items
        ]
    return SelectPlan(
        sources=sources,
        conjuncts=conjuncts,
        outer_cs=outer_cs,
        columns=columns,
        aggregates=aggregates,
        group_key=group_key,
        having_c=having_c,
        item_plans=item_plans,
        order_entries=order_entries,
        distinct=select.distinct,
    )


# ---------------------------------------------------------------------------
# plans: the FROM/WHERE half every plan shares, then SELECT
# ---------------------------------------------------------------------------


def _outer_checks(conjuncts: list) -> list:
    """``(conjunct index, slot, admissible types | None)`` per outer
    operand of a conjunct: what :func:`_read_outer` checks per execution."""
    return [
        (i, slot, _CLASS_TYPES.get(c.value_class))
        for i, c in enumerate(conjuncts) for slot in c.slots
    ]


def _read_outer(outer_cs: list, checks: list, env: Env) -> tuple[list, frozenset]:
    """Read the outer operands once: their values by slot, and the
    indexes of the conjuncts an unreadable operand, or one of the wrong
    class, makes partial for this execution."""
    slots: list = []
    for closure in outer_cs:
        try:
            slots.append(closure(env))
        except SqlError:
            slots.append(_UNREADABLE)
    demoted: Any = ()
    for index, slot, types in checks:
        value = slots[slot]
        if value is _UNREADABLE or (
            types is not None and value is not Null
            and not isinstance(value, types)
        ):
            demoted += (index,)
    return slots, frozenset(demoted) if demoted else _NONE_DEMOTED


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
    WHERE conjuncts and the join pipelines placed over them."""

    __slots__ = ("sources", "conjuncts", "outer_cs", "checks", "pipeline",
                 "variants")

    def __init__(self, sources: list, conjuncts: list, outer_cs: list) -> None:
        self.sources = sources
        self.conjuncts = conjuncts
        self.outer_cs = outer_cs
        self.checks = _outer_checks(conjuncts)
        # the pipeline when every outer operand is readable and of its
        # column's class; executions that demote conjuncts get variants,
        # built on first need and kept by the demotion set
        self.pipeline = _build_pipeline(sources, conjuncts, _NONE_DEMOTED)
        self.variants: dict = {}

    def _pipeline_for(self, env: Env) -> tuple[_Pipeline, list]:
        """Read the outer operands once and pick this execution's
        pipeline: the plan's own unless an operand is unreadable or of
        the wrong class, which makes its conjunct partial this time."""
        slots, demoted = _read_outer(self.outer_cs, self.checks, env)
        if not demoted:
            return self.pipeline, slots
        pipeline = self.variants.get(demoted)
        if pipeline is None:
            pipeline = self.variants[demoted] = _build_pipeline(
                self.sources, self.conjuncts, demoted
            )
        return pipeline, slots

    def _each(self, executor: Executor, base_env: Env, emit: Callable) -> None:
        """Validate every source before producing (or consuming) any rows
        — an invalidation found mid-run would re-execute side effects on
        the re-planned run — then ``emit`` the row environment of each
        combination that satisfies the WHERE clause, in the FROM-order
        nested loop's emission order."""
        tables = [node.validate(executor, base_env) for node in self.sources]
        # the outer operands read from the base environment: the child
        # binds nothing yet
        pipeline, slots = self._pipeline_for(base_env)
        env = base_env.child()
        vector: list = [None] * len(self.sources) + [slots]
        if not pipeline.reordered:
            pipeline.run(executor, env, vector, tables, emit)
            return
        # the scan prefix's combinations in FROM order, then the rest under each
        executor.db.obs.inc("engine.join.reordered")
        split = pipeline.split
        combos: list = []
        pipeline.prefix(
            executor, env, vector, tables,
            lambda _: combos.append(tuple(vector[:split])),
        )
        if len(combos) > 1:
            positions = [table.row_positions() for table in tables[:split]]
            combos.sort(key=lambda combo: [
                index[id(row)] for index, row in zip(positions, combo)
            ])
        bindings = env.bindings
        for combo in combos:
            for node, row in zip(self.sources, combo):
                bindings[node.key] = Binding(node.colmap, row)
            vector[:split] = combo
            pipeline.rest(executor, env, vector, tables, emit)
        bindings.clear()


class SelectPlan(_FromWhere):
    """``aggregates``: a grouped select's aggregate argument closures, in
    the order its groups keep their values (``None`` when ungrouped)."""

    __slots__ = ("columns", "grouped", "aggregates", "group_key", "having_c",
                 "item_plans", "order_entries", "distinct")

    def __init__(
        self,
        sources: list,
        conjuncts: list,
        outer_cs: list,
        columns: list,
        aggregates: Optional[list],
        group_key: Optional[Callable],
        having_c: Optional[Callable],
        item_plans: list,
        order_entries: list,
        distinct: bool,
    ) -> None:
        super().__init__(sources, conjuncts, outer_cs)
        self.columns = columns
        self.grouped = aggregates is not None
        self.aggregates = aggregates
        self.group_key = group_key
        self.having_c = having_c
        self.item_plans = item_plans
        self.order_entries = order_entries
        self.distinct = distinct

    def run(self, executor: Executor, env: Optional[Env], apply_order: bool) -> ResultSet:
        base_env = env if env is not None else Env()
        order = self.order_entries if apply_order else []
        rows: list = []
        keys: list = []
        project = self._project
        if self.grouped:
            self._run_grouped(executor, base_env, order, rows, keys)
        elif order and not all(entry[0] == "slot" for entry in order):
            order_key = self._order_key

            def emit(row_env: Env) -> None:
                row = project(row_env)
                rows.append(row)
                keys.append(order_key(order, row, row_env))

            self._each(executor, base_env, emit)
        else:
            self._each(executor, base_env, lambda row_env: rows.append(project(row_env)))
            if order:  # on output columns only: sorted once the join is done
                one = order[0][1] if len(order) == 1 and not order[0][2] else None
                rows.sort(key=(lambda row: sort_key(row[one])) if one is not None
                          else (lambda row: self._order_key(order, row)))
                order = []
        if order:  # a stable sort: ties keep emission order
            rows = [rows[i] for i in sorted(range(len(rows)), key=keys.__getitem__)]
        if self.distinct:
            rows = _distinct_rows(rows)
        return ResultSet(self.columns, rows)

    def _project(self, env: Env) -> list:
        values: list = []
        for kind, plan in self.item_plans:
            if kind == "star":
                for binding_alias, binding in env.bindings.items():
                    if plan and binding_alias != plan:
                        continue
                    values.extend(binding.row)
            else:
                values.append(plan(env))
        return values

    def _order_key(self, order: list, row: list, *scope: Any) -> tuple:
        """``scope`` is what the entry closures take: the row env, or
        (group, base env) in a grouped select."""
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
                    value = fallback(*scope)
            else:
                value = entry[1](*scope)
                desc = entry[2]
            key = sort_key(value)
            parts.append(_Reversed(key) if desc else key)
        return tuple(parts)

    def _run_grouped(
        self, executor: Executor, base_env: Env, order: list, rows: list, keys: list
    ) -> None:
        """Fold each row into its group as the join emits it: a group
        freezes its first row's environment (what the non-aggregate parts
        read), counts its rows and collects each aggregate argument's
        values.  A key's error is held until the join is done (a later
        WHERE error wins); an argument's until its group folds that
        aggregate (a group HAVING drops raises nothing).  ``INTERRUPTS``
        (a cancellation, a fault, …) are never held."""
        aggregates = list(enumerate(self.aggregates, 2))
        group_key = self.group_key
        held: Optional[SqlError] = None

        def fold(group: list, row_env: Env) -> None:
            if not group[1]:
                group[0] = _freeze_env(row_env)
            group[1] += 1
            for slot, arg_c in aggregates:
                values = group[slot]
                if values.__class__ is list:
                    try:
                        values.append(arg_c(row_env))
                    except INTERRUPTS:
                        raise
                    except SqlError as exc:
                        group[slot] = exc

        def emit(row_env: Env) -> None:
            nonlocal held
            if held is None:
                try:
                    key = group_key(row_env)
                except INTERRUPTS:
                    raise
                except SqlError as exc:
                    held = exc
                    return
                group = groups.get(key)
                if group is None:
                    group = groups[key] = [None, 0] + [[] for _ in aggregates]
                fold(group, row_env)

        groups: dict = {} if group_key else {(): [None, 0] + [[] for _ in aggregates]}
        if group_key is None:  # ungrouped: the one group is there before the join
            emit = functools.partial(fold, groups[()])
        self._each(executor, base_env, emit)
        if held is not None:
            raise held
        executor.db.obs.inc("engine.group.groups", len(groups))
        for group in groups.values():
            if self.having_c is not None and not truth(self.having_c(group, base_env)):
                continue
            rows.append([item_c(group, base_env) for item_c in self.item_plans])
            if order:
                keys.append(self._order_key(order, rows[-1], group, base_env))


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
        super().__init__([scan], conjuncts, outer_cs)
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
        rows: list = []
        self._each(executor, base_env, lambda row_env: rows.append(row_env.bindings[key].row))
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
