"""Logical plans: the bind phase for whole statements.

``build_select_plan`` turns an ``ast.Select`` into source nodes plus one
**join pipeline** (access path → level filters → residual → group →
project → order) whose predicates and projections are pre-compiled
closures from :mod:`repro.sqlengine.exprcompile`.  Everything about the
FROM/WHERE evaluation is decided here, at plan time; ``SelectPlan.run``
walks no AST.

*Total and partial conjuncts.*  The WHERE clause is split at its
top-level ANDs.  A conjunct is **total** when it is a comparison
(``= <> < <= > >=``) between columns of one ``sort_key`` value class
(numeric / character / date, by declared type — values are coerced on
assignment), literals and outer names (routine variables, parent-query
bindings) whose value, read once per execution, is NULL or of the
column's class: ``compare`` cannot raise on it.  Everything else —
routine calls, subqueries, LIKE, arithmetic, casts, cross-class
comparisons — is **partial**.  A total conjunct runs at the first join
level where all its columns are bound, compiled to its value class
(date ordinals, right-stripped characters, native numbers with NaN
ordered as ``sort_key`` orders it); partial conjuncts form the leaf
residual, in their original order and with the AND chain's short
circuit, evaluated only on combinations that passed every total
conjunct.  An outer operand of the wrong class (or one that cannot be
read) makes its conjunct partial for that execution.  Hence the error
behaviour, with no exemption: a statement raises iff a partial conjunct
raises on a combination that satisfies every total conjunct.

*Access paths decide what they can.*  A level is keyed by its first
total ``col = <bound operand>`` conjunct in WHERE order; the probe
consumes it.  Total bounds on a declared ``(begin, end)`` pair of the
level's table (``begin <= x``, ``x <= begin``, ``end > x`` and their
strict / flipped forms) are decided by the access path too: behind a
hash key the probe keeps only the bucket's versions inside them (day
ordinals, NULL bounds excluded, table order kept); without one a begin
range or a stab / overlap is an interval-index search.  Decided
conjuncts are no level filter.

*Join order and emission order.*  The leading run of base-table scans in
FROM is ordered: the next level is the first of them (in FROM order)
with a total equality key bound by what is already placed — outer names
and literals count as bound — else the next in FROM order.  The rest —
views, derived tables, table functions, explicit joins (opaque levels)
and any scan after the first of them — follows in FROM order.  When the
prefix runs out of FROM order its combinations are sorted back into the
FROM-order nested loop's emission order (lexicographic by per-source
table position, via ``Table.row_positions``), then the rest is joined
under each in turn: every opaque level is invoked as under that loop —
same combinations, order and count — and the residual, projection,
ORDER BY tie-breaking and DISTINCT see that loop's rows.

*UPDATE and DELETE* are the same pipeline over one source: the target
under its alias with the statement's conjuncts (``MatchPlan``), which
is how every modification — the temporal stratum's included, whose
period restrictions are ordinary conjuncts with outer operands — finds
its rows.  The target is write-claimed before the match; all rows are
found, then every SET value is evaluated, then the table's row-set
primitives write.

Every statement runs through a plan; there is no other path.  What the
bind phase can decide raises at plan time, as the error it is and before
any row is read: an unknown table or table function, two FROM sources
under one alias, a scalar function in ``TABLE(...)``, ``*`` in a grouped
select.  What depends on the rows — a name no source or environment
supplies, a type error, a failing routine — raises per row, under the
rule above.

Plans are validated, not trusted: every source node checks at run time,
before the plan produces or consumes a row, that the catalog object it
was bound against is still current (same table schema and declared
types, same view object, same routine definition) and raises
:class:`PlanInvalidated` otherwise; the executor drops the entry,
re-plans and re-runs the statement once (``engine.plan_invalidated``).
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Callable, Iterator, Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.errors import (
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
from repro.sqlengine.exprcompile import (
    compile_batch_filter,
    compile_expression,
    compile_grouped,
)
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

    __slots__ = ("name", "alias", "key", "colmap", "expected", "types",
                 "kinds", "pairs", "batch")

    def __init__(self, name: str, alias: str, table, batch: Optional[Any]) -> None:
        self.name = name
        self.alias = alias
        self.key = alias.lower()
        self.colmap = {c.name.lower(): i for i, c in enumerate(table.columns)}
        self.expected = dict(table._index)
        self.types = [c.type for c in table.columns]
        self.kinds = [_column_kind(type_) for type_ in self.types]
        # declared (begin, end) pairs an interval probe may use
        self.pairs = [
            (table.column_index(b), table.column_index(e), b, e)
            for b, e in table.interval_pairs
        ]
        self.batch = batch

    def _table(self, executor: Executor, env: Env):
        if executor.db.catalog.has_view(self.name):
            raise PlanInvalidated(self.name)
        table = executor._read_table(self.name, env)
        if table._index != self.expected:
            raise PlanInvalidated(self.name)
        return table

    def validate(self, executor: Executor, env: Env) -> None:
        # conjunct placement rests on the declared value classes: a
        # temporary table re-created with other column types (CTAS
        # infers them from the data) must not run under this plan
        if [c.type for c in self._table(executor, env).columns] != self.types:
            raise PlanInvalidated(self.name)

    def bind(self, executor: Executor, env: Env) -> Iterator[Env]:
        table = self._table(executor, env)
        db = executor.db
        if db.resilience.armed:
            db.resilience.check()
        if db.read_window is not None and self.pairs:
            _narrow_by_table(db.read_window, self.pairs, table)
        db.obs.inc("engine.rows_scanned", len(table.rows))
        return _bind_rows(env, self.key, self.colmap, table.rows)


# A *read window* is ``[lo, hi, point]``: the routine interpreter opens
# one around the point a window-declared function evaluates at
# (``RoutineInterpreter._reused``), and every bind of a table with a
# declared period pair narrows the innermost open one so that each row
# the bind examines keeps its ``begin <= p < end`` verdict for every
# ``p`` of ``[lo, hi)``.  Narrowing by more than the rows examined is
# always sound.


def _narrow_by_table(window: list, pairs: list, table) -> None:
    """Any row may be examined (full scan, interval probe, kernels):
    narrow to the table's change points around the point."""
    for begin_index, end_index, _, _ in pairs:
        lo, hi = table.change_window(begin_index, end_index, window[2])
        if lo > window[0]:
            window[0] = lo
        if hi < window[1]:
            window[1] = hi


def _bucket_versions(
    rows: list, period: "Optional[_PeriodProbe]", limits: Optional[list],
    window: Optional[list], pairs: list,
) -> list:
    """One pass over a hash probe's bucket ``rows`` (table order): keep
    the versions whose ``period`` bounds are Dates inside ``limits``
    (all of them without a ``period``, none under a NULL limit) and,
    with a read ``window`` open, narrow it to the bounds of every
    version around its point — the key does not depend on the point, so
    exactly the bucket is examined, and a version the limits reject
    must stay rejected over the whole window too."""
    narrow = window is not None and bool(pairs)
    if narrow:
        lo, hi, point = window
        columns = [index for pair in pairs for index in pair[:2]]
    elif period is None:
        return rows
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
            for index in columns:
                value = row[index]
                if isinstance(value, Date):
                    ordinal = value.ordinal
                    if ordinal <= point:
                        if ordinal > lo:
                            lo = ordinal
                    elif ordinal < hi:
                        hi = ordinal
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


class _RowSource:
    """An opaque join level: a view, derived table or table function
    whose ``_rows`` are computed as a whole, then bound one at a time."""

    __slots__ = ()

    def bind(self, executor: Executor, env: Env) -> Iterator[Env]:
        return _bind_rows(env, self.key, self.colmap, self._rows(executor, env))


class _View(_RowSource):
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


class _Subquery(_RowSource):
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


class _Conjunct:
    """One top-level WHERE conjunct.  ``left``/``right`` are operand
    addresses ``(a, b)`` into the run-time row vector — FROM position and
    column index, or ``(len(sources), slot)`` for a literal or outer name
    — when the conjunct is a comparison over such operands, else None;
    ``operands`` their expressions.  ``value_class`` is set when the
    operands share one value class: what an outer operand (``slot``)
    must be checked against per execution."""

    __slots__ = ("sql", "closure", "op", "left", "right", "operands",
                 "value_class", "slot")

    def __init__(self, sql: str, closure: Callable) -> None:
        self.sql = sql
        self.closure = closure
        self.op: Optional[str] = None
        self.left = self.right = self.operands = self.value_class = self.slot = None

    def sides(self) -> tuple:
        """``(own, other, op, other's expression)`` in both orientations."""
        return (
            (self.left, self.right, self.op, self.operands[1]),
            (self.right, self.left, _FLIPPED_COMPARISON.get(self.op, self.op),
             self.operands[0]),
        )


@functools.lru_cache(maxsize=4096)
def _typed_filter(
    value_class: str, op: str, left_at: tuple, right_at: tuple
) -> Callable[[list], bool]:
    """The total conjunct ``left op right``, its operands at the
    row-vector addresses ``left_at`` / ``right_at``, as a test over the
    run-time row vector, compiled to its value class: True
    exactly where :func:`compare` makes the comparison true
    (``tests/sqlengine/test_typed_filters.py`` holds them to that), so
    NULL rejects the row.  A test depends on nothing but its arguments,
    so plans of one shape share it."""
    test = _COMPARISONS[op]
    (la, lb), (ra, rb) = left_at, right_at
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
    not decide (``filters``).  ``rows_in``/``rows_out`` accumulate over
    executions for EXPLAIN ANALYZE."""

    __slots__ = ("node", "pos", "key", "period", "filters", "access",
                 "rows_in", "rows_out")

    def __init__(self, node: Any, pos: int) -> None:
        self.node = node
        self.pos = pos
        self.key: Optional[tuple] = None  # (column, a, b)
        self.period: Optional[_PeriodProbe] = None
        self.filters: list = []  # _typed_filter tests
        self.access = ("Scan", "")  # EXPLAIN: (operator, the key's SQL)
        self.rows_in = self.rows_out = 0

    def candidates(
        self, executor: Executor, table, vector: list, env: Env
    ) -> tuple[list, bool]:
        """Candidate rows plus a *fully filtered* flag, True only when
        the batch kernels ran and cover every WHERE conjunct, so the
        caller may skip filters and residual.  The access path always
        applies the level's period bounds exactly — behind a hash key or
        as an interval-index search.  ``engine.rows_scanned`` counts the
        rows the access path returns (pre-kernel counts on the
        vectorized path).
        """
        db = executor.db
        obs = db.obs
        resilience = db.resilience
        if resilience.armed:
            # watchdog/governor checkpoint: every level bind
            resilience.check()
        window = db.read_window
        period = self.period
        if self.key is not None:
            column, a, b = self.key
            value = vector[a][b]
            rows = (
                [] if value is Null
                else table.hash_index(column).get(sort_key(value), [])
            )
            versions = _bucket_versions(
                rows, period, None if period is None else period.limits(vector),
                window, self.node.pairs,
            )
            if len(versions) < len(rows):
                obs.inc("engine.period_probe.rows_pruned", len(rows) - len(versions))
            obs.inc("engine.rows_scanned", len(versions))
            return versions, False
        if window is not None and self.node.pairs:
            _narrow_by_table(window, self.node.pairs, table)
        # batch kernels only run when they cover *every* conjunct: a
        # partial batch could drop a row before another conjunct gets
        # the chance to raise the error the row path raises on it
        batch = self.node.batch
        if batch is not None and not (
            batch.consumes_all
            # governor degradation: under resident-bytes pressure, stream
            # row-at-a-time instead of building a columnar image
            # (counted; visible in EXPLAIN ANALYZE)
            and resilience.allow_columnar(table)
        ):
            batch = None
        table_rows = table.rows
        positions: Any = None
        if period is not None:
            positions = executor._interval_candidate_positions(
                table, period.begin_index, period.end_index, period.limits(vector)
            )
        obs.inc(
            "engine.rows_scanned",
            len(table_rows) if positions is None else len(positions),
        )
        if batch is not None:
            scanned = range(len(table_rows)) if positions is None else positions
            selected = batch.apply(table, scanned, env)
            if selected is not None:
                obs.inc("engine.vectorized_batches")
                pruned = len(scanned) - len(selected)
                if pruned:
                    obs.inc("engine.vectorized_rows_pruned", pruned)
                return [table_rows[p] for p in selected], True
        if positions is None:
            return table_rows, False
        return [table_rows[p] for p in positions], False


class _Pipeline:
    """Levels in join order plus the leaf residual, for one set of
    conjuncts demoted at run time (none, in the plan's default); the
    first ``split`` levels are the FROM's leading scans."""

    __slots__ = ("levels", "split", "reordered", "residual")

    def __init__(self, levels: list, split: int, residual: list) -> None:
        self.levels = levels
        self.split = split
        self.reordered = any(level.pos != pos for pos, level in enumerate(levels))
        self.residual = residual


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
            level = levels[max(depth_of[c.left[0]], depth_of[c.right[0]])]
            level.filters.append(_typed_filter(c.value_class, c.op, c.left, c.right))
    residual = [c.closure for i, c in enumerate(conjuncts) if not total[i]]
    return _Pipeline(levels, split, residual)


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------


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
        batch = (
            compile_batch_filter(
                executor, table, source.binding, conjuncts, from_items
            )
            if conjuncts
            else None
        )
        return _Scan(source.name, source.binding, table, batch)
    if isinstance(source, ast.SubqueryRef):
        columns = executor._output_columns(
            source.select, env if env is not None else Env()
        )
        return _Subquery(source.alias, columns, source.select)
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
        if source.kind not in ("INNER", "CROSS", "LEFT"):
            raise ExecutionError(f"unsupported join kind {source.kind}")
        left = _build_source(executor, source.left, env, [], None, join_specs)
        right = _build_source(executor, source.right, env, [], None, join_specs)
        node = (_LeftJoinNode if source.kind == "LEFT" else _JoinNode)(
            left, right, None
        )
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
    return sources, layout, conjuncts


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
    for expr in where:
        conjunct = _Conjunct(expr.to_sql(), compile_expression(executor, expr, layout))
        conjuncts.append(conjunct)
        while isinstance(expr, ast.Parenthesized):
            expr = expr.expr
        if not (isinstance(expr, ast.BinaryOp) and expr.op in _COMPARISONS):
            continue
        sides = [operand(expr.left), operand(expr.right)]
        columns = [side for side in sides if isinstance(side, tuple)]
        if None in sides or not columns:
            continue
        conjunct.op = expr.op
        conjunct.operands = (expr.left, expr.right)
        addresses = []
        for side in sides:
            if not isinstance(side, tuple):
                conjunct.slot = len(outer_cs)
                outer_cs.append(compile_expression(executor, side, layout))
                side = (len(sources), conjunct.slot)
            addresses.append(side)
        conjunct.left, conjunct.right = addresses
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
    grouped: bool,
) -> list:
    compile_ = compile_grouped if grouped else compile_expression
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
    order_entries = _build_order(
        executor, select.order_by, colmap, layout, grouped
    )
    group_cs = having_c = None
    if grouped:
        for item in select.items:
            if item.is_star:
                raise ExecutionError(
                    "SELECT * is not allowed in a grouped or aggregate select"
                )
        group_cs = [
            compile_expression(executor, g, layout) for g in select.group_by
        ]
        if select.having is not None:
            having_c = compile_grouped(executor, select.having, layout)
        item_plans = [
            compile_grouped(executor, item.expr, layout)
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
        grouped=grouped,
        group_cs=group_cs,
        having_c=having_c,
        item_plans=item_plans,
        order_entries=order_entries,
        distinct=select.distinct,
    )


# ---------------------------------------------------------------------------
# plans: the FROM/WHERE half every plan shares, then SELECT
# ---------------------------------------------------------------------------


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
                 "variants", "single_scan")

    def __init__(self, sources: list, conjuncts: list, outer_cs: list) -> None:
        self.sources = sources
        self.conjuncts = conjuncts
        self.outer_cs = outer_cs
        # (conjunct index, slot, admissible types | None) per conjunct
        # with an outer operand: what `_pipeline_for` checks per execution
        self.checks = [
            (i, c.slot, _CLASS_TYPES.get(c.value_class))
            for i, c in enumerate(conjuncts) if c.slot is not None
        ]
        # the pipeline when every outer operand is readable and of its
        # column's class; executions that demote conjuncts get variants,
        # built on first need and kept by the demotion set
        self.pipeline = _build_pipeline(sources, conjuncts, frozenset())
        self.variants: dict = {}
        # the WHERE fast path: a lone base-table scan whose batch
        # kernels cover the whole predicate may skip it per row
        self.single_scan = (
            len(sources) == 1
            and isinstance(sources[0], _Scan)
            and sources[0].batch is not None
            and sources[0].batch.consumes_all
        )

    def _pipeline_for(self, env: Env) -> tuple[_Pipeline, list]:
        """Read the outer operands once and pick this execution's
        pipeline: the plan's own unless an operand is unreadable or of
        the wrong class, which makes its conjunct partial this time."""
        slots: list = []
        for closure in self.outer_cs:
            try:
                slots.append(closure(env))
            except SqlError:
                slots.append(_UNREADABLE)
        demoted = frozenset(
            index for index, slot, types in self.checks
            if slots[slot] is _UNREADABLE or (
                types is not None and slots[slot] is not Null
                and not isinstance(slots[slot], types)
            )
        )
        if not demoted:
            return self.pipeline, slots
        pipeline = self.variants.get(demoted)
        if pipeline is None:
            pipeline = self.variants[demoted] = _build_pipeline(
                self.sources, self.conjuncts, demoted
            )
        return pipeline, slots

    def _filtered_envs(self, executor: Executor, base_env: Env) -> Iterator[Env]:
        """Row environments with the WHERE clause already applied, in
        the FROM-order nested loop's emission order."""
        env = base_env.child()
        pipeline, slots = self._pipeline_for(env)
        residual = pipeline.residual
        vector: list = [None] * len(self.sources) + [slots]
        tables: list = [None] * len(self.sources)
        levels = pipeline.levels
        if not pipeline.reordered:
            for settled in self._join(executor, env, levels, 0, vector, tables):
                if settled or _all_true(residual, env):
                    yield env
            return
        # the scan prefix's combinations in FROM order, then the rest under each
        executor.db.obs.inc("engine.join.reordered")
        split = pipeline.split
        prefix = self._join(executor, env, levels[:split], 0, vector, tables)
        combos = [tuple(vector[:split]) for _ in prefix]
        if len(combos) > 1:
            positions = [table.row_positions() for table in tables[:split]]
            combos.sort(key=lambda combo: [
                index[id(row)] for index, row in zip(positions, combo)
            ])
        bindings = env.bindings
        scans, rest = self.sources[:split], levels[split:]
        matches: Any = (False,)  # an all-scan FROM: the combination itself
        for combo in combos:
            for node, row in zip(scans, combo):
                bindings[node.key] = Binding(node.colmap, row)
            if rest:
                vector[:split] = combo
                matches = self._join(executor, env, rest, 0, vector, tables)
            for _ in matches:
                if _all_true(residual, env):
                    yield env
        bindings.clear()

    def _join(
        self, executor: Executor, env: Env, levels: list, depth: int,
        vector: list, tables: list,
    ) -> Iterator[bool]:
        """Bind ``levels[depth:]``; yields once per combination that
        passes every level's filters, True when the batch kernels
        already decided the whole WHERE for it."""
        if depth == len(levels):
            yield False
            return
        level = levels[depth]
        node = level.node
        if not isinstance(node, _Scan):
            bound = 0
            for _ in node.bind(executor, env):
                bound += 1
                yield from self._join(executor, env, levels, depth + 1, vector, tables)
            level.rows_in += bound
            level.rows_out += bound
            return
        table = tables[level.pos] = node._table(executor, env)
        rows, settled = level.candidates(executor, table, vector, env)
        settled = settled and self.single_scan
        pos = level.pos
        filters = () if settled else level.filters
        key, colmap = node.key, node.colmap
        bindings = env.bindings
        last = depth + 1 == len(levels)
        passed = 0
        for row in rows:
            vector[pos] = row
            for check in filters:
                if not check(vector):
                    break
            else:
                passed += 1
                bindings[key] = Binding(colmap, row)
                if last:
                    yield settled
                else:
                    yield from self._join(
                        executor, env, levels, depth + 1, vector, tables
                    )
        bindings.pop(key, None)
        level.rows_in += len(rows)
        level.rows_out += passed
        if passed < len(rows):
            executor.db.obs.inc("engine.join.level_rejects", len(rows) - passed)


class SelectPlan(_FromWhere):
    __slots__ = ("columns", "grouped", "group_cs", "having_c", "item_plans",
                 "order_entries", "distinct")

    def __init__(
        self,
        sources: list,
        conjuncts: list,
        outer_cs: list,
        columns: list,
        grouped: bool,
        group_cs: Optional[list],
        having_c: Optional[Callable],
        item_plans: list,
        order_entries: list,
        distinct: bool,
    ) -> None:
        super().__init__(sources, conjuncts, outer_cs)
        self.columns = columns
        self.grouped = grouped
        self.group_cs = group_cs
        self.having_c = having_c
        self.item_plans = item_plans
        self.order_entries = order_entries
        self.distinct = distinct

    def run(self, executor: Executor, env: Optional[Env], apply_order: bool) -> ResultSet:
        base_env = env if env is not None else Env()
        # validate every source before producing (or consuming) any rows:
        # an invalidation discovered mid-run would re-execute side effects
        # on the re-planned run
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
                keys.append(self._order_key(order, row, group, base_env))
        if order:
            paired = sorted(zip(keys, range(len(rows)), rows), key=lambda p: p[:2])
            rows = [row for _, _, row in paired]
        if self.distinct:
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
        scan.validate(executor, base_env)
        key, colmap = scan.key, scan.colmap
        rows = [
            row_env.bindings[key].row
            for row_env in self._filtered_envs(executor, base_env)
        ]
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
    scan = _build_leaf(executor, source, env, where, [source])
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
