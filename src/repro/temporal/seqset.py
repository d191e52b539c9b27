"""Set-oriented sequenced evaluation (SEQ-SET).

MAX evaluates a sequenced query once per constant period — thousands of
engine round-trips on a long context.  Following Dignös/Glavic/Böhlen
(*Snapshot Semantics for Temporal Multiset Relations*), a routine-free
sequenced SELECT can instead be compiled once into a single set-oriented
plan over the same constant-period grid:

* **TemporalAlign** — each FROM table's rows are mapped onto the grid in
  one pass: a row valid over ``[b, e)`` is alive in exactly the periods
  whose begin point ``pb`` satisfies ``b <= pb < e`` (MAX's stab
  predicate), which over the sorted period begins is the contiguous
  index range ``[bisect_left(begins, b), bisect_left(begins, e))``.
  Candidate rows come from the table's :class:`IntervalIndex` overlap
  probe against the temporal context (NULL-bounded rows drop out by the
  index's documented contract, exactly as a NULL comparison drops them
  under MAX), and single-table conjuncts that have batch kernels
  (:class:`repro.sqlengine.exprcompile.BatchFilter`, reading the rows)
  are applied **once** over the candidate set instead of once per
  period.
* **IntervalJoin** — an interval hash join over the aligned runs.  Each
  candidate stays **one** ``(row, lo, hi)`` run on the period grid;
  every ``a.col = b.col`` conjunct between two FROM sources is lifted
  out of the WHERE clause into the later source's join key (composite
  when several bind it), and that source's runs are hashed once per
  execution under the same ``sort_key`` normalisation
  ``Table.hash_index`` uses (NULL keys excluded).  Outer runs are walked
  in ascending position, probed, and the period ranges intersected as
  ``[max(lo), min(hi))``; a source with no equi-key is the same code
  under the single key ``()``.  Conjuncts that are neither kernels nor
  keys form one compiled residual, evaluated with the projection once
  per matched combination — per period only when they read the ``cp``
  binding (a point-transformed nested subquery).

Matched combinations are appended to per-period output lists that are
concatenated period-major at the end, so rows come out in MAX's
nested-loop order (period-major, FROM order, positions ascending) and
results are row-identical to MAX, including DISTINCT (first occurrence
per period) and column naming.  Work is O(candidates + matched
combinations × periods each is alive) — the output size — where MAX
pays one engine round-trip per period.

Coverage is deliberately conservative: any statement shape outside the
proven-identical fragment raises :class:`SeqSetUnsupportedError` at
compile time (and :class:`SeqSetRuntimeFallback` when a batch kernel
declines at run time), and the stratum falls back to MAX — the
fallback reproduces MAX's results *and errors* exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.engine import Database
from repro.sqlengine.executor import (
    Binding,
    Env,
    _contains_aggregate,
    _split_conjuncts,
)
from repro.sqlengine.exprcompile import BatchFilter, compile_expression
from repro.sqlengine.storage import _column_kind
from repro.sqlengine.values import Null, sort_key, truth
from repro.temporal import analysis
from repro.temporal.errors import TemporalError
from repro.temporal.period import Period
from repro.temporal.pointwise import add_point_conditions
from repro.temporal.schema import TemporalRegistry
from repro.temporal.transform_util import and_all, clone, unique_name


class TemporalAlign:
    """SEQ-SET plan node: one FROM table's rows aligned onto the
    constant-period grid in a single pass (interval-index overlap probe
    against the temporal context, single-table batch kernels, then
    a bisect of each row's period onto the sorted period begins).

    EXPLAIN renders the access path alongside the engine's scan nodes.
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

CP_COLMAP = {"begin_time": 0, "end_time": 1}


class SeqSetUnsupportedError(TemporalError):
    """The statement shape is outside the SEQ-SET fragment."""


class SeqSetRuntimeFallback(Exception):
    """A batch kernel declined this execution (a constant of the wrong
    type or NaN, a changed table); re-run the statement under MAX."""


class _AlignedSource:
    """One FROM table's compiled alignment state."""

    __slots__ = (
        "name", "binding", "alias", "colmap", "temporal",
        "begin_index", "end_index", "filter", "keys", "key_sql",
    )

    def __init__(self, name: str, binding: str, table) -> None:
        self.name = name
        self.binding = binding  # original spelling, for kernel compilation
        self.alias = binding.lower()
        self.colmap: dict[str, int] = {}
        self.temporal = False
        self.begin_index: Optional[int] = None
        self.end_index: Optional[int] = None
        self.filter = BatchFilter(table)
        # equi-join key parts binding this source to earlier FROM
        # sources: (own column, earlier source index, its column), and
        # the conjuncts they were lifted from (for EXPLAIN)
        self.keys: list[tuple[int, int, int]] = []
        self.key_sql: list[str] = []


class SeqSetPlan:
    """A compiled set-oriented plan for one sequenced SELECT."""

    __slots__ = (
        "select", "cp_alias", "sources", "residual_c", "residual_count",
        "projections", "columns", "distinct", "reads_cp", "root",
    )

    def __init__(self) -> None:
        self.select: Optional[ast.Select] = None
        self.cp_alias = "cp"
        self.sources: list[_AlignedSource] = []
        self.residual_c = None
        self.residual_count = 0
        self.projections: list[tuple] = []
        self.columns: list[str] = []
        self.distinct = False
        self.reads_cp = False
        self.root: Optional[IntervalJoin] = None


def _unsupported(reason: str) -> SeqSetUnsupportedError:
    return SeqSetUnsupportedError(reason)


def _collect_taken_names(stmt: ast.Select) -> set[str]:
    """Every alias or qualifier the statement uses (lowercased), so the
    synthetic cp binding cannot capture or shadow any of them."""
    taken: set[str] = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.TableRef):
            taken.add(node.binding.lower())
            taken.add(node.name.lower())
        elif isinstance(node, (ast.SubqueryRef, ast.TableFunctionRef)):
            taken.add(node.alias.lower())
        elif isinstance(node, ast.Name) and node.qualifier is not None:
            taken.add(node.qualifier.lower())
    return taken


def compile_seqset(
    db: Database,
    registry: TemporalRegistry,
    stmt: ast.Statement,
    other_registry: Optional[TemporalRegistry] = None,
) -> SeqSetPlan:
    """Compile a sequenced SELECT into a :class:`SeqSetPlan`, or raise
    :class:`SeqSetUnsupportedError` naming the first uncovered feature."""
    if not isinstance(stmt, ast.Select):
        raise _unsupported(
            f"sequenced {type(stmt).__name__} has no set-oriented form"
        )
    if stmt.set_op:
        raise _unsupported(f"set operation ({stmt.set_op})")
    if stmt.group_by or stmt.having:
        raise _unsupported("grouping (MAX groups per constant period)")
    if stmt.order_by:
        raise _unsupported("ORDER BY")
    if stmt.limit is not None:
        raise _unsupported("LIMIT")
    if not stmt.from_items:
        raise _unsupported("no FROM clause")
    for item in stmt.items:
        if item.is_star:
            raise _unsupported("star projection")
        if _contains_aggregate(item.expr):
            raise _unsupported(
                "aggregate projection (MAX aggregates per constant period)"
            )
    routines = db.catalog.reach(stmt).routines
    if routines:
        raise _unsupported(
            "invokes routine(s) " + ", ".join(sorted(routines))
        )
    if other_registry is not None and analysis.reads_temporal(
        stmt, db.catalog, other_registry
    ):
        raise _unsupported(
            "reads temporal tables along the other time dimension"
        )
    for from_item in stmt.from_items:
        if not isinstance(from_item, ast.TableRef):
            raise _unsupported(
                f"FROM source {type(from_item).__name__}"
            )
        if db.catalog.has_view(from_item.name):
            raise _unsupported(f"view {from_item.name} in FROM")
        if not db.catalog.has_table(from_item.name):
            raise _unsupported(f"unknown table {from_item.name}")

    # the transformed statement: modifier stripped, nested subqueries
    # point-transformed against the synthetic cp binding (the root
    # select's overlap predicates are replaced by the alignment itself)
    select = clone(stmt)
    select.modifier = None
    cp_alias = unique_name("cp", _collect_taken_names(select))
    point = ast.Name(qualifier=cp_alias, name="begin_time")
    add_point_conditions(select, point, registry, skip=(select,))

    executor = db.executor
    plan = SeqSetPlan()
    plan.select = select
    plan.cp_alias = cp_alias
    plan.distinct = bool(select.distinct)

    layout: dict = {}
    tables = []
    for from_item in select.from_items:
        table = db.catalog.get_table(from_item.name)
        source = _AlignedSource(table.name, from_item.binding, table)
        if source.alias in layout:
            raise _unsupported(f"duplicate FROM alias {source.alias}")
        source.colmap = {
            c.lower(): i for i, c in enumerate(table.column_names)
        }
        layout[source.alias] = source.colmap
        info = registry.get(from_item.name)
        if info is not None:
            if not (
                table.has_column(info.begin_column)
                and table.has_column(info.end_column)
            ):
                raise _unsupported(
                    f"{table.name} is missing its period columns"
                )
            source.temporal = True
            source.begin_index = table.column_index(info.begin_column)
            source.end_index = table.column_index(info.end_column)
        plan.sources.append(source)
        tables.append(table)
    if cp_alias in layout:  # pragma: no cover - unique_name prevents this
        raise _unsupported("cp alias collision")
    layout_with_cp = dict(layout)
    layout_with_cp[cp_alias] = CP_COLMAP

    def slot_of(expr: ast.Expression) -> Optional[tuple[int, int]]:
        """(source index, column index) when ``expr`` is a plain column
        reference to one FROM source."""
        for index, (source, table) in enumerate(zip(plan.sources, tables)):
            column = executor._column_of(
                expr, table, source.binding, select.from_items
            )
            if column is not None:
                return index, column
        return None

    # conjunct classification: a conjunct with a batch kernel on one
    # source is applied once over that source's aligned candidates; an
    # equality between plain columns of two sources becomes a hash-join
    # key part of the later one; the rest become one compiled residual
    # predicate per matched combination
    residual: list[ast.Expression] = []
    for conjunct in _split_conjuncts(select.where):
        if not any(
            source.filter.add(
                executor, table, source.binding, conjunct, select.from_items
            )
            for source, table in zip(plan.sources, tables)
        ) and not _lift_join_key(conjunct, slot_of, plan.sources, tables):
            residual.append(conjunct)
    residual_expr = and_all(residual)
    if residual_expr is not None:
        plan.residual_c = compile_expression(
            executor, residual_expr, layout_with_cp
        )
        plan.residual_count = len(residual)

    evaluated = list(residual)
    for item in select.items:
        slot = slot_of(item.expr)
        if slot is not None:
            plan.projections.append(("slot",) + slot)
        else:
            compiled = compile_expression(executor, item.expr, layout_with_cp)
            plan.projections.append(("closure", compiled, None))
            evaluated.append(item.expr)
    plan.reads_cp = any(
        isinstance(node, ast.Name)
        and node.qualifier is not None
        and node.qualifier.lower() == cp_alias
        for expr in evaluated
        for node in ast.walk(expr)
    )
    plan.columns = executor._output_columns(select, Env())
    plan.root = IntervalJoin(
        inputs=[
            TemporalAlign(
                name=source.name,
                alias=source.alias,
                pair=(
                    (
                        tables[i].column_names[source.begin_index],
                        tables[i].column_names[source.end_index],
                    )
                    if source.temporal
                    else None
                ),
                kernel_count=len(source.filter.kernels),
                temporal=source.temporal,
            )
            for i, source in enumerate(plan.sources)
        ],
        keys=[source.key_sql for source in plan.sources[1:]],
        residual_conjuncts=plan.residual_count,
        distinct=plan.distinct,
    )
    return plan


def _lift_join_key(conjunct, slot_of, sources, tables) -> bool:
    """Turn ``a.col = b.col`` (either orientation) between two FROM
    sources into a key part of the later one.  Only column pairs whose
    ``sort_key``s are equal exactly when the engine's ``=`` is true are
    lifted — one value class on both sides (values are coerced to the
    declared type on assignment), where ``=`` cannot raise; anything
    else stays in the residual."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return False
    left, right = slot_of(conjunct.left), slot_of(conjunct.right)
    if left is None or right is None or left[0] == right[0]:
        return False
    kinds = {_column_kind(tables[i].columns[c].type) for i, c in (left, right)}
    if not (kinds <= {"int", "float"} or kinds in ({"date"}, {"str"})):
        return False
    (outer, outer_column), (inner, inner_column) = sorted((left, right))
    sources[inner].keys.append((inner_column, outer, outer_column))
    sources[inner].key_sql.append(conjunct.to_sql())
    return True


def execute_seqset(
    db: Database,
    plan: SeqSetPlan,
    context: Period,
    cp_table_name: str,
) -> tuple[list[str], list[list[Any]]]:
    """Run a compiled plan against the materialized constant periods.

    Returns ``(columns, rows)`` with the period columns appended —
    row-identical to what MAX's transformed query would produce.
    """
    periods = db.catalog.get_table(cp_table_name).rows
    period_count = len(periods)
    period_begins = [row[0].ordinal for row in periods]
    resilience = db.resilience
    obs = db.obs

    env = Env()
    cp_row: list[Any] = [None, None]
    env.bindings[plan.cp_alias] = Binding(CP_COLMAP, cp_row)

    run_lists: list[list[tuple]] = []
    bindings: list[Binding] = []
    for source in plan.sources:
        table = db.read_table(source.name)
        rows = table.rows
        if source.temporal:
            begin_index, end_index = source.begin_index, source.end_index
            index = table.interval_index(begin_index, end_index)
            positions = index.search_positions(context.end - 1, context.begin + 1)
            obs.inc("engine.interval_index_hits")
            pruned = len(rows) - len(positions)
            if pruned:
                obs.inc("engine.interval_rows_pruned", pruned)
        else:
            positions = range(len(rows))
        if source.filter.kernels:
            filtered = source.filter.apply(table, positions, env)
            if filtered is None:
                raise SeqSetRuntimeFallback(
                    f"a filter kernel declined on {source.name}"
                )
            obs.inc("engine.vectorized_batches")
            pruned = len(positions) - len(filtered)
            if pruned:
                obs.inc("engine.vectorized_rows_pruned", pruned)
            positions = filtered
        obs.inc("engine.rows_scanned", len(positions))
        # one (row, lo, hi) run per candidate, positions ascending: the
        # row is alive in periods [lo, hi)
        if source.temporal:
            runs = []
            for position in positions:
                row = rows[position]
                lo = bisect_left(period_begins, row[begin_index].ordinal)
                hi = bisect_left(period_begins, row[end_index].ordinal)
                if lo < hi:
                    runs.append((row, lo, hi))
        else:
            # a non-temporal table is alive in every period (MAX cross
            # joins it with the cp table unconditioned)
            runs = [(rows[position], 0, period_count) for position in positions]
        binding = Binding(source.colmap, ())
        env.bindings[source.alias] = binding
        run_lists.append(runs)
        bindings.append(binding)

    projections = plan.projections
    residual_c = plan.residual_c
    depth = len(plan.sources)
    # build side: one dict per inner source and execution, keyed like
    # Table.hash_index (sort_key normalisation, NULL keys excluded); a
    # source without an equi-key hashes every run under the key ()
    hashed: list[Optional[dict]] = [None]
    for source, runs in zip(plan.sources[1:], run_lists[1:]):
        own_columns = [column for column, _, _ in source.keys]
        index: dict = {}
        for run in runs:
            values = [run[0][column] for column in own_columns]
            if Null not in values:
                index.setdefault(
                    tuple([sort_key(v) for v in values]), []
                ).append(run)
        hashed.append(index)
    probe_sides = [
        [(bindings[outer], column) for _, outer, column in source.keys]
        for source in plan.sources
    ]
    reads_cp = plan.reads_cp
    # DISTINCT dedupes within a period only: under MAX the appended
    # period columns make rows from different periods distinct
    seen: Optional[set] = set() if plan.distinct else None
    per_period: list[list] = [[] for _ in range(period_count)]
    probes = matches = 0

    def join(level: int, lo: int, hi: int) -> None:
        """Extend the combination bound at levels < ``level``, alive in
        periods [lo, hi), by every matching run of ``level``; emit it
        at full depth."""
        nonlocal probes, matches
        if level < depth:
            values = [
                binding.row[column] for binding, column in probe_sides[level]
            ]
            if Null in values:
                return
            probes += 1
            binding = bindings[level]
            for row, run_lo, run_hi in hashed[level].get(
                tuple([sort_key(v) for v in values]), ()
            ):
                if run_lo < lo:
                    run_lo = lo
                if run_hi > hi:
                    run_hi = hi
                if run_lo < run_hi:
                    matches += 1
                    binding.row = row
                    join(level + 1, run_lo, run_hi)
            return
        # residual and projection are evaluated once for the whole run
        # unless they read the cp binding
        values = key = None
        for k in range(lo, hi):
            if reads_cp or values is None:
                if reads_cp:
                    cp_row[:] = periods[k]
                if residual_c is not None and not truth(residual_c(env)):
                    if reads_cp:
                        continue
                    return
                values = [
                    bindings[a].row[b] if kind == "slot" else a(env)
                    for kind, a, b in projections
                ]
                if seen is not None:
                    key = tuple([sort_key(v) for v in values])
            if seen is not None:
                if (k, key) in seen:
                    continue
                seen.add((k, key))
            per_period[k].append(values + periods[k])

    outer = bindings[0]
    for row, lo, hi in run_lists[0]:
        # watchdog: every outermost run is a cancellation point
        if resilience.armed:
            resilience.check()
        outer.row = row
        join(1, lo, hi)
    obs.inc("stratum.seqset.join.probes", probes)
    obs.inc("stratum.seqset.join.matches", matches)
    obs.inc(
        "stratum.seqset.join.keyless_levels",
        sum(not source.keys for source in plan.sources[1:]),
    )
    columns = plan.columns + ["begin_time", "end_time"]
    return columns, [row for rows in per_period for row in rows]
