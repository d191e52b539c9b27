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
  under MAX), and the table's own total conjuncts are tested **once**
  per candidate instead of once per period.
* **IntervalJoin** — an interval hash join over the aligned runs.  Each
  candidate stays **one** ``(row, lo, hi)`` run on the period grid;
  every total ``a.col = b.col`` conjunct between two FROM sources is
  the later source's join key (composite when several bind it), and
  that source's runs are hashed once per execution under the same
  ``sort_key`` normalisation ``Table.hash_index`` uses (NULL keys
  excluded).  Outer runs are walked in ascending position, probed, and
  the period ranges intersected as ``[max(lo), min(hi))``; a source with
  no equi-key is the same code under the single key ``()``.

The WHERE conjuncts are placed by the planner's rule (DESIGN.md §3.1,
*Total and partial conjuncts*; ``planner._analyze_conjuncts``): a total
conjunct on one source is a ``planner._typed_filter`` test on its
candidates, a total equality between two sources a key, any other total
conjunct a test on every matched combination, and the partial ones the
residual, in WHERE order, evaluated with the projection once per
matched combination that passes the tests — per period only when they
read the ``cp`` binding (a point-transformed nested subquery).  An
outer operand (a literal) of the wrong class makes its conjunct partial
for that execution, as it does in an engine plan.  So a statement
raises iff a partial conjunct raises on a combination alive in some
period that satisfies every total conjunct: where MAX raises.  The
tests trust the declared column classes the plan was compiled against;
the stratum's transform cache drops the plan when DDL touches a table
it reads.

Matched combinations are appended to per-period output lists that are
concatenated period-major at the end, so rows come out in MAX's
nested-loop order (period-major, FROM order, positions ascending) and
results are row-identical to MAX, including DISTINCT (first occurrence
per period) and column naming.  Work is O(candidates + matched
combinations × periods each is alive) — the output size — where MAX
pays one engine round-trip per period.

Coverage is deliberately conservative: any statement shape outside the
proven-identical fragment raises :class:`SeqSetUnsupportedError` at
compile time, and the stratum runs the statement under MAX instead.
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
from repro.sqlengine.exprcompile import compile_expression
from repro.sqlengine.planner import (
    _Scan,
    _all_true,
    _analyze_conjuncts,
    _outer_checks,
    _read_outer,
)
from repro.sqlengine.values import Null, sort_key
from repro.temporal import analysis
from repro.temporal.errors import TemporalError
from repro.temporal.period import Period
from repro.temporal.pointwise import add_point_conditions
from repro.temporal.schema import TemporalRegistry
from repro.temporal.transform_util import clone, unique_name


class TemporalAlign:
    """SEQ-SET plan node: one FROM table's rows aligned onto the
    constant-period grid in a single pass (interval-index overlap probe
    against the temporal context, the table's ``filters`` typed tests,
    then a bisect of each row's period onto the sorted period begins).

    EXPLAIN renders the access path alongside the engine's scan nodes.
    """

    __slots__ = ("name", "alias", "pair", "filters", "temporal")

    def __init__(
        self,
        name: str,
        alias: str,
        pair: "tuple | None",
        filters: int,
        temporal: bool,
    ) -> None:
        self.name = name
        self.alias = alias
        self.pair = pair
        self.filters = filters
        self.temporal = temporal


class IntervalJoin:
    """SEQ-SET plan node: interval hash join of aligned inputs.  Each
    input after the first is hashed once on its equi-join key
    (``keys[i]`` lists the ``a.col = b.col`` conjuncts binding input
    ``i + 1`` to earlier inputs; empty = nested, every run under one
    key), outer runs probe in ascending position and period ranges
    intersect; output is period-major in FROM order — MAX's emission
    order — with ``filters`` typed tests and then the residual's
    conjuncts per matched combination."""

    __slots__ = ("inputs", "keys", "filters", "residual_conjuncts", "distinct")

    def __init__(
        self,
        inputs: list,
        keys: list,
        filters: int,
        residual_conjuncts: int,
        distinct: bool,
    ) -> None:
        self.inputs = inputs
        self.keys = keys
        self.filters = filters
        self.residual_conjuncts = residual_conjuncts
        self.distinct = distinct

CP_COLMAP = {"begin_time": 0, "end_time": 1}


class SeqSetUnsupportedError(TemporalError):
    """The statement shape is outside the SEQ-SET fragment."""


class _AlignedSource:
    """One FROM table's compiled alignment state."""

    __slots__ = (
        "name", "binding", "alias", "colmap", "temporal",
        "begin_index", "end_index", "keys", "key_sql",
    )

    def __init__(self, scan: _Scan) -> None:
        self.name = scan.name
        self.binding = scan.alias  # original spelling, for column lookup
        self.alias = scan.key
        self.colmap = scan.colmap
        self.temporal = False
        self.begin_index: Optional[int] = None
        self.end_index: Optional[int] = None
        # equi-join key parts binding this source to earlier FROM
        # sources: (own column, earlier source index, its column), and
        # the conjuncts they are (for EXPLAIN)
        self.keys: list[tuple[int, int, int]] = []
        self.key_sql: list[str] = []


class _Placement:
    """Where one execution evaluates the WHERE conjuncts that are not
    keys, given the ones its outer operands make partial: per source
    the typed tests run once per aligned candidate (``filters``), the
    typed tests over several sources run on every matched combination
    (``leaf``) and then the partial conjuncts' closures, in WHERE order
    (``residual``)."""

    __slots__ = ("filters", "leaf", "residual")

    def __init__(self, plan: "SeqSetPlan", demoted: frozenset) -> None:
        count = len(plan.sources)
        self.filters: list[list] = [[] for _ in range(count)]
        self.leaf: list = []
        self.residual: list = []
        for i, conjunct in enumerate(plan.conjuncts):
            if i in plan.keyed:
                continue
            if conjunct.value_class is None or i in demoted:
                self.residual.append(conjunct.closure)
                continue
            sources = {at[0] for at in conjunct.at} - {count}
            if len(sources) == 1:
                self.filters[sources.pop()].append(conjunct.test())
            else:
                self.leaf.append(conjunct.test())


class SeqSetPlan:
    """A compiled set-oriented plan for one sequenced SELECT.
    ``placements`` holds the default :class:`_Placement` (no conjunct
    demoted) and those built for executions that demote some, by the
    demotion set."""

    __slots__ = (
        "select", "cp_alias", "sources", "conjuncts", "outer_cs", "checks",
        "keyed", "placements", "projections", "columns", "distinct",
        "reads_cp", "root",
    )

    def __init__(self) -> None:
        self.select: Optional[ast.Select] = None
        self.cp_alias = "cp"
        self.sources: list[_AlignedSource] = []
        self.conjuncts: list = []
        self.outer_cs: list = []
        self.checks: list = []
        self.keyed: frozenset = frozenset()
        self.placements: dict[frozenset, _Placement] = {}
        self.projections: list[tuple] = []
        self.columns: list[str] = []
        self.distinct = False
        self.reads_cp = False
        self.root: Optional[IntervalJoin] = None

    def placement(self, demoted: frozenset) -> _Placement:
        found = self.placements.get(demoted)
        if found is None:
            found = self.placements[demoted] = _Placement(self, demoted)
        return found


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
    scans = []
    tables = []
    for from_item in select.from_items:
        table = db.catalog.get_table(from_item.name)
        scan = _Scan(table.name, from_item.binding, table)
        source = _AlignedSource(scan)
        if source.alias in layout:
            raise _unsupported(f"duplicate FROM alias {source.alias}")
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
        scans.append(scan)
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

    # the planner's analysis; a total equality between columns of two
    # sources is a key part of the later one, the rest is placed per
    # execution (_Placement)
    where = _split_conjuncts(select.where)
    plan.conjuncts, plan.outer_cs = _analyze_conjuncts(
        executor, where, scans, layout_with_cp
    )
    plan.checks = _outer_checks(plan.conjuncts)
    keyed = set()
    for i, conjunct in enumerate(plan.conjuncts):
        if conjunct.value_class is None or conjunct.op != "=" or conjunct.slots:
            continue
        (outer, outer_column), (inner, inner_column) = sorted(conjunct.at)
        if outer != inner:
            plan.sources[inner].keys.append((inner_column, outer, outer_column))
            plan.sources[inner].key_sql.append(conjunct.sql)
            keyed.add(i)
    plan.keyed = frozenset(keyed)

    evaluated = list(where)
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
    placement = plan.placement(frozenset())
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
                filters=len(placement.filters[i]),
                temporal=source.temporal,
            )
            for i, source in enumerate(plan.sources)
        ],
        keys=[source.key_sql for source in plan.sources[1:]],
        filters=len(placement.leaf),
        residual_conjuncts=len(placement.residual),
        distinct=plan.distinct,
    )
    return plan


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
    # the typed tests read the row vector: a row per source, then the
    # outer operands read once for this execution
    slots, demoted = _read_outer(plan.outer_cs, plan.checks, env)
    placement = plan.placement(demoted)
    vector: list = [None] * len(plan.sources) + [slots]

    run_lists: list[list[tuple]] = []
    bindings: list[Binding] = []
    for pos, source in enumerate(plan.sources):
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
        tests = placement.filters[pos]
        if tests:
            kept = []
            for position in positions:
                vector[pos] = rows[position]
                for check in tests:
                    if not check(vector):
                        break
                else:
                    kept.append(position)
            dropped = len(positions) - len(kept)
            if dropped:
                obs.inc("stratum.seqset.filter.rows_dropped", dropped)
            positions = kept
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
    leaf, residual = placement.leaf, placement.residual
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
                    binding.row = vector[level] = row
                    join(level + 1, run_lo, run_hi)
            return
        for check in leaf:
            if not check(vector):
                return
        # residual and projection are evaluated once for the whole run
        # unless they read the cp binding
        values = key = None
        for k in range(lo, hi):
            if reads_cp or values is None:
                if reads_cp:
                    cp_row[:] = periods[k]
                if residual and not _all_true(residual, env):
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
        outer.row = vector[0] = row
        join(1, lo, hi)
    obs.inc("stratum.seqset.join.probes", probes)
    obs.inc("stratum.seqset.join.matches", matches)
    obs.inc(
        "stratum.seqset.join.keyless_levels",
        sum(not source.keys for source in plan.sources[1:]),
    )
    columns = plan.columns + ["begin_time", "end_time"]
    return columns, [row for rows in per_period for row in rows]
