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
  Candidate rows come from the planner's interval probe
  (``Executor._interval_candidate_positions``), an overlap with the
  temporal context (a NULL bound fails it, exactly as a NULL comparison
  does under MAX), and the table's own total conjuncts are tested **once**
  per candidate instead of once per period.
* **IntervalJoin** — an interval hash join over the aligned runs.  Each
  candidate stays **one** ``(row, lo, hi)`` run on the period grid;
  every total ``a.col = b.col`` conjunct between two FROM sources is
  the later source's join key (composite when several bind it), and
  that source's runs are hashed once per execution under the same
  ``sort_key`` normalisation ``Table.hash_index`` uses (NULL keys
  excluded).  Outer runs are walked in ascending position, probed, and
  the period ranges intersected as ``[max(lo), min(hi))``; a source with
  no equi-key loops over all its runs.  The join is one flat loop nest
  generated per plan shape (:func:`_join_nest`) that holds no closure of
  its own, so a statement's result rows are freed by reference counting
  and no cycle keeps them alive until a full garbage collection.

The WHERE conjuncts are placed by the planner's rule (DESIGN.md §3.1,
*Total and partial conjuncts*; ``planner._analyze_conjuncts``): a total
conjunct on one source is a typed test in the ``planner._level_loop``
sieve over its candidates, a total equality between two sources a key,
any other total conjunct a test on every matched combination, and the
partial ones the residual, in WHERE order, evaluated with the
projection once per matched combination that passes the tests — per
period only when they read the ``cp`` binding (a point-transformed
nested subquery).  An
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
per period, one set per period) and column naming.  Work is
O(candidates + matched combinations × periods each is alive) — the
output size — where MAX pays one engine round-trip per period.

Coverage is deliberately conservative: any statement shape outside the
proven-identical fragment raises :class:`SeqSetUnsupportedError` at
compile time, and the stratum runs the statement under MAX instead.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from itertools import chain
from typing import Any, Callable, Optional

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
    _indented,
    _level_loop,
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
    ``i + 1`` to earlier inputs; empty = nested, every run a match
    candidate), outer runs probe in ascending position and period ranges
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
    keys, given the ones its outer operands make partial: per source a
    sieve of the typed tests over it alone, run once over its aligned
    candidates (``sieves``), a sieve of the typed tests over several
    sources run on every matched combination (``leaf``, reading the last
    source's row) and then the partial conjuncts' closures, in WHERE
    order (``residual``).  ``counts``: the typed tests per source, then
    the leaf's (EXPLAIN)."""

    __slots__ = ("sieves", "leaf", "counts", "residual")

    def __init__(self, plan: "SeqSetPlan", demoted: frozenset) -> None:
        count = len(plan.sources)
        tests: list[list] = [[] for _ in range(count + 1)]
        self.residual: list = []
        for i, conjunct in enumerate(plan.conjuncts):
            if i in plan.keyed:
                continue
            if conjunct.value_class is None or i in demoted:
                self.residual.append(conjunct.closure)
                continue
            sources = {at[0] for at in conjunct.at} - {count}
            tests[sources.pop() if len(sources) == 1 else count].append(conjunct.typed())
        self.counts = [len(t) for t in tests]
        # the leaf's sieve takes the last source's row as its row
        self.sieves = [
            _level_loop(min(pos, count - 1), tuple(t), "sieve") if t else None
            for pos, t in enumerate(tests)
        ]
        self.leaf = self.sieves.pop()


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
                filters=placement.counts[i],
                temporal=source.temporal,
            )
            for i, source in enumerate(plan.sources)
        ],
        keys=[source.key_sql for source in plan.sources[1:]],
        filters=placement.counts[-1],
        residual_conjuncts=len(placement.residual),
        distinct=plan.distinct,
    )
    return plan


@functools.lru_cache(maxsize=256)
def _join_nest(
    keys: tuple, projections: tuple, distinct: bool, reads_cp: bool,
    leaf: bool, residual: bool,
) -> Callable:
    """The interval join of one plan shape, generated from source text
    and compiled once: ``keys`` holds per source after the first its key
    parts ``(own column, earlier source, its column)`` (``()``: keyless),
    ``projections`` ``("slot", source, column)`` or ``("closure",)`` per
    select item, and the flags say what each matched combination runs.

    The code is one flat ``for`` loop per source: the inner sources are
    hashed on their keys (a single column by its ``sort_key``, NULL keys
    excluded), outer runs are walked in ascending position, each level
    probes and intersects the period ranges as ``[max(lo), min(hi))``,
    and a combination that passes the leaf sieve and (once, or per period
    when it reads ``cp``) the residual is appended to each of its periods'
    ``targets`` — ``(append, [seen,] begin, end)``, DISTINCT's ``seen``
    one set per period.  Each outermost run is a cancellation point.  It
    holds no closure, so a statement's result leaves no reference cycle
    behind.  Returns ``(probes, matches)``; its file name names the
    source count (``<seqset join 2>``)."""
    def hashed(names: list) -> str:
        """The hash key of the values ``names``: one ``sort_key``, or a tuple."""
        parts = ", ".join(f"sort_key({name})" for name in names)
        return parts if len(names) == 1 else f"({parts})"

    depth = len(keys) + 1
    bind = residual or any(p[0] != "slot" for p in projections)
    lines = ["runs0 = runs[0]"]
    closures = [j for j, p in enumerate(projections) if p[0] != "slot"]
    lines += [f"f{j} = closures[{n}]" for n, j in enumerate(closures)]
    if bind:
        lines += [f"binding{i} = bindings[{i}]" for i in range(depth)]
    for i, parts in enumerate(keys, 1):  # the build sides
        if not parts:
            lines.append(f"runs{i} = runs[{i}]")
            continue
        names = [f"x{n}" for n in range(len(parts))]
        lines += [f"index{i} = {{}}", f"for run in runs[{i}]:"] + _indented(
            [f"{name} = run[0][{own}]" for name, (own, _, _) in zip(names, parts)] + [
                "if " + " and ".join(f"{name} is not Null" for name in names) + ":",
                f"    key = {hashed(names)}",
                f"    bucket = index{i}.get(key)",
                "    if bucket is None:",
                f"        index{i}[key] = [run]",
                "    else:",
                "        bucket.append(run)",
            ]
        )
    lines.append("probes = matches = 0")

    def bound(i: int) -> list:
        """Binding level ``i``'s row: what reads it, and its projected cells."""
        return ([f"vector[{i}] = row{i}"] if leaf else []) + (
            [f"binding{i}.row = row{i}"] if bind else []
        ) + [f"v{j} = row{i}[{p[2]}]" for j, p in enumerate(projections) if p[1:2] == (i,)]

    # full depth: the combination alive in periods [lo, hi)
    last = depth - 1
    evaluated = [f"v{j} = f{j}(env)" for j in closures]
    values = ", ".join(f"v{j}" for j in range(len(projections)))
    emit = [f"append([{values}, begin, end])"]
    if distinct:
        evaluated.append(f"key = {hashed([f'v{j}' for j in range(len(projections))])}")
        emit = ["if key not in seen:", "    seen.add(key)"] + _indented(emit)
    period = f"for {'append, seen' if distinct else 'append'}, begin, end in targets[lo{last}:hi{last}]:"
    if reads_cp:
        test = ["if not _all_true(residual, env):", "    continue"] if residual else []
        block = [period] + _indented(
            ["cp_row[0] = begin", "cp_row[1] = end"] + test + evaluated + emit
        )
    else:
        block = evaluated + [period] + _indented(emit)
        if residual:
            block = ["if _all_true(residual, env):"] + _indented(block)
    if leaf:
        block = [f"if leaf(vector, (row{last},)):"] + _indented(block)
    if not keys:  # a non-temporal source's run is empty when there is no period
        block = ["if lo0 < hi0:"] + _indented(block)
    for i in range(last, 0, -1):  # wrap the levels, innermost first
        parts = keys[i - 1]
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
                f"{name} = row{outer}[{column}]" for name, (_, outer, column) in zip(names, parts)
            ] + ["if " + " and ".join(f"{name} is not Null" for name in names) + ":"] + _indented(block)
    lines += ["for row0, lo0, hi0 in runs0:"] + _indented(
        ["if resilience.armed:", "    resilience.check()"] + bound(0) + block
    )
    lines.append("return probes, matches")
    source = "\n".join(
        ["def nest(runs, targets, vector, bindings, closures, leaf, residual, env,"
         " cp_row, resilience):"] + _indented(lines)
    )
    namespace = {"Null": Null, "sort_key": sort_key, "_all_true": _all_true}
    exec(compile(source, f"<seqset join {depth}>", "exec"), namespace)
    return namespace["nest"]


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
            positions = db.executor._interval_candidate_positions(
                table, begin_index, end_index, [None, context.end - 1, context.begin + 1]
            )
            rows = [rows[position] for position in positions]
        sieve = placement.sieves[pos]
        if sieve is not None:
            kept = sieve(vector, rows)
            dropped = len(rows) - len(kept)
            if dropped:
                obs.inc("stratum.seqset.filter.rows_dropped", dropped)
            rows = kept
        obs.inc("engine.rows_scanned", len(rows))
        # one (row, lo, hi) run per candidate, positions ascending: the
        # row is alive in periods [lo, hi)
        if source.temporal:
            runs = []
            for row in rows:
                lo = bisect_left(period_begins, row[begin_index].ordinal)
                hi = bisect_left(period_begins, row[end_index].ordinal)
                if lo < hi:
                    runs.append((row, lo, hi))
        else:
            # a non-temporal table is alive in every period (MAX cross
            # joins it with the cp table unconditioned)
            runs = [(row, 0, period_count) for row in rows]
        binding = Binding(source.colmap, ())
        env.bindings[source.alias] = binding
        run_lists.append(runs)
        bindings.append(binding)

    # DISTINCT dedupes within a period only: under MAX the appended
    # period columns make rows from different periods distinct
    per_period: list[list] = [[] for _ in range(period_count)]
    targets = [
        (out.append, set(), *cells) if plan.distinct else (out.append, *cells)
        for out, cells in zip(per_period, periods)
    ]
    leaf, residual = placement.leaf, placement.residual
    join = _join_nest(
        tuple(tuple(source.keys) for source in plan.sources[1:]),
        tuple(
            (kind, a, b) if kind == "slot" else (kind,)
            for kind, a, b in plan.projections
        ),
        plan.distinct,
        plan.reads_cp,
        leaf is not None,
        bool(residual),
    )
    probes, matches = join(
        run_lists, targets, vector, bindings,
        [a for kind, a, _ in plan.projections if kind != "slot"],
        leaf, residual, env, cp_row, resilience,
    )
    obs.inc("stratum.seqset.join.probes", probes)
    obs.inc("stratum.seqset.join.matches", matches)
    obs.inc(
        "stratum.seqset.join.keyless_levels",
        sum(not source.keys for source in plan.sources[1:]),
    )
    columns = plan.columns + ["begin_time", "end_time"]
    return columns, list(chain.from_iterable(per_period))
