"""``EXPLAIN [ANALYZE]`` rendering for the stratum and the engine.

``EXPLAIN <stmt>`` answers *what would run*: the strategy the §VII-F
heuristic picks (and which rule fired), the resolved temporal context,
the constant-period count, the conventional SQL the statement
transforms into, the routine clones it needs, and the engine's bound
plan — all without executing the statement.

``EXPLAIN ANALYZE <stmt>`` executes it with tracing enabled and adds
measured facts: wall time, slice count and per-slice latency, routine
invocations, plan/transform cache traffic, rows scanned/written, and
the span tree.

Everything returns an :class:`ExplainResult`, which duck-types enough
of a result set (``columns`` / ``rows``) for the shell to print while
keeping ``text()`` for golden-file tests.
"""

from __future__ import annotations

import time
from typing import Any, Optional, TYPE_CHECKING

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.errors import SqlError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sqlengine.engine import Database
    from repro.temporal.stratum import TemporalStratum


class ExplainResult:
    """Rendered EXPLAIN output: one line per row."""

    def __init__(self, lines: list[str], result: Any = None) -> None:
        self.lines = lines
        self.columns = ["plan"]
        self.rows = [[line] for line in lines]
        # EXPLAIN ANALYZE executed the statement; its (discarded) result
        # is kept for callers that want to inspect it
        self.result = result

    def text(self) -> str:
        return "\n".join(self.lines)

    def __len__(self) -> int:
        return len(self.lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ExplainResult({len(self.lines)} lines)"


# ---------------------------------------------------------------------------
# engine plan rendering
# ---------------------------------------------------------------------------


def describe_plan(plan: Any, depth: int = 0, since: Optional[dict] = None) -> list[str]:
    """Text tree for a bound plan (SelectPlan / DML plans / sources).
    With ``since`` (a :func:`_level_counts` snapshot) each join level
    also shows the rows it took in and passed on from then to now."""
    from repro.sqlengine import planner

    pad = "  " * depth
    if isinstance(plan, planner.SelectPlan):
        shape = []
        if plan.grouped:
            shape.append("grouped")
        if plan.distinct:
            shape.append("distinct")
        if plan.order_entries:
            shape.append("ordered")
        suffix = f" [{', '.join(shape)}]" if shape else ""
        head = f"Select ({len(plan.columns)} columns{suffix})"
        return [pad + head] + _describe_pipeline(plan, depth, since)
    if isinstance(plan, planner.MatchPlan):
        verb = "Update" if isinstance(plan, planner.UpdatePlan) else "Delete"
        head = f"{verb} {plan.sources[0].name}"
        return [pad + head] + _describe_pipeline(plan, depth, since)
    if isinstance(plan, planner.InsertPlan):
        return [pad + f"Insert {plan.table} ({len(plan.value_rows or [])} rows)"
                if plan.select is None
                else pad + f"Insert {plan.table} (from query)"]
    if isinstance(plan, planner.IntervalJoin):
        levels = "".join(
            f" [hash: {' AND '.join(key)}]" if key else " [nested: no equi-key]"
            for key in plan.keys
        )
        lines = [
            pad + f"IntervalJoin ({len(plan.inputs)} inputs){levels}"
            f" residual: {plan.residual_conjuncts}"
            + (" [distinct per period]" if plan.distinct else "")
        ]
        for aligned in plan.inputs:
            lines.extend(describe_plan(aligned, depth + 1))
        return lines
    if isinstance(plan, planner.TemporalAlign):
        alias = f" AS {plan.alias}" if plan.alias != plan.name.lower() else ""
        if plan.temporal:
            begin_column, end_column = plan.pair
            head = f"TemporalAlign {plan.name}{alias} ({begin_column}/{end_column})"
        else:
            head = f"TemporalAlign {plan.name}{alias} (non-temporal: every period)"
        note = (
            f" (vectorized filter: {plan.kernel_count} kernels)"
            if plan.kernel_count
            else ""
        )
        return [pad + head + note]
    return [pad + type(plan).__name__]


def _describe_pipeline(plan: Any, depth: int, since: Optional[dict]) -> list[str]:
    """The FROM/WHERE half of a SELECT, UPDATE or DELETE plan: one line
    per join level, then the residual count."""
    pad = "  " * depth
    lines = []
    if plan.single_scan:
        lines.append(pad + "  filter: vectorized selection (evaluated in scan)")
    pipeline = plan.pipeline
    if pipeline.reordered:
        order = ", ".join(level.node.key for level in pipeline.levels)
        lines.append(pad + f"  join order: {order} (emitted in FROM order)")
    for level in pipeline.levels:
        lines.extend(_describe_level(level, depth + 1, bool(plan.conjuncts), since))
    if plan.conjuncts:
        lines.append(pad + f"  residual: {len(pipeline.residual)}")
    return lines


def _describe_level(
    level: Any, depth: int, filtered: bool, since: Optional[dict]
) -> list[str]:
    """One join level: access path, how the WHERE conjuncts placed on it
    are evaluated, measured rows."""
    from repro.sqlengine import planner

    node = level.node
    if not isinstance(node, planner._Scan):
        return _describe_source(node, depth)
    alias = f" AS {node.alias}" if node.key != node.name.lower() else ""
    kind, detail = level.access
    line = f"{kind} {node.name}{alias}{detail}"
    batch = node.batch
    if batch is not None and batch.consumes_all:
        line += f" (vectorized filter: {len(batch.kernels)} kernels)"
    elif filtered and kind != "HashProbe":
        line += " (row-at-a-time filter)"
    if level.filters:
        line += f" filters: {len(level.filters)}"
    if since is not None:
        rows_in, rows_out = since.get(level, (0, 0))
        line += f" [rows in: {level.rows_in - rows_in}, out: {level.rows_out - rows_out}]"
    return ["  " * depth + line]


def _level_counts(db: "Database") -> dict:
    """Join level → (rows in, rows out) over every cached SELECT, UPDATE
    and DELETE plan (keyed by the level itself, so an evicted plan's
    cannot be aliased)."""
    return {
        level: (level.rows_in, level.rows_out)
        for _, plan in db.plan_cache.pipeline_plans()
        for level in plan.pipeline.levels
    }


def _pipelines_run(db: "Database", since: dict) -> list[str]:
    """The cached plans whose join levels saw rows after the ``since``
    snapshot — routine bodies' statements and the stratum's match
    statements included — with the rows each level took in and passed
    on."""
    lines = []
    for stmt, plan in db.plan_cache.pipeline_plans():
        if any(
            level.rows_in != since.get(level, (0, 0))[0]
            for level in plan.pipeline.levels
        ):
            sql = stmt.to_sql()
            lines.append("    " + (sql if len(sql) <= 100 else sql[:97] + "..."))
            lines.extend(describe_plan(plan, 3, since)[1:])
    return lines


def _describe_source(source: Any, depth: int) -> list[str]:
    from repro.sqlengine import planner

    pad = "  " * depth
    if isinstance(source, planner._Scan):
        alias = f" AS {source.alias}" if source.key != source.name.lower() else ""
        return [pad + f"Scan {source.name}{alias}"]
    if isinstance(source, planner._View):
        return [pad + f"View {source.name}"]
    if isinstance(source, planner._Subquery):
        return [pad + f"Subquery AS {source.key}"]
    if isinstance(source, planner._TableFunc):
        return [pad + f"TableFunction {source.name} AS {source.key}"]
    if isinstance(source, (planner._JoinNode, planner._LeftJoinNode)):
        kind = "LeftJoin" if isinstance(source, planner._LeftJoinNode) else "Join"
        lines = [pad + kind]
        lines.extend(_describe_source(source.left, depth + 1))
        lines.extend(_describe_source(source.right, depth + 1))
        return lines
    return [pad + type(source).__name__]


def _engine_plan_lines(db: "Database", stmt: ast.Statement) -> list[str]:
    """Bind ``stmt`` through the planner (cached) and render the plan.
    A statement over objects that only exist once it executes (routine
    clones, the constant-period table) shows the plan-time error."""
    if isinstance(stmt, ast.Select) and not stmt.set_op:
        from repro.sqlengine.planner import build_select_plan as build
    elif isinstance(stmt, (ast.Update, ast.Delete)):
        from repro.sqlengine.planner import build_dml_plan as build
    else:
        return []
    hit, plan = db.plan_cache.fetch(stmt, db.catalog.schema_version)
    if not hit:
        try:
            plan = build(db.executor, stmt, None)
        except SqlError as exc:
            return ["engine plan:", f"  (bound at first execution: {exc})"]
        db.plan_cache.store(stmt, db.catalog.schema_version, plan)
    return ["engine plan:"] + ["  " + line for line in describe_plan(plan)]


# ---------------------------------------------------------------------------
# conventional (engine-level) EXPLAIN
# ---------------------------------------------------------------------------


def explain_engine_statement(
    db: "Database", stmt: ast.Statement, analyze: bool = False
) -> ExplainResult:
    """EXPLAIN for a conventional statement on a bare :class:`Database`."""
    lines = [f"statement: {stmt.to_sql()}"]
    lines.extend(_engine_plan_lines(db, stmt))
    if not analyze:
        return ExplainResult(lines)
    result, report = _run_analyzed(db, lambda: db.execute_ast(stmt))
    lines.extend(report)
    return ExplainResult(lines, result=result)


# ---------------------------------------------------------------------------
# temporal (stratum-level) EXPLAIN
# ---------------------------------------------------------------------------


def explain_statement(
    stratum: "TemporalStratum",
    stmt: ast.Statement,
    analyze: bool = False,
    strategy: Optional[Any] = None,
) -> ExplainResult:
    """EXPLAIN for a Temporal SQL/PSM statement through the stratum."""
    from repro.temporal.stratum import SlicingStrategy

    if strategy is None:
        strategy = SlicingStrategy.AUTO
    modifier = getattr(stmt, "modifier", None)
    lines = [f"statement: {stmt.to_sql()}"]
    if modifier is None:
        lines.extend(_explain_current(stratum, stmt))
    elif modifier.flavor is ast.TemporalFlavor.NONSEQUENCED:
        lines.extend(_explain_nonsequenced(stratum, stmt, modifier))
    else:
        lines.extend(_explain_sequenced(stratum, stmt, modifier, strategy))
    if not analyze:
        return ExplainResult(lines)
    db = stratum.db
    result, report = _run_analyzed(
        db, lambda: stratum.execute_ast(stmt, strategy)
    )
    lines.extend(report)
    return ExplainResult(lines, result=result)


def _explain_current(stratum: "TemporalStratum", stmt: ast.Statement) -> list[str]:
    from repro.temporal import analysis
    from repro.temporal.current import transform_current

    db = stratum.db
    touches_vt = analysis.reads_temporal(stmt, db.catalog, stratum.registry)
    touches_tt = analysis.reads_temporal(stmt, db.catalog, stratum.tt_registry)
    if not touches_vt and not touches_tt:
        lines = ["semantics: conventional (no temporal tables reached)"]
        lines.extend(_engine_plan_lines(db, stmt))
        return lines
    dims = [d for d, hit in (("valid time", touches_vt),
                             ("transaction time", touches_tt)) if hit]
    lines = [f"semantics: temporal upward compatibility (current) on {', '.join(dims)}"]
    is_vt = stratum.registry.is_temporal(getattr(stmt, "table", ""))
    is_tt = stratum.tt_registry.is_temporal(getattr(stmt, "table", ""))
    if isinstance(stmt, (ast.Update, ast.Delete)) and is_vt != is_tt:
        # no single statement does this: the stratum finds the versions
        # through the engine's match plan and runs the steps itself
        # (modifications.execute_current_modification)
        registry, restriction, point, fresh = (
            (stratum.registry, "current", "CURRENT_DATE", "today") if is_vt
            else (stratum.tt_registry, "believed", "the clock", "at the clock")
        )
        end_column = registry.get(stmt.table).end_column
        lines.append("plan: executed by the stratum")
        lines.extend(_match_lines(stratum, stmt, registry, restriction))
        if isinstance(stmt, ast.Update):
            lines.append(
                f"  close: {end_column} := {point} on each match"
                f" (a version that began {fresh} is overwritten in place)"
            )
            assignments = ", ".join(
                f"{column} = {expr.to_sql()}" for column, expr in stmt.assignments
            )
            lines.append(
                f"  re-insert: the match with {assignments} over"
                f" [{point}, forever)"
            )
        else:
            lines.append(
                f"  close: {end_column} := {point} on each match"
                f" (a version that began {fresh} is removed)"
            )
        return lines
    rendered = stmt
    if touches_vt:
        result = transform_current(stmt, db.catalog, stratum.registry)
        rendered = result.statement
        if result.routines:
            lines.append(
                "routine clones: "
                + ", ".join(sorted(r.name for r in result.routines))
            )
    lines.append("transformed SQL:")
    lines.extend("  " + line for line in rendered.to_sql().splitlines())
    lines.extend(_engine_plan_lines(db, rendered))
    return lines


def _match_lines(
    stratum: "TemporalStratum", stmt: ast.Statement, registry: Any,
    restriction: str,
) -> list[str]:
    """The match statement a temporal UPDATE/DELETE finds its versions
    with (its ``taupsm_period`` bounds are read per execution: ``now``,
    or the context), and the engine plan bound for it."""
    matcher = stratum._match_statement(stmt, registry, restriction)
    lines = [f"  match: {matcher.to_sql()}"]
    lines.extend("  " + line for line in _engine_plan_lines(stratum.db, matcher))
    return lines


def _explain_nonsequenced(
    stratum: "TemporalStratum", stmt: ast.Statement, modifier: ast.TemporalModifier
) -> list[str]:
    from repro.temporal.transform_util import clone

    plain = clone(stmt)
    plain.modifier = None
    lines = [
        f"semantics: nonsequenced {modifier.dimension.lower()} time"
        " (timestamps exposed raw)"
    ]
    lines.append("transformed SQL:")
    lines.extend("  " + line for line in plain.to_sql().splitlines())
    lines.extend(_engine_plan_lines(stratum.db, plain))
    return lines


def _explain_sequenced(
    stratum: "TemporalStratum",
    stmt: ast.Statement,
    modifier: ast.TemporalModifier,
    strategy: Any,
) -> list[str]:
    from repro.sqlengine.values import Date
    from repro.temporal import analysis
    from repro.temporal.constant_periods import compute_constant_periods
    from repro.temporal.heuristic import choose_by_cost, choose_strategy
    from repro.temporal.max_slicing import transform_query_max
    from repro.temporal.perst_slicing import PerstTransformer
    from repro.temporal.stratum import (
        MAX_CP_TABLE,
        SlicingStrategy,
        substitute_context,
    )
    from repro.temporal.transform_util import clone

    db = stratum.db
    registry = (
        stratum.tt_registry if modifier.dimension == "TRANSACTION" else stratum.registry
    )
    context = stratum._resolve_context(stmt, modifier, registry)
    lines = [
        f"semantics: sequenced {modifier.dimension.lower()} time",
        f"context: [{Date(context.begin).to_iso()}, {Date(context.end).to_iso()})"
        f" ({context.duration} days)",
    ]
    if isinstance(stmt, (ast.Insert, ast.Update, ast.Delete)):
        lines.append(
            "plan: sequenced modification (paper §VI close/split/reinsert)"
        )
        if not isinstance(stmt, ast.Insert) and registry.is_temporal(stmt.table):
            lines.extend(_match_lines(stratum, stmt, registry, "sequenced"))
        return lines
    other_registry = (
        stratum.registry if registry is stratum.tt_registry
        else stratum.tt_registry
    )
    # resolve AUTO / COST exactly the way execution would
    if strategy is SlicingStrategy.AUTO:
        choice = choose_strategy(
            stmt, db, registry, context, other_registry=other_registry
        )
        strategy = choice.strategy
        lines.append(
            f"strategy: {strategy.value}"
            f" (rule {choice.rule}: {choice.reason})"
        )
    elif strategy is SlicingStrategy.COST:
        strategy, estimate, why = choose_by_cost(
            stmt, db, registry, context, other_registry=other_registry
        )
        if estimate is None:
            lines.append(f"strategy: max (cost model; PERST inapplicable: {why})")
        else:
            lines.append(f"strategy: {strategy.value} ({estimate.describe()})")
    else:
        lines.append(f"strategy: {strategy.value} (requested)")
    tables = analysis.reachable_temporal_tables(stmt, db.catalog, registry)
    slices = len(compute_constant_periods(db, tables, registry, context))
    lines.append(
        f"temporal tables: {', '.join(tables) if tables else '(none)'}"
    )
    indexed = [
        name
        for name in tables
        if (
            (info := registry.get(name)) is not None
            and (info.begin_column.lower(), info.end_column.lower())
            in db.catalog.get_table(name).interval_pairs
        )
    ]
    if indexed:
        state = "on" if db.interval_indexing_enabled else "off"
        lines.append(f"interval index [{state}]: {', '.join(indexed)}")
    if strategy is SlicingStrategy.SEQSET:
        from repro.temporal.seqset import SeqSetUnsupportedError, compile_seqset

        try:
            seqset_plan = compile_seqset(
                db, registry, stmt, other_registry=other_registry
            )
        except SeqSetUnsupportedError as exc:
            lines.append(f"seqset: fallback to max ({exc})")
            strategy = SlicingStrategy.MAX
        else:
            lines.append(
                f"constant periods: {slices} into {MAX_CP_TABLE}"
                " (aligned in one set-oriented pass)"
            )
            lines.append("seqset plan:")
            lines.extend("  " + line for line in describe_plan(seqset_plan.root))
            lines.append("transformed SQL:")
            lines.extend(
                "  " + line
                for line in seqset_plan.select.to_sql().splitlines()
            )
            return lines
    if strategy is SlicingStrategy.MAX:
        result = transform_query_max(stmt, db.catalog, registry, MAX_CP_TABLE)
        lines.append(
            f"constant periods: {slices} into {result.cp_table}"
            f" (one evaluation per period)"
        )
        transformed = result.statement
        clones = result.routines
    else:
        transformer = PerstTransformer(db.catalog, registry)
        result = transformer.transform(stmt)
        transformed = clone(result.statement)
        substitute_context(transformed, context)
        clones = result.routines
        if result.cp_requirements:
            reqs = ", ".join(
                f"{cp} ({', '.join(tabs)})"
                for cp, tabs in sorted(result.cp_requirements.items())
            )
            lines.append(
                f"constant periods: {slices}; per-statement loops over: {reqs}"
            )
        else:
            lines.append(
                "constant periods: not needed (algebraic fragment,"
                " single data pass)"
            )
    if clones:
        lines.append(
            "routine clones: " + ", ".join(sorted(r.name for r in clones))
        )
    lines.append("transformed SQL:")
    lines.extend("  " + line for line in transformed.to_sql().splitlines())
    lines.extend(_engine_plan_lines(db, transformed))
    return lines


# ---------------------------------------------------------------------------
# ANALYZE
# ---------------------------------------------------------------------------

_ANALYZE_COUNTERS = (
    ("plans compiled", "plans_compiled"),
    ("plan cache hits", "plan_cache_hits"),
    ("transforms", "transforms"),
    ("transform cache hits", "transform_cache_hits"),
    ("rows scanned", "rows_scanned"),
    ("rows written", "rows_written"),
)


def _run_analyzed(db: "Database", thunk) -> tuple[Any, list[str]]:
    """Execute ``thunk`` traced; render the measured report lines."""
    tracer = db.tracer
    was_enabled = tracer.enabled
    tracer.enabled = True
    before = db.stats.snapshot()
    levels_before = _level_counts(db)
    slices_before = db.obs.value("stratum.slices")
    interval_hits_before = db.obs.value("engine.interval_index_hits")
    interval_pruned_before = db.obs.value("engine.interval_rows_pruned")
    cp_hits_before = db.obs.value("stratum.cp.cache_hits")
    built_before = db.obs.sum_prefix("engine.derived.builds.")
    deltas_before = db.obs.value("engine.derived.deltas")
    degradations_before = db.obs.value("resilience.degradations.vectorized")
    cancellations_before = db.obs.value("resilience.cancellations")
    budget_stops_before = db.obs.value("resilience.budget_stops")
    retries_before = db.obs.value("wal.retries")
    started = time.perf_counter()
    try:
        result = thunk()
    finally:
        tracer.enabled = was_enabled
    elapsed = time.perf_counter() - started
    after = db.stats.snapshot()
    slices = db.obs.value("stratum.slices") - slices_before
    lines = ["measured:", f"  wall time: {elapsed * 1000.0:.3f}ms"]
    if slices:
        lines.append(
            f"  slices: {slices}"
            f" (mean {elapsed / slices * 1000.0:.3f}ms/slice)"
        )
    # per routine: bodies run, and calls the result memo served instead
    routines = {
        name: (
            after["routine_calls"].get(name, 0) - before["routine_calls"].get(name, 0),
            after["routine_reuses"].get(name, 0) - before["routine_reuses"].get(name, 0),
        )
        for name in sorted({*after["routine_calls"], *after["routine_reuses"]})
    }
    run = sum(counts[0] for counts in routines.values())
    reused = sum(counts[1] for counts in routines.values())
    lines.append(f"  routine invocations: {run + reused} ({run} run, {reused} reused)")
    lines.extend(
        f"    {name}: {counts[0]} run, {counts[1]} reused"
        for name, counts in routines.items() if any(counts)
    )
    lines.append(
        f"  statements executed: {after['statements'] - before['statements']}"
    )
    for label, key in _ANALYZE_COUNTERS:
        delta = after.get(key, 0) - before.get(key, 0)
        if delta:
            lines.append(f"  {label}: {delta}")
    interval_hits = db.obs.value("engine.interval_index_hits") - interval_hits_before
    if interval_hits:
        pruned = db.obs.value("engine.interval_rows_pruned") - interval_pruned_before
        lines.append(
            f"  interval index hits: {interval_hits} ({pruned} rows pruned)"
        )
    cp_hits = db.obs.value("stratum.cp.cache_hits") - cp_hits_before
    if cp_hits:
        lines.append(f"  constant-period cache hits: {cp_hits}")
    built = db.obs.sum_prefix("engine.derived.builds.") - built_before
    deltas = db.obs.value("engine.derived.deltas") - deltas_before
    if built or deltas:
        lines.append(
            f"  derived structures: {built} built, {deltas} carried by delta"
        )
    # resilience: the governor's degradations (and any watchdog events
    # a handler absorbed) must be visible, not silent
    degradations = (
        db.obs.value("resilience.degradations.vectorized") - degradations_before
    )
    if degradations:
        lines.append(
            f"  governor degradations: {degradations}"
            " (vectorized scan -> row-at-a-time)"
        )
    cancellations = (
        db.obs.value("resilience.cancellations") - cancellations_before
    )
    if cancellations:
        lines.append(f"  watchdog cancellations (handled): {cancellations}")
    budget_stops = db.obs.value("resilience.budget_stops") - budget_stops_before
    if budget_stops:
        lines.append(f"  budget stops (handled): {budget_stops}")
    retries = db.obs.value("wal.retries") - retries_before
    if retries:
        lines.append(f"  wal transient-fault retries: {retries}")
    resilience = db.resilience
    if resilience.armed:
        budgets = []
        if resilience.statement_timeout is not None:
            budgets.append(f"timeout={resilience.statement_timeout:g}s")
        if resilience.max_rows_scanned is not None:
            budgets.append(f"max_rows_scanned={resilience.max_rows_scanned}")
        if resilience.max_undo_depth is not None:
            budgets.append(f"max_undo_depth={resilience.max_undo_depth}")
        if resilience.max_resident_bytes is not None:
            budgets.append(
                f"max_resident_bytes={resilience.max_resident_bytes}"
            )
        if budgets:
            lines.append(
                "  resilience: armed (" + ", ".join(budgets) + "),"
                f" {resilience.checks} watchdog checks"
            )
    pipelines = _pipelines_run(db, levels_before)
    if pipelines:
        lines.append("  join pipelines (rows in / out per level):")
        lines.extend(pipelines)
    lines.append(f"  result rows: {_result_rows(result)}")
    if db.durability is not None:
        state = db.durability.state()
        lines.append(
            "  wal: generation"
            f" {state['generation']},"
            f" {state['records_written']} records"
            f" / {state['bytes_written']} bytes written,"
            f" {state['fsyncs']} fsyncs,"
            f" {state['checkpoints']} checkpoints"
        )
    if tracer.last_root is not None:
        lines.append("trace:")
        lines.extend(
            "  " + line for line in tracer.last_root.render().splitlines()
        )
    return result, lines


def _result_rows(result: Any) -> int:
    if result is None:
        return 0
    if isinstance(result, int):
        return result
    if isinstance(result, list):
        return sum(_result_rows(r) for r in result)
    try:
        return len(result)
    except TypeError:
        return 0
