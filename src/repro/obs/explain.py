"""``EXPLAIN [ANALYZE]`` rendering for the stratum and the engine.

``EXPLAIN <stmt>`` answers *what would run*: the strategy the §VII-F
heuristic picks (and which rule fired), the resolved temporal context,
the constant-period count, the conventional SQL the statement
transforms into, the routine clones it needs, and the engine's bound
plan — all without executing the statement.  It decides nothing
itself: a temporal EXPLAIN is a rendering of the
:class:`~repro.temporal.stratum.PreparedStatement` that
``TemporalStratum.prepare`` returns, the record execution runs, so the
``transformed SQL:`` block is the statement the engine receives and a
statement execution refuses is refused here with the same error.

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

    # what a wire client receives (``protocol.encode_result``)
    __str__ = text

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
    from repro.temporal import seqset

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
    if isinstance(plan, seqset.IntervalJoin):
        levels = "".join(
            f" [hash: {' AND '.join(key)}]" if key else " [nested: no equi-key]"
            for key in plan.keys
        )
        filters = f" filters: {plan.filters}" if plan.filters else ""
        lines = [
            pad + f"IntervalJoin ({len(plan.inputs)} inputs){levels}{filters}"
            f" residual: {plan.residual_conjuncts}"
            + (" [distinct per period]" if plan.distinct else "")
        ]
        for aligned in plan.inputs:
            lines.extend(describe_plan(aligned, depth + 1))
        return lines
    if isinstance(plan, seqset.TemporalAlign):
        alias = f" AS {plan.alias}" if plan.alias != plan.name.lower() else ""
        if plan.temporal:
            begin_column, end_column = plan.pair
            head = f"TemporalAlign {plan.name}{alias} ({begin_column}/{end_column})"
        else:
            head = f"TemporalAlign {plan.name}{alias} (non-temporal: every period)"
        return [pad + head + (f" filters: {plan.filters}" if plan.filters else "")]
    return [pad + type(plan).__name__]


def _describe_pipeline(plan: Any, depth: int, since: Optional[dict]) -> list[str]:
    """The FROM/WHERE half of a SELECT, UPDATE or DELETE plan: one line
    per join level, then the residual count."""
    from repro.sqlengine import planner

    pad = "  " * depth
    lines = []
    pipeline = plan.pipeline
    if pipeline.reordered:
        order = ", ".join(
            leaf.key for level in pipeline.levels for leaf in planner._leaves(level.node)
        )
        lines.append(pad + f"  join order: {order} (emitted in FROM order)")
    for level in pipeline.levels:
        # the residual runs on the combinations the last level completes
        residual = bool(pipeline.residual) and level is pipeline.levels[-1]
        lines.extend(_describe_level(level, depth + 1, residual, since))
    if plan.conjuncts:
        lines.append(pad + f"  residual: {len(pipeline.residual)}")
    return lines


def _describe_level(
    level: Any, depth: int, residual: bool, since: Optional[dict]
) -> list[str]:
    """One join level: access path and the period bounds it decides, how
    the conjuncts still checked per row here are evaluated (``filters``
    counts them), measured rows."""
    from repro.sqlengine import planner

    node = level.node
    if not isinstance(node, planner._Scan):
        lines = _describe_source(node, depth)
        lines[0] += _rows_measured(level, since)
        return lines
    alias = f" AS {node.alias}" if node.key != node.name.lower() else ""
    kind, key_sql = level.access
    line = f"{kind} {node.name}{alias}"
    if key_sql:
        line += f" on {key_sql}"
    period = level.period
    if period is not None:
        line += (
            f" ({period.begin_name}/{period.end_name}): {_period_terms(period)}"
        )
    if kind != "HashProbe" and (level.filters or residual):
        line += " (row-at-a-time filter)"
    if level.filters:
        line += f" filters: {len(level.filters)}"
    return ["  " * depth + line + _rows_measured(level, since)]


def _rows_measured(level: Any, since: Optional[dict]) -> str:
    """`` [rows in: n, out: m]`` since the ``since`` snapshot (EXPLAIN
    ANALYZE), else nothing."""
    if since is None:
        return ""
    rows_in, rows_out = since.get(level, (0, 0))
    return f" [rows in: {level.rows_in - rows_in}, out: {level.rows_out - rows_out}]"


def _period_terms(period: Any) -> str:
    """What a level's access path decides about its period, in words:
    ``alive at p`` (a stab), ``overlapping [b, e)``, ``begin in [x, y)``
    (a begin range), any other bound as its comparison."""
    begin, end = period.begin_name, period.end_name
    lowers, uppers, ends = (
        [(operand.to_sql(), offset == 0)
         for side, _, _, offset, operand in period.bounds if side == wanted]
        for wanted in range(3)
    )
    terms = []
    for upper in list(uppers):
        if upper[1] and (upper[0], False) in ends:
            uppers.remove(upper)
            ends.remove((upper[0], False))
            terms.append(f"alive at {upper[0]}")
    for upper, lower in list(zip(
        [u for u in uppers if not u[1]], [e for e in ends if not e[1]]
    )):
        uppers.remove(upper)
        ends.remove(lower)
        terms.append(f"overlapping [{lower[0]}, {upper[0]})")
    for lower, upper in list(zip(lowers, uppers)):
        lowers.remove(lower)
        uppers.remove(upper)
        terms.append(
            f"{begin} in {'[' if lower[1] else '('}{lower[0]},"
            f" {upper[0]}{']' if upper[1] else ')'}"
        )
    for column, bounds, inclusive_op, strict_op in (
        (begin, lowers, ">=", ">"), (begin, uppers, "<=", "<"), (end, ends, ">=", ">"),
    ):
        terms.extend(
            f"{column} {inclusive_op if inclusive else strict_op} {text}"
            for text, inclusive in bounds
        )
    return ", ".join(terms)


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
    if isinstance(source, planner._Query):
        return [pad + (f"View {source.name}" if source.name else f"Subquery AS {source.key}")]
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
    hit, plan = db.plan_cache.fetch(stmt, db.catalog)
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
    analyze: bool,
    strategy: Any,
) -> ExplainResult:
    """EXPLAIN for a Temporal SQL/PSM statement through the stratum."""
    prepared = stratum.prepare(stmt, strategy)
    render = _render_unsliced if prepared.context is None else _render_sequenced
    sql = stmt.to_sql()
    lines = [f"statement: {sql}"] + render(stratum, prepared)
    if not analyze:
        return ExplainResult(lines)
    # executed by its text, as a client submits it: the statement cache
    # serves a text executed before (under this strategy)
    hits = stratum.db.obs.value("stratum.statement_cache.hits")
    result, report = _run_analyzed(stratum.db, lambda: stratum.execute(sql, strategy))
    served = stratum.db.obs.value("stratum.statement_cache.hits") != hits
    report.insert(2, f"  statement cache: {'hit' if served else 'miss'}")
    lines.extend(report)
    return ExplainResult(lines, result=result)


def _transformed_lines(db: "Database", found: Any, plan: bool = True) -> list[str]:
    """A candidate as the engine receives it: the routine clones it
    installs, its SQL, the plan the engine binds for it."""
    lines = []
    if found.clones:
        lines.append(
            "routine clones: " + ", ".join(sorted(r.name for r in found.clones))
        )
    lines.append("transformed SQL:")
    lines.extend("  " + line for line in found.statement.to_sql().splitlines())
    if plan:
        lines.extend(_engine_plan_lines(db, found.statement))
    return lines


def _match_lines(db: "Database", prepared: Any) -> list[str]:
    """The one statement a temporal modification runs — an INSERT that
    stamps its rows, the match statement an UPDATE/DELETE finds its
    versions with; its ``taupsm_period`` bounds are read per execution:
    ``now``, the clock or the context — and the engine plan bound for it."""
    matcher = prepared.candidate.statement
    verb = "insert" if isinstance(matcher, ast.Insert) else "match"
    lines = [f"  {verb}: {matcher.to_sql()}"]
    lines.extend("  " + line for line in _engine_plan_lines(db, matcher))
    return lines


def _render_unsliced(stratum: "TemporalStratum", prepared: Any) -> list[str]:
    """Conventional, current and nonsequenced statements: no context, no
    strategy."""
    db, stmt = stratum.db, prepared.statement
    if prepared.semantics == "conventional":
        return [
            "semantics: conventional (no temporal tables reached)"
        ] + _engine_plan_lines(db, stmt)
    if prepared.semantics == "nonsequenced":
        return [
            f"semantics: nonsequenced {prepared.dimensions[0]} time"
            " (timestamps exposed raw)"
        ] + _transformed_lines(db, prepared.candidate)
    lines = [
        "semantics: temporal upward compatibility (current) on "
        + ", ".join(f"{dimension} time" for dimension in prepared.dimensions)
    ]
    if prepared.semantics != "modification":
        return lines + _transformed_lines(db, prepared.candidate)
    # no single statement does this: the stratum finds the versions
    # through the engine's match plan and runs the steps itself
    # (modifications.execute_current_modification)
    point, fresh = (
        ("the clock", "at the clock")
        if prepared.registry is stratum.tt_registry
        else ("CURRENT_DATE", "today")
    )
    lines.append("plan: executed by the stratum")
    lines.extend(_match_lines(db, prepared))
    if isinstance(stmt, ast.Insert):
        lines.append(f"  period: each row recorded over [{point}, forever)")
        return lines
    end_column = prepared.registry.get(stmt.table).end_column
    fate = "overwritten in place" if isinstance(stmt, ast.Update) else "removed"
    lines.append(
        f"  close: {end_column} := {point} on each match"
        f" (a version that began {fresh} is {fate})"
    )
    if isinstance(stmt, ast.Update):
        assignments = ", ".join(
            f"{column} = {expr.to_sql()}" for column, expr in stmt.assignments
        )
        lines.append(
            f"  re-insert: the match with {assignments} over"
            f" [{point}, forever)"
        )
    return lines


def _render_sequenced(stratum: "TemporalStratum", prepared: Any) -> list[str]:
    from repro.sqlengine.values import Date
    from repro.temporal.constant_periods import compute_constant_periods
    from repro.temporal.stratum import SlicingStrategy

    db, registry, context = stratum.db, prepared.registry, prepared.context
    lines = [
        f"semantics: sequenced {prepared.dimensions[0]} time",
        f"context: [{Date(context.begin).to_iso()}, {Date(context.end).to_iso()})"
        f" ({context.duration} days)",
    ]
    if prepared.semantics == "modification":
        lines.append(
            "plan: sequenced modification (paper §VI close/split/reinsert)"
        )
        return lines + _match_lines(db, prepared)
    found = prepared.candidate
    tables = found.temporal_tables
    lines.append(f"strategy: {prepared.choice.describe()}")
    lines.append(
        f"temporal tables: {', '.join(tables) if tables else '(none)'}"
    )
    indexed = [
        name
        for name in tables
        if (
            registry.get(name).begin_column.lower(),
            registry.get(name).end_column.lower(),
        ) in db.catalog.get_table(name).interval_pairs
    ]
    if indexed:
        lines.append(f"interval index: {', '.join(indexed)}")
    if prepared.fallback is not None:
        lines.append(f"seqset: fallback to max ({prepared.fallback})")
    slices = len(compute_constant_periods(db, tables, registry, context))
    if prepared.strategy is SlicingStrategy.PERST:
        if found.cp_requirements:
            reqs = ", ".join(
                f"{cp} ({', '.join(tabs)})"
                for cp, tabs in sorted(found.cp_requirements.items())
            )
            lines.append(
                f"constant periods: {slices}; per-statement loops over: {reqs}"
            )
            lines.extend(
                f"loop periods in {routine.name}: {_loop_periods(node.split)}"
                for routine in found.clones
                for node in ast.walk(routine.definition)
                if isinstance(node, ast.ForStatement) and node.split is not None
            )
        else:
            lines.append(
                "constant periods: not needed (algebraic fragment,"
                " single data pass)"
            )
        return lines + _transformed_lines(db, found)
    (cp_table,) = found.cp_requirements
    how = (
        "one evaluation per period" if found.plan is None
        else "aligned in one set-oriented pass"
    )
    lines.append(f"constant periods: {slices} into {cp_table} ({how})")
    if found.plan is not None:
        lines.append("seqset plan:")
        lines.extend("  " + line for line in describe_plan(found.plan.root))
    return lines + _transformed_lines(db, found, plan=found.plan is None)


def _loop_periods(split: ast.PeriodSplit) -> str:
    """What one PERST per-period loop's periods come from."""
    if split.unmerged is not None:
        return f"every constant period (unmerged: {split.unmerged})"
    return "constant periods merged but at the bounds of " + (
        ", ".join(split.sources) or "the evaluation period"
    )


# ---------------------------------------------------------------------------
# ANALYZE
# ---------------------------------------------------------------------------

# (label, counter — or a family, named by its prefix) printed when it moved
_ANALYZE_COUNTERS = (
    ("plans compiled", "engine.plans_compiled"),
    ("plan cache hits", "engine.plan_cache.hits"),
    ("transforms", "stratum.transforms"),
    ("transform cache hits", "stratum.transform_cache.hits"),
    ("rows scanned", "engine.rows_scanned"),
    ("rows written", "engine.rows_written."),
    ("groups formed", "engine.group.groups"),
)
# faults the run absorbed (a handler, a retry) must be visible, not silent
_ANALYZE_EVENTS = (
    ("watchdog cancellations (handled)", "resilience.cancellations"),
    ("wal transient-fault retries", "wal.retries"),
)


def _moved(moved: dict, name: str) -> int:
    """A counter's movement, or a family's (a name ending in a dot)."""
    if name.endswith("."):
        return sum(_family(moved, name).values())
    return moved.get(name, 0)


def _moved_lines(moved: dict, counters: tuple) -> list[str]:
    """``label: n`` for each of ``counters`` that moved."""
    deltas = [(label, _moved(moved, name)) for label, name in counters]
    return [f"  {label}: {delta}" for label, delta in deltas if delta]


def _family(moved: dict, prefix: str) -> dict:
    """A family's moved members, keyed by what follows ``prefix``."""
    return {
        key[len(prefix):]: value
        for key, value in moved.items() if key.startswith(prefix)
    }


def _run_analyzed(db: "Database", thunk) -> tuple[Any, list[str]]:
    """Execute ``thunk`` traced; render the measured report lines from
    what the run moved in the registry and in the plans' join levels."""
    tracer = db.tracer
    was_enabled = tracer.enabled
    tracer.enabled = True
    before = db.obs.flat()
    levels_before = _level_counts(db)
    started = time.perf_counter()
    try:
        result = thunk()
    finally:
        tracer.enabled = was_enabled
    elapsed = time.perf_counter() - started
    after = db.obs.flat()
    moved = {
        name: value - before.get(name, 0)
        for name, value in after.items() if value != before.get(name, 0)
    }
    slices = moved.get("stratum.slices", 0)
    lines = ["measured:", f"  wall time: {elapsed * 1000.0:.3f}ms"]
    if slices:
        lines.append(
            f"  slices: {slices}"
            f" (mean {elapsed / slices * 1000.0:.3f}ms/slice)"
        )
    # per routine: bodies run, calls the result memo served instead, and
    # the time spent inside its invocations (callees included) — the
    # interpreter times them only while this report's tracer is on
    stats = db.stats
    calls = _family(moved, stats.ROUTINE_CALLS)
    reuses = _family(moved, stats.ROUTINE_REUSES)
    spent = _family(moved, stats.ROUTINE_NS)
    plan_runs = _family(moved, stats.ROUTINE_PLAN_RUNS)
    plan_ns = _family(moved, stats.ROUTINE_PLAN_NS)
    run, reused = sum(calls.values()), sum(reuses.values())
    lines.append(f"  routine invocations: {run + reused} ({run} run, {reused} reused)")
    for name in sorted({*calls, *reuses}):
        lines.append(
            f"    {name}: {calls.get(name, 0)} run, {reuses.get(name, 0)} reused,"
            f" {spent.get(name, 0) / 1e6:.3f}ms inclusive"
        )
        # the plan runs of the routine's own statements, and their mean
        runs = plan_runs.get(name, 0)
        if runs:
            mean = plan_ns.get(name, 0) / runs / 1e3
            lines.append(f"      embedded plan runs: {runs} (mean {mean:.1f}µs)")
    lines.append(f"  statements executed: {moved.get('engine.statements', 0)}")
    lines.extend(_moved_lines(moved, _ANALYZE_COUNTERS))
    interval_hits = moved.get("engine.interval_index_hits", 0)
    if interval_hits:
        pruned = moved.get("engine.interval_rows_pruned", 0)
        lines.append(
            f"  interval index hits: {interval_hits} ({pruned} rows pruned)"
        )
    cp_hits = moved.get("stratum.cp.cache_hits", 0)
    if cp_hits:
        lines.append(f"  constant-period cache hits: {cp_hits}")
    built = _moved(moved, "engine.derived.builds.")
    deltas = moved.get("engine.derived.deltas", 0)
    if built or deltas:
        lines.append(
            f"  derived structures: {built} built, {deltas} carried by delta"
        )
    lines.extend(_moved_lines(moved, _ANALYZE_EVENTS))
    resilience = db.resilience
    if resilience.armed and resilience.statement_timeout is not None:
        lines.append(
            f"  resilience: armed (timeout={resilience.statement_timeout:g}s),"
            f" {resilience.checks} watchdog checks"
        )
    pipelines = _pipelines_run(db, levels_before)
    if pipelines:
        lines.append("  join pipelines (rows in / out per level):")
        lines.extend(pipelines)
    lines.append(f"  result rows: {_result_rows(result)}")
    if db.durability is not None:
        # cumulative, not moved: the store's state after the run
        lines.append(
            "  wal: generation"
            f" {db.durability.generation},"
            f" {after.get('wal.records_written', 0)} records"
            f" / {after.get('wal.bytes', 0)} bytes written,"
            f" {after.get('wal.fsyncs', 0)} fsyncs,"
            f" {after.get('checkpoint.writes', 0)} checkpoints"
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
