"""Constant-period computation (paper §V-A, Figure 8).

A *constant period* is a maximal period during which none of the
reachable temporal tables changes; evaluating a routine anywhere inside
one yields the same result, so sequenced evaluation only needs one call
per constant period.

Two implementations are provided:

* :func:`build_constant_period_sql` emits the paper's Figure-8 SQL
  (``ts`` union of all begin/end points, then a self-join with NOT
  EXISTS picking adjacent points).  It is quadratic and kept for
  fidelity and for cross-checking.
* :func:`materialize_constant_periods` computes the same table natively
  (sort + adjacent pairs) and bulk-loads it into the engine.  The paper
  notes "the bulk of the work is done before the query itself is
  executed" — this is that precomputation step, done in the stratum.

Both restrict the periods to the query's temporal context
``[min_time, max_time)``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.sqlengine.engine import Database
from repro.sqlengine.storage import Column, Table
from repro.sqlengine.types import SqlType
from repro.sqlengine.values import Date
from repro.temporal.period import Period, constant_periods
from repro.temporal.schema import TemporalRegistry

TS_COLUMN = "time_point"


def build_time_points_sql(
    table_names: Sequence[str], registry: TemporalRegistry, ts_name: str = "ts"
) -> str:
    """Figure 8, first statement: the union of all begin/end time points."""
    selects = []
    for name in table_names:
        info = registry.get(name)
        if info is None:
            raise ValueError(f"{name} is not a temporal table")
        selects.append(
            f"SELECT {info.begin_column} AS {TS_COLUMN} FROM {name}"
        )
        selects.append(f"SELECT {info.end_column} AS {TS_COLUMN} FROM {name}")
    body = "\nUNION\n".join(selects)
    return f"CREATE TEMPORARY TABLE {ts_name} AS (\n{body})"


def build_constant_period_sql(
    context: Period, ts_name: str = "ts", cp_name: str = "cp"
) -> str:
    """Figure 8, second statement: adjacent-point periods via self-join.

    ``min_time`` / ``max_time`` delimit the temporal context.
    """
    min_time = f"DATE '{Date(context.begin).to_iso()}'"
    max_time = f"DATE '{Date(context.end).to_iso()}'"
    return (
        f"CREATE TEMPORARY TABLE {cp_name} AS (\n"
        f"SELECT ts1.{TS_COLUMN} AS begin_time,\n"
        f"       ts2.{TS_COLUMN} AS end_time\n"
        f"FROM {ts_name} AS ts1, {ts_name} AS ts2\n"
        f"WHERE ts1.{TS_COLUMN} < ts2.{TS_COLUMN}\n"
        f"  AND {min_time} <= ts1.{TS_COLUMN}\n"
        f"  AND ts1.{TS_COLUMN} < {max_time}\n"
        f"  AND NOT EXISTS (SELECT ts3.{TS_COLUMN}\n"
        f"                  FROM {ts_name} AS ts3\n"
        f"                  WHERE ts1.{TS_COLUMN} < ts3.{TS_COLUMN}\n"
        f"                    AND ts3.{TS_COLUMN} < ts2.{TS_COLUMN}))"
    )


def _cp_sources(
    db: Database, table_names: Iterable[str], registry: TemporalRegistry
) -> list[tuple[Table, str, str]]:
    """Resolve the named tables with their period columns."""
    sources = []
    for name in table_names:
        table = db.read_table(name)
        info = registry.get(table.name)
        assert info is not None
        sources.append((table, info.begin_column, info.end_column))
    return sources


def compute_constant_periods(
    db: Database,
    table_names: Iterable[str],
    registry: TemporalRegistry,
    context: Period,
) -> list[Period]:
    """Native computation of the constant periods of the named tables.

    Merges each table's change-point set (see
    :meth:`Table.change_points`), so only tables whose bounds changed
    since the last sequenced statement are rescanned.
    """
    points: set[int] = set()
    resilience = db.resilience
    for table, begin_column, end_column in _cp_sources(db, table_names, registry):
        # watchdog: one cancellation point per table pass of the
        # precomputation step
        if resilience.armed:
            resilience.check()
        points |= table.change_points(
            table.column_index(begin_column), table.column_index(end_column)
        )
    return constant_periods(points, context)


_CP_COLUMNS = ("begin_time", "end_time")


def materialize_constant_periods(
    db: Database,
    table_names: Iterable[str],
    registry: TemporalRegistry,
    context: Period,
    cp_name: str,
) -> int:
    """(Re)fill temp table ``cp_name(begin_time, end_time)``.

    Returns the number of constant periods materialized.  Clipping: the
    paper's Figure-8 query ranges over points inside the context; the
    context boundaries themselves bound the first and last periods.

    The whole rebuild is skipped when nothing it depends on changed
    since the last materialization into ``cp_name``: same source tables
    at the same versions, same context, and the cp table itself
    untouched (``db.cp_cache``; version counters never repeat a value, a
    rollback's included, so a signature names one state of the rows).
    """
    sources = _cp_sources(db, table_names, registry)
    signature = (
        (context.begin, context.end),
        tuple(
            (table.name.lower(), table.version, begin_column, end_column)
            for table, begin_column, end_column in sources
        ),
    )
    cached = db.cp_cache.get(cp_name)
    if cached is not None:
        cached_signature, cached_tables, cp_table, cp_version, count = cached
        if (
            cached_signature == signature
            and len(cached_tables) == len(sources)
            and all(
                cached_table is source[0]
                for cached_table, source in zip(cached_tables, sources)
            )
            and db.catalog.has_table(cp_name)
            and db.catalog.get_table(cp_name) is cp_table
            and cp_table.version == cp_version
        ):
            db.obs.inc("stratum.cp.cache_hits")
            # the slice counter still advances: this execution evaluates
            # one slice per cached period exactly as a rebuild would
            db.obs.inc("stratum.slices", count)
            return count
    periods = compute_constant_periods(db, table_names, registry, context)
    cp_table = db.catalog.get_table(cp_name) if db.catalog.has_table(cp_name) else None
    if (
        cp_table is None
        or not cp_table.temporary
        or tuple(name.lower() for name in cp_table.column_names) != _CP_COLUMNS
    ):
        cp_table = Table(
            cp_name,
            [Column("begin_time", SqlType("DATE")), Column("end_time", SqlType("DATE"))],
            temporary=True,
        )
        # the cp table is stabbed per slice; declaring its period pair
        # makes those probes interval-indexed
        cp_table.declare_interval("begin_time", "end_time")
        db.catalog.add_table(cp_table, replace=True)
    # routed through the logged primitive so temp-table state follows the
    # same txn discipline as every other write
    cp_table.replace_rows(
        [[Date(period.begin), Date(period.end)] for period in periods]
    )
    db.stats.count_rows(len(periods), "constant_periods")
    # the canonical slice counter: every sequenced execution's constant
    # periods pass through here (EXPLAIN ANALYZE and the obs tests read it)
    db.obs.inc("stratum.slices", len(periods))
    db.cp_cache[cp_name] = (
        signature,
        tuple(table for table, _, _ in sources),
        cp_table,
        cp_table.version,
        len(periods),
    )
    return len(periods)


def materialize_constant_periods_via_sql(
    db: Database,
    table_names: Sequence[str],
    registry: TemporalRegistry,
    context: Period,
    cp_name: str,
    ts_name: str = "taupsm_ts",
) -> int:
    """Figure-8 route: run the generated SQL on the engine.

    Quadratic; used on small inputs and to cross-check the native path.
    The point self-join only forms periods between *data* points, so the
    result differs from the native path exactly at the context edges
    (the native path treats the context bounds as change points); tests
    account for that.
    """
    for name in (ts_name, cp_name):
        if db.catalog.has_table(name):
            db.catalog.drop_table(name)
    db.execute(build_time_points_sql(table_names, registry, ts_name))
    db.execute(build_constant_period_sql(context, ts_name, cp_name))
    db.catalog.drop_table(ts_name)
    return len(db.catalog.get_table(cp_name).rows)
