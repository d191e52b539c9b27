"""Sequenced modifications: ``VALIDTIME [bt, et) INSERT/UPDATE/DELETE``.

SQL/Temporal's statement modifiers apply to modifications as well as
queries (paper §III: "these keywords modify the semantics of the entire
SQL statement (whether a query, a modification, a view definition, a
cursor, etc.)").  The sequenced semantics, granule by granule:

* **INSERT** makes the new rows valid exactly over the context period;
* **DELETE** removes each matching row's validity *within* the context,
  splitting the stored period when the context cuts it (a row valid
  ``[Jan, Dec)`` deleted over ``[Mar, May)`` leaves ``[Jan, Mar)`` and
  ``[May, Dec)``);
* **UPDATE** applies the assignments within the context and preserves
  the original values outside it, splitting likewise.

The WHERE predicate is evaluated against each stored row version (whose
attribute values are constant over its period); scalar subqueries inside
it run conventionally.
"""

from __future__ import annotations

from typing import Any, Union

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.engine import Database
from repro.sqlengine.executor import Binding, Env
from repro.sqlengine.storage import Table
from repro.sqlengine.values import Date, truth
from repro.temporal.errors import TemporalError
from repro.temporal.period import Period
from repro.temporal.schema import TemporalRegistry, TemporalTableInfo


def execute_sequenced_modification(
    db: Database,
    registry: TemporalRegistry,
    stmt: Union[ast.Insert, ast.Update, ast.Delete],
    context: Period,
) -> int:
    """Dispatch a sequenced modification; returns the affected-row count."""
    info = registry.get(stmt.table)
    if info is None:
        raise TemporalError(
            f"sequenced modification requires a temporal table;"
            f" {stmt.table!r} has no valid-time support"
        )
    if isinstance(stmt, ast.Insert):
        return _sequenced_insert(db, info, stmt, context)
    if isinstance(stmt, ast.Delete):
        return _sequenced_delete(db, info, stmt, context)
    if isinstance(stmt, ast.Update):
        return _sequenced_update(db, info, stmt, context)
    raise TemporalError(  # pragma: no cover - dispatch is exhaustive
        f"unsupported sequenced modification {type(stmt).__name__}"
    )


def _sequenced_insert(
    db: Database, info: TemporalTableInfo, stmt: ast.Insert, context: Period
) -> int:
    """INSERT with validity exactly the context period."""
    table = db.catalog.get_table(stmt.table)
    timestamp_columns = {info.begin_column.lower(), info.end_column.lower()}
    if stmt.columns is not None and timestamp_columns & {
        c.lower() for c in stmt.columns
    }:
        raise TemporalError(
            "sequenced INSERT supplies the validity period via the"
            " temporal context, not explicit timestamp columns"
        )
    new_stmt = ast.Insert(table=stmt.table, select=stmt.select)
    if stmt.columns is None:
        value_columns = [
            c for c in table.column_names if c.lower() not in timestamp_columns
        ]
    else:
        value_columns = list(stmt.columns)
    new_stmt.columns = value_columns + [info.begin_column, info.end_column]
    stamp = [
        ast.Literal(value=Date(context.begin)),
        ast.Literal(value=Date(context.end)),
    ]
    if stmt.values is not None:
        new_stmt.values = [list(row) + stamp for row in stmt.values]
        new_stmt.select = None
    else:
        select = stmt.select.copy()
        select.items = select.items + [
            ast.SelectItem(expr=stamp[0]),
            ast.SelectItem(expr=stamp[1]),
        ]
        new_stmt.select = select
    return db.executor.execute(new_stmt)


def _matching_rows(
    db: Database,
    table: Table,
    info: TemporalTableInfo,
    where,
    alias: str,
    context: Period,
) -> list[list[Any]]:
    colmap = {c.lower(): i for i, c in enumerate(table.column_names)}
    begin_index = table.column_index(info.begin_column)
    end_index = table.column_index(info.end_column)
    # watchdog: the sequenced-modification row pass walks the whole
    # table outside the executor's scan machinery
    resilience = db.resilience
    if resilience.armed:
        resilience.check()
    env = Env()
    matches = []
    for row in table.rows:
        begin, end = row[begin_index], row[end_index]
        if not (isinstance(begin, Date) and isinstance(end, Date)):
            continue  # a comparison with a NULL bound is never true
        if not Period(begin.ordinal, end.ordinal).overlaps(context):
            continue
        env.bindings[alias.lower()] = Binding(colmap, row)
        if where is None or truth(db.executor.evaluate(where, env)):
            matches.append(row)
    return matches


def _sequenced_delete(
    db: Database, info: TemporalTableInfo, stmt: ast.Delete, context: Period
) -> int:
    """Remove validity within the context, splitting cut periods."""
    table = db.catalog.get_table(stmt.table)
    # claim before the scan: read-then-mutate must target the live table
    db.txn.claim_write(table)
    alias = stmt.alias or stmt.table
    begin_index = table.column_index(info.begin_column)
    end_index = table.column_index(info.end_column)
    matches = _matching_rows(db, table, info, stmt.where, alias, context)
    additions: list[list[Any]] = []
    for row in matches:
        period = Period(row[begin_index].ordinal, row[end_index].ordinal)
        for kept in _difference(period, context):
            part = list(row)
            part[begin_index] = Date(kept.begin)
            part[end_index] = Date(kept.end)
            additions.append(part)
    _rewrite(db, table, matches, additions)
    return len(matches)


def _sequenced_update(
    db: Database, info: TemporalTableInfo, stmt: ast.Update, context: Period
) -> int:
    """Apply assignments within the context; preserve history outside."""
    for column, _ in stmt.assignments:
        if column.lower() in (info.begin_column.lower(), info.end_column.lower()):
            raise TemporalError(
                "sequenced UPDATE may not assign timestamp columns"
            )
    table = db.catalog.get_table(stmt.table)
    db.txn.claim_write(table)
    alias = stmt.alias or stmt.table
    colmap = {c.lower(): i for i, c in enumerate(table.column_names)}
    begin_index = table.column_index(info.begin_column)
    end_index = table.column_index(info.end_column)
    matches = _matching_rows(db, table, info, stmt.where, alias, context)
    env = Env()
    additions: list[list[Any]] = []
    for row in matches:
        period = Period(row[begin_index].ordinal, row[end_index].ordinal)
        overlap = period.intersect(context)
        assert overlap is not None  # guaranteed by _matching_rows
        env.bindings[alias.lower()] = Binding(colmap, row)
        updated = list(row)
        for column, expr in stmt.assignments:
            updated[table.column_index(column)] = db.executor.evaluate(expr, env)
        updated[begin_index] = Date(overlap.begin)
        updated[end_index] = Date(overlap.end)
        additions.append(updated)
        for kept in _difference(period, context):
            part = list(row)
            part[begin_index] = Date(kept.begin)
            part[end_index] = Date(kept.end)
            additions.append(part)
    _rewrite(db, table, matches, additions)
    return len(matches)


def _rewrite(
    db: Database, table: Table, matches: list[list[Any]], additions: list[list[Any]]
) -> None:
    """Swap the matched versions for their pieces: one removal per
    version touched, then the pieces appended in order — row deltas the
    table's derived structures and the redo log follow (``delpos`` +
    ``ins`` records), never a rewrite of the table."""
    if matches:
        doomed = set(map(id, matches))
        table.delete_where(lambda row: id(row) in doomed)
        for part in additions:
            table.append_row(part)
    db.stats.count_rows(len(matches) + len(additions), "sequenced_rewrite")


def _difference(period: Period, context: Period) -> list[Period]:
    """The parts of ``period`` outside ``context`` (0, 1 or 2 pieces)."""
    pieces = []
    if period.begin < context.begin:
        pieces.append(Period(period.begin, min(period.end, context.begin)))
    if period.end > context.end:
        pieces.append(Period(max(period.begin, context.end), period.end))
    return pieces
