"""Temporal modifications: what happens to the versions a statement touches.

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

An UPDATE/DELETE without a modifier has current semantics: on a
valid-time table at ``now``, on a transaction-time table at the clock
(:func:`execute_current_modification` serves both).

Every one of them finds its versions the same way: :func:`match_statement`
puts the restriction to the period columns in front of the statement's
own WHERE as ordinary conjuncts, and the engine's match plan
(``Executor.match``) returns the rows — and the SET values, evaluated
against each stored version, whose attribute values are constant over
its period — before anything is written.  Subqueries inside WHERE and
SET run conventionally.
"""

from __future__ import annotations

import copy
from typing import Any, Union

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.engine import Database
from repro.sqlengine.executor import Binding, Env
from repro.sqlengine.values import Date
from repro.temporal.errors import TemporalError
from repro.temporal.period import Period
from repro.temporal.schema import TemporalTableInfo
from repro.temporal.transform_util import (
    and_all,
    cmp,
    lit,
    name,
    overlap_at_point,
    pairwise_overlap,
)

FOREVER = Date(Date.MAX_ORDINAL)
# the outer binding a match statement reads its bounds from: the values
# change per execution, the statement (and its cached plan) does not
PERIOD = "taupsm_period"
_BOUNDS = {"taupsm_lo": 0, "taupsm_hi": 1}


def match_statement(
    stmt: Union[ast.Update, ast.Delete], info: TemporalTableInfo, restriction: str
) -> Union[ast.Update, ast.Delete]:
    """``stmt`` as the conventional statement whose match plan finds the
    versions it touches: its WHERE conjoined with the restriction —
    ``"current"`` (valid at ``lo``), ``"sequenced"`` (a non-empty period
    overlapping ``[lo, hi)``) or ``"believed"`` (not yet closed)."""
    alias = stmt.alias or stmt.table
    begin, end = name(alias, info.begin_column), name(alias, info.end_column)
    lo, hi = name(PERIOD, "taupsm_lo"), name(PERIOD, "taupsm_hi")
    own = [] if stmt.where is None else [stmt.where]
    if restriction == "current":
        conjuncts = [
            overlap_at_point(alias, lo, info.begin_column, info.end_column)
        ] + own
    elif restriction == "sequenced":
        conjuncts = (
            pairwise_overlap([(begin, end), (lo, hi)]) + [cmp("<", begin, end)] + own
        )
    else:
        # behind the statement's own conjuncts: a level probes on its
        # first equality, which should be the statement's key
        conjuncts = own + [cmp("=", end, lit(FOREVER))]
    matcher = copy.copy(stmt)
    matcher.modifier = None
    matcher.where = and_all(conjuncts)
    return matcher


def _matched(db: Database, matcher, lo: Date, hi: Date) -> tuple:
    env = Env()
    env.bindings[PERIOD] = Binding(_BOUNDS, (lo, hi))
    return db.executor.match(matcher, env)


def execute_current_modification(
    db: Database,
    info: TemporalTableInfo,
    matcher: Union[ast.Update, ast.Delete],
    point: Date,
    source: str,
) -> int:
    """Current UPDATE/DELETE at ``point``: close each matched version
    there (one ``update_rows``); an UPDATE re-inserts it changed over
    ``[point, forever)``.  A version that began at ``point`` was never
    visible: it is overwritten in place (a second ``update_rows``, before
    the re-inserts), or removed last, instead of leaving an empty period
    behind.  ``source`` labels the ``rows_written`` count."""
    table, rows, cells = _matched(db, matcher, point, point)
    begin_index = table.column_index(info.begin_column)
    end_index = table.column_index(info.end_column)
    update = isinstance(matcher, ast.Update)
    closed, born, born_cells, versions = [], [], [], []
    for row, assigned in zip(rows, cells):
        # the SET values and an open end; the begin is the point
        opened = [cell for cell in assigned if cell[0] != begin_index]
        opened.append((end_index, FOREVER))
        if row[begin_index] == point:
            born.append(row)
            born_cells.append(opened)
        else:
            closed.append(row)
            if update:
                version = list(row)
                version[begin_index] = point
                for index, value in opened:
                    version[index] = value
                versions.append(version)
    if closed:
        table.update_rows(closed, [[(end_index, point)]] * len(closed))
    if update:
        if born:
            table.update_rows(born, born_cells)
        for version in versions:
            table.append_row(version)
    elif born:
        table.delete_rows(born)
    db.stats.count_rows(len(rows), source)
    return len(rows)


def execute_sequenced_modification(
    db: Database,
    info: TemporalTableInfo,
    stmt: Union[ast.Insert, ast.Update, ast.Delete],
    context: Period,
) -> int:
    """Run a sequenced modification — an INSERT, or the match statement
    of an UPDATE/DELETE; returns the affected-row count."""
    if isinstance(stmt, ast.Insert):
        return _sequenced_insert(db, info, stmt, context)
    return _sequenced_rewrite(db, info, stmt, context)


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


def _sequenced_rewrite(
    db: Database,
    info: TemporalTableInfo,
    matcher: Union[ast.Update, ast.Delete],
    context: Period,
) -> int:
    """Remove validity within the context (DELETE) or apply the
    assignments there (UPDATE), preserving history outside it."""
    update = isinstance(matcher, ast.Update)
    hidden = (info.begin_column.lower(), info.end_column.lower())
    if update and any(column.lower() in hidden for column, _ in matcher.assignments):
        raise TemporalError("sequenced UPDATE may not assign timestamp columns")
    table, rows, cells = _matched(
        db, matcher, Date(context.begin), Date(context.end)
    )
    begin_index = table.column_index(info.begin_column)
    end_index = table.column_index(info.end_column)
    additions: list[list[Any]] = []

    def piece(row: list[Any], period: Period) -> list[Any]:
        part = list(row)
        part[begin_index] = Date(period.begin)
        part[end_index] = Date(period.end)
        additions.append(part)
        return part

    for row, assigned in zip(rows, cells):
        period = Period(row[begin_index].ordinal, row[end_index].ordinal)
        if update:
            updated = piece(row, period.intersect(context))
            for index, value in assigned:
                updated[index] = value
        for kept in _difference(period, context):
            piece(row, kept)
    # one removal per version touched, then the pieces appended in order:
    # row deltas the table's derived structures and the redo log follow
    # (``delpos`` + ``ins`` records), never a rewrite of the table
    if rows:
        table.delete_rows(rows)
        for part in additions:
            table.append_row(part)
    db.stats.count_rows(len(rows) + len(additions), "sequenced_rewrite")
    return len(rows)


def _difference(period: Period, context: Period) -> list[Period]:
    """The parts of ``period`` outside ``context`` (0, 1 or 2 pieces)."""
    pieces = []
    if period.begin < context.begin:
        pieces.append(Period(period.begin, min(period.end, context.begin)))
    if period.end > context.end:
        pieces.append(Period(max(period.begin, context.end), period.end))
    return pieces
