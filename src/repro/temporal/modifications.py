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

A modification without a modifier has current semantics: on a
valid-time table at ``now``, on a transaction-time table at the clock
(:func:`execute_current_modification` serves both, and a ``NONSEQUENCED
VALIDTIME`` one of a transaction-time table).

Every one of them is one conventional statement plus a period
``[lo, hi)`` — ``[now, forever)``, ``[clock, forever)`` or the context —
read from the ``taupsm_period`` binding, so the statement (and its
cached plan) does not change with the period.  :func:`match_statement`
builds it: an INSERT stamps each row ``[lo, hi)``; an UPDATE/DELETE puts
the restriction to the period columns in front of its own WHERE as
ordinary conjuncts, and the engine's match plan (``Executor.match``)
returns the rows — and the SET values, evaluated against each stored
version, whose attribute values are constant over its period — before
anything is written.  What the statement reads (WHERE, SET, VALUES, the
SELECT, the routines they call) reads what a query of its semantics
reads: the current state along every dimension the modifier does not
name.  The stratum refuses a sequenced modification whose reads
(:func:`reads`) reach data temporal along its own dimension: evaluating
it snapshot by snapshot would need a split at the constant periods of
the tables it reads.
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
    clone,
    cmp,
    lit,
    name,
    overlap_at_point,
    pairwise_overlap,
)

FOREVER = Date(Date.MAX_ORDINAL)
# the outer binding a modification reads its period from: the values
# change per execution, the statement (and its cached plan) does not
PERIOD = "taupsm_period"
_BOUNDS = {"taupsm_lo": 0, "taupsm_hi": 1}

Modification = Union[ast.Insert, ast.Update, ast.Delete]


def reads(stmt: ast.Statement) -> list[ast.Node]:
    """What a statement reads: a modification its WHERE, SET values,
    VALUES rows or SELECT, any other statement all of itself."""
    if not isinstance(stmt, (ast.Insert, ast.Update, ast.Delete)):
        return [stmt]
    if isinstance(stmt, ast.Insert):
        return [stmt.select] if stmt.select is not None else [
            expr for row in stmt.values for expr in row
        ]
    parts = [expr for _, expr in getattr(stmt, "assignments", ())]
    return parts + ([stmt.where] if stmt.where is not None else [])


def match_statement(
    stmt: Modification, info: TemporalTableInfo, restriction: str,
    columns: list[str],
) -> Modification:
    """``stmt`` as the one conventional statement that carries it out.
    An INSERT gains the period pair — after its column list, or after
    every column of the table (``columns``) but the pair — and ``[lo,
    hi)`` after each row.  An UPDATE/DELETE is the statement whose match
    plan finds the versions it touches: its WHERE conjoined with the
    restriction — ``"current"`` (valid at ``lo``), ``"sequenced"`` (a
    non-empty period overlapping ``[lo, hi)``) or ``"believed"`` (not yet
    closed).  The stratum maintains the pair: a statement naming it is
    refused."""
    pair = [info.begin_column, info.end_column]
    hidden = {column.lower() for column in pair}
    insert = isinstance(stmt, ast.Insert)
    named = (stmt.columns or []) if insert else [
        column for column, _ in getattr(stmt, "assignments", ())
    ]
    if hidden & {column.lower() for column in named}:
        raise TemporalError(
            f"{info.name}.{pair[0]} and {pair[1]} are maintained by the"
            " stratum; a modification may not name them"
        )
    lo, hi = name(PERIOD, "taupsm_lo"), name(PERIOD, "taupsm_hi")
    matcher = copy.copy(stmt)
    matcher.modifier = None
    if insert:
        matcher.columns = (
            list(stmt.columns or [c for c in columns if c.lower() not in hidden]) + pair
        )
        if stmt.values is not None:
            matcher.values = [list(row) + [clone(lo), clone(hi)] for row in stmt.values]
        else:
            matcher.select = stmt.select.copy(items=stmt.select.items + [
                ast.SelectItem(expr=lo), ast.SelectItem(expr=hi)
            ])
        return matcher
    alias = stmt.alias or stmt.table
    begin, end = name(alias, info.begin_column), name(alias, info.end_column)
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
    matcher.where = and_all(conjuncts)
    return matcher


def _period(lo: Date, hi: Date) -> Env:
    env = Env()
    env.bindings[PERIOD] = Binding(_BOUNDS, (lo, hi))
    return env


def execute_current_modification(
    db: Database,
    info: TemporalTableInfo,
    matcher: Modification,
    point: Date,
    source: str,
) -> int:
    """Current INSERT/UPDATE/DELETE at ``point``: an INSERT records its
    rows over ``[point, forever)``.  An UPDATE/DELETE closes each matched
    version there (one ``update_rows``); an UPDATE re-inserts it changed
    over ``[point, forever)``.  A version that began at ``point`` was
    never visible: it is overwritten in place (a second ``update_rows``,
    before the re-inserts), or removed last, instead of leaving an empty
    period behind.  ``source`` labels the ``rows_written`` count."""
    env = _period(point, FOREVER)
    if isinstance(matcher, ast.Insert):
        return db.executor.execute(matcher, env)
    table, rows, cells = db.executor.match(matcher, env)
    begin_index = table.column_index(info.begin_column)
    end_index = table.column_index(info.end_column)
    update = isinstance(matcher, ast.Update)
    closed, born, born_cells, versions = [], [], [], []
    for row, assigned in zip(rows, cells):
        # the SET values and an open end; the begin is the point
        opened = list(assigned) + [(end_index, FOREVER)]
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
    stmt: Modification,
    context: Period,
) -> int:
    """Sequenced INSERT/UPDATE/DELETE over ``context``: an INSERT records
    its rows over exactly the context.  An UPDATE/DELETE removes validity
    within the context (DELETE) or applies the assignments there
    (UPDATE), preserving history outside it.  Returns the affected-row
    count."""
    env = _period(Date(context.begin), Date(context.end))
    if isinstance(stmt, ast.Insert):
        return db.executor.execute(stmt, env)
    table, rows, cells = db.executor.match(stmt, env)
    begin_index = table.column_index(info.begin_column)
    end_index = table.column_index(info.end_column)
    update = isinstance(stmt, ast.Update)
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
