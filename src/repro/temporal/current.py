"""Current semantics: ``cur⟦Q⟧`` (paper §IV-C, Figures 5 and 6).

A current query on a temporal database behaves exactly like the original
query on the current timeslice.  The transformation adds
``t.begin_time <= CURRENT_DATE AND CURRENT_DATE < t.end_time`` to every
WHERE clause whose FROM mentions a temporal table, and clones every
reachable temporal-reading routine with a ``curr_`` prefix transformed
the same way.  This is what guarantees temporal upward compatibility:
legacy statements keep their old meaning after tables gain valid time.

Current *modifications* follow standard TUC semantics: INSERT makes rows
valid ``[now, forever)``; DELETE terminates currently-valid rows at
``now``; UPDATE terminates the old row and inserts the changed row valid
``[now, forever)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.values import Date
from repro.temporal import analysis
from repro.temporal.errors import FeatureNotSupportedError
from repro.temporal.pointwise import transform_statement_at_point
from repro.temporal.schema import TemporalRegistry
from repro.temporal.transform_util import call, clone, overlap_at_point

CURRENT_PREFIX = "curr_"


@dataclass
class CurrentTransformResult:
    """The transformed statement plus the routine clones it requires."""

    statement: ast.Statement
    routines: list[Union[ast.CreateFunction, ast.CreateProcedure]] = field(
        default_factory=list
    )

    def to_sql(self) -> str:
        parts = [r.to_sql() + ";" for r in self.routines]
        parts.append(self.statement.to_sql() + ";")
        return "\n\n".join(parts)


def transform_current(
    stmt: ast.Statement,
    catalog: Catalog,
    registry: TemporalRegistry,
    prefix: str = CURRENT_PREFIX,
    point: Optional[ast.Expression] = None,
) -> CurrentTransformResult:
    """Apply ``cur⟦·⟧`` to a statement and its reachable routines.

    ``point`` defaults to CURRENT_DATE; the stratum passes a literal
    transaction clock when applying the same transformation along the
    transaction-time dimension (including time travel).  ``prefix``
    keeps per-dimension routine clones distinct.
    """
    rename_map = {
        routine: prefix + routine
        for routine in analysis.temporal_routines(stmt, catalog, registry)
    }
    at = point if point is not None else _now()
    routines = []
    for original_name, new_name in rename_map.items():
        definition = clone(catalog.get_routine(original_name).definition)
        definition.name = new_name
        transform_statement_at_point(
            definition.body, at, registry, rename_map, extra_args=None
        )
        routines.append(definition)
    new_stmt = clone(stmt)
    new_stmt.modifier = None
    if isinstance(new_stmt, (ast.Insert, ast.Update, ast.Delete)) and registry.is_temporal(
        new_stmt.table
    ):
        new_stmt = _transform_current_modification(new_stmt, catalog, registry, rename_map)
    else:
        transform_statement_at_point(
            new_stmt, at, registry, rename_map, extra_args=None
        )
    return CurrentTransformResult(statement=new_stmt, routines=routines)


def _now() -> ast.Expression:
    return call("CURRENT_DATE")


def _transform_current_modification(
    stmt: Union[ast.Insert, ast.Update, ast.Delete],
    catalog: Catalog,
    registry: TemporalRegistry,
    rename_map: dict[str, str],
) -> ast.Statement:
    """TUC semantics for modifications of a temporal table."""
    info = registry.get(stmt.table)
    assert info is not None
    now = _now()
    forever = ast.Literal(value=_forever_date())
    if isinstance(stmt, ast.Insert):
        return _current_insert(stmt, info, now, forever, catalog, registry, rename_map)
    if isinstance(stmt, ast.Delete):
        # terminate currently-valid matching rows at now
        new_stmt = ast.Update(
            table=stmt.table,
            alias=stmt.alias,
            assignments=[(info.end_column, clone(now))],
            where=stmt.where,
        )
        from repro.temporal.pointwise import add_point_conditions
        from repro.temporal.transform_util import rename_routine_calls

        add_point_conditions(new_stmt, now, registry)  # subqueries in WHERE
        rename_routine_calls(new_stmt, rename_map)
        _add_dml_current_condition(new_stmt, stmt.alias or stmt.table, info, now)
        return new_stmt
    # UPDATE: modelled as terminate-then-reinsert; expressed as a compound
    # of two statements the stratum executes atomically.
    raise FeatureNotSupportedError(
        "current UPDATE of a temporal table has no single-statement"
        " form: the stratum closes the matching rows and re-inserts them"
        " (EXPLAIN shows the steps)"
    )


def _current_insert(
    stmt: ast.Insert,
    info,
    now: ast.Expression,
    forever: ast.Expression,
    catalog: Catalog,
    registry: TemporalRegistry,
    rename_map: dict[str, str],
) -> ast.Insert:
    new_stmt = clone(stmt)
    new_stmt.modifier = None
    columns = new_stmt.columns
    if columns is None:
        raise FeatureNotSupportedError(
            "current INSERT into a temporal table requires an explicit"
            " column list (timestamps are supplied by the stratum)"
        )
    new_stmt.columns = columns + [info.begin_column, info.end_column]
    if new_stmt.values is not None:
        new_stmt.values = [
            row + [clone(now), clone(forever)] for row in new_stmt.values
        ]
    else:
        select = new_stmt.select
        select.items = select.items + [
            ast.SelectItem(expr=clone(now), alias=info.begin_column),
            ast.SelectItem(expr=clone(forever), alias=info.end_column),
        ]
        transform_statement_at_point(select, now, registry, rename_map)
    return new_stmt


def _add_dml_current_condition(
    stmt: Union[ast.Update, ast.Delete], alias: str, info, now: ast.Expression
) -> None:
    condition = overlap_at_point(alias, now, info.begin_column, info.end_column)
    if stmt.where is None:
        stmt.where = condition
    else:
        stmt.where = ast.BinaryOp(op="AND", left=stmt.where, right=condition)


def _forever_date():
    return Date(Date.MAX_ORDINAL)
