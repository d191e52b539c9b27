"""Point-wise transformation: evaluate SQL at a single time granule.

This is the shared core of three transformations:

* **current** semantics (§IV-C): point = ``CURRENT_DATE``;
* **maximally-fragmented slicing** (§V): point = ``cp.begin_time`` in the
  invoking query and the ``begin_time_in`` parameter inside routines;
* **per-statement slicing's per-period loops** (§VI-C, §VII-C): point =
  ``taupsm_cp.begin_time`` of the constant-period loop, PERST's variable
  tables read like temporal tables.

Given a statement and a point expression, every SELECT gains, for each
temporal table in *its own* FROM clause, the overlap condition
``t.begin_time <= point AND point < t.end_time``; calls to routines that
(transitively) read temporal data are renamed per ``rename_map`` with
the point (or other extra arguments) appended.
"""

from __future__ import annotations

from typing import Callable, Collection, Optional

from repro.sqlengine import ast_nodes as ast
from repro.temporal.errors import TemporalError
from repro.temporal.schema import TemporalRegistry
from repro.temporal.transform_util import (
    add_condition,
    add_join_condition,
    and_all,
    classify_from_sources,
    overlap_at_point,
    rename_routine_calls,
    selects_in,
)


def add_point_conditions(
    node: ast.Node,
    point: ast.Expression,
    registry: TemporalRegistry,
    period_tables: Collection[str] = (),
) -> None:
    """Add overlap-at-point predicates to every SELECT under ``node``.

    Each SELECT gets conditions only for the temporal tables its own FROM
    clause mentions (the paper: "added to *all* the where clauses whose
    associated from clause mentions a temporal table").  Temporal tables
    on the right side of a LEFT join take their condition in the ON
    clause so null-extension survives.

    ``period_tables`` names (lower-cased) further tables valid over
    ``[begin_time, end_time)``: PERST's variable tables.
    """

    def condition(table_name: str, alias: str) -> Optional[ast.Expression]:
        info = registry.get(table_name)
        if info is not None:
            return overlap_at_point(alias, point, info.begin_column, info.end_column)
        if table_name in period_tables:
            return overlap_at_point(alias, point)
        return None

    for select in selects_in(node):
        where_pairs, join_pairs = classify_from_sources(select)
        conditions = [condition(*pair) for pair in where_pairs]
        add_condition(select, and_all([c for c in conditions if c is not None]))
        for join, pairs in join_pairs:
            for pair in pairs:
                found = condition(*pair)
                if found is not None:
                    add_join_condition(join, found)


def forbid_temporal_dml(node: ast.Node, registry: TemporalRegistry) -> None:
    """Sequenced/current routines must not modify temporal base tables.

    The paper's workload is read-only routines (READS SQL DATA); writes
    to temporary tables and variables are fine, but a point-wise
    evaluated write to a temporal base table would be applied once per
    slice and corrupt history.
    """
    for child in ast.walk(node):
        if isinstance(child, (ast.Insert, ast.Update, ast.Delete)):
            if registry.is_temporal(child.table):
                raise TemporalError(
                    f"routine modifies temporal table {child.table!r};"
                    " sequenced/current transformation supports read-only"
                    " access to temporal tables"
                )


def transform_statement_at_point(
    stmt: ast.Statement,
    point: ast.Expression,
    registry: TemporalRegistry,
    rename_map: dict[str, str],
    extra_args: Optional[Callable[[], list[ast.Expression]]] = None,
) -> None:
    """In-place point-wise transformation of a statement tree."""
    forbid_temporal_dml(stmt, registry)
    add_point_conditions(stmt, point, registry)
    rename_routine_calls(stmt, rename_map, extra_args)
