"""Current semantics: ``cur⟦Q⟧`` (paper §IV-C, Figures 5 and 6).

A current query on a temporal database behaves exactly like the original
query on the current timeslice.  The transformation adds
``t.begin_time <= CURRENT_DATE AND CURRENT_DATE < t.end_time`` to every
WHERE clause whose FROM mentions a temporal table, and clones every
reachable temporal-reading routine with a ``curr_`` prefix transformed
the same way.  This is what guarantees temporal upward compatibility:
legacy statements keep their old meaning after tables gain valid time.

Current *modifications* follow standard TUC semantics and are carried
out by :mod:`repro.temporal.modifications`; this transformation gives
what such a statement reads (its WHERE, SET, VALUES, SELECT and the
routines they call) the same ``cur⟦·⟧`` a current query gets.
"""

from __future__ import annotations

from typing import Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.catalog import Catalog
from repro.temporal import analysis
from repro.temporal.pointwise import add_point_conditions, transform_statement_at_point
from repro.temporal.schema import TemporalRegistry
from repro.temporal.transform_util import (
    TransformResult,
    call,
    clone,
    rename_routine_calls,
)

CURRENT_PREFIX = "curr_"


def transform_current(
    stmt: ast.Statement,
    catalog: Catalog,
    registry: TemporalRegistry,
    prefix: str = CURRENT_PREFIX,
    point: Optional[ast.Expression] = None,
) -> TransformResult:
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
    at = point if point is not None else call("CURRENT_DATE")
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
    # the statement itself may be a modification of a temporal table (the
    # stratum carries it out): only what it reads is read at the point
    add_point_conditions(new_stmt, at, registry)
    rename_routine_calls(new_stmt, rename_map)
    return TransformResult(new_stmt, routines)
