"""The routine-free fragment of sequenced SELECT.

A sequenced SELECT that calls no routine runs as MAX's transformed
statement, and the planner aligns its constant-period join in one pass
(DESIGN.md §3.9, ``planner._Alignment``): each version is bisected once
onto the sorted period begins, and the aligned levels are joined
run-wise.  There is no second evaluator; this module keeps the two entry
points the stratum and the §VII-F heuristic call:

* :func:`compile_seqset`, rule (s)'s verdict: whether a statement is a
  routine-free SELECT over base tables without grouping, aggregate,
  ORDER BY, LIMIT, set operation or star, which AUTO sends to MAX
  without asking PERST;
* :func:`execute_seqset`, the stratum's run of a MAX-transformed SELECT
  that needs no routine clone.
"""

from __future__ import annotations

from typing import Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.engine import Database
from repro.sqlengine.executor import ResultSet, _contains_aggregate
from repro.temporal import analysis
from repro.temporal.schema import TemporalRegistry


def compile_seqset(
    db: Database,
    registry: TemporalRegistry,
    stmt: ast.Statement,
    other_registry: Optional[TemporalRegistry] = None,
) -> Optional[str]:
    """The first feature that puts the sequenced ``stmt`` outside the
    routine-free fragment, or None when it is inside."""
    if not isinstance(stmt, ast.Select):
        return f"sequenced {type(stmt).__name__} has no set-oriented form"
    if stmt.set_op:
        return f"set operation ({stmt.set_op})"
    if stmt.group_by or stmt.having:
        return "grouping (MAX groups per constant period)"
    if stmt.order_by:
        return "ORDER BY"
    if stmt.limit is not None:
        return "LIMIT"
    if not stmt.from_items:
        return "no FROM clause"
    for item in stmt.items:
        if item.is_star:
            return "star projection"
        if _contains_aggregate(item.expr):
            return "aggregate projection (MAX aggregates per constant period)"
    routines = db.catalog.reach(stmt).routines
    if routines:
        return "invokes routine(s) " + ", ".join(sorted(routines))
    if other_registry is not None and analysis.reads_temporal(
        stmt, db.catalog, other_registry
    ):
        return "reads temporal tables along the other time dimension"
    aliases: set = set()
    for from_item in stmt.from_items:
        if not isinstance(from_item, ast.TableRef):
            return f"FROM source {type(from_item).__name__}"
        if db.catalog.has_view(from_item.name):
            return f"view {from_item.name} in FROM"
        if not db.catalog.has_table(from_item.name):
            return f"unknown table {from_item.name}"
        if from_item.binding.lower() in aliases:
            return f"duplicate FROM alias {from_item.binding.lower()}"
        aliases.add(from_item.binding.lower())
        table, info = db.catalog.get_table(from_item.name), registry.get(from_item.name)
        if info is not None and not (
            table.has_column(info.begin_column) and table.has_column(info.end_column)
        ):
            return f"{table.name} is missing its period columns"
    return None


def execute_seqset(db: Database, statement: ast.Select) -> ResultSet:
    """Run a MAX-transformed SELECT that needs no routine clone: the
    engine plans its constant-period join to the aligned access wherever
    the statement calls no routine."""
    return db.execute_ast(statement)
