"""Maximally-fragmented slicing: ``max⟦·⟧`` (paper §V, Figures 9 and 10).

Strategy: compute the constant periods of every reachable temporal table
into a ``cp`` table, then

* the invoking query gains ``cp`` in its FROM clause, the constant
  period's bounds in its select list, and overlap-at-``cp.begin_time``
  conditions for each temporal table (Figure 9);
* every reachable temporal-reading routine is cloned with a ``max_``
  prefix and an extra ``begin_time_in DATE`` parameter; every query
  inside evaluates at that point, and nested calls pass the point along
  (Figure 10).  Routines that never touch temporal data stay untouched
  (the paper's reachability optimization).

The transformed statement is conventional SQL/PSM; the engine calls the
routine once per (satisfying row × constant period) — the cost behaviour
the performance study measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.types import SqlType
from repro.temporal import analysis
from repro.temporal.errors import FeatureNotSupportedError
from repro.temporal.schema import TemporalRegistry
from repro.temporal.pointwise import transform_statement_at_point
from repro.temporal.transform_util import (
    clone,
    from_table_aliases,
    name,
    unique_name,
)

MAX_PREFIX = "max_"
POINT_PARAM = "begin_time_in"


def statement_key(stmt: ast.Statement) -> str:
    """Canonical text form of a statement for transform-cache keys.

    The transformations are deterministic functions of (statement text,
    catalog, registry), so two parses of the same SQL share one cached
    transformation; the stratum combines this with the registry and
    catalog versions.
    """
    return stmt.to_sql()


@dataclass
class MaxTransformResult:
    """Transformed statement + required routine clones + cp metadata."""

    statement: ast.Statement
    routines: list[Union[ast.CreateFunction, ast.CreateProcedure]] = field(
        default_factory=list
    )
    cp_table: str = "cp"
    cp_alias: str = "cp"
    temporal_tables: list[str] = field(default_factory=list)

    def to_sql(self) -> str:
        parts = [r.to_sql() + ";" for r in self.routines]
        parts.append(self.statement.to_sql() + ";")
        return "\n\n".join(parts)


def max_rename_map(
    stmt: ast.Statement, catalog: Catalog, registry: TemporalRegistry
) -> dict[str, str]:
    """original → max_ names for reachable temporal-reading routines."""
    mapping: dict[str, str] = {}
    for routine_name in analysis.reachable_routines(stmt, catalog):
        if analysis.routine_reads_temporal(routine_name, catalog, registry):
            mapping[routine_name] = MAX_PREFIX + routine_name
    return mapping


def transform_routine_max(
    definition: Union[ast.CreateFunction, ast.CreateProcedure],
    registry: TemporalRegistry,
    rename_map: dict[str, str],
) -> Union[ast.CreateFunction, ast.CreateProcedure]:
    """Clone one routine into its ``max_`` form (Figure 10)."""
    new_def = clone(definition)
    new_def.name = rename_map[definition.name.lower()]
    taken = {p.name.lower() for p in new_def.params}
    point_param = POINT_PARAM if POINT_PARAM not in taken else unique_name(
        POINT_PARAM, taken
    )
    new_def.params = new_def.params + [
        ast.ParamDef(name=point_param, type=SqlType("DATE"))
    ]
    point = name(None, point_param)
    transform_statement_at_point(
        new_def.body,
        point,
        registry,
        rename_map,
        extra_args=lambda: [name(None, point_param)],
    )
    return new_def


def transform_query_max(
    stmt: ast.Statement,
    catalog: Catalog,
    registry: TemporalRegistry,
    cp_table: str,
) -> MaxTransformResult:
    """Transform a sequenced statement under maximal slicing (Figure 9).

    The caller is responsible for materializing ``cp_table`` (see
    :mod:`repro.temporal.constant_periods`) before executing.
    """
    rename_map = max_rename_map(stmt, catalog, registry)
    routines = [
        transform_routine_max(catalog.get_routine(original).definition, registry, rename_map)
        for original in rename_map
    ]
    temporal_tables = analysis.reachable_temporal_tables(stmt, catalog, registry)
    new_stmt = clone(stmt)
    new_stmt.modifier = None
    if isinstance(new_stmt, ast.Select):
        cp_alias = _attach_cp(new_stmt, cp_table)
        point = name(cp_alias, "begin_time")
        transform_statement_at_point(
            new_stmt, point, registry, rename_map,
            extra_args=lambda: [name(cp_alias, "begin_time")],
        )
        result_alias = cp_alias
    elif isinstance(new_stmt, ast.CallStatement):
        # the stratum drives the per-constant-period loop natively for
        # CALL: the procedure clone takes the point parameter, so the
        # statement just renames and defers the point to execution time.
        target = rename_map.get(new_stmt.name.lower())
        if target is not None:
            new_stmt.name = target
        result_alias = "cp"
    else:
        raise FeatureNotSupportedError(
            f"sequenced {type(stmt).__name__} is not supported by maximal"
            " slicing (SELECT and CALL are)"
        )
    return MaxTransformResult(
        statement=new_stmt,
        routines=routines,
        cp_table=cp_table,
        cp_alias=result_alias,
        temporal_tables=temporal_tables,
    )


def _attach_cp(select: ast.Select, cp_table: str) -> str:
    """Add the cp table to FROM and the period bounds to the select list.

    Applies to the outermost select (and each UNION arm); returns the
    alias chosen for cp.
    """
    taken = {alias.lower() for _, alias in from_table_aliases(select)}
    cp_alias = unique_name("cp", taken)
    node = select
    while node is not None:
        node.items = node.items + [
            ast.SelectItem(expr=name(cp_alias, "begin_time"), alias="begin_time"),
            ast.SelectItem(expr=name(cp_alias, "end_time"), alias="end_time"),
        ]
        # cp goes FIRST so lateral TABLE(...) arguments can reference it
        node.from_items = [
            ast.TableRef(name=cp_table, alias=cp_alias)
        ] + node.from_items
        node = node.set_rhs
    return cp_alias
