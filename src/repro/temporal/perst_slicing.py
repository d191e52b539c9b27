"""Per-statement slicing: ``ps⟦·⟧`` (paper §VI, Figure 11).

Each sequenced routine is rewritten into a conventional routine that
operates *on temporal tables*:

* the signature gains an evaluation period ``(ps_begin, ps_end)`` and a
  scalar return type becomes ``ROW(taupsm_result T, begin_time DATE,
  end_time DATE) ARRAY`` — the routine's result as an explicit temporal
  table (§VI-A);
* time-varying variables become variable *tables* of the same row-array
  shape; ``SET`` becomes a sequenced delete + insert (§VI-B);
* select-project-join statements are transformed algebraically: temporal
  sources (temporal tables, variable tables, nested ``ps_`` calls joined
  via ``TABLE(...)``) are intersected with ``LAST_INSTANCE`` /
  ``FIRST_INSTANCE`` folds and pairwise overlap predicates;
* statements outside the algebraic fragment (aggregates, DISTINCT, temporal IF
  conditions) fall back to a per-statement ``FOR`` loop over the
  routine's constant periods, clipped to the evaluation period (§VI-C);
* a routine whose body drives a cursor over temporal data is evaluated
  per constant period: the cursor is re-pointed at an auxiliary
  temporary table rebuilt for each period — the materialization cost
  behind the paper's q7/q7b observations (§VII-C);
* both per-period loops evaluate their statements point-wise with one
  walker (:meth:`PerstTransformer._at_point`) on the shared core
  (:func:`repro.temporal.pointwise.add_point_conditions`); the shapes it
  cannot stamp correctly (an early RETURN, a result set, a variable
  whose stamped rows would go stale or repeat) are refused;
* each loop runs once per run of constant periods in which nothing its
  body reads changes (:meth:`PerstTransformer._period_split`; beyond
  the paper's PERST);
* the non-nested-FETCH pattern (q17b) is rejected up front
  (:func:`repro.temporal.analysis.check_perst_applicable`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Optional, Union

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine import functions as fn
from repro.sqlengine.catalog import Catalog, Routine
from repro.sqlengine.types import SqlType
from repro.sqlengine.values import Date, Null
from repro.temporal import analysis
from repro.temporal.errors import (
    FeatureNotSupportedError,
    PerStatementInapplicableError,
)
from repro.temporal.period import Period
from repro.temporal.pointwise import add_point_conditions, forbid_temporal_dml
from repro.temporal.schema import TemporalRegistry
from repro.temporal.transform_util import (
    TransformResult,
    add_condition,
    and_all,
    clone,
    cmp,
    fold_first_instance,
    fold_last_instance,
    from_table_aliases,
    lit,
    map_bodies,
    name,
    pairwise_overlap,
    rewrite_expressions,
    unique_name,
)

PS_PREFIX = "ps_"
BEGIN_PARAM = "ps_begin"
END_PARAM = "ps_end"
RESULT_COLUMN = "taupsm_result"
RETURN_TABLE = "ps_return_tb"
CP_LOOP_VAR = "taupsm_cp"
ONCE_LABEL = "taupsm_once"
# why a per-period loop keeps every constant period, the first that holds
UNMERGED_REASONS = ("effect", "base_read", "ps_call", "seq_refused")
# statements of a per-period loop's body that act on the body alone (reads,
# control flow, declarations); writes are judged one by one, the rest effects
_POINT_SAFE = (
    ast.Select, ast.Compound, ast.DeclareVariable, ast.DeclareCursor,
    ast.DeclareHandler, ast.IfStatement, ast.CaseStatement, ast.WhileStatement,
    ast.RepeatStatement, ast.LoopStatement, ast.ForStatement, ast.LeaveStatement,
    ast.IterateStatement, ast.SignalStatement, ast.OpenCursor, ast.CloseCursor,
)
DATE_TYPE = SqlType("DATE")


class PerstTransformer:
    """Transforms one statement and its reachable routines."""

    def __init__(self, catalog: Catalog, registry: TemporalRegistry) -> None:
        self.catalog = catalog
        self.registry = registry
        self.cp_requirements: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def transform(self, stmt: ast.Statement) -> TransformResult:
        analysis.check_perst_applicable(stmt, self.catalog, self.registry)
        rename_map = {
            routine: PS_PREFIX + routine
            for routine in analysis.temporal_routines(stmt, self.catalog, self.registry)
        }
        routines = [
            self.transform_routine(self.catalog.get_routine(original), rename_map)
            for original in rename_map
        ]
        new_stmt = self.transform_top_statement(stmt, rename_map)
        return TransformResult(
            statement=new_stmt,
            routines=routines,
            cp_requirements=dict(self.cp_requirements),
        )

    def transform_top_statement(
        self, stmt: ast.Statement, rename_map: dict[str, str]
    ) -> ast.Statement:
        """Transform the invoking statement (Figure 11's query part).

        The temporal context bounds are left as the parameter names; the
        stratum substitutes literal dates at execution time via
        :func:`substitute_context`.
        """
        ctx = _Context(
            lo=name(None, BEGIN_PARAM),
            hi=name(None, END_PARAM),
            tv_vars=set(),
            tv_tables=set(),
            rename_map=rename_map,
            routine_name="<query>",
            routine_tables=set(
                analysis.reachable_temporal_tables(stmt, self.catalog, self.registry)
            ),
        )
        if isinstance(stmt, ast.Select):
            select = clone(stmt)
            select.modifier = None
            transformed = self.seq_select(select, ctx)
            if transformed is None:
                raise PerStatementInapplicableError(
                    "the invoking query is outside the algebraic fragment"
                    " supported by per-statement slicing; use maximal"
                    " slicing"
                )
            return transformed
        if isinstance(stmt, ast.CallStatement):
            call_stmt = clone(stmt)
            call_stmt.modifier = None
            target = rename_map.get(call_stmt.name.lower())
            if target is not None:
                call_stmt.name = target
                call_stmt.args = call_stmt.args + [ctx.lo_copy(), ctx.hi_copy()]
            return call_stmt
        raise FeatureNotSupportedError(
            f"sequenced {type(stmt).__name__} is not supported by"
            " per-statement slicing"
        )

    # ------------------------------------------------------------------
    # routine transformation (§VI-A, §VI-B)
    # ------------------------------------------------------------------

    def transform_routine(
        self, routine: Routine, rename_map: dict[str, str]
    ) -> Union[ast.CreateFunction, ast.CreateProcedure]:
        """The ``ps_`` clone of one temporal-reading routine; ``rename_map``
        names the clones of everything the invoking statement reaches."""
        definition = routine.definition
        new_def = clone(definition)
        new_def.name = PS_PREFIX + definition.name
        new_def.params = new_def.params + [
            ast.ParamDef(name=BEGIN_PARAM, type=DATE_TYPE),
            ast.ParamDef(name=END_PARAM, type=DATE_TYPE),
        ]
        is_function = isinstance(new_def, ast.CreateFunction)
        returns_row_array = is_function and isinstance(
            new_def.returns, ast.RowArrayType
        )
        if returns_row_array:
            # a table function's rows each gain a validity period
            return_type = None
            new_def.returns = ast.RowArrayType(
                fields=tuple(new_def.returns.fields)
                + (
                    ast.RowField(name="begin_time", type=DATE_TYPE),
                    ast.RowField(name="end_time", type=DATE_TYPE),
                )
            )
        elif is_function:
            return_type = new_def.returns
            new_def.returns = ast.RowArrayType(
                fields=(
                    ast.RowField(name=RESULT_COLUMN, type=return_type),
                    ast.RowField(name="begin_time", type=DATE_TYPE),
                    ast.RowField(name="end_time", type=DATE_TYPE),
                )
            )
        else:
            return_type = None
            for param in new_def.params:
                if param.mode in ("OUT", "INOUT") and self._param_is_time_varying(
                    definition, param.name
                ):
                    raise PerStatementInapplicableError(
                        f"{definition.name}: OUT parameter {param.name!r}"
                        " would be time-varying under per-statement slicing"
                    )
        ctx = _Context(
            lo=name(None, BEGIN_PARAM),
            hi=name(None, END_PARAM),
            tv_vars=set(),
            tv_tables=set(),
            rename_map=rename_map,
            routine_name=definition.name,
            return_type=return_type,
            routine_tables=set(
                analysis.reachable_temporal_tables(
                    definition.name, self.catalog, self.registry
                )
            ),
        )
        body = new_def.body
        if not isinstance(body, ast.Compound):
            body = ast.Compound(declarations=[], statements=[body])
        if analysis.temporal_cursor(routine, self.catalog, self.registry):
            new_def.body = self._transform_cursor_body(body, ctx)
            return new_def
        ctx.tv_vars, ctx.tv_records = self._time_varying_variables(body, ctx)
        ctx.assignments = _assignments(body)
        new_def.body = self._transform_compound(body, ctx)
        if return_type is not None:
            new_def.body.declarations.insert(0, self._return_table_declaration(ctx))
        return new_def

    def _param_is_time_varying(self, definition, param_name: str) -> bool:
        """Is an OUT parameter assigned from temporal data anywhere?"""
        target = param_name.lower()
        for child in ast.walk(definition.body):
            if isinstance(child, ast.SetStatement) and target in [
                t.lower() for t in child.targets
            ]:
                if self._is_temporal(child.value, set(), set()):
                    return True
            if isinstance(child, ast.SelectInto) and target in [
                t.lower() for t in child.targets
            ]:
                if self._is_temporal(child.select, set(), set()):
                    return True
        return False

    # -- temporality tests --------------------------------------------------

    def _is_temporal(
        self,
        node: ast.Node,
        tv_vars: set[str],
        tv_tables: set[str],
        tv_records: set[str] = frozenset(),
    ) -> bool:
        """Does ``node`` (an expression or a select) read temporal data:
        a temporal or variable table, a time-varying variable, a FOR
        record in ``tv_records``, or a routine that reads temporal data?"""
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                if child.qualifier is None and child.name.lower() in tv_vars:
                    return True
                if (
                    child.qualifier is not None
                    and child.qualifier.lower() in tv_records
                ):
                    return True
            elif isinstance(child, ast.FunctionCall):
                if analysis.reads_temporal(child.name, self.catalog, self.registry):
                    return True
            elif isinstance(child, ast.TableRef):
                key = child.name.lower()
                if self.registry.is_temporal(key) or key in tv_tables or key in tv_vars:
                    return True
        return False

    def _time_varying_variables(
        self, body: ast.Compound, ctx: "_Context"
    ) -> tuple[set[str], set[str]]:
        """Fixpoint dataflow: (variables, FOR-loop records) over temporal data."""
        tv: set[str] = set()
        records: set[str] = set()
        # row-array variables hold sequenced data under PERST
        for child in ast.walk(body):
            if isinstance(child, ast.DeclareVariable) and child.array_type is not None:
                ctx.tv_tables.update(n.lower() for n in child.names)
        changed = True
        while changed:
            changed = False
            for child in ast.walk(body):
                targets: list[str] = []
                if isinstance(child, ast.SetStatement):
                    if self._is_temporal(child.value, tv, ctx.tv_tables, records):
                        targets = child.targets
                elif isinstance(child, ast.SelectInto):
                    if self._is_temporal(child.select, tv, ctx.tv_tables, records):
                        targets = child.targets
                elif isinstance(child, ast.ForStatement):
                    if (
                        self._is_temporal(child.select, tv, ctx.tv_tables, records)
                        and child.loop_var.lower() not in records
                    ):
                        records.add(child.loop_var.lower())
                        changed = True
                elif isinstance(child, (ast.IfStatement, ast.CaseStatement)) and any(
                    self._is_temporal(c, tv, ctx.tv_tables, records)
                    for c in _conditions(child)
                ):
                    # control dependence: a variable assigned under a
                    # time-varying condition is itself time-varying
                    targets = [
                        target
                        for sub in ast.walk(child)
                        if isinstance(sub, (ast.SetStatement, ast.SelectInto))
                        for target in sub.targets
                    ]
                for target in targets:
                    if target.lower() not in tv:
                        tv.add(target.lower())
                        changed = True
        return tv, records

    # ------------------------------------------------------------------
    # algebraic body mode
    # ------------------------------------------------------------------

    def _transform_compound(self, body: ast.Compound, ctx: "_Context") -> ast.Compound:
        declarations: list[ast.PsmStatement] = []
        prelude: list[ast.Statement] = []
        for decl in body.declarations:
            new_decls, extra = self._transform_declaration(decl, ctx)
            declarations.extend(new_decls)
            prelude.extend(extra)
        return body.copy(
            declarations=declarations,
            statements=prelude + self._transform_block(body.statements, ctx),
        )

    def _transform_block(
        self, statements: list[ast.Statement], ctx: "_Context"
    ) -> list[ast.Statement]:
        return [
            out for stmt in statements for out in self.transform_body_statement(stmt, ctx)
        ]

    def _return_table_declaration(self, ctx: "_Context") -> ast.DeclareVariable:
        assert ctx.return_type is not None
        return ast.DeclareVariable(
            names=[RETURN_TABLE],
            type=None,
            array_type=ast.RowArrayType(
                fields=(
                    ast.RowField(name=RESULT_COLUMN, type=ctx.return_type),
                    ast.RowField(name="begin_time", type=DATE_TYPE),
                    ast.RowField(name="end_time", type=DATE_TYPE),
                )
            ),
        )

    def _transform_declaration(
        self, decl: ast.PsmStatement, ctx: "_Context"
    ) -> tuple[list[ast.PsmStatement], list[ast.Statement]]:
        """One declaration → (new declarations, prelude statements)."""
        if isinstance(decl, ast.DeclareVariable) and decl.array_type is not None:
            # a row-array variable holds sequenced rows: add period columns
            field_names = {f.name.lower() for f in decl.array_type.fields}
            new_fields = tuple(decl.array_type.fields)
            if "begin_time" not in field_names:
                new_fields += (ast.RowField(name="begin_time", type=DATE_TYPE),)
            if "end_time" not in field_names:
                new_fields += (ast.RowField(name="end_time", type=DATE_TYPE),)
            ctx.tv_tables.update(n.lower() for n in decl.names)
            return (
                [
                    ast.DeclareVariable(
                        names=list(decl.names),
                        type=None,
                        array_type=ast.RowArrayType(fields=new_fields),
                    )
                ],
                [],
            )
        if isinstance(decl, ast.DeclareVariable):
            tv_names = [n for n in decl.names if n.lower() in ctx.tv_vars]
            plain = [n for n in decl.names if n.lower() not in ctx.tv_vars]
            new_decls: list[ast.PsmStatement] = []
            prelude: list[ast.Statement] = []
            if plain:
                new_decls.append(
                    ast.DeclareVariable(
                        names=plain, type=decl.type, default=clone(decl.default)
                        if decl.default is not None else None,
                    )
                )
            for var in tv_names:
                new_decls.append(
                    ast.DeclareVariable(
                        names=[var],
                        type=None,
                        array_type=_variable_table_type(var, decl.type),
                    )
                )
                if decl.default is not None:
                    prelude.append(
                        ast.Insert(
                            table=var,
                            values=[[clone(decl.default), ctx.lo_copy(), ctx.hi_copy()]],
                        )
                    )
            return new_decls, prelude
        # a cursor declaration is reachable only when its select is
        # non-temporal
        return [clone(decl)], []

    # -- statement dispatch ---------------------------------------------

    def transform_body_statement(
        self, stmt: ast.Statement, ctx: "_Context"
    ) -> list[ast.Statement]:
        if isinstance(stmt, (ast.SetStatement, ast.SelectInto)):
            return self._transform_assignment(stmt, ctx)
        if isinstance(stmt, ast.ReturnStatement):
            return self._transform_return(stmt, ctx)
        if isinstance(stmt, ast.Compound):
            return [self._transform_compound(stmt, ctx)]
        if isinstance(stmt, ast.ForStatement) and self._is_temporal(
            stmt.select, ctx.tv_vars, ctx.tv_tables, ctx.tv_records
        ):
            return self._transform_for(stmt, ctx)
        # IF / CASE / loop conditions do not count FOR records as temporal
        if any(
            self._is_temporal(c, ctx.tv_vars, ctx.tv_tables) for c in _conditions(stmt)
        ):
            if isinstance(stmt, LOOPS):
                raise PerStatementInapplicableError(
                    f"{ctx.routine_name}: loop condition over temporal data"
                )
            return self._statement_loop_fallback(stmt, ctx)
        inner = replace(ctx, in_loop=True) if isinstance(stmt, LOOPS) else ctx
        mapped = map_bodies(stmt, lambda body: self._transform_block(body, inner))
        if mapped is not None:
            return [mapped]
        if isinstance(stmt, ast.CallStatement):
            return self._transform_call(stmt, ctx)
        if isinstance(stmt, ast.Select):
            return self._transform_result_select(stmt, ctx)
        if isinstance(stmt, (ast.Insert, ast.Update, ast.Delete)):
            return self._transform_dml(stmt, ctx)
        if isinstance(stmt, ast.CreateTable):
            return self._transform_create_table(stmt, ctx)
        if isinstance(stmt, (ast.LeaveStatement, ast.IterateStatement,
                             ast.DropTable, ast.OpenCursor, ast.FetchCursor,
                             ast.CloseCursor)):
            return [clone(stmt)]
        raise PerStatementInapplicableError(
            f"{ctx.routine_name}: cannot transform {type(stmt).__name__}"
            " under per-statement slicing"
        )

    # -- SET / SELECT INTO (§VI-B) --------------------------------------

    def _transform_assignment(
        self, stmt: Union[ast.SetStatement, ast.SelectInto], ctx: "_Context"
    ) -> list[ast.Statement]:
        """A time-varying target's rows in the evaluation period are
        deleted, then its sequenced value inserted; a value outside the
        algebraic fragment is filled in by the per-statement loop."""
        source = stmt.value if isinstance(stmt, ast.SetStatement) else stmt.select
        if not _time_varying_targets(stmt, ctx):
            if self._is_temporal(source, ctx.tv_vars, ctx.tv_tables, ctx.tv_records):
                raise PerStatementInapplicableError(
                    f"{ctx.routine_name}: non-time-varying variable"
                    f" {stmt.targets[0]!r} assigned from temporal data"
                )
            return [clone(stmt)]
        if isinstance(stmt, ast.SetStatement):
            # self-referential sequenced assignment (acc = acc + x) cannot
            # be expressed as delete-then-insert; the paper's workloads
            # route accumulation through cursors (per-period evaluation)
            targets = {t.lower() for t in stmt.targets}
            for child in ast.walk(stmt.value):
                if (
                    isinstance(child, ast.Name)
                    and child.qualifier is None
                    and child.name.lower() in targets
                ):
                    raise PerStatementInapplicableError(
                        f"{ctx.routine_name}: self-referential sequenced"
                        f" assignment to {child.name!r}"
                    )
        deletes: list[ast.Statement] = [
            self._sequenced_delete(t, ctx) for t in stmt.targets
        ]
        if isinstance(stmt, ast.SetStatement) and len(stmt.targets) == 1:
            selects = [self.seq_value_select(stmt.value, ctx)]
        else:
            rows = _row_select(stmt, ctx)
            selects = [
                self.seq_select(clone(rows), ctx, keep_items=[index])
                for index in range(len(stmt.targets))
            ]
        if any(select is None for select in selects):
            # every target's rows in the period are gone before the loop
            # stamps its values: none may survive beside them
            return deletes + self._statement_loop_fallback(stmt, ctx)
        return deletes + [
            ast.Insert(table=target, select=select)
            for target, select in zip(stmt.targets, selects)
        ]

    def _sequenced_delete(self, target: str, ctx: "_Context") -> ast.Delete:
        """Delete rows of a variable table valid in the evaluation period."""
        return ast.Delete(
            table=target,
            where=ast.BinaryOp(
                op="AND",
                left=cmp("<", name(None, "begin_time"), ctx.hi_copy()),
                right=cmp("<=", ctx.lo_copy(), name(None, "end_time")),
            ),
        )

    # -- RETURN (§VI-B) -----------------------------------------------------

    def _transform_return(
        self, stmt: ast.ReturnStatement, ctx: "_Context"
    ) -> list[ast.Statement]:
        if ctx.return_type is None:
            return [clone(stmt)]
        if stmt.value is None:
            return [ast.ReturnStatement(value=name(None, RETURN_TABLE))]
        # alias optimization: RETURN of a bare time-varying variable
        # returns its table directly (the paper's fname aliasing)
        if (
            isinstance(stmt.value, ast.Name)
            and stmt.value.qualifier is None
            and stmt.value.name.lower() in ctx.tv_vars
        ):
            return [ast.ReturnStatement(value=name(None, stmt.value.name))]
        value_select = self.seq_value_select(stmt.value, ctx)
        if value_select is None:
            raise PerStatementInapplicableError(
                f"{ctx.routine_name}: RETURN value outside the supported"
                " fragment"
            )
        return [
            ast.Insert(table=RETURN_TABLE, select=value_select),
            ast.ReturnStatement(value=name(None, RETURN_TABLE)),
        ]

    # -- FOR over temporal data -------------------------------------------

    def _transform_for(
        self, stmt: ast.ForStatement, ctx: "_Context"
    ) -> list[ast.Statement]:
        seq = self.seq_select(clone(stmt.select), ctx)
        if seq is None:
            return self._statement_loop_fallback(stmt, ctx)
        # block-structured slicing: the loop body runs once per
        # (row, period); inner statements evaluate over the row's period
        inner_ctx = replace(
            ctx,
            lo=name(stmt.loop_var, "begin_time"),
            hi=name(stmt.loop_var, "end_time"),
            in_loop=True,
        )
        return [stmt.copy(select=seq, body=self._transform_block(stmt.body, inner_ctx))]

    # -- CALL -------------------------------------------------------------

    def _transform_call(
        self, stmt: ast.CallStatement, ctx: "_Context"
    ) -> list[ast.Statement]:
        new_stmt = clone(stmt)
        target = ctx.rename_map.get(new_stmt.name.lower())
        if target is not None:
            new_stmt.name = target
            new_stmt.args = new_stmt.args + [ctx.lo_copy(), ctx.hi_copy()]
        return [new_stmt]

    # -- result-set SELECT in a procedure --------------------------------

    def _transform_result_select(
        self, stmt: ast.Select, ctx: "_Context"
    ) -> list[ast.Statement]:
        if not self._is_temporal(stmt, ctx.tv_vars, ctx.tv_tables, ctx.tv_records):
            return [clone(stmt)]
        seq = self.seq_select(clone(stmt), ctx)
        if seq is None:
            return self._statement_loop_fallback(stmt, ctx)
        return [seq]

    # -- DML on temp / variable tables -------------------------------------

    def _transform_dml(self, stmt, ctx: "_Context") -> list[ast.Statement]:
        forbid_temporal_dml(stmt, self.registry)
        if isinstance(stmt, ast.Insert) and stmt.select is not None:
            if self._is_temporal(stmt.select, ctx.tv_vars, ctx.tv_tables, ctx.tv_records):
                seq = self.seq_select(clone(stmt.select), ctx)
                if seq is None:
                    # point-wise, each period's rows would land unstamped
                    # in a table later statements read as conventional
                    raise PerStatementInapplicableError(
                        f"{ctx.routine_name}: INSERT … SELECT over a"
                        " non-algebraic temporal query"
                    )
                ctx.tv_tables.add(stmt.table.lower())
                return [ast.Insert(table=stmt.table, columns=None, select=seq)]
        return [clone(stmt)]

    def _transform_create_table(
        self, stmt: ast.CreateTable, ctx: "_Context"
    ) -> list[ast.Statement]:
        if stmt.as_select is not None and self._is_temporal(
            stmt.as_select, ctx.tv_vars, ctx.tv_tables
        ):
            seq = self.seq_select(clone(stmt.as_select), ctx)
            if seq is None:
                raise PerStatementInapplicableError(
                    f"{ctx.routine_name}: CREATE TABLE AS over a"
                    " non-algebraic temporal query"
                )
            ctx.tv_tables.add(stmt.name.lower())
            return [
                ast.CreateTable(
                    name=stmt.name, temporary=stmt.temporary, as_select=seq
                )
            ]
        return [clone(stmt)]

    # ------------------------------------------------------------------
    # sequenced SELECT: the algebraic fragment
    # ------------------------------------------------------------------

    def seq_select(
        self,
        select: ast.Select,
        ctx: "_Context",
        keep_items: Optional[list[int]] = None,
        bounds: bool = False,
    ) -> Optional[ast.Select]:
        """Transform an SPJ select into its sequenced equivalent, or None.

        The result carries two extra columns, ``begin_time`` and
        ``end_time``: the intersection of the validity periods of every
        temporal source and the evaluation period (Figure 11).  With
        ``bounds`` its only columns are each temporal source's period,
        unclipped: every bound of a row's period is among them.
        """
        if (
            select.set_op is not None
            # DISTINCT over (values, begin, end) keeps value-equal rows
            # of overlapping periods apart: one snapshot holds both
            or select.distinct
            or select.group_by
            or select.having is not None
            or any(
                item.expr is not None and _has_aggregate(item.expr)
                for item in select.items
            )
        ):
            return None
        if select.where is not None and _has_temporal_subquery(
            select.where, self, ctx
        ):
            return None
        # sequenced outer joins need per-period null-extension, which the
        # algebraic intersection cannot express; use the loop fallback
        if any(
            isinstance(child, ast.Join) and child.kind in ("LEFT", "RIGHT")
            for child in ast.walk(select)
        ):
            return None
        taken = {alias.lower() for _, alias in from_table_aliases(select)}
        taken |= {BEGIN_PARAM, END_PARAM}
        sources: list[tuple[ast.Expression, ast.Expression]] = []
        # 1) temporal tables, variable tables, and sequenced temp tables
        #    already present in FROM
        for table_name, alias in from_table_aliases(select):
            info = self.registry.get(table_name)
            if info is not None:
                sources.append(
                    (name(alias, info.begin_column), name(alias, info.end_column))
                )
            elif table_name in ctx.tv_vars or table_name in ctx.tv_tables:
                sources.append(
                    (name(alias, "begin_time"), name(alias, "end_time"))
                )
        # 1b) table functions over temporal routines already in FROM (q19):
        #     rename to ps_ form, pass the period, expose period columns
        for item in select.from_items:
            if isinstance(item, ast.TableFunctionRef):
                call_name = item.call.name.lower()
                target = ctx.rename_map.get(call_name)
                if target is not None:
                    item.call.name = target
                    item.call.args = item.call.args + [ctx.lo_copy(), ctx.hi_copy()]
                    sources.append(
                        (name(item.alias, "begin_time"), name(item.alias, "end_time"))
                    )
                elif analysis.reads_temporal(call_name, self.catalog, self.registry):
                    return None
        # 2) time-varying scalar variables used in expressions: join their
        #    variable tables
        tv_in_expr = self._collect_tv_names(select, ctx)
        for var in tv_in_expr:
            alias = unique_name(f"taupsm_{var}", taken)
            select.from_items.append(ast.TableRef(name=var, alias=alias))
            sources.append((name(alias, "begin_time"), name(alias, "end_time")))
            self._substitute_variable(select, var, alias)
        # 3) temporal routine calls: join TABLE(ps_f(...)) laterally
        replaced = self._lift_temporal_calls(select, ctx, taken, sources)
        if replaced is None:
            return None
        if not sources:
            if bounds:
                return None
            # no temporal source at all: constant over the whole period
            select.items = _filter_items(select.items, keep_items) + [
                ast.SelectItem(expr=ctx.lo_copy(), alias="begin_time"),
                ast.SelectItem(expr=ctx.hi_copy(), alias="end_time"),
            ]
            return select
        add_condition(
            select,
            and_all(pairwise_overlap(sources + [(ctx.lo_copy(), ctx.hi_copy())])),
        )
        if bounds:
            select.items = [ast.SelectItem(expr=clone(e)) for pair in sources for e in pair]
            select.order_by = []
            return select
        begins = [b for b, _ in sources] + [ctx.lo_copy()]
        ends = [e for _, e in sources] + [ctx.hi_copy()]
        select.items = _filter_items(select.items, keep_items) + [
            ast.SelectItem(
                expr=fold_last_instance([clone(b) for b in begins]),
                alias="begin_time",
            ),
            ast.SelectItem(
                expr=fold_first_instance([clone(e) for e in ends]),
                alias="end_time",
            ),
        ]
        return select

    def _collect_tv_names(self, select: ast.Select, ctx: "_Context") -> list[str]:
        """tv variables referenced as bare names in the select's expressions."""
        found: list[str] = []
        for child in ast.walk(select):
            if (
                isinstance(child, ast.Name)
                and child.qualifier is None
                and child.name.lower() in ctx.tv_vars
                and child.name.lower() not in found
            ):
                found.append(child.name.lower())
        return found

    def _substitute_variable(
        self, node: ast.Node, var: str, alias: str
    ) -> None:
        """Rewrite bare references to tv var ``var`` as ``alias.var``."""

        def rewriter(expr: ast.Expression) -> Optional[ast.Expression]:
            if (
                isinstance(expr, ast.Name)
                and expr.qualifier is None
                and expr.name.lower() == var
            ):
                return name(alias, var)
            return None

        rewrite_expressions(node, rewriter)

    def _lift_temporal_calls(
        self,
        select: ast.Select,
        ctx: "_Context",
        taken: set[str],
        sources: list[tuple[ast.Expression, ast.Expression]],
    ) -> Optional[bool]:
        """Replace temporal function calls with lateral TABLE(...) joins."""
        failure: list[str] = []

        def rewriter(expr: ast.Expression) -> Optional[ast.Expression]:
            if not isinstance(expr, ast.FunctionCall):
                return None
            if not analysis.reads_temporal(expr.name, self.catalog, self.registry):
                return None
            target = ctx.rename_map.get(expr.name.lower())
            if target is None:
                failure.append(expr.name)
                return None
            alias = unique_name("taupsm_f", taken)
            call_node = ast.FunctionCall(
                name=target,
                args=[clone(a) for a in expr.args] + [ctx.lo_copy(), ctx.hi_copy()],
            )
            select.from_items.append(
                ast.TableFunctionRef(call=call_node, alias=alias)
            )
            sources.append((name(alias, "begin_time"), name(alias, "end_time")))
            return name(alias, RESULT_COLUMN)

        # rewrite only the select's own items/where (not nested selects)
        for item in select.items:
            if item.expr is not None:
                item.expr = rewrite_expressions(item.expr, rewriter, into_selects=False)
        if select.where is not None:
            select.where = rewrite_expressions(select.where, rewriter, into_selects=False)
        if failure:
            return None
        return True

    # ------------------------------------------------------------------
    # sequenced value expression (for SET / RETURN)
    # ------------------------------------------------------------------

    def seq_value_select(
        self, expr: ast.Expression, ctx: "_Context"
    ) -> Optional[ast.Select]:
        """Build ``SELECT value, begin_time, end_time`` for an expression."""
        inner = expr
        if isinstance(inner, ast.Parenthesized):
            inner = inner.expr
        if isinstance(inner, ast.ScalarSubquery):
            return self.seq_select(clone(inner.select), ctx)
        working = clone(inner)
        carrier = ast.Select(
            items=[ast.SelectItem(expr=working, alias=RESULT_COLUMN)],
            from_items=[],
        )
        return self.seq_select(carrier, ctx)

    # ------------------------------------------------------------------
    # point-wise evaluation: the per-statement loop (§VI-C) and
    # cursor-body mode (§VII-C)
    # ------------------------------------------------------------------

    def _statement_loop_fallback(
        self, stmt: ast.Statement, ctx: "_Context"
    ) -> list[ast.Statement]:
        """Wrap one statement in a FOR loop over the routine's constant
        periods.

        The statement evaluates point-wise at each period's begin; its
        outputs are stamped with the period (:meth:`_at_point`).
        """
        if isinstance(stmt, (ast.IfStatement, ast.CaseStatement, ast.ForStatement)):
            self._check_stamped_assignments(stmt, ctx)
        body = self._at_point(stmt, ctx, *_stamp())
        return [self._cp_loop(ctx, body, self._period_split(ctx, body))]

    def _check_stamped_assignments(self, stmt: ast.Statement, ctx: "_Context") -> None:
        """The loop stamps what an IF / CASE / FOR assigns a time-varying
        variable without deleting the variable's rows first.  That is
        right only when no other statement (or DEFAULT) gives the variable
        rows and the assignment runs once per point — not under a loop."""
        own = _assignments(stmt)
        looped = ctx.in_loop or any(isinstance(child, LOOPS) for child in ast.walk(stmt))
        for var in sorted(own):
            if var in ctx.tv_vars and (looped or ctx.assignments[var] > own[var]):
                raise PerStatementInapplicableError(
                    f"{ctx.routine_name}: time-varying variable {var!r} is"
                    " assigned under a per-statement loop and also"
                    " elsewhere or inside a loop"
                )

    def require_cp_table(self, routine_name: str, tables: list[str]) -> str:
        """Register a constant-period helper table and return its name."""
        key = routine_name.lower().strip("<>").replace(".", "_") or "query"
        cp_table = f"taupsm_cp_{key}"
        existing = self.cp_requirements.get(cp_table)
        if existing is not None:
            merged = sorted(set(existing) | set(tables))
            self.cp_requirements[cp_table] = merged
        else:
            self.cp_requirements[cp_table] = sorted(tables)
        return cp_table

    def _period_split(
        self,
        ctx: "_Context",
        statements: list,
        cursors: list[tuple[str, Union[ast.Select, str]]] = (),
    ) -> ast.PeriodSplit:
        """Where the loop over ``statements`` (its body but the aux
        tables) splits its periods: where a row of a variable table it
        reads, or of a cursor's bounds (:meth:`_cursor_bounds`), begins
        or ends.  A write but a stamped insert into a variable or return
        table or to a variable it declares, any other statement not in
        :data:`_POINT_SAFE`, a temporal base table or a ``ps_`` call
        read at the point, or a cursor without bounds keeps them all."""
        declared = _declared(statements)
        stamped_into = ctx.tv_vars | ctx.tv_tables | {RETURN_TABLE}
        ps_names = {target.lower() for target in ctx.rename_map.values()}
        reasons = {seq for _, seq in cursors if isinstance(seq, str)}
        read: list[str] = []
        for node in ast.walk(statements):
            if isinstance(node, (ast.Insert, ast.Update, ast.Delete)):
                if node.table.lower() not in declared and not (
                    isinstance(node, ast.Insert)
                    and node.table.lower() in stamped_into
                    and _stamped(node)
                ):
                    reasons.add("effect")
            elif isinstance(node, (ast.SetStatement, ast.SelectInto, ast.FetchCursor)):
                if not {target.lower() for target in node.targets} <= declared:
                    reasons.add("effect")
            elif isinstance(node, ast.Statement) and not isinstance(node, _POINT_SAFE):
                reasons.add("effect")
            elif isinstance(node, ast.FunctionCall):
                key = node.name.lower()
                if key in ps_names:
                    reasons.add("ps_call")
                elif self.catalog.has_routine(key) and not self.catalog.write_free(key):
                    reasons.add("effect")
            elif isinstance(node, ast.TableRef):
                key = node.name.lower()
                if key in stamped_into:
                    read += [key] if key not in read else []
                elif self.registry.is_temporal(key) or self.catalog.has_view(key):
                    reasons.add("base_read")
        for reason in UNMERGED_REASONS:
            if reason in reasons:
                return ast.PeriodSplit(unmerged=reason)
        return ast.PeriodSplit(
            split_at=[_periods_of(table) for table in read]
            + [seq for _, seq in cursors],
            sources=read + [f"cursor {cursor}" for cursor, _ in cursors],
        )

    def _cp_loop(
        self, ctx: "_Context", body: list[ast.Statement], split: ast.PeriodSplit
    ) -> ast.ForStatement:
        """``FOR taupsm_cp AS`` the routine's constant periods that begin
        in the evaluation period, merged as ``split`` allows, ``DO body``."""
        cp_table = self.require_cp_table(ctx.routine_name, sorted(ctx.routine_tables))
        loop_select = _periods_of(cp_table, ast.BinaryOp(
            op="AND",
            left=cmp(">=", name(None, "begin_time"), ctx.lo_copy()),
            right=cmp("<", name(None, "begin_time"), ctx.hi_copy()),
        ))
        return ast.ForStatement(CP_LOOP_VAR, loop_select, body, split=split)

    def _at_point(
        self,
        stmt: ast.Statement,
        ctx: "_Context",
        point: ast.Expression,
        period_end: ast.Expression,
        once: bool = False,
        labels: frozenset = frozenset(),
    ) -> list[ast.Statement]:
        """Evaluate one statement at ``point``; stamp each output with the
        period ``[point, period_end)``.

        An assignment to a time-varying variable becomes a stamped insert
        into its table; control statements are copied with their
        conditions read at the point and their bodies walked; any other
        statement is read at the point.  ``once`` is cursor-body mode,
        whose body runs in a ``taupsm_once`` block per period: a RETURN
        stamps its value and leaves the block.  Under the per-statement
        loop a RETURN cannot end the routine at one point, and a result
        set would be returned once per constant period: both are refused.
        So is a LEAVE / ITERATE of a label not among ``labels``, those
        defined inside the loop: it would end the loop over the periods
        at the first one it jumps at.
        """
        if isinstance(stmt, (ast.LeaveStatement, ast.IterateStatement)) and (
            stmt.label.lower() not in labels
        ):
            raise PerStatementInapplicableError(
                f"{ctx.routine_name}: {stmt.to_sql()} under a per-period"
                " loop jumps out of it"
            )
        if isinstance(stmt, ast.ReturnStatement):
            if not once:
                raise PerStatementInapplicableError(
                    f"{ctx.routine_name}: RETURN under a per-statement loop"
                    " cannot end the routine at one point"
                )
            leave = ast.LeaveStatement(label=ONCE_LABEL)
            if ctx.return_type is None:
                return [leave]
            value = stmt.value if stmt.value is not None else lit(Null)
            return [
                ast.Insert(
                    table=RETURN_TABLE,
                    values=[[
                        self._point_expr(value, ctx, point),
                        clone(point),
                        clone(period_end),
                    ]],
                ),
                leave,
            ]
        if isinstance(stmt, ast.Select):
            raise PerStatementInapplicableError(
                f"{ctx.routine_name}: a result set under a per-period loop"
                " would be returned once per constant period"
            )
        if isinstance(
            stmt, (ast.SetStatement, ast.SelectInto)
        ) and _time_varying_targets(stmt, ctx):
            if isinstance(stmt, ast.SetStatement) and len(stmt.targets) == 1:
                value = self._point_expr(stmt.value, ctx, point)
                return [
                    ast.Insert(
                        table=stmt.targets[0],
                        values=[[value, clone(point), clone(period_end)]],
                    )
                ]
            rows = self._point_expr(_row_select(stmt, ctx), ctx, point)
            inserts: list[ast.Statement] = []
            for index, target in enumerate(stmt.targets):
                one = clone(rows)
                one.items = [one.items[index]]
                inserts.append(
                    ast.Insert(
                        table=target,
                        select=_with_period_items(one, clone(point), clone(period_end)),
                    )
                )
            return inserts
        label = getattr(stmt, "label", None)
        inside = labels | {label.lower()} if label else labels
        mapped = map_bodies(
            stmt,
            lambda body: [
                out
                for inner in body
                for out in self._at_point(inner, ctx, point, period_end, once, inside)
            ],
            lambda node: self._point_expr(node, ctx, point),
        )
        return [mapped if mapped is not None else self._point_expr(stmt, ctx, point)]

    def _point_expr(
        self, node: ast.Node, ctx: "_Context", point: ast.Expression
    ) -> ast.Node:
        """A copy of ``node`` — a condition, a select or a leaf statement —
        that reads the database at ``point``: each ``ps_`` call scalarised
        at the point's granule, each time-varying variable read from its
        table, and :func:`add_point_conditions` on every temporal and
        variable table."""

        def rewriter(expr: ast.Expression) -> Optional[ast.Expression]:
            if isinstance(expr, ast.FunctionCall):
                target = ctx.rename_map.get(expr.name.lower())
                if target is None:
                    return None
                call_node = ast.FunctionCall(
                    name=target,
                    args=list(expr.args) + [clone(point), _point_plus_one(point)],
                )
                subquery = ast.Select(
                    items=[ast.SelectItem(expr=name("taupsm_f0", RESULT_COLUMN))],
                    from_items=[
                        ast.TableFunctionRef(call=call_node, alias="taupsm_f0")
                    ],
                )
                return ast.ScalarSubquery(select=subquery)
            # a bare read of a tv variable reads its table
            if (
                isinstance(expr, ast.Name)
                and expr.qualifier is None
                and expr.name.lower() in ctx.tv_vars
            ):
                subquery = ast.Select(
                    items=[ast.SelectItem(expr=name(None, expr.name))],
                    from_items=[ast.TableRef(name=expr.name)],
                )
                return ast.ScalarSubquery(select=subquery)
            return None

        node = rewrite_expressions(clone(node), rewriter)
        add_point_conditions(
            node, point, self.registry, period_tables=ctx.tv_vars | ctx.tv_tables
        )
        return node

    def _cursor_bounds(
        self, select: ast.Select, ctx: "_Context", variables: set[str]
    ) -> Union[ast.Select, str]:
        """The sequenced bounds of a per-period cursor's query (its rows
        change only where a version they are made of begins or ends, so
        ORDER BY ties keep the versions' order), or why it has none: a
        routine that writes (``effect``) or reads temporal data
        (``ps_call``); a temporal read outside its top-level FROM, a
        view, a body variable (read before the body declares it) or a
        shape :meth:`seq_select` refuses (``seq_refused``)."""
        nodes = list(ast.walk(select))
        calls = [node.name.lower() for node in nodes if isinstance(node, ast.FunctionCall)]
        calls = [call for call in calls if self.catalog.has_routine(call)]
        if not all(self.catalog.write_free(call) for call in calls):
            return "effect"
        if any(analysis.reads_temporal(c, self.catalog, self.registry) for c in calls):
            return "ps_call"
        tables = [node.name.lower() for node in nodes if isinstance(node, ast.TableRef)]
        top = [table for table, _ in from_table_aliases(select)]

        def temporal(table: str) -> bool:
            return self.registry.is_temporal(table) or table in ctx.tv_tables | ctx.tv_vars

        if (
            sum(map(temporal, tables)) > sum(map(temporal, top))
            or any(map(self.catalog.has_view, tables))
            or any(
                isinstance(node, ast.Name) and node.qualifier is None
                and node.name.lower() in variables for node in nodes
            )
        ):
            return "seq_refused"
        return self.seq_select(clone(select), ctx, bounds=True) or "seq_refused"

    def _transform_cursor_body(
        self, body: ast.Compound, ctx: "_Context"
    ) -> ast.Compound:
        """Evaluate the whole body once per constant period (merged where
        nothing it reads changes, :meth:`_period_split`).

        The cursor's query is materialized into an auxiliary temporary
        table for each period (the write traffic the paper blames for
        q7/q7b's PERST cost), the cursor re-pointed at it, everything
        else point-evaluated, and outputs stamped with the period.
        """
        point, period_end = _stamp()
        declarations: list[ast.PsmStatement] = []
        statements: list[ast.Statement] = []
        cursors: list[tuple[str, Union[ast.Select, str]]] = []
        variables = _declared(body.declarations)
        for decl in body.declarations:
            if isinstance(decl, ast.DeclareCursor) and self._is_temporal(
                decl.select, set(), set()
            ):
                cursors.append(
                    (decl.name, self._cursor_bounds(decl.select, ctx, variables))
                )
                aux_name = f"taupsm_aux_{decl.name}"
                statements.append(
                    ast.CreateTable(
                        name=aux_name,
                        temporary=True,
                        as_select=self._point_expr(decl.select, ctx, point),
                    )
                )
                declarations.append(
                    ast.DeclareCursor(
                        name=decl.name,
                        select=ast.Select(
                            items=[ast.SelectItem(expr=None)],
                            from_items=[ast.TableRef(name=aux_name)],
                        ),
                    )
                )
            else:
                declarations.append(self._point_expr(decl, ctx, point))
        block = ast.LoopStatement(
            body=body.statements + [ast.LeaveStatement(label=ONCE_LABEL)],
            label=ONCE_LABEL,
        )
        evaluated = self._at_point(block, ctx, point, period_end, once=True)
        split = self._period_split(ctx, declarations + evaluated, cursors)
        per_period = ast.Compound(declarations, statements + evaluated)
        result = ast.Compound(statements=[self._cp_loop(ctx, [per_period], split)])
        if ctx.return_type is not None:
            result.declarations.append(self._return_table_declaration(ctx))
            result.statements.append(ast.ReturnStatement(value=name(None, RETURN_TABLE)))
        return result


# ---------------------------------------------------------------------------
# context object and helpers
# ---------------------------------------------------------------------------


@dataclass
class _Context:
    """Transformation context for one routine (or the invoking query)."""

    lo: ast.Expression
    hi: ast.Expression
    tv_vars: set[str]
    tv_tables: set[str]
    rename_map: dict[str, str]
    routine_name: str
    return_type: Optional[SqlType] = None
    tv_records: set[str] = dataclass_field(default_factory=set)
    routine_tables: set[str] = dataclass_field(default_factory=set)
    # statements (and DEFAULTs) assigning each variable in the routine
    assignments: Counter = dataclass_field(default_factory=Counter)
    # inside a loop body: a statement here may run more than once
    in_loop: bool = False

    def lo_copy(self) -> ast.Expression:
        return clone(self.lo)

    def hi_copy(self) -> ast.Expression:
        return clone(self.hi)


LOOPS = (ast.WhileStatement, ast.RepeatStatement, ast.LoopStatement, ast.ForStatement)


def _conditions(stmt: ast.Statement) -> list[ast.Expression]:
    """The conditions an IF, CASE, WHILE or REPEAT branches on."""
    if isinstance(stmt, ast.IfStatement):
        return [cond for cond, _ in stmt.branches]
    if isinstance(stmt, ast.CaseStatement):
        operand = [stmt.operand] if stmt.operand is not None else []
        return operand + [when for when, _ in stmt.whens]
    if isinstance(stmt, ast.WhileStatement):
        return [stmt.condition]
    if isinstance(stmt, ast.RepeatStatement):
        return [stmt.until]
    return []


def _assignments(node: ast.Node) -> Counter:
    """How many SET, SELECT INTO, FETCH and DEFAULT clauses under ``node``
    assign each (lower-cased) variable."""
    counts: Counter = Counter()
    for child in ast.walk(node):
        if isinstance(child, (ast.SetStatement, ast.SelectInto, ast.FetchCursor)):
            counts.update(target.lower() for target in child.targets)
        elif isinstance(child, ast.DeclareVariable) and child.default is not None:
            counts.update(n.lower() for n in child.names)
    return counts


def _declared(nodes: list) -> set[str]:
    """The (lower-cased) variables DECLAREd under ``nodes``."""
    declares = [node for node in ast.walk(nodes) if isinstance(node, ast.DeclareVariable)]
    return {var.lower() for node in declares for var in node.names}


def _time_varying_targets(
    stmt: Union[ast.SetStatement, ast.SelectInto], ctx: _Context
) -> bool:
    """Are an assignment's targets time-varying variables?  Refused when
    only some are."""
    time_varying = {target.lower() in ctx.tv_vars for target in stmt.targets}
    if len(time_varying) > 1:
        raise PerStatementInapplicableError(
            f"{ctx.routine_name}: {type(stmt).__name__} mixes time-varying"
            " and scalar targets"
        )
    return time_varying == {True}


def _row_select(
    stmt: Union[ast.SetStatement, ast.SelectInto], ctx: _Context
) -> ast.Select:
    """The select a SELECT INTO or a row SET ``(a, b) = (SELECT ...)``
    takes its values from."""
    if isinstance(stmt, ast.SelectInto):
        return stmt.select
    inner = stmt.value
    if isinstance(inner, ast.Parenthesized):
        inner = inner.expr
    if not isinstance(inner, ast.ScalarSubquery):
        raise PerStatementInapplicableError(
            f"{ctx.routine_name}: row SET requires a row subquery"
        )
    return inner.select


def _stamp() -> tuple[ast.Name, ast.Name]:
    """The point and the period end of a per-period loop's period."""
    return name(CP_LOOP_VAR, "begin_time"), name(CP_LOOP_VAR, "end_time")


def _stamped(insert: ast.Insert) -> bool:
    """Does every row ``insert`` writes end with the loop's period?"""
    if insert.select is not None:
        return [item.expr for item in insert.select.items[-2:]] == list(_stamp())
    return all(row[-2:] == list(_stamp()) for row in insert.values)


def _periods_of(table: str, where: Optional[ast.Expression] = None) -> ast.Select:
    """``SELECT begin_time, end_time FROM table [WHERE where]``."""
    return ast.Select(
        items=[ast.SelectItem(expr=name(None, c)) for c in ("begin_time", "end_time")],
        from_items=[ast.TableRef(name=table)],
        where=where,
    )


def _point_plus_one(point: ast.Expression) -> ast.Expression:
    """The granule after ``point``: a ps_ call at a single granule is
    invoked with the degenerate period ``[point, point + 1 day)``."""
    return ast.BinaryOp(op="+", left=clone(point), right=lit(1))


def _variable_table_type(var: str, scalar_type: SqlType) -> ast.RowArrayType:
    return ast.RowArrayType(
        fields=(
            ast.RowField(name=var, type=scalar_type),
            ast.RowField(name="begin_time", type=DATE_TYPE),
            ast.RowField(name="end_time", type=DATE_TYPE),
        )
    )


def _filter_items(
    items: list[ast.SelectItem], keep: Optional[list[int]]
) -> list[ast.SelectItem]:
    if keep is None:
        return items
    return [items[i] for i in keep]


def _with_period_items(
    select: ast.Select, begin: ast.Expression, end: ast.Expression
) -> ast.Select:
    select.items = select.items + [
        ast.SelectItem(expr=begin, alias="begin_time"),
        ast.SelectItem(expr=end, alias="end_time"),
    ]
    return select


def _has_aggregate(expr: ast.Expression) -> bool:
    for child in ast.walk(expr):
        if isinstance(child, ast.FunctionCall) and fn.is_aggregate(child.name):
            return True
    return False


def _has_temporal_subquery(
    expr: ast.Expression, transformer: PerstTransformer, ctx: _Context
) -> bool:
    """Subqueries over temporal data need per-period evaluation."""
    for child in ast.walk(expr):
        if isinstance(child, (ast.ScalarSubquery, ast.ExistsPredicate)):
            select = child.select if isinstance(child, ast.ScalarSubquery) else child.subquery
            if transformer._is_temporal(select, ctx.tv_vars, ctx.tv_tables, ctx.tv_records):
                return True
        if isinstance(child, ast.InPredicate) and child.subquery is not None:
            if transformer._is_temporal(child.subquery, ctx.tv_vars, ctx.tv_tables):
                return True
    return False


def substitute_context(stmt: ast.Statement, context: Period) -> None:
    """Replace top-level ``ps_begin`` / ``ps_end`` names with literals."""

    def rewriter(expr: ast.Expression):
        if isinstance(expr, ast.Name) and expr.qualifier is None:
            if expr.name.lower() == BEGIN_PARAM:
                return ast.Literal(value=Date(context.begin))
            if expr.name.lower() == END_PARAM:
                return ast.Literal(value=Date(context.end))
        return None

    rewrite_expressions(stmt, rewriter)
