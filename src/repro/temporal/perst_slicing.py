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
* statements outside the algebraic fragment (aggregates, temporal IF
  conditions) fall back to a per-statement ``FOR`` loop over the
  constant periods of *that statement's* inputs, clipped to the
  evaluation period (§VI-C);
* a routine whose body drives a cursor over temporal data is evaluated
  per constant period: the cursor is re-pointed at an auxiliary
  temporary table rebuilt for each period — the materialization cost
  behind the paper's q7/q7b observations (§VII-C);
* the non-nested-FETCH pattern (q17b) is rejected up front
  (:func:`repro.temporal.analysis.check_perst_applicable`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
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
    TemporalError,
)
from repro.temporal.period import Period
from repro.temporal.pointwise import forbid_temporal_dml
from repro.temporal.schema import TemporalRegistry
from repro.temporal.transform_util import (
    add_condition,
    and_all,
    clone,
    cmp,
    fold_first_instance,
    fold_last_instance,
    from_table_aliases,
    lit,
    name,
    overlap_at_point,
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
DATE_TYPE = SqlType("DATE")


@dataclass
class PerstTransformResult:
    """Transformed statement, routine clones, and cp-table requirements.

    ``cp_requirements`` maps each constant-period helper table name to
    the temporal tables whose change points it must contain; the stratum
    materializes them (for the full query context) before execution.
    """

    statement: ast.Statement
    routines: list[Union[ast.CreateFunction, ast.CreateProcedure]] = dataclass_field(
        default_factory=list
    )
    cp_requirements: dict[str, list[str]] = dataclass_field(default_factory=dict)

    def to_sql(self) -> str:
        parts = [r.to_sql() + ";" for r in self.routines]
        parts.append(self.statement.to_sql() + ";")
        return "\n\n".join(parts)


class PerstTransformer:
    """Transforms one statement and its reachable routines."""

    def __init__(self, catalog: Catalog, registry: TemporalRegistry) -> None:
        self.catalog = catalog
        self.registry = registry
        self.cp_requirements: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def transform(self, stmt: ast.Statement) -> PerstTransformResult:
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
        return PerstTransformResult(
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
            transformer=self,
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
                raise TemporalError(
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
            transformer=self,
            routine_name=definition.name,
            return_type=return_type,
            returns_row_array=returns_row_array,
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
            new_def.body = self._transform_cursor_body(
                body, ctx, is_function and not returns_row_array
            )
        else:
            ctx.tv_vars, ctx.tv_records = self._time_varying_variables(body, ctx)
            new_def.body = self._transform_algebraic_body(
                body, ctx, is_function and not returns_row_array
            )
        return new_def

    def _param_is_time_varying(self, definition, param_name: str) -> bool:
        """Is an OUT parameter assigned from temporal data anywhere?"""
        target = param_name.lower()
        for child in ast.walk(definition.body):
            if isinstance(child, ast.SetStatement) and target in [
                t.lower() for t in child.targets
            ]:
                if self._expression_is_temporal(child.value, set(), set()):
                    return True
            if isinstance(child, ast.SelectInto) and target in [
                t.lower() for t in child.targets
            ]:
                if self._select_is_temporal(child.select, set(), set()):
                    return True
        return False

    # -- temporality tests --------------------------------------------------

    def _expression_is_temporal(
        self,
        expr: ast.Expression,
        tv_vars: set[str],
        tv_tables: set[str],
        tv_records: set[str] = frozenset(),
    ) -> bool:
        for child in ast.walk(expr):
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

    def _select_is_temporal(
        self,
        select: ast.Select,
        tv_vars: set[str],
        tv_tables: set[str],
        tv_records: set[str] = frozenset(),
    ) -> bool:
        return self._expression_is_temporal(
            ast.Parenthesized(expr=ast.ScalarSubquery(select=select)),
            tv_vars,
            tv_tables,
            tv_records,
        )

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
                source_temporal = False
                if isinstance(child, ast.SetStatement):
                    targets = child.targets
                    source_temporal = self._expression_is_temporal(
                        child.value, tv, ctx.tv_tables, records
                    )
                elif isinstance(child, ast.SelectInto):
                    targets = child.targets
                    source_temporal = self._select_is_temporal(
                        child.select, tv, ctx.tv_tables, records
                    )
                elif isinstance(child, ast.ForStatement):
                    if (
                        self._select_is_temporal(
                            child.select, tv, ctx.tv_tables, records
                        )
                        and child.loop_var.lower() not in records
                    ):
                        records.add(child.loop_var.lower())
                        changed = True
                elif isinstance(child, (ast.IfStatement, ast.CaseStatement)):
                    # control dependence: a variable assigned under a
                    # time-varying condition is itself time-varying
                    conditions = []
                    if isinstance(child, ast.IfStatement):
                        conditions = [cond for cond, _ in child.branches]
                    else:
                        if child.operand is not None:
                            conditions.append(child.operand)
                        conditions += [when for when, _ in child.whens]
                    if any(
                        self._expression_is_temporal(c, tv, ctx.tv_tables, records)
                        for c in conditions
                    ):
                        branches = []
                        if isinstance(child, ast.IfStatement):
                            branches = [b for _, b in child.branches]
                        else:
                            branches = [b for _, b in child.whens]
                        extra = child.else_branch or []
                        for branch in branches + [extra]:
                            for nested in branch:
                                for sub in ast.walk(nested):
                                    if isinstance(sub, (ast.SetStatement, ast.SelectInto)):
                                        for target in sub.targets:
                                            if target.lower() not in tv:
                                                tv.add(target.lower())
                                                changed = True
                if source_temporal:
                    for target in targets:
                        if target.lower() not in tv:
                            tv.add(target.lower())
                            changed = True
        return tv, records

    # ------------------------------------------------------------------
    # algebraic body mode
    # ------------------------------------------------------------------

    def _transform_algebraic_body(
        self, body: ast.Compound, ctx: "_Context", is_function: bool
    ) -> ast.Compound:
        declarations: list[ast.PsmStatement] = []
        prelude: list[ast.Statement] = []
        if is_function:
            declarations.append(self._return_table_declaration(ctx))
        for decl in body.declarations:
            new_decls, extra = self._transform_declaration(decl, ctx)
            declarations.extend(new_decls)
            prelude.extend(extra)
        statements: list[ast.Statement] = list(prelude)
        for stmt in body.statements:
            statements.extend(self.transform_body_statement(stmt, ctx))
        return ast.Compound(declarations=declarations, statements=statements)

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
        if isinstance(decl, ast.DeclareCursor):
            # reachable only when the cursor select is non-temporal
            return [clone(decl)], []
        return [clone(decl)], []

    # -- statement dispatch ---------------------------------------------

    def transform_body_statement(
        self, stmt: ast.Statement, ctx: "_Context"
    ) -> list[ast.Statement]:
        if isinstance(stmt, ast.SetStatement):
            return self._transform_set(stmt, ctx)
        if isinstance(stmt, ast.SelectInto):
            return self._transform_select_into(stmt, ctx)
        if isinstance(stmt, ast.ReturnStatement):
            return self._transform_return(stmt, ctx)
        if isinstance(stmt, ast.IfStatement):
            return self._transform_if(stmt, ctx)
        if isinstance(stmt, ast.CaseStatement):
            return self._transform_case(stmt, ctx)
        if isinstance(stmt, (ast.WhileStatement, ast.RepeatStatement, ast.LoopStatement)):
            return self._transform_plain_loop(stmt, ctx)
        if isinstance(stmt, ast.ForStatement):
            return self._transform_for(stmt, ctx)
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
        if isinstance(stmt, ast.Compound):
            inner_ctx = ctx
            declarations: list[ast.PsmStatement] = []
            prelude: list[ast.Statement] = []
            for decl in stmt.declarations:
                new_decls, extra = self._transform_declaration(decl, inner_ctx)
                declarations.extend(new_decls)
                prelude.extend(extra)
            statements = list(prelude)
            for inner in stmt.statements:
                statements.extend(self.transform_body_statement(inner, inner_ctx))
            return [ast.Compound(declarations=declarations, statements=statements)]
        raise PerStatementInapplicableError(
            f"{ctx.routine_name}: cannot transform {type(stmt).__name__}"
            " under per-statement slicing"
        )

    # -- SET (§VI-B) -----------------------------------------------------

    def _transform_set(
        self, stmt: ast.SetStatement, ctx: "_Context"
    ) -> list[ast.Statement]:
        temporal = self._expression_is_temporal(stmt.value, ctx.tv_vars, ctx.tv_tables, ctx.tv_records)
        if len(stmt.targets) == 1 and stmt.targets[0].lower() not in ctx.tv_vars:
            if temporal:
                raise PerStatementInapplicableError(
                    f"{ctx.routine_name}: non-time-varying variable"
                    f" {stmt.targets[0]!r} assigned from temporal data"
                )
            return [clone(stmt)]
        # self-referential sequenced assignment (acc = acc + x) cannot be
        # expressed as delete-then-insert; the paper's workloads route
        # accumulation through cursors (per-period evaluation) instead
        for target in stmt.targets:
            key = target.lower()
            for child in ast.walk(stmt.value):
                if (
                    isinstance(child, ast.Name)
                    and child.qualifier is None
                    and child.name.lower() == key
                    and key in ctx.tv_vars
                ):
                    raise PerStatementInapplicableError(
                        f"{ctx.routine_name}: self-referential sequenced"
                        f" assignment to {target!r}"
                    )
        statements: list[ast.Statement] = []
        for target in stmt.targets:
            statements.append(self._sequenced_delete(target, ctx))
        if len(stmt.targets) == 1:
            value_select = self.seq_value_select(stmt.value, ctx)
            if value_select is None:
                return statements + self._statement_loop_fallback(stmt, ctx)
            statements.append(ast.Insert(table=stmt.targets[0], select=value_select))
            return statements
        # row form: SET (a, b) = (SELECT ...)
        inner = stmt.value
        if isinstance(inner, ast.Parenthesized):
            inner = inner.expr
        if not isinstance(inner, ast.ScalarSubquery):
            raise PerStatementInapplicableError(
                f"{ctx.routine_name}: row SET requires a row subquery"
            )
        for index, target in enumerate(stmt.targets):
            item_select = self.seq_select(
                clone(inner.select), ctx, keep_items=[index]
            )
            if item_select is None:
                return statements + self._statement_loop_fallback(stmt, ctx)
            statements.append(ast.Insert(table=target, select=item_select))
        return statements

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

    def _transform_select_into(
        self, stmt: ast.SelectInto, ctx: "_Context"
    ) -> list[ast.Statement]:
        temporal = self._select_is_temporal(stmt.select, ctx.tv_vars, ctx.tv_tables, ctx.tv_records)
        tv_targets = [t for t in stmt.targets if t.lower() in ctx.tv_vars]
        if not tv_targets:
            if temporal:
                raise PerStatementInapplicableError(
                    f"{ctx.routine_name}: SELECT INTO scalar targets from"
                    " temporal data"
                )
            return [clone(stmt)]
        statements: list[ast.Statement] = [
            self._sequenced_delete(t, ctx) for t in tv_targets
        ]
        for index, target in enumerate(stmt.targets):
            if target.lower() not in ctx.tv_vars:
                raise PerStatementInapplicableError(
                    f"{ctx.routine_name}: SELECT INTO mixes time-varying"
                    " and scalar targets"
                )
            item_select = self.seq_select(clone(stmt.select), ctx, keep_items=[index])
            if item_select is None:
                return statements[:1] + self._statement_loop_fallback(stmt, ctx)
            statements.append(ast.Insert(table=target, select=item_select))
        return statements

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

    # -- IF / CASE ------------------------------------------------------

    def _transform_if(
        self, stmt: ast.IfStatement, ctx: "_Context"
    ) -> list[ast.Statement]:
        condition_temporal = any(
            self._expression_is_temporal(cond, ctx.tv_vars, ctx.tv_tables)
            for cond, _ in stmt.branches
        )
        if condition_temporal:
            return self._statement_loop_fallback(stmt, ctx)
        branches = []
        for cond, body in stmt.branches:
            new_body: list[ast.Statement] = []
            for inner in body:
                new_body.extend(self.transform_body_statement(inner, ctx))
            branches.append((clone(cond), new_body))
        else_branch = None
        if stmt.else_branch is not None:
            else_branch = []
            for inner in stmt.else_branch:
                else_branch.extend(self.transform_body_statement(inner, ctx))
        return [ast.IfStatement(branches=branches, else_branch=else_branch)]

    def _transform_case(
        self, stmt: ast.CaseStatement, ctx: "_Context"
    ) -> list[ast.Statement]:
        exprs = [stmt.operand] if stmt.operand is not None else []
        exprs += [when for when, _ in stmt.whens]
        if any(
            self._expression_is_temporal(e, ctx.tv_vars, ctx.tv_tables) for e in exprs
        ):
            return self._statement_loop_fallback(stmt, ctx)
        whens = []
        for when, body in stmt.whens:
            new_body: list[ast.Statement] = []
            for inner in body:
                new_body.extend(self.transform_body_statement(inner, ctx))
            whens.append((clone(when), new_body))
        else_branch = None
        if stmt.else_branch is not None:
            else_branch = []
            for inner in stmt.else_branch:
                else_branch.extend(self.transform_body_statement(inner, ctx))
        return [
            ast.CaseStatement(
                operand=clone(stmt.operand) if stmt.operand is not None else None,
                whens=whens,
                else_branch=else_branch,
            )
        ]

    # -- loops ----------------------------------------------------------

    def _transform_plain_loop(self, stmt, ctx: "_Context") -> list[ast.Statement]:
        condition = getattr(stmt, "condition", None) or getattr(stmt, "until", None)
        if condition is not None and self._expression_is_temporal(
            condition, ctx.tv_vars, ctx.tv_tables
        ):
            raise PerStatementInapplicableError(
                f"{ctx.routine_name}: loop condition over temporal data"
            )
        new_stmt = stmt.copy()
        new_body: list[ast.Statement] = []
        for inner in stmt.body:
            new_body.extend(self.transform_body_statement(inner, ctx))
        new_stmt.body = new_body
        return [new_stmt]

    def _transform_for(
        self, stmt: ast.ForStatement, ctx: "_Context"
    ) -> list[ast.Statement]:
        if not self._select_is_temporal(stmt.select, ctx.tv_vars, ctx.tv_tables, ctx.tv_records):
            new_stmt = stmt.copy()
            new_body: list[ast.Statement] = []
            for inner in stmt.body:
                new_body.extend(self.transform_body_statement(inner, ctx))
            new_stmt.body = new_body
            return [new_stmt]
        seq = self.seq_select(clone(stmt.select), ctx)
        if seq is None:
            return self._statement_loop_fallback(stmt, ctx)
        # block-structured slicing: the loop body runs once per
        # (row, period); inner statements evaluate over the row's period
        inner_ctx = ctx.narrowed(
            lo=name(stmt.loop_var, "begin_time"),
            hi=name(stmt.loop_var, "end_time"),
        )
        new_body = []
        for inner in stmt.body:
            new_body.extend(self.transform_body_statement(inner, inner_ctx))
        return [
            ast.ForStatement(
                loop_var=stmt.loop_var,
                select=seq,
                body=new_body,
                cursor_name=stmt.cursor_name,
                label=stmt.label,
            )
        ]

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
        if not self._select_is_temporal(stmt, ctx.tv_vars, ctx.tv_tables, ctx.tv_records):
            return [clone(stmt)]
        seq = self.seq_select(clone(stmt), ctx)
        if seq is None:
            return self._statement_loop_fallback(stmt, ctx)
        return [seq]

    # -- DML on temp / variable tables -------------------------------------

    def _transform_dml(self, stmt, ctx: "_Context") -> list[ast.Statement]:
        forbid_temporal_dml(stmt, self.registry)
        if isinstance(stmt, ast.Insert) and stmt.select is not None:
            if self._select_is_temporal(stmt.select, ctx.tv_vars, ctx.tv_tables, ctx.tv_records):
                seq = self.seq_select(clone(stmt.select), ctx)
                if seq is None:
                    return self._statement_loop_fallback(stmt, ctx)
                ctx.tv_tables.add(stmt.table.lower())
                return [ast.Insert(table=stmt.table, columns=None, select=seq)]
        return [clone(stmt)]

    def _transform_create_table(
        self, stmt: ast.CreateTable, ctx: "_Context"
    ) -> list[ast.Statement]:
        if stmt.as_select is not None and self._select_is_temporal(
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
    ) -> Optional[ast.Select]:
        """Transform an SPJ select into its sequenced equivalent, or None.

        The result carries two extra columns, ``begin_time`` and
        ``end_time``: the intersection of the validity periods of every
        temporal source and the evaluation period (Figure 11).
        """
        if (
            select.set_op is not None
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
            # no temporal source at all: constant over the whole period
            select.items = _filter_items(select.items, keep_items) + [
                ast.SelectItem(expr=ctx.lo_copy(), alias="begin_time"),
                ast.SelectItem(expr=ctx.hi_copy(), alias="end_time"),
            ]
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
        add_condition(
            select,
            and_all(pairwise_overlap(sources + [(ctx.lo_copy(), ctx.hi_copy())])),
        )
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
                replacement = _rewrite_shallow(item.expr, rewriter)
                if replacement is not None:
                    item.expr = replacement
        if select.where is not None:
            replacement = _rewrite_shallow(select.where, rewriter)
            if replacement is not None:
                select.where = replacement
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
    # per-statement loop fallback (§VI-C)
    # ------------------------------------------------------------------

    def _statement_loop_fallback(
        self, stmt: ast.Statement, ctx: "_Context"
    ) -> list[ast.Statement]:
        """Wrap one statement in a FOR loop over its constant periods.

        The statement evaluates point-wise at each period's begin; its
        outputs are stamped with the period.
        """
        tables = set(
            analysis.reachable_temporal_tables(stmt, self.catalog, self.registry)
        )
        tables |= ctx.routine_tables
        cp_table = self.require_cp_table(ctx.routine_name, sorted(tables))
        point = name(CP_LOOP_VAR, "begin_time")
        period_end = name(CP_LOOP_VAR, "end_time")
        inner = self._pointwise_statement(stmt, ctx, point, period_end)
        loop_select = ast.Select(
            items=[
                ast.SelectItem(expr=name(None, "begin_time")),
                ast.SelectItem(expr=name(None, "end_time")),
            ],
            from_items=[ast.TableRef(name=cp_table)],
            where=ast.BinaryOp(
                op="AND",
                left=cmp(">=", name(None, "begin_time"), ctx.lo_copy()),
                right=cmp("<", name(None, "begin_time"), ctx.hi_copy()),
            ),
        )
        return [
            ast.ForStatement(
                loop_var=CP_LOOP_VAR, select=loop_select, body=inner
            )
        ]

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

    def _pointwise_statement(
        self,
        stmt: ast.Statement,
        ctx: "_Context",
        point: ast.Expression,
        period_end: ast.Expression,
    ) -> list[ast.Statement]:
        """Evaluate one statement at ``point``; stamp outputs with the
        period ``[point, period_end)``."""
        new_stmt = clone(stmt)
        self._pointwise_rewrite(new_stmt, ctx, point)
        if isinstance(new_stmt, ast.SetStatement):
            targets = new_stmt.targets
            if all(t.lower() in ctx.tv_vars for t in targets):
                value = new_stmt.value
                if len(targets) == 1:
                    return [
                        ast.Insert(
                            table=targets[0],
                            values=[[value, clone(point), clone(period_end)]],
                        )
                    ]
                inner = value
                if isinstance(inner, ast.Parenthesized):
                    inner = inner.expr
                if isinstance(inner, ast.ScalarSubquery):
                    inserts: list[ast.Statement] = []
                    for index, target in enumerate(targets):
                        one = clone(inner.select)
                        one.items = [one.items[index]]
                        inserts.append(
                            ast.Insert(
                                table=target,
                                select=_with_period_items(
                                    one, clone(point), clone(period_end)
                                ),
                            )
                        )
                    return inserts
            raise PerStatementInapplicableError(
                f"{ctx.routine_name}: loop fallback for SET with scalar"
                " targets"
            )
        if isinstance(new_stmt, ast.SelectInto):
            inserts = []
            for index, target in enumerate(new_stmt.targets):
                if target.lower() not in ctx.tv_vars:
                    raise PerStatementInapplicableError(
                        f"{ctx.routine_name}: loop fallback SELECT INTO"
                        " scalar target"
                    )
                one = clone(new_stmt.select)
                one.items = [one.items[index]]
                inserts.append(
                    ast.Insert(
                        table=target,
                        select=_with_period_items(one, clone(point), clone(period_end)),
                    )
                )
            return inserts
        if isinstance(new_stmt, ast.Select):
            return [_with_period_items(new_stmt, clone(point), clone(period_end))]
        if isinstance(new_stmt, (ast.IfStatement, ast.CaseStatement,
                                 ast.Insert, ast.Update, ast.Delete,
                                 ast.ForStatement)):
            self._stamp_nested_outputs(new_stmt, ctx, point, period_end)
            return [new_stmt]
        raise PerStatementInapplicableError(
            f"{ctx.routine_name}: loop fallback cannot handle"
            f" {type(stmt).__name__}"
        )

    def _stamp_nested_outputs(
        self,
        stmt: ast.Statement,
        ctx: "_Context",
        point: ast.Expression,
        period_end: ast.Expression,
    ) -> None:
        """Rewrite SET-into-tv-var statements nested under IF/CASE to
        period-stamped inserts."""

        def rewrite_list(statements: list[ast.Statement]) -> list[ast.Statement]:
            out: list[ast.Statement] = []
            for inner in statements:
                if isinstance(inner, ast.SetStatement) and all(
                    t.lower() in ctx.tv_vars for t in inner.targets
                ):
                    out.extend(
                        self._pointwise_insert_for_set(inner, ctx, point, period_end)
                    )
                elif isinstance(inner, ast.IfStatement):
                    inner.branches = [
                        (cond, rewrite_list(body)) for cond, body in inner.branches
                    ]
                    if inner.else_branch is not None:
                        inner.else_branch = rewrite_list(inner.else_branch)
                    out.append(inner)
                elif isinstance(inner, ast.CaseStatement):
                    inner.whens = [
                        (when, rewrite_list(body)) for when, body in inner.whens
                    ]
                    if inner.else_branch is not None:
                        inner.else_branch = rewrite_list(inner.else_branch)
                    out.append(inner)
                else:
                    out.append(inner)
            return out

        if isinstance(stmt, ast.IfStatement):
            stmt.branches = [(cond, rewrite_list(body)) for cond, body in stmt.branches]
            if stmt.else_branch is not None:
                stmt.else_branch = rewrite_list(stmt.else_branch)
        elif isinstance(stmt, ast.CaseStatement):
            stmt.whens = [(when, rewrite_list(body)) for when, body in stmt.whens]
            if stmt.else_branch is not None:
                stmt.else_branch = rewrite_list(stmt.else_branch)
        elif isinstance(stmt, ast.ForStatement):
            stmt.body = rewrite_list(stmt.body)

    def _pointwise_insert_for_set(
        self,
        stmt: ast.SetStatement,
        ctx: "_Context",
        point: ast.Expression,
        period_end: ast.Expression,
    ) -> list[ast.Statement]:
        if len(stmt.targets) != 1:
            raise PerStatementInapplicableError(
                f"{ctx.routine_name}: nested row SET under loop fallback"
            )
        return [
            ast.Insert(
                table=stmt.targets[0],
                values=[[stmt.value, clone(point), clone(period_end)]],
            )
        ]

    def _pointwise_rewrite(
        self, node: ast.Node, ctx: "_Context", point: ast.Expression
    ) -> None:
        """Point-wise evaluation rewrites shared by fallback and cursor
        modes: overlap-at-point predicates, scalarized ps_ calls, and
        point reads of variable tables."""
        # temporal tables and variable tables in FROM clauses; LEFT-join
        # right sides take their condition in the ON clause
        from repro.temporal.transform_util import (
            add_join_condition,
            classify_from_sources,
        )

        def condition_for(table_name: str, alias: str):
            info = self.registry.get(table_name)
            if info is not None:
                return overlap_at_point(
                    alias, point, info.begin_column, info.end_column
                )
            if table_name in ctx.tv_vars or table_name in ctx.tv_tables:
                return overlap_at_point(alias, point)
            return None

        for child in ast.walk(node):
            if isinstance(child, ast.Select):
                where_pairs, join_pairs = classify_from_sources(child)
                conditions = []
                for table_name, alias in where_pairs:
                    condition = condition_for(table_name, alias)
                    if condition is not None:
                        conditions.append(condition)
                add_condition(child, and_all(conditions))
                for join, pairs in join_pairs:
                    for table_name, alias in pairs:
                        condition = condition_for(table_name, alias)
                        if condition is not None:
                            add_join_condition(join, condition)

        # temporal routine calls → scalar subquery over TABLE(ps_f(...))
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
            # bare reads of tv variables become point lookups
            if (
                isinstance(expr, ast.Name)
                and expr.qualifier is None
                and expr.name.lower() in ctx.tv_vars
            ):
                var = expr.name
                subquery = ast.Select(
                    items=[ast.SelectItem(expr=name(None, var))],
                    from_items=[ast.TableRef(name=var)],
                    where=overlap_at_point(var, point),
                )
                return ast.ScalarSubquery(select=subquery)
            return None

        rewrite_expressions(node, rewriter)

    # ------------------------------------------------------------------
    # cursor body mode (§VII-C: per-period auxiliary tables)
    # ------------------------------------------------------------------

    def _transform_cursor_body(
        self, body: ast.Compound, ctx: "_Context", is_function: bool
    ) -> ast.Compound:
        """Evaluate the whole body once per constant period.

        The cursor's query is materialized into an auxiliary temporary
        table for each period (the write traffic the paper blames for
        q7/q7b's PERST cost), the cursor re-pointed at it, everything
        else point-evaluated, and outputs stamped with the period.
        """
        cp_table = self.require_cp_table(ctx.routine_name, sorted(ctx.routine_tables))
        point = name(CP_LOOP_VAR, "begin_time")
        period_end = name(CP_LOOP_VAR, "end_time")

        inner_declarations: list[ast.PsmStatement] = []
        aux_statements: list[ast.Statement] = []
        for decl in body.declarations:
            if isinstance(decl, ast.DeclareCursor) and self._select_is_temporal(
                decl.select, set(), set()
            ):
                aux_name = f"taupsm_aux_{decl.name}"
                point_select = clone(decl.select)
                self._pointwise_rewrite(point_select, ctx, point)
                aux_statements.append(
                    ast.CreateTable(
                        name=aux_name, temporary=True, as_select=point_select
                    )
                )
                inner_declarations.append(
                    ast.DeclareCursor(
                        name=decl.name,
                        select=ast.Select(
                            items=[ast.SelectItem(expr=None)],
                            from_items=[ast.TableRef(name=aux_name)],
                        ),
                    )
                )
            else:
                inner_declarations.append(clone(decl))

        inner_statements: list[ast.Statement] = list(aux_statements)
        loop_body = self._pointwise_block(
            body.statements, ctx, point, period_end, is_function
        )
        inner_statements.append(
            ast.LoopStatement(
                body=loop_body + [ast.LeaveStatement(label=ONCE_LABEL)],
                label=ONCE_LABEL,
            )
        )
        per_period = ast.Compound(
            declarations=inner_declarations, statements=inner_statements
        )
        loop_select = ast.Select(
            items=[
                ast.SelectItem(expr=name(None, "begin_time")),
                ast.SelectItem(expr=name(None, "end_time")),
            ],
            from_items=[ast.TableRef(name=cp_table)],
            where=ast.BinaryOp(
                op="AND",
                left=cmp(">=", name(None, "begin_time"), ctx.lo_copy()),
                right=cmp("<", name(None, "begin_time"), ctx.hi_copy()),
            ),
        )
        outer_declarations: list[ast.PsmStatement] = []
        outer_statements: list[ast.Statement] = [
            ast.ForStatement(loop_var=CP_LOOP_VAR, select=loop_select, body=[per_period])
        ]
        if is_function:
            outer_declarations.append(self._return_table_declaration(ctx))
            outer_statements.append(
                ast.ReturnStatement(value=name(None, RETURN_TABLE))
            )
        return ast.Compound(
            declarations=outer_declarations, statements=outer_statements
        )

    def _pointwise_block(
        self,
        statements: list[ast.Statement],
        ctx: "_Context",
        point: ast.Expression,
        period_end: ast.Expression,
        is_function: bool,
    ) -> list[ast.Statement]:
        """Point-transform a statement list inside the per-period loop."""
        out: list[ast.Statement] = []
        for stmt in statements:
            out.extend(
                self._pointwise_block_statement(
                    stmt, ctx, point, period_end, is_function
                )
            )
        return out

    def _pointwise_block_statement(
        self,
        stmt: ast.Statement,
        ctx: "_Context",
        point: ast.Expression,
        period_end: ast.Expression,
        is_function: bool,
    ) -> list[ast.Statement]:
        if isinstance(stmt, ast.ReturnStatement) and not is_function:
            # procedure RETURN ends this period's evaluation
            return [ast.LeaveStatement(label=ONCE_LABEL)]
        if isinstance(stmt, ast.ReturnStatement) and is_function:
            new_value = clone(stmt.value) if stmt.value is not None else lit(Null)
            holder = ast.SetStatement(targets=["__x"], value=new_value)
            self._pointwise_rewrite(holder, ctx, point)
            return [
                ast.Insert(
                    table=RETURN_TABLE,
                    values=[[holder.value, clone(point), clone(period_end)]],
                ),
                ast.LeaveStatement(label=ONCE_LABEL),
            ]
        if isinstance(stmt, ast.Select):
            new_stmt = clone(stmt)
            self._pointwise_rewrite(new_stmt, ctx, point)
            return [_with_period_items(new_stmt, clone(point), clone(period_end))]
        if isinstance(stmt, ast.IfStatement):
            new_stmt = ast.IfStatement(branches=[], else_branch=None)
            for cond, branch_body in stmt.branches:
                new_cond = clone(cond)
                holder = ast.SetStatement(targets=["__x"], value=new_cond)
                self._pointwise_rewrite(holder, ctx, point)
                new_stmt.branches.append(
                    (
                        holder.value,
                        self._pointwise_block(
                            branch_body, ctx, point, period_end, is_function
                        ),
                    )
                )
            if stmt.else_branch is not None:
                new_stmt.else_branch = self._pointwise_block(
                    stmt.else_branch, ctx, point, period_end, is_function
                )
            return [new_stmt]
        if isinstance(stmt, ast.CaseStatement):
            new_whens = []
            for when, branch_body in stmt.whens:
                holder = ast.SetStatement(targets=["__x"], value=clone(when))
                self._pointwise_rewrite(holder, ctx, point)
                new_whens.append(
                    (
                        holder.value,
                        self._pointwise_block(
                            branch_body, ctx, point, period_end, is_function
                        ),
                    )
                )
            operand = None
            if stmt.operand is not None:
                holder = ast.SetStatement(targets=["__x"], value=clone(stmt.operand))
                self._pointwise_rewrite(holder, ctx, point)
                operand = holder.value
            else_branch = None
            if stmt.else_branch is not None:
                else_branch = self._pointwise_block(
                    stmt.else_branch, ctx, point, period_end, is_function
                )
            return [
                ast.CaseStatement(operand=operand, whens=new_whens, else_branch=else_branch)
            ]
        if isinstance(stmt, (ast.WhileStatement, ast.RepeatStatement, ast.LoopStatement)):
            new_stmt = stmt.copy()
            condition = getattr(new_stmt, "condition", None)
            if condition is not None:
                holder = ast.SetStatement(targets=["__x"], value=clone(condition))
                self._pointwise_rewrite(holder, ctx, point)
                new_stmt.condition = holder.value
            until = getattr(new_stmt, "until", None)
            if until is not None:
                holder = ast.SetStatement(targets=["__x"], value=clone(until))
                self._pointwise_rewrite(holder, ctx, point)
                new_stmt.until = holder.value
            new_stmt.body = self._pointwise_block(
                stmt.body, ctx, point, period_end, is_function
            )
            return [new_stmt]
        if isinstance(stmt, ast.ForStatement):
            new_stmt = stmt.copy()
            new_select = clone(stmt.select)
            self._pointwise_rewrite(new_select, ctx, point)
            new_stmt.select = new_select
            new_stmt.body = self._pointwise_block(
                stmt.body, ctx, point, period_end, is_function
            )
            return [new_stmt]
        if isinstance(stmt, ast.Compound):
            return [
                ast.Compound(
                    declarations=[clone(d) for d in stmt.declarations],
                    statements=self._pointwise_block(
                        stmt.statements, ctx, point, period_end, is_function
                    ),
                )
            ]
        # leaf statements: point-rewrite expressions in place
        new_stmt = clone(stmt)
        self._pointwise_rewrite(new_stmt, ctx, point)
        return [new_stmt]


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
    transformer: PerstTransformer
    routine_name: str
    return_type: Optional[SqlType] = None
    returns_row_array: bool = False
    tv_records: set[str] = dataclass_field(default_factory=set)
    routine_tables: set[str] = dataclass_field(default_factory=set)

    def lo_copy(self) -> ast.Expression:
        return clone(self.lo)

    def hi_copy(self) -> ast.Expression:
        return clone(self.hi)

    def narrowed(self, lo: ast.Expression, hi: ast.Expression) -> "_Context":
        return _Context(
            lo=lo,
            hi=hi,
            tv_vars=self.tv_vars,
            tv_tables=self.tv_tables,
            rename_map=self.rename_map,
            transformer=self.transformer,
            routine_name=self.routine_name,
            return_type=self.return_type,
            returns_row_array=self.returns_row_array,
            tv_records=self.tv_records,
            routine_tables=self.routine_tables,
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
            if transformer._select_is_temporal(select, ctx.tv_vars, ctx.tv_tables, ctx.tv_records):
                return True
        if isinstance(child, ast.InPredicate) and child.subquery is not None:
            if transformer._select_is_temporal(
                child.subquery, ctx.tv_vars, ctx.tv_tables
            ):
                return True
    return False


def _rewrite_shallow(expr, rewriter):
    """Rewrite an expression tree without descending into subqueries."""
    import dataclasses

    def visit(value):
        if isinstance(value, ast.Select):
            return None
        if isinstance(value, ast.Node):
            for field in dataclasses.fields(value):
                current = getattr(value, field.name)
                replacement = visit(current)
                if replacement is not None:
                    setattr(value, field.name, replacement)
            if isinstance(value, ast.Expression):
                return rewriter(value)
            return None
        if isinstance(value, list):
            for index, item in enumerate(value):
                replacement = visit(item)
                if replacement is not None:
                    value[index] = replacement
            return None
        if isinstance(value, tuple):
            items = list(value)
            changed = False
            for index, item in enumerate(items):
                replacement = visit(item)
                if replacement is not None:
                    items[index] = replacement
                    changed = True
            return tuple(items) if changed else None
        return None

    return visit(expr)


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
