"""The reference the compiled routine bodies are compared against.

``ReferenceInterpreter`` is the AST-walking PSM interpreter
``src/repro/sqlengine/routines.py`` held before routine bodies were
compiled: per statement it looks up a handler by statement class, makes
an ``Env``, evaluates through ``executor.evaluate`` and resolves every
variable by walking a stack of scope dicts.  It shares ``Executor`` (and
through it the plans of embedded statements), the transaction manager,
``values`` and ``types`` with ``src/`` and nothing of ``routines.py`` or
``exprcompile.py``; installed together with
``tests/reference_executor.py`` (whose function calls and CALLs come
here) a statement runs without touching a compiled body.  It keeps no
routine-result memo: every invocation runs, so a result that agrees with
it also shows that the engine's memo changed nothing.

Three defects of the walker are kept on purpose — they are the licensed
differences ``tests/sqlengine/test_psm_compiled.py`` names: a FOR
record's scope leaks through an EXIT handler, LEAVE / ITERATE cross
routine boundaries as Python exceptions, and ``MAX_DEPTH`` counts nested
statements.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.metrics import Counter
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.catalog import Routine
from repro.sqlengine.errors import (
    CardinalityError,
    CursorError,
    ExecutionError,
    RoutineError,
    SignalError,
    SqlError,
)
from repro.sqlengine.executor import Binding, Env, Executor, ResultSet
from repro.sqlengine.storage import Column, Table
from repro.sqlengine.types import SqlType, coerce
from repro.sqlengine.values import Null, compare, truth


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class _Leave(Exception):
    def __init__(self, label: str) -> None:
        self.label = label


class _Iterate(Exception):
    def __init__(self, label: str) -> None:
        self.label = label


class _HandlerExit(Exception):
    """Unwinds to the compound whose scope declared an EXIT handler."""

    def __init__(self, depth: int) -> None:
        self.depth = depth


class _CursorState:
    __slots__ = ("select", "rows", "columns", "position", "is_open")

    def __init__(self, select: ast.Select) -> None:
        self.select = select
        self.rows: list[list[Any]] = []
        self.columns: list[str] = []
        self.position = 0
        self.is_open = False


class _Handler:
    __slots__ = ("kind", "condition", "action", "depth", "active")

    def __init__(self, kind: str, condition: str, action: ast.Statement, depth: int) -> None:
        self.kind = kind
        self.condition = condition
        self.action = action
        self.depth = depth
        self.active = False  # True while the handler's action runs


class Frame:
    """One routine invocation: scoped variables, cursors, handlers."""

    def __init__(self, routine_name: str, plan_runs: Counter) -> None:
        self.routine_name = routine_name
        self.plan_runs = plan_runs  # what the executor counts embedded runs on
        self.scopes: list[dict[str, dict]] = [{}]
        self.cursors: dict[str, _CursorState] = {}
        self.handlers: list[_Handler] = []
        self.result_sets: list[ResultSet] = []
        self.parent = None  # no closure chain; queries see only this frame

    # -- scope management -----------------------------------------------

    def push_scope(self) -> None:
        self.scopes.append({})

    def pop_scope(self) -> None:
        depth = len(self.scopes)
        self.scopes.pop()
        self.handlers = [h for h in self.handlers if h.depth < depth]

    def declare_scalar(self, name: str, type_: SqlType, value: Any = Null) -> None:
        self.scopes[-1][name.lower()] = {
            "kind": "scalar",
            "type": type_,
            "value": coerce(value, type_) if value is not Null else Null,
        }

    def declare_table_var(self, name: str, array_type: ast.RowArrayType) -> Table:
        columns = [Column(f.name, f.type) for f in array_type.fields]
        table = Table(name, columns, temporary=True)
        self.scopes[-1][name.lower()] = {"kind": "table", "table": table}
        return table

    def declare_record(self, name: str, columns: dict[str, int], row: list[Any]) -> None:
        self.scopes[-1][name.lower()] = {
            "kind": "record",
            "columns": columns,
            "row": row,
        }

    def _find_slot(self, key: str) -> Optional[dict]:
        for scope in reversed(self.scopes):
            slot = scope.get(key)
            if slot is not None:
                return slot
        return None

    # -- lookups used by the executor's Env -------------------------------

    def lookup_variable(self, key: str) -> tuple[bool, Any]:
        slot = self._find_slot(key)
        if slot is not None:
            if slot["kind"] == "scalar":
                return True, slot["value"]
            if slot["kind"] == "table":
                return True, slot["table"]
        # unqualified access to a FOR-loop record field
        for scope in reversed(self.scopes):
            for slot in scope.values():
                if slot["kind"] == "record":
                    index = slot["columns"].get(key)
                    if index is not None:
                        return True, slot["row"][index]
        return False, None

    def lookup_record_field(self, qualifier: str, key: str) -> tuple[bool, Any]:
        slot = self._find_slot(qualifier)
        if slot is not None and slot["kind"] == "record":
            index = slot["columns"].get(key)
            if index is not None:
                return True, slot["row"][index]
        return False, None

    def lookup_table_var(self, name: str) -> Optional[Table]:
        slot = self._find_slot(name.lower())
        if slot is not None and slot["kind"] == "table":
            return slot["table"]
        return None

    def set_variable(self, name: str, value: Any) -> None:
        key = name.lower()
        slot = self._find_slot(key)
        if slot is None:
            raise RoutineError(
                f"unknown variable {name!r} in {self.routine_name}"
            )
        if slot["kind"] != "scalar":
            raise RoutineError(f"cannot SET non-scalar variable {name!r}")
        slot["value"] = coerce(value, slot["type"])

    # -- handlers ----------------------------------------------------------

    def add_handler(self, handler: ast.DeclareHandler) -> None:
        self.handlers.append(
            _Handler(handler.kind, handler.condition, handler.action, len(self.scopes))
        )

    def find_handler(self, condition: str) -> Optional[_Handler]:
        # skip handlers whose action is currently running, so an error
        # raised inside a handler cannot re-enter the same handler
        for handler in reversed(self.handlers):
            if handler.condition == condition and not handler.active:
                return handler
        return None


class ReferenceInterpreter:
    """Executes routine bodies by walking them; stateless."""

    MAX_DEPTH = 64

    def __init__(self, executor: Executor) -> None:
        self.executor = executor
        self.db = executor.db

    # ------------------------------------------------------------------
    # invocation entry points
    # ------------------------------------------------------------------

    def invoke_function(self, name: str, args: list[Any]) -> Any:
        routine = self.db.catalog.get_routine(name)
        if routine.kind != "FUNCTION":
            raise RoutineError(f"{name} is a procedure; use CALL")
        value = self._invoke(routine, args)
        returns = routine.definition.returns
        if isinstance(returns, ast.RowArrayType) or value is Null:
            return value
        return coerce(value, returns)

    def invoke_table_function(
        self, name: str, args: list[Any]
    ) -> tuple[list[str], list[list[Any]]]:
        """``(columns, rows)`` of a row-array function."""
        routine = self.db.catalog.get_routine(name)
        if not isinstance(routine.definition.returns, ast.RowArrayType):
            raise RoutineError(f"{name} does not return a row array")
        value = self._invoke(routine, args)
        columns = list(routine.definition.returns.column_names)
        if value is Null or value is None:
            return columns, []
        if isinstance(value, Table):
            return columns, [list(row) for row in value.rows]
        raise RoutineError(
            f"table function {routine.name} returned {type(value).__name__},"
            " expected a row-array variable"
        )

    def call_procedure(
        self, stmt: ast.CallStatement, caller_env: Optional[Env]
    ) -> list[ResultSet]:
        routine = self.db.catalog.get_routine(stmt.name)
        if routine.kind != "PROCEDURE":
            raise RoutineError(f"{stmt.name} is a function; invoke it in a query")
        params = routine.params
        if len(stmt.args) != len(params):
            raise RoutineError(
                f"{stmt.name} expects {len(params)} arguments, got {len(stmt.args)}"
            )
        caller_frame = caller_env.frame if caller_env is not None else None
        eval_env = caller_env if caller_env is not None else Env()
        arg_values: list[Any] = []
        out_targets: list[tuple[int, str]] = []
        for index, (param, arg) in enumerate(zip(params, stmt.args)):
            if param.mode in ("OUT", "INOUT"):
                if not isinstance(arg, ast.Name) or arg.qualifier is not None:
                    raise RoutineError(
                        f"argument {index + 1} of {stmt.name} must be a variable"
                        f" ({param.mode} parameter)"
                    )
                out_targets.append((index, arg.name))
                if param.mode == "INOUT":
                    arg_values.append(self.executor.evaluate(arg, eval_env))
                else:
                    arg_values.append(Null)
            else:
                arg_values.append(self.executor.evaluate(arg, eval_env))
        frame = self._new_frame(routine, arg_values)
        self._count_call(routine.name)
        with self.db.tracer.span("routine", name=routine.name):
            try:
                self.execute_statement(routine.definition.body, frame)
            except _Return:
                pass
        # copy OUT / INOUT parameters back to the caller
        for index, var_name in out_targets:
            found, value = frame.lookup_variable(params[index].name.lower())
            if not found:  # pragma: no cover - parameters always exist
                value = Null
            if caller_frame is not None:
                caller_frame.set_variable(var_name, value)
        return frame.result_sets

    def _invoke(self, routine: Routine, args: list[Any]) -> Any:
        params = routine.params
        if len(args) != len(params):
            raise RoutineError(
                f"{routine.name} expects {len(params)} arguments, got {len(args)}"
            )
        frame = self._new_frame(routine, args)
        self._count_call(routine.name)
        with self.db.tracer.span("routine", name=routine.name):
            try:
                self.execute_statement(routine.definition.body, frame)
            except _Return as ret:
                return ret.value
            return Null

    def _new_frame(self, routine: Routine, args: list[Any]) -> Frame:
        if self.db.stats.call_depth >= self.MAX_DEPTH:
            raise RoutineError("routine call depth exceeded")
        stats = self.db.stats
        frame = Frame(
            routine.name, stats.obs.counter(stats.ROUTINE_PLAN_RUNS + routine.name.lower())
        )
        for param, value in zip(routine.params, args):
            frame.declare_scalar(param.name, param.type, value)
        return frame

    def _count_call(self, name: str) -> None:
        self.db.obs.inc(self.db.stats.ROUTINE_CALLS + name.lower())

    # ------------------------------------------------------------------
    # statement execution
    # ------------------------------------------------------------------

    def execute_statement(self, stmt: ast.Statement, frame: Frame) -> None:
        self.db.stats.executed.value += 1
        self.db.stats.call_depth += 1
        txn = self.db.txn
        token = txn.mark()
        try:
            # watchdog checkpoint at every PSM statement boundary —
            # inside this statement's guard, so a cancellation takes the
            # same rollback + handler-dispatch path as a SIGNAL raised
            # by the statement itself (SQLSTATE '57014' handlers fire;
            # unhandled, it cascades to full routine atomicity)
            resilience = self.db.resilience
            if resilience.armed:
                resilience.check()
            self._dispatch(stmt, frame)
        except SqlError as exc:
            # revert this statement's partial effects, then look for a
            # declared handler; an unhandled condition cascades up one
            # statement guard at a time, so the whole routine unwinds
            txn.rollback_to(token)
            self._handle_exception(exc, frame)
        except BaseException:
            # control-flow signals (_Return, _Leave, _HandlerExit, ...)
            # are not failures: keep the statement's effects
            txn.release(token)
            raise
        else:
            txn.release(token)
        finally:
            self.db.stats.call_depth -= 1

    def _handle_exception(self, exc: SqlError, frame: Frame) -> None:
        handler = None
        if isinstance(exc, SignalError):
            handler = frame.find_handler(f"SQLSTATE {exc.sqlstate}")
        if handler is None:
            handler = frame.find_handler("SQLEXCEPTION")
        if handler is None:
            raise exc
        handler.active = True
        try:
            self.execute_statement(handler.action, frame)
        finally:
            handler.active = False
        if handler.kind == "EXIT":
            raise _HandlerExit(handler.depth)

    def _dispatch(self, stmt: ast.Statement, frame: Frame) -> None:
        # a refused statement fails when reached, inside its own guard
        if getattr(stmt, "modifier", None) is not None:
            raise ExecutionError(
                "temporal statement modifiers require the temporal stratum"
            )
        handler = _STATEMENT_HANDLERS.get(type(stmt))
        if handler is None:
            raise RoutineError(
                f"unsupported statement in routine body: {type(stmt).__name__}"
            )
        handler(self, stmt, frame)

    def _declare_cursor(self, stmt: ast.DeclareCursor, frame: Frame) -> None:
        frame.cursors[stmt.name.lower()] = _CursorState(stmt.select)

    def _declare_handler(self, stmt: ast.DeclareHandler, frame: Frame) -> None:
        frame.add_handler(stmt)

    def _execute_leave(self, stmt: ast.LeaveStatement, frame: Frame) -> None:
        raise _Leave(stmt.label.lower())

    def _execute_iterate(self, stmt: ast.IterateStatement, frame: Frame) -> None:
        raise _Iterate(stmt.label.lower())

    def _execute_return(self, stmt: ast.ReturnStatement, frame: Frame) -> None:
        if stmt.value is None:
            raise _Return(Null)
        raise _Return(self.executor.evaluate(stmt.value, Env(frame=frame)))

    def _execute_call(self, stmt: ast.CallStatement, frame: Frame) -> None:
        frame.result_sets.extend(self.call_procedure(stmt, Env(frame=frame)))

    def _execute_query(self, stmt: ast.Select, frame: Frame) -> None:
        frame.result_sets.append(
            self.executor.execute_select(stmt, Env(frame=frame))
        )

    def _execute_engine_statement(self, stmt: ast.Statement, frame: Frame) -> None:
        self.executor.execute(stmt, Env(frame=frame))

    def _execute_signal(self, stmt: ast.SignalStatement, frame: Frame) -> None:
        raise SignalError(stmt.sqlstate, stmt.message)

    def _refuse_transaction(self, stmt: ast.Statement, frame: Frame) -> None:
        raise RoutineError(
            "transaction control statements are not allowed inside routines"
        )

    # -- compound ---------------------------------------------------------

    def _execute_compound(self, stmt: ast.Compound, frame: Frame) -> None:
        frame.push_scope()
        depth = len(frame.scopes)  # handlers declared here record this depth
        try:
            for declaration in stmt.declarations:
                self.execute_statement(declaration, frame)
            for inner in stmt.statements:
                self.execute_statement(inner, frame)
        except _HandlerExit as exit_:
            if exit_.depth != depth:
                raise
        finally:
            frame.pop_scope()

    def _declare_variable(self, stmt: ast.DeclareVariable, frame: Frame) -> None:
        if stmt.array_type is not None:
            for name in stmt.names:
                frame.declare_table_var(name, stmt.array_type)
            return
        env = Env(frame=frame)
        default = (
            self.executor.evaluate(stmt.default, env)
            if stmt.default is not None
            else Null
        )
        for name in stmt.names:
            frame.declare_scalar(name, stmt.type, default)

    # -- assignment ---------------------------------------------------------

    def _execute_set(self, stmt: ast.SetStatement, frame: Frame) -> None:
        env = Env(frame=frame)
        if len(stmt.targets) == 1:
            value = self.executor.evaluate(stmt.value, env)
            frame.set_variable(stmt.targets[0], value)
            return
        # row form: SET (a, b) = (SELECT x, y ...)
        value_expr = stmt.value
        if isinstance(value_expr, ast.Parenthesized):
            value_expr = value_expr.expr
        if isinstance(value_expr, ast.ScalarSubquery):
            result = self.executor.execute_select(value_expr.select, env)
            if len(result.rows) > 1:
                raise CardinalityError("row SET: query returned more than one row")
            if not result.rows:
                self._signal_not_found(frame)
                return
            row = result.rows[0]
            if len(row) != len(stmt.targets):
                raise RoutineError(
                    f"row SET: {len(stmt.targets)} targets but {len(row)} columns"
                )
            for target, value in zip(stmt.targets, row):
                frame.set_variable(target, value)
            return
        raise RoutineError("row SET requires a row subquery")

    def _execute_select_into(self, stmt: ast.SelectInto, frame: Frame) -> None:
        result = self.executor.execute_select(stmt.select, Env(frame=frame))
        if len(result.rows) > 1:
            raise CardinalityError("SELECT INTO returned more than one row")
        if not result.rows:
            self._signal_not_found(frame)
            return
        row = result.rows[0]
        if len(row) != len(stmt.targets):
            raise RoutineError(
                f"SELECT INTO: {len(stmt.targets)} targets but {len(row)} columns"
            )
        for target, value in zip(stmt.targets, row):
            frame.set_variable(target, value)

    # -- control flow ---------------------------------------------------

    def _execute_if(self, stmt: ast.IfStatement, frame: Frame) -> None:
        env = Env(frame=frame)
        for condition, body in stmt.branches:
            if truth(self.executor.evaluate(condition, env)):
                for inner in body:
                    self.execute_statement(inner, frame)
                return
        if stmt.else_branch is not None:
            for inner in stmt.else_branch:
                self.execute_statement(inner, frame)

    def _execute_case(self, stmt: ast.CaseStatement, frame: Frame) -> None:
        env = Env(frame=frame)
        if stmt.operand is not None:
            operand = self.executor.evaluate(stmt.operand, env)
            for when, body in stmt.whens:
                if compare(operand, self.executor.evaluate(when, env)) == 0:
                    for inner in body:
                        self.execute_statement(inner, frame)
                    return
        else:
            for when, body in stmt.whens:
                if truth(self.executor.evaluate(when, env)):
                    for inner in body:
                        self.execute_statement(inner, frame)
                    return
        if stmt.else_branch is not None:
            for inner in stmt.else_branch:
                self.execute_statement(inner, frame)

    def _execute_while(self, stmt: ast.WhileStatement, frame: Frame) -> None:
        env = Env(frame=frame)
        label = (stmt.label or "").lower()
        while truth(self.executor.evaluate(stmt.condition, env)):
            try:
                for inner in stmt.body:
                    self.execute_statement(inner, frame)
            except _Leave as leave:
                if leave.label == label:
                    return
                raise
            except _Iterate as iterate:
                if iterate.label != label:
                    raise

    def _execute_repeat(self, stmt: ast.RepeatStatement, frame: Frame) -> None:
        env = Env(frame=frame)
        label = (stmt.label or "").lower()
        while True:
            try:
                for inner in stmt.body:
                    self.execute_statement(inner, frame)
            except _Leave as leave:
                if leave.label == label:
                    return
                raise
            except _Iterate as iterate:
                if iterate.label != label:
                    raise
            if truth(self.executor.evaluate(stmt.until, env)):
                return

    def _execute_for(self, stmt: ast.ForStatement, frame: Frame) -> None:
        label = (stmt.label or "").lower()
        result = self.executor.execute_select(stmt.select, Env(frame=frame))
        colmap = {name.lower(): i for i, name in enumerate(result.columns)}
        rows, split = result.rows, stmt.split
        if split is not None and split.unmerged is None:
            # PERST's merged periods, worked out here rather than by
            # PeriodSplit.merge: a period extends the one it meets unless
            # a cell of a split row holds the meeting point
            cells = set()
            for select in split.split_at:
                for cut in self.executor.execute_select(select, Env(frame=frame)).rows:
                    cells.update(cut)
            merged: list = []
            for begin, end in sorted(rows, key=lambda row: row[0]):
                if merged and merged[-1][1] == begin and begin not in cells:
                    merged[-1] = (merged[-1][0], end)
                else:
                    merged.append((begin, end))
            rows = merged
        for row in rows:
            frame.push_scope()
            frame.declare_record(stmt.loop_var, colmap, list(row))
            try:
                for inner in stmt.body:
                    self.execute_statement(inner, frame)
            except _Leave as leave:
                frame.pop_scope()
                if leave.label == label:
                    return
                raise
            except _Iterate as iterate:
                frame.pop_scope()
                if iterate.label != label:
                    raise
                continue
            frame.pop_scope()

    def _execute_loop(self, stmt: ast.LoopStatement, frame: Frame) -> None:
        label = (stmt.label or "").lower()
        iterations = 0
        while True:
            iterations += 1
            if iterations > 10_000_000:  # pragma: no cover - runaway guard
                raise RoutineError("LOOP exceeded iteration guard")
            try:
                for inner in stmt.body:
                    self.execute_statement(inner, frame)
            except _Leave as leave:
                if leave.label == label:
                    return
                raise
            except _Iterate as iterate:
                if iterate.label != label:
                    raise

    # -- cursors ------------------------------------------------------------

    def _cursor(self, frame: Frame, name: str) -> _CursorState:
        cursor = frame.cursors.get(name.lower())
        if cursor is None:
            raise CursorError(f"no such cursor: {name}")
        return cursor

    def _execute_open(self, stmt: ast.OpenCursor, frame: Frame) -> None:
        cursor = self._cursor(frame, stmt.name)
        if cursor.is_open:
            raise CursorError(f"cursor {stmt.name} is already open")
        result = self.executor.execute_select(cursor.select, Env(frame=frame))
        cursor.rows = result.rows
        cursor.columns = result.columns
        cursor.position = 0
        cursor.is_open = True

    def _execute_fetch(self, stmt: ast.FetchCursor, frame: Frame) -> None:
        cursor = self._cursor(frame, stmt.name)
        if not cursor.is_open:
            raise CursorError(f"cursor {stmt.name} is not open")
        if cursor.position >= len(cursor.rows):
            self._signal_not_found(frame)
            return
        row = cursor.rows[cursor.position]
        cursor.position += 1
        if len(row) != len(stmt.targets):
            raise CursorError(
                f"FETCH {stmt.name}: {len(stmt.targets)} targets but"
                f" {len(row)} columns"
            )
        for target, value in zip(stmt.targets, row):
            frame.set_variable(target, value)

    def _execute_close(self, stmt: ast.CloseCursor, frame: Frame) -> None:
        cursor = self._cursor(frame, stmt.name)
        if not cursor.is_open:
            raise CursorError(f"cursor {stmt.name} is not open")
        cursor.is_open = False
        cursor.rows = []
        cursor.position = 0

    # -- conditions -----------------------------------------------------

    def _signal_not_found(self, frame: Frame) -> None:
        handler = frame.find_handler("NOT FOUND")
        if handler is None:
            return  # SQLSTATE 02000 is a completion condition, not an error
        self.execute_statement(handler.action, frame)


# statement class -> ReferenceInterpreter method taking (stmt, frame);
# a handler that evaluates makes its own Env over the frame
_STATEMENT_HANDLERS = {
    ast.Compound: ReferenceInterpreter._execute_compound,
    ast.DeclareVariable: ReferenceInterpreter._declare_variable,
    ast.DeclareCursor: ReferenceInterpreter._declare_cursor,
    ast.DeclareHandler: ReferenceInterpreter._declare_handler,
    ast.SetStatement: ReferenceInterpreter._execute_set,
    ast.SelectInto: ReferenceInterpreter._execute_select_into,
    ast.IfStatement: ReferenceInterpreter._execute_if,
    ast.CaseStatement: ReferenceInterpreter._execute_case,
    ast.WhileStatement: ReferenceInterpreter._execute_while,
    ast.RepeatStatement: ReferenceInterpreter._execute_repeat,
    ast.ForStatement: ReferenceInterpreter._execute_for,
    ast.LoopStatement: ReferenceInterpreter._execute_loop,
    ast.LeaveStatement: ReferenceInterpreter._execute_leave,
    ast.IterateStatement: ReferenceInterpreter._execute_iterate,
    ast.ReturnStatement: ReferenceInterpreter._execute_return,
    ast.CallStatement: ReferenceInterpreter._execute_call,
    ast.OpenCursor: ReferenceInterpreter._execute_open,
    ast.FetchCursor: ReferenceInterpreter._execute_fetch,
    ast.CloseCursor: ReferenceInterpreter._execute_close,
    ast.Select: ReferenceInterpreter._execute_query,
    ast.Insert: ReferenceInterpreter._execute_engine_statement,
    ast.Update: ReferenceInterpreter._execute_engine_statement,
    ast.Delete: ReferenceInterpreter._execute_engine_statement,
    ast.CreateTable: ReferenceInterpreter._execute_engine_statement,
    ast.DropTable: ReferenceInterpreter._execute_engine_statement,
    ast.SignalStatement: ReferenceInterpreter._execute_signal,
    ast.TransactionStatement: ReferenceInterpreter._refuse_transaction,
}
