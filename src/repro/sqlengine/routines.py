"""Stored functions and procedures: routine bodies compiled to closures.

A routine body is compiled **once per** :class:`~repro.sqlengine.catalog.Routine`
object, on its first invocation, into one closure tree over a flat
frame (``_Compiler``).  What the SQL/PSM text fixes is resolved then:
every DECLAREd scalar, parameter, row-array variable, FOR record and
cursor is a slot index under lexical scoping (an inner ``DECLARE x``
gets its own slot), every LEAVE / ITERATE names its enclosing loop,
every PSM-level expression is a closure from
:mod:`repro.sqlengine.exprcompile` whose variable names read slots, and
every embedded SELECT / DML resolves names through one name → slot
``_Scope`` fixed for its statement.  What the catalog decides — the plan
of an embedded statement, the callee of a call site — is looked up when
the statement runs, through the plan cache and ``Catalog.find_routine``:
a compiled body never goes stale.

Every PSM statement runs inside its own guard (``_Compiler.block``):
statement count, undo-log depth, watchdog check — and on an error, undo
to that depth and handler dispatch; no savepoint.  Control flow is a returned
signal, not an exception: nothing but an error leaves a routine.  Every
routine invocation increments the engine's per-routine call counter —
the machine-independent cost metric the paper's MAX-vs-PERST comparison
turns on.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.catalog import Routine
from repro.sqlengine.errors import (
    CardinalityError,
    CatalogError,
    CursorError,
    ExecutionError,
    RoutineError,
    SignalError,
    SqlError,
)
from repro.sqlengine.executor import Env, Executor, ResultSet
from repro.sqlengine.exprcompile import FrameLayout, compile_expression
from repro.sqlengine.interval_index import _INF
from repro.sqlengine.storage import Column, Table
from repro.sqlengine.types import coerce
from repro.sqlengine.values import Date, Null, compare, sort_key


def _narrow_caller(caller: list, lo: Any, hi: Any, point: int) -> None:
    """Intersect the read window ``caller`` with a callee's ``[lo, hi)``
    around ``point`` (see ``RoutineInterpreter._reused``)."""
    if point != caller[2]:
        lo, hi = caller[2], caller[2] + 1
    if lo > caller[0]:
        caller[0] = lo
    if hi < caller[1]:
        caller[1] = hi


def _periods(executor: Executor, env: Env, split: ast.PeriodSplit, rows: list) -> list:
    """The periods a PERST per-period loop runs (:class:`ast.PeriodSplit`),
    counted in the registry."""
    obs = executor.db.obs
    if split.unmerged is not None:
        obs.inc("stratum.perst.loop.unmerged." + split.unmerged)
    else:
        rows = split.merge(rows, [
            executor.execute_select(select, env).rows for select in split.split_at
        ])
    obs.inc("stratum.perst.loop.periods", len(rows))
    return rows


def _coercion(type_: Any) -> Callable[[Any], Any]:
    """``coerce(value, type_)`` as a closure that settles the usual
    assignment — NULL, or a value already of the declared class — before
    the generic ladder."""
    if type_.is_character:
        limit = type_.length

        def to_text(value: Any) -> Any:
            if value is Null or (
                type(value) is str and (limit is None or len(value) <= limit)
            ):
                return value
            return coerce(value, type_)

        return to_text
    if type_.is_integer:
        exact: Any = int
    elif type_.is_date:
        exact = Date
    else:
        return lambda value: coerce(value, type_)

    def to_exact(value: Any) -> Any:
        if value is Null or type(value) is exact:
            return value
        return coerce(value, type_)

    return to_exact


class _Signal:
    """What a statement returns instead of ``None`` to leave the normal
    flow: RETURN, a loop's LEAVE or ITERATE, a compound's EXIT handler.
    Each loop and compound owns its signals, so identity is the target."""

    __slots__ = ("what",)

    def __init__(self, what: str) -> None:
        self.what = what

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.what}>"


_RETURN = _Signal("RETURN")

# what a name of a scope stands for
_SCALAR, _TABLE, _RECORD = "scalar", "table", "record"


class _Scope:
    """The names visible at one point of a routine body, fixed at
    compile time: ``names`` maps a lowered name to ``(kind, slot)``
    (innermost declaration wins), ``records`` lists the slots of the
    enclosing FOR records innermost first (an unqualified name no
    variable claims is looked for among their fields), ``cursors`` maps
    cursor names to slots.  A record takes two slots: its column map,
    then its current row."""

    __slots__ = ("names", "records", "cursors")

    def __init__(self, names: dict, records: tuple, cursors: dict) -> None:
        self.names = names
        self.records = records
        self.cursors = cursors

    def declaring(self, name: str, kind: str, slot: int) -> "_Scope":
        names = dict(self.names)
        names[name.lower()] = (kind, slot)
        records = (slot,) + self.records if kind == _RECORD else self.records
        return _Scope(names, records, self.cursors)

    def with_cursor(self, name: str, slot: int) -> "_Scope":
        cursors = dict(self.cursors)
        cursors[name.lower()] = slot
        return _Scope(self.names, self.records, cursors)

    def reader(
        self, qual: Optional[str], key: str, qualifier: Optional[str], name: str
    ) -> Callable[[Env], Any]:
        """The closure reading a name of a PSM-level expression — one
        evaluated in the invocation's own ``Env``, which binds no FROM
        source, so the frame is all there is to resolve against (the
        rules and errors of ``Env.lookup_keyed`` with no bindings)."""
        entry = self.names.get(key if qual is None else qual)
        if qual is not None:
            unknown = f"unknown table alias {qualifier!r}"
            if entry is None or entry[0] != _RECORD:
                def no_record(env: Env) -> Any:
                    raise CatalogError(unknown)
                return no_record
            slot = entry[1]
            def record_field(env: Env) -> Any:
                slots = env.frame.slots
                index = slots[slot].get(key)
                if index is None:
                    raise CatalogError(unknown)
                return slots[slot + 1][index]
            return record_field
        if entry is not None and entry[0] != _RECORD:
            slot = entry[1]
            return lambda env: env.frame.slots[slot]
        records = self.records
        def any_record_field(env: Env) -> Any:
            slots = env.frame.slots
            for slot in records:
                index = slots[slot].get(key)
                if index is not None:
                    return slots[slot + 1][index]
            raise CatalogError(f"unknown column or variable {name!r}")
        return any_record_field


class _CursorState:
    __slots__ = ("select", "rows", "position", "is_open")

    def __init__(self, select: ast.Select) -> None:
        self.select = select
        self.rows: list[list[Any]] = []
        self.position = 0
        self.is_open = False


class _Handler:
    """One declared handler of a running compound."""

    __slots__ = ("kind", "condition", "action", "exit", "active")

    def __init__(
        self, kind: str, condition: str, action: Callable, exit_: _Signal
    ) -> None:
        self.kind = kind
        self.condition = condition
        self.action = action  # the action statement as a guarded block
        self.exit = exit_  # leaves the declaring compound (EXIT handlers)
        self.active = False  # True while the handler's action runs


class Frame:
    """One routine invocation: the slots of its body, the handlers of
    its running compounds, its result.  ``scope`` is the scope of the
    statement now running embedded SQL — the executor's ``Env`` resolves
    variables of plans and subqueries through it."""

    __slots__ = ("routine_name", "plan_runs", "slots", "types", "scope",
                 "handlers", "result_sets", "result")

    def __init__(self, body: "_Body", args: list[Any]) -> None:
        self.routine_name = body.name
        self.plan_runs = body.plan_runs
        self.types = body.types
        self.slots = slots = [Null] * len(body.types)
        for slot, to_type in enumerate(body.params):  # parameter i is slot i
            slots[slot] = to_type(args[slot])
        self.scope = body.scope
        self.handlers: list[_Handler] = []
        self.result_sets: list[ResultSet] = []
        self.result: Any = Null

    # -- lookups used by the executor's Env -------------------------------

    def lookup_variable(self, key: str) -> tuple[bool, Any]:
        scope, slots = self.scope, self.slots
        entry = scope.names.get(key)
        if entry is not None and entry[0] != _RECORD:
            return True, slots[entry[1]]
        # unqualified access to a FOR-loop record field
        for slot in scope.records:
            index = slots[slot].get(key)
            if index is not None:
                return True, slots[slot + 1][index]
        return False, None

    def lookup_record_field(self, qualifier: str, key: str) -> tuple[bool, Any]:
        entry = self.scope.names.get(qualifier)
        if entry is not None and entry[0] == _RECORD:
            index = self.slots[entry[1]].get(key)
            if index is not None:
                return True, self.slots[entry[1] + 1][index]
        return False, None

    def lookup_table_var(self, name: str) -> Optional[Table]:
        entry = self.scope.names.get(name.lower())
        if entry is not None and entry[0] == _TABLE:
            return self.slots[entry[1]]
        return None

    def set_variable(self, name: str, value: Any) -> None:
        """Assign by name, in the running statement's scope (the
        copy-back of a CALL's OUT / INOUT arguments)."""
        entry = self.scope.names.get(name.lower())
        if entry is None:
            raise RoutineError(
                f"unknown variable {name!r} in {self.routine_name}"
            )
        if entry[0] != _SCALAR:
            raise RoutineError(f"cannot SET non-scalar variable {name!r}")
        self.slots[entry[1]] = coerce(value, self.types[entry[1]])

    # -- handlers ----------------------------------------------------------

    def find_handler(self, condition: str) -> Optional[_Handler]:
        # skip handlers whose action is currently running, so an error
        # raised inside a handler cannot re-enter the same handler
        for handler in reversed(self.handlers):
            if handler.condition == condition and not handler.active:
                return handler
        return None


class _Body:
    """A compiled routine body, and what every invocation reads off the
    routine without walking its definition again."""

    __slots__ = ("executor", "routine", "name", "key", "run", "types", "scope",
                 "params", "is_table", "to_result", "window", "memo_key",
                 "calls", "reuses", "plan_runs")

    def __init__(self, executor: Executor, routine: Routine) -> None:
        self.executor = executor
        self.routine = routine
        self.name = routine.name
        self.key = routine.name.lower()
        # this routine's counters of the per-routine families
        stats = executor.db.stats
        counter = stats.obs.counter
        self.calls = counter(stats.ROUTINE_CALLS + self.key)
        self.reuses = counter(stats.ROUTINE_REUSES + self.key)
        self.plan_runs = counter(stats.ROUTINE_PLAN_RUNS + self.key)
        self.params = [_coercion(param.type) for param in routine.params]
        self.is_table = routine.is_table_function
        # a scalar function's result is coerced to its declared type
        returns = None if self.is_table else routine.returns
        self.to_result = None if returns is None else _coercion(returns)
        # the shape of the routine's result-memo key: the point
        # parameter, and the arguments a kept result is looked up under
        self.window = routine.window_param
        others = [i for i in range(len(routine.params)) if i != routine.window_param]
        key = self.key
        if len(others) == 1:
            first = others[0]
            self.memo_key = lambda args: (key, sort_key(args[first]))
        else:
            self.memo_key = lambda args: (key, *[sort_key(args[i]) for i in others])
        self.types: list = []  # per slot: a scalar's SqlType, else None
        self.scope = _Scope({}, (), {})
        self.run: Callable[[Env], Any] = None


class RoutineInterpreter:
    """Invokes routines; one instance per call site, stateless — the
    compiled body lives on the ``Routine``."""

    MAX_DEPTH = 64  # nested routine invocations

    def __init__(self, executor: Executor) -> None:
        self.executor = executor
        self.db = executor.db

    # ------------------------------------------------------------------
    # invocation entry points
    # ------------------------------------------------------------------

    def invoke_function(
        self, name: str, args: list[Any], routine: Optional[Routine] = None
    ) -> Any:
        """``routine`` is the callee a compiled call site already holds."""
        if routine is None:
            routine = self.db.catalog.get_routine(name)
        if routine.kind != "FUNCTION":
            raise RoutineError(f"{name} is a procedure; use CALL")
        body = routine.compiled
        if body is None or body.executor is not self.executor:
            body = self._body(routine)
        if body.window is None or body.is_table:
            return self._scalar_result(body, args)
        return self._reused(body, args, self._scalar_result)

    def _scalar_result(self, body: "_Body", args: list[Any]) -> Any:
        value = self._invoke(body, args).result
        if body.is_table or value is Null:
            return value
        return body.to_result(value)

    def invoke_table_function(
        self, name: str, args: list[Any], reusable: bool = False
    ) -> tuple[list[str], list[list[Any]]]:
        """``(columns, rows)`` of a row-array function; ``reusable`` is
        the caller's :meth:`Catalog.write_free` verdict on it."""
        routine = self.db.catalog.get_routine(name)
        if not routine.is_table_function:
            raise RoutineError(f"{name} does not return a row array")
        body = self._body(routine)
        if reusable:
            return self._reused(body, args, self._table_result)
        return self._table_result(body, args)

    def _table_result(
        self, body: "_Body", args: list[Any]
    ) -> tuple[list[str], list[list[Any]]]:
        value = self._invoke(body, args).result
        columns = list(body.routine.definition.returns.column_names)
        if value is Null or value is None:
            return columns, []
        if isinstance(value, Table):
            return columns, [list(row) for row in value.rows]
        raise RoutineError(
            f"table function {body.name} returned {type(value).__name__},"
            " expected a row-array variable"
        )

    def _reused(self, body: "_Body", args: list[Any], run) -> Any:
        """``run(body, args)``, or the result an earlier call in this
        statement left in ``Database.table_function_cache`` — the
        routine-result memo: ``(routine, arguments by sort_key) ->
        [(lo, hi, result), ...]``.

        A function without ``window_param`` is looked up under all its
        arguments and its results hold everywhere.  One with it is
        looked up under the *other* arguments and runs under a read
        window ``[lo, hi)`` around its point (see the planner's
        ``_narrow_by_table`` and ``_bucket_versions``): inside it every
        row the run examined keeps its valid-at-point verdict — but a
        hash-bucket version that a point-free level filter rejects,
        which is emitted at no point — so every embedded plan sees the
        same rows in the same order and the function returns the same
        result.  A nested windowed call narrows its caller's window by
        its own, run or reused alike — the caller's result rests on the
        callee's — and one evaluated at another point leaves the caller
        only ``[p, p + 1)``.  A call that raises keeps nothing.  A hit is
        one probe and a window test per kept result, newest first.
        """
        db = self.db
        index = body.window
        point = 0
        if index is not None:
            value = args[index]
            if not isinstance(value, Date):
                return run(body, args)  # NULL point: nothing to slide along
            point = value.ordinal
        key = body.memo_key(args)
        caller = db.read_window if index is not None else None
        cache = db.table_function_cache
        entries = cache.get(key)
        if entries is None:
            entries = cache[key] = []
        for lo, hi, result in reversed(entries):
            if lo <= point < hi:
                body.reuses.value += 1
                if caller is not None:
                    _narrow_caller(caller, lo, hi, point)
                return result
        if index is None:
            result = run(body, args)
            entries.append((-_INF, _INF, result))
        else:
            window = db.read_window = [-_INF, _INF, point]
            try:
                result = run(body, args)
            finally:
                db.read_window = caller
                if caller is not None:
                    _narrow_caller(caller, window[0], window[1], point)
            entries.append((window[0], window[1], result))
        db.obs.inc("engine.routine_memo.entries")
        return result

    def call_procedure(
        self,
        stmt: ast.CallStatement,
        caller_env: Optional[Env],
        arg_cs: Optional[list] = None,
    ) -> list[ResultSet]:
        """``arg_cs`` are the argument closures a compiled CALL holds; a
        CALL from outside a routine evaluates its arguments itself."""
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
                if param.mode == "OUT":
                    arg_values.append(Null)
                    continue
            if arg_cs is not None:
                arg_values.append(arg_cs[index](eval_env))
            else:
                arg_values.append(self.executor.evaluate(arg, eval_env))
        frame = self._invoke(self._body(routine), arg_values)
        if caller_frame is not None:
            # copy OUT / INOUT parameters back to the caller
            names = routine.compiled.scope.names
            for index, var_name in out_targets:
                slot = names[params[index].name.lower()][1]
                caller_frame.set_variable(var_name, frame.slots[slot])
        return frame.result_sets

    def _invoke(self, body: "_Body", args: list[Any]) -> Frame:
        """Run ``body`` over ``args`` in a fresh frame."""
        if len(args) != len(body.params):
            raise RoutineError(
                f"{body.name} expects {len(body.params)} arguments,"
                f" got {len(args)}"
            )
        db = self.db
        if not db.txn.logging:
            # the guards undo through the log an open mark keeps on: the
            # engine's entry points hold one, a call outside them opens its own
            return db.txn.run_atomic(lambda: self._invoke(body, args))
        stats = db.stats
        if stats.call_depth >= self.MAX_DEPTH:
            raise RoutineError("routine call depth exceeded")
        frame = Frame(body, args)
        body.calls.value += 1
        env = Env(frame=frame)
        stats.call_depth += 1
        try:
            if not db.tracer.enabled:
                body.run(env)
            else:
                with db.tracer.span("routine", name=body.name) as span:
                    body.run(env)
                # inclusive, and only while someone is tracing
                # (EXPLAIN ANALYZE prints it per routine)
                db.obs.inc(stats.ROUTINE_NS + body.key, round(span.seconds * 1e9))
        finally:
            stats.call_depth -= 1
        return frame

    def _body(self, routine: Routine) -> _Body:
        """``routine``'s compiled body: compiled on first need, kept on
        the ``Routine`` object — a DROP / CREATE, a re-installed clone
        or a rolled-back ``add_routine`` meets another object."""
        body = routine.compiled
        if body is None or body.executor is not self.executor:
            body = _Compiler(self, routine).compile()
            routine.compiled = body
            self.db.obs.inc("engine.psm.compiles")
        return body

    # ------------------------------------------------------------------
    # conditions
    # ------------------------------------------------------------------

    def _handle(self, exc: SqlError, env: Env) -> Optional[_Signal]:
        """Dispatch a failed (and already rolled back) statement's
        exception to a handler of its frame: a SQLSTATE handler before
        SQLEXCEPTION, innermost first.  A CONTINUE handler resumes after
        the failed statement, an EXIT handler leaves its compound; with
        none declared the exception goes to the enclosing statement."""
        frame = env.frame
        handler = None
        if isinstance(exc, SignalError):
            handler = frame.find_handler(f"SQLSTATE {exc.sqlstate}")
        if handler is None:
            handler = frame.find_handler("SQLEXCEPTION")
        if handler is None:
            raise exc
        handler.active = True
        try:
            signal = handler.action(env)
        finally:
            handler.active = False
        if signal is None and handler.kind == "EXIT":
            return handler.exit
        return signal

    @staticmethod
    def _not_found(env: Env) -> Optional[_Signal]:
        """SQLSTATE 02000 is a completion condition, not an error: a
        NOT FOUND handler's action runs, the statement has succeeded."""
        handler = env.frame.find_handler("NOT FOUND")
        if handler is None:
            return None
        return handler.action(env)


class _Compiler:
    """Compiles one routine body.  A *statement* compiles to a closure
    ``body(env)`` returning ``None`` or a :class:`_Signal`; a *block* is
    a statement list run under the per-statement guard."""

    def __init__(self, interpreter: RoutineInterpreter, routine: Routine) -> None:
        self.interpreter = interpreter
        self.executor = interpreter.executor
        self.db = interpreter.db
        self.routine = routine
        self.body = _Body(self.executor, routine)
        self.loops: list[tuple[str, _Signal, _Signal]] = []  # enclosing, labelled
        self.exit = _Signal("EXIT")  # of the compound being compiled

    def compile(self) -> _Body:
        body, scope = self.body, self.body.scope
        for param in self.routine.params:
            scope = scope.declaring(param.name, _SCALAR, self._slot(param.type))
        body.scope = scope
        body.run = self.block([self.routine.definition.body], scope)
        return body

    def _slot(self, type_: Any = None) -> int:
        self.body.types.append(type_)
        return len(self.body.types) - 1

    def _error(self, message: str, stmt: ast.Statement) -> RoutineError:
        """A compile-time rejection names routine and statement."""
        return RoutineError(f"{message} in {self.routine.name}: {stmt.to_sql()}")

    # ------------------------------------------------------------------
    # the statement guard
    # ------------------------------------------------------------------

    def block(
        self,
        statements: list,
        scope: _Scope,
        exit_: Optional[_Signal] = None,
    ) -> Callable[[Env], Optional[_Signal]]:
        """``statements`` in order, each inside its own guard.  With
        ``exit_`` the block is a compound's: that signal — an EXIT
        handler of its own fired — ends it normally, and at its END the
        handlers it declared are dropped."""
        bodies = []
        for stmt in statements:
            body, scope = self.statement(stmt, scope)
            bodies.append(body)
        bodies = tuple(bodies)
        db = self.db
        executed = db.stats.executed
        resilience = db.resilience
        handle = self.interpreter._handle

        def run(env: Env) -> Optional[_Signal]:
            if exit_ is not None:
                handlers = env.frame.handlers
                declared = len(handlers)
            # no savepoint: an open mark (``_invoke``) keeps the undo log
            # on, whose depth is a statement's start; a statement that
            # returns has released every mark it opened
            txn = db.txn
            marks = len(txn.marks)
            try:
                for body in bodies:
                    executed.value += 1
                    depth, redo = len(txn.log), len(txn.redo)
                    try:
                        # watchdog checkpoint at every PSM statement
                        # boundary — inside this statement's guard, so a
                        # cancellation takes the same rollback +
                        # handler-dispatch path as a SIGNAL raised by
                        # the statement itself (SQLSTATE '57014'
                        # handlers fire; unhandled, it cascades to full
                        # routine atomicity)
                        if resilience.armed:
                            resilience.check()
                        signal = body(env)
                    except SqlError as exc:
                        # revert this statement's partial effects, then
                        # look for a declared handler; an unhandled
                        # condition cascades up one statement guard at a
                        # time, so the whole routine unwinds
                        txn.undo_to(depth, redo, marks)
                        signal = handle(exc, env)
                    if signal is not None:
                        return None if signal is exit_ else signal
                return None
            finally:
                if exit_ is not None:
                    del handlers[declared:]

        return run

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def statement(self, stmt: ast.Statement, scope: _Scope) -> tuple[Callable, _Scope]:
        """``(body, scope after it)``: a declaration extends the scope
        of the statements that follow it."""
        if getattr(stmt, "modifier", None) is not None:
            return self._raising(
                ExecutionError,
                "temporal statement modifiers require the temporal stratum",
            ), scope
        compile_ = _COMPILERS.get(type(stmt))
        if compile_ is None:
            return self._raising(
                RoutineError,
                f"unsupported statement in routine body: {type(stmt).__name__}",
            ), scope
        compiled = compile_(self, stmt, scope)
        if isinstance(compiled, tuple):
            return compiled
        return compiled, scope

    @staticmethod
    def _raising(error: type, message: str) -> Callable:
        """A statement that fails when (and only if) it is reached."""
        def run(env: Env) -> None:
            raise error(message)
        return run

    def _expression(self, expr: ast.Expression, scope: _Scope) -> Callable[[Env], Any]:
        """A PSM-level expression: variable names read slots; a subquery
        in it runs a plan, which resolves them through the frame."""
        compiled = compile_expression(self.executor, expr, FrameLayout(scope))
        if not any(isinstance(node, ast.Select) for node in ast.walk(expr)):
            return compiled

        def with_scope(env: Env) -> Any:
            env.frame.scope = scope
            return compiled(env)

        return with_scope

    def _targets(self, names: list[str], scope: _Scope, stmt: ast.Statement) -> list:
        """``(slot, coercion to its type)`` per assignment target."""
        targets = []
        for name in names:
            entry = scope.names.get(name.lower())
            if entry is None:
                raise self._error(f"unknown variable {name!r}", stmt)
            if entry[0] != _SCALAR:
                raise self._error(f"cannot SET non-scalar variable {name!r}", stmt)
            targets.append((entry[1], _coercion(self.body.types[entry[1]])))
        return targets

    # -- compound and declarations -----------------------------------------

    def _compound(self, stmt: ast.Compound, scope: _Scope) -> Callable:
        enclosing, self.exit = self.exit, _Signal("EXIT")
        try:
            return self.block(stmt.declarations + stmt.statements, scope, self.exit)
        finally:
            self.exit = enclosing

    def _declare_variable(self, stmt: ast.DeclareVariable, scope: _Scope) -> tuple:
        if stmt.array_type is not None:
            columns = [(f.name, f.type) for f in stmt.array_type.fields]
            tables = []
            for name in stmt.names:
                slot = self._slot()
                tables.append((slot, name))
                scope = scope.declaring(name, _TABLE, slot)

            def declare_tables(env: Env) -> None:
                slots = env.frame.slots
                for slot, name in tables:
                    slots[slot] = Table(
                        name, [Column(n, t) for n, t in columns], temporary=True
                    )

            return declare_tables, scope
        # the DEFAULT sees the scope before these names
        default_c = (
            self._expression(stmt.default, scope) if stmt.default is not None else None
        )
        to_type = _coercion(stmt.type)
        declared = []
        for name in stmt.names:
            slot = self._slot(stmt.type)
            declared.append(slot)
            scope = scope.declaring(name, _SCALAR, slot)

        def declare(env: Env) -> None:
            value = to_type(default_c(env)) if default_c is not None else Null
            slots = env.frame.slots
            for slot in declared:
                slots[slot] = value

        return declare, scope

    def _declare_cursor(self, stmt: ast.DeclareCursor, scope: _Scope) -> tuple:
        slot = self._slot()
        select = stmt.select

        def declare(env: Env) -> None:
            env.frame.slots[slot] = _CursorState(select)

        return declare, scope.with_cursor(stmt.name, slot)

    def _declare_handler(self, stmt: ast.DeclareHandler, scope: _Scope) -> Callable:
        kind, condition, exit_ = stmt.kind, stmt.condition, self.exit
        action = self.block([stmt.action], scope)

        def declare(env: Env) -> None:
            env.frame.handlers.append(_Handler(kind, condition, action, exit_))

        return declare

    # -- assignment ---------------------------------------------------------

    def _set(self, stmt: ast.SetStatement, scope: _Scope) -> Callable:
        targets = self._targets(stmt.targets, scope, stmt)
        if len(targets) == 1:
            value_c = self._expression(stmt.value, scope)
            (slot, to_type), = targets

            def assign(env: Env) -> None:
                env.frame.slots[slot] = to_type(value_c(env))

            return assign
        # row form: SET (a, b) = (SELECT x, y ...)
        value_expr = stmt.value
        if isinstance(value_expr, ast.Parenthesized):
            value_expr = value_expr.expr
        if not isinstance(value_expr, ast.ScalarSubquery):
            return self._raising(RoutineError, "row SET requires a row subquery")
        return self._assign_row(value_expr.select, targets, scope, "row SET")

    def _select_into(self, stmt: ast.SelectInto, scope: _Scope) -> Callable:
        targets = self._targets(stmt.targets, scope, stmt)
        return self._assign_row(stmt.select, targets, scope, "SELECT INTO")

    def _assign_row(
        self, select: ast.Select, targets: list, scope: _Scope, what: str
    ) -> Callable:
        executor = self.executor
        not_found = self.interpreter._not_found
        many = "row SET: query" if what == "row SET" else what

        def assign_row(env: Env) -> Optional[_Signal]:
            frame = env.frame
            frame.scope = scope
            result = executor.execute_select(select, env)
            if len(result.rows) > 1:
                raise CardinalityError(f"{many} returned more than one row")
            if not result.rows:
                return not_found(env)
            row = result.rows[0]
            if len(row) != len(targets):
                raise RoutineError(
                    f"{what}: {len(targets)} targets but {len(row)} columns"
                )
            slots = frame.slots
            for (slot, to_type), value in zip(targets, row):
                slots[slot] = to_type(value)
            return None

        return assign_row

    # -- control flow ---------------------------------------------------

    def _branches(self, pairs: list, else_branch: Optional[list], scope: _Scope):
        """``[(condition closure, block)]`` and the ELSE block."""
        branches = [
            (self._expression(condition, scope), self.block(body, scope))
            for condition, body in pairs
        ]
        otherwise = (
            self.block(else_branch, scope) if else_branch is not None else None
        )
        return branches, otherwise

    def _if(self, stmt: ast.IfStatement, scope: _Scope) -> Callable:
        branches, otherwise = self._branches(stmt.branches, stmt.else_branch, scope)

        def run(env: Env) -> Optional[_Signal]:
            for condition, block in branches:
                if condition(env) is True:
                    return block(env)
            if otherwise is not None:
                return otherwise(env)
            return None

        return run

    def _case(self, stmt: ast.CaseStatement, scope: _Scope) -> Callable:
        branches, otherwise = self._branches(stmt.whens, stmt.else_branch, scope)
        operand_c = (
            self._expression(stmt.operand, scope) if stmt.operand is not None else None
        )

        def run(env: Env) -> Optional[_Signal]:
            if operand_c is not None:
                operand = operand_c(env)
                for when, block in branches:
                    if compare(operand, when(env)) == 0:
                        return block(env)
            else:
                for when, block in branches:
                    if when(env) is True:
                        return block(env)
            if otherwise is not None:
                return otherwise(env)
            return None

        return run

    def _loop_body(self, stmt: Any, scope: _Scope) -> tuple:
        """``(block, leave, iterate)`` of a loop statement: LEAVE and
        ITERATE inside the body resolve to the signals made here."""
        leave, iterate = _Signal("LEAVE"), _Signal("ITERATE")
        self.loops.append(((stmt.label or "").lower(), leave, iterate))
        try:
            return self.block(stmt.body, scope), leave, iterate
        finally:
            self.loops.pop()

    def _while(self, stmt: ast.WhileStatement, scope: _Scope) -> Callable:
        condition = self._expression(stmt.condition, scope)
        block, leave, iterate = self._loop_body(stmt, scope)

        def run(env: Env) -> Optional[_Signal]:
            while condition(env) is True:
                signal = block(env)
                if signal is not None and signal is not iterate:
                    return None if signal is leave else signal
            return None

        return run

    def _repeat(self, stmt: ast.RepeatStatement, scope: _Scope) -> Callable:
        until = self._expression(stmt.until, scope)
        block, leave, iterate = self._loop_body(stmt, scope)

        def run(env: Env) -> Optional[_Signal]:
            while True:
                signal = block(env)
                if signal is not None and signal is not iterate:
                    return None if signal is leave else signal
                if until(env) is True:
                    return None

        return run

    def _loop(self, stmt: ast.LoopStatement, scope: _Scope) -> Callable:
        block, leave, iterate = self._loop_body(stmt, scope)

        def run(env: Env) -> Optional[_Signal]:
            iterations = 0
            while True:
                iterations += 1
                if iterations > 10_000_000:  # pragma: no cover - runaway guard
                    raise RoutineError("LOOP exceeded iteration guard")
                signal = block(env)
                if signal is not None and signal is not iterate:
                    return None if signal is leave else signal

        return run

    def _for(self, stmt: ast.ForStatement, scope: _Scope) -> Callable:
        executor, select = self.executor, stmt.select
        record = self._slot()  # the column map; the row follows it
        self._slot()
        block, leave, iterate = self._loop_body(
            stmt, scope.declaring(stmt.loop_var, _RECORD, record)
        )

        def run(env: Env) -> Optional[_Signal]:
            frame = env.frame
            frame.scope = scope
            result = executor.execute_select(select, env)
            rows = result.rows
            if stmt.split is not None:
                rows = _periods(executor, env, stmt.split, rows)
            slots = frame.slots
            slots[record] = {name.lower(): i for i, name in enumerate(result.columns)}
            for row in rows:
                slots[record + 1] = list(row)
                signal = block(env)
                if signal is not None and signal is not iterate:
                    return None if signal is leave else signal
            return None

        return run

    def _jump(self, stmt: Any, scope: _Scope) -> Callable:
        """LEAVE / ITERATE: the signal of the enclosing loop so labelled."""
        label = stmt.label.lower()
        for name, leave, iterate in reversed(self.loops):
            if name == label:
                signal = leave if isinstance(stmt, ast.LeaveStatement) else iterate
                return lambda env: signal
        raise self._error(f"no enclosing loop labelled {stmt.label!r}", stmt)

    def _return(self, stmt: ast.ReturnStatement, scope: _Scope) -> Callable:
        if stmt.value is None:
            return lambda env: _RETURN  # Frame.result is Null already
        value_c = self._expression(stmt.value, scope)

        def run(env: Env) -> _Signal:
            env.frame.result = value_c(env)
            return _RETURN

        return run

    def _call(self, stmt: ast.CallStatement, scope: _Scope) -> Callable:
        interpreter = self.interpreter
        layout = FrameLayout(scope)
        arg_cs = [compile_expression(self.executor, a, layout) for a in stmt.args]

        def run(env: Env) -> None:
            frame = env.frame
            frame.scope = scope  # subqueries among the arguments, OUT targets
            frame.result_sets.extend(interpreter.call_procedure(stmt, env, arg_cs))

        return run

    def _query(self, stmt: ast.Select, scope: _Scope) -> Callable:
        executor = self.executor

        def run(env: Env) -> None:
            frame = env.frame
            frame.scope = scope
            frame.result_sets.append(executor.execute_select(stmt, env))

        return run

    def _engine_statement(self, stmt: ast.Statement, scope: _Scope) -> Callable:
        executor = self.executor

        def run(env: Env) -> None:
            env.frame.scope = scope
            executor.execute(stmt, env)

        return run

    def _signal(self, stmt: ast.SignalStatement, scope: _Scope) -> Callable:
        sqlstate, message = stmt.sqlstate, stmt.message

        def run(env: Env) -> None:
            raise SignalError(sqlstate, message)

        return run

    def _refuse_transaction(self, stmt: ast.Statement, scope: _Scope) -> Callable:
        return self._raising(
            RoutineError,
            "transaction control statements are not allowed inside routines",
        )

    # -- cursors ------------------------------------------------------------

    def _cursor(self, name: str, scope: _Scope) -> Callable[[Env], _CursorState]:
        """The closure fetching the state of the cursor ``name`` denotes
        here; a cursor not (yet) declared fails when the statement runs."""
        slot = scope.cursors.get(name.lower())

        def cursor(env: Env) -> _CursorState:
            state = Null if slot is None else env.frame.slots[slot]
            if state is Null:
                raise CursorError(f"no such cursor: {name}")
            return state

        return cursor

    def _open(self, stmt: ast.OpenCursor, scope: _Scope) -> Callable:
        executor, name = self.executor, stmt.name
        cursor_of = self._cursor(name, scope)

        def run(env: Env) -> None:
            cursor = cursor_of(env)
            if cursor.is_open:
                raise CursorError(f"cursor {name} is already open")
            env.frame.scope = scope
            cursor.rows = executor.execute_select(cursor.select, env).rows
            cursor.position = 0
            cursor.is_open = True

        return run

    def _fetch(self, stmt: ast.FetchCursor, scope: _Scope) -> Callable:
        name = stmt.name
        cursor_of = self._cursor(name, scope)
        targets = self._targets(stmt.targets, scope, stmt)
        not_found = self.interpreter._not_found

        def run(env: Env) -> Optional[_Signal]:
            cursor = cursor_of(env)
            if not cursor.is_open:
                raise CursorError(f"cursor {name} is not open")
            if cursor.position >= len(cursor.rows):
                return not_found(env)
            row = cursor.rows[cursor.position]
            cursor.position += 1
            if len(row) != len(targets):
                raise CursorError(
                    f"FETCH {name}: {len(targets)} targets but"
                    f" {len(row)} columns"
                )
            slots = env.frame.slots
            for (slot, to_type), value in zip(targets, row):
                slots[slot] = to_type(value)
            return None

        return run

    def _close(self, stmt: ast.CloseCursor, scope: _Scope) -> Callable:
        name = stmt.name
        cursor_of = self._cursor(name, scope)

        def run(env: Env) -> None:
            cursor = cursor_of(env)
            if not cursor.is_open:
                raise CursorError(f"cursor {name} is not open")
            cursor.is_open = False
            cursor.rows = []
            cursor.position = 0

        return run


# statement class -> _Compiler method taking (stmt, scope) and returning
# the statement's closure, with the scope after it for a declaration
_COMPILERS = {
    ast.Compound: _Compiler._compound,
    ast.DeclareVariable: _Compiler._declare_variable,
    ast.DeclareCursor: _Compiler._declare_cursor,
    ast.DeclareHandler: _Compiler._declare_handler,
    ast.SetStatement: _Compiler._set,
    ast.SelectInto: _Compiler._select_into,
    ast.IfStatement: _Compiler._if,
    ast.CaseStatement: _Compiler._case,
    ast.WhileStatement: _Compiler._while,
    ast.RepeatStatement: _Compiler._repeat,
    ast.ForStatement: _Compiler._for,
    ast.LoopStatement: _Compiler._loop,
    ast.LeaveStatement: _Compiler._jump,
    ast.IterateStatement: _Compiler._jump,
    ast.ReturnStatement: _Compiler._return,
    ast.CallStatement: _Compiler._call,
    ast.OpenCursor: _Compiler._open,
    ast.FetchCursor: _Compiler._fetch,
    ast.CloseCursor: _Compiler._close,
    ast.Select: _Compiler._query,
    ast.Insert: _Compiler._engine_statement,
    ast.Update: _Compiler._engine_statement,
    ast.Delete: _Compiler._engine_statement,
    ast.CreateTable: _Compiler._engine_statement,
    ast.DropTable: _Compiler._engine_statement,
    ast.SignalStatement: _Compiler._signal,
    ast.TransactionStatement: _Compiler._refuse_transaction,
}
