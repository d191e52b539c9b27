"""Stored functions and procedures: one generated function per routine.

A routine body is compiled **once per** :class:`~repro.sqlengine.catalog.Routine`
object, on its first invocation, into the source of one Python function
(``_Generator``; file name ``<routine NAME>``, code shared by clones of
identical text).  What the SQL/PSM text fixes is resolved then: every
DECLAREd scalar, parameter, row-array variable, FOR record and cursor is
an index into the invocation's slot list under lexical scoping, every
LEAVE / ITERATE names its enclosing loop, every PSM-level expression is
inline Python (``exprcompile.psm_expression``; a call probes the
routine-result memo in place), and every embedded SELECT / DML resolves
names through one name → slot ``_Scope`` fixed for its statement.  What
the catalog decides — the plan of an embedded statement, the callee of a
call site — is looked up when the statement runs, through the plan cache
and ``Catalog.find_routine``: a compiled body never goes stale.

Every PSM statement runs inside its own guard, written out in line:
statement count, undo-log depth, watchdog check — and on an error, undo
to that depth and handler dispatch (``_handle``); no savepoint.  RETURN
is ``return``; LEAVE, ITERATE and a handler's signal leave through
``break`` with a ``_Signal`` in ``pending``.  Every body run
increments the per-routine call counter — the machine-independent cost
metric the paper's MAX-vs-PERST comparison turns on.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Any, Callable, Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.catalog import Routine
from repro.sqlengine.errors import (
    CardinalityError,
    CatalogError,
    CursorError,
    RoutineError,
    SignalError,
    SqlError,
)
from repro.sqlengine.executor import Env, Executor, ResultSet
from repro.sqlengine.exprcompile import (
    PSM_NAMES,
    _indented,
    compile_expression,
    psm_expression,
)
from repro.sqlengine.interval_index import _INF
from repro.sqlengine.storage import Column, Table
from repro.sqlengine.types import coerce
from repro.sqlengine.values import Date, Null, compare, sort_key


def _narrow_caller(caller: list, lo: Any, hi: Any, point: int) -> None:
    """Intersect the read window ``caller`` with a callee's ``[lo, hi)``
    around ``point`` (``_reused``; a call site's probe does so in line)."""
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


def _coerced(type_: Any, value: str, const: Callable[[Any], str]) -> str:
    """Source of ``coerce(value, type_)`` that settles NULL and a value of
    the declared class without the call; ``const`` names ``type_``."""
    if type_.is_character:
        exact = f"type({value}) is str"
        if type_.length is not None:
            exact += f" and len({value}) <= {type_.length}"
    elif type_.is_integer:
        exact = f"type({value}) is int"
    elif type_.is_date:
        exact = f"type({value}) is Date"
    else:
        return f"coerce({value}, {const(type_)})"
    return f"{value} if {value} is Null or {exact} else coerce({value}, {const(type_)})"


@functools.lru_cache(maxsize=256)
def _coercion(type_: Any) -> Callable[[Any], Any]:
    """:func:`_coerced` as a function (parameters, a function's result)."""
    namespace = {"Null": Null, "Date": Date, "coerce": coerce, "T": type_}
    return eval("lambda v: " + _coerced(type_, "v", lambda _: "T"), namespace)


def _field(slots: list, records: tuple, key: str, message: str) -> Any:
    """Field ``key`` of the innermost FOR record that has one: the rules
    and errors of ``Env.lookup_keyed`` with no bindings."""
    for slot in records:
        index = slots[slot].get(key)
        if index is not None:
            return slots[slot + 1][index]
    raise CatalogError(message)


class _Signal:
    """RETURN, a loop's LEAVE or ITERATE, a compound's EXIT, as ``pending``
    or a handler action carries it: identity is the target."""

    __slots__ = ("what",)

    def __init__(self, what: str) -> None:
        self.what = what


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

    def __init__(self, kind: str, condition: str, action: Callable, exit_: Any) -> None:
        self.kind = kind
        self.condition = condition
        self.action = action  # the action statement, guarded, as a function
        self.exit = exit_  # leaves the declaring compound (EXIT handlers)
        self.active = False  # True while the handler's action runs


def _handle(env: Env, depth: int, redo: int) -> Any:
    """In a guard's ``except``: revert the failed statement to the undo
    ``depth``, redo length and the invocation's mark count, then dispatch
    the exception to a handler of its frame, a SQLSTATE one before
    SQLEXCEPTION, innermost first (none: it goes on to the enclosing
    guard).  CONTINUE resumes after the statement, EXIT leaves its compound."""
    frame = env.frame
    frame.txn.undo_to(depth, redo, frame.marks)
    exc = sys.exc_info()[1]
    handler = None
    if isinstance(exc, SignalError):
        handler = frame.find_handler(f"SQLSTATE {exc.sqlstate}")
    del exc  # the traceback holds this frame: no cycle through it
    if handler is None:
        handler = frame.find_handler("SQLEXCEPTION")
    if handler is None:
        raise
    handler.active = True
    try:
        signal = handler.action(env)
    finally:
        handler.active = False
    if signal is None and handler.kind == "EXIT":
        return handler.exit
    return signal


def _not_found(env: Env) -> Optional[_Signal]:
    """SQLSTATE 02000 is a completion condition, not an error: a NOT
    FOUND handler's action runs, the statement has succeeded."""
    handler = env.frame.find_handler("NOT FOUND")
    return None if handler is None else handler.action(env)


class Frame:
    """One routine invocation: the slots of its body, the handlers of
    its running compounds, its result.  ``scope`` is the scope of the
    statement now running embedded SQL — the executor's ``Env`` resolves
    variables of plans and subqueries through it."""

    __slots__ = ("routine_name", "plan_runs", "slots", "types", "scope",
                 "handlers", "result_sets", "result", "txn", "marks")

    def __init__(self, body: "_Body", args: list[Any], txn: Any) -> None:
        self.txn, self.marks = txn, len(txn.marks)  # the guards undo inside these
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

    __slots__ = ("executor", "columns", "name", "key", "run", "types", "scope",
                 "params", "is_table", "to_result", "window", "memo_at",
                 "others", "calls", "reuses", "plan_runs")

    def __init__(self, executor: Executor, routine: Routine) -> None:
        self.executor = executor
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
        self.columns = routine.definition.returns.column_names if self.is_table else None
        # a scalar function's result is coerced to its declared type
        returns = None if self.is_table else routine.returns
        self.to_result = None if returns is None else _coercion(returns)
        # the routine-result memo: the point parameter, the arguments a
        # kept result is looked up under, and where a call site probes a
        # scalar function's memo
        self.window = routine.window_param
        self.others = [i for i in range(len(routine.params)) if i != self.window]
        self.memo_at = None if self.is_table or routine.kind != "FUNCTION" else self.window
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
        columns = list(body.columns)
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
        statement left in the routine-result memo ``table_function_cache``
        (DESIGN.md §3.1), of which this is the one writer: kept under all
        the arguments for everywhere, or, with ``window_param``, under the
        others for the read window ``[lo, hi)`` its run left around its
        point.  A nested windowed call narrows its caller's window, run
        or reused; one at another point leaves it ``[p, p + 1)``.  A call
        that raises keeps nothing.  A scalar call site probes in line
        (``exprcompile.call_lines``) and comes here on a miss."""
        db = self.db
        index = body.window
        point = 0
        if index is not None:
            value = args[index]
            if not isinstance(value, Date):
                return run(body, args)  # NULL point: nothing to slide along
            point = value.ordinal
        key = (body.key, *[sort_key(args[i]) for i in body.others])
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
                if param.mode == "OUT":
                    arg_values.append(Null)
                    continue
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
        frame = Frame(body, args, db.txn)
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
            body = _Generator(self.executor, routine).compile()
            routine.compiled = body
            self.db.obs.inc("engine.psm.compiles")
        return body


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------

# what a generated body reads besides its make() arguments
_NAMESPACE = dict(
    PSM_NAMES, compare=compare, SqlError=SqlError, CursorError=CursorError,
    CardinalityError=CardinalityError, RoutineError=RoutineError,
    SignalError=SignalError, _Handler=_Handler, _CursorState=_CursorState,
    _Signal=_Signal, RETURN=_RETURN, _field=_field, _periods=_periods, handle=_handle,
    not_found=_not_found,
    # a row-array variable's table; a FOR record's column map (not in line:
    # a comprehension compiles to a code object of its own)
    _table=lambda name, columns: Table(name, [Column(n, t) for n, t in columns], temporary=True),
    _columns=lambda result: {n.lower(): i for i, n in enumerate(result.columns)},
)
# what every generated function reads first
_PROLOGUE = ["frame = env.frame", "s = frame.slots", "txn = frame.txn", "log = txn.log",
             "pending = None"]
# the expressions that run no SQL and call no routine
_WRITE_FREE = (ast.Literal, ast.Name, ast.BinaryOp, ast.UnaryOp, ast.Parenthesized, ast.Cast,
               ast.IsNullPredicate)
# Python blocks (loops, try) a generated function may nest before a
# statement moves into a function of its own: CPython allows 20
_MAX_BLOCKS = 12


@functools.lru_cache(maxsize=256)
def _maker(source: str, filename: str) -> Callable:
    """The ``make`` function of one body's source, compiled once per text."""
    namespace = dict(_NAMESPACE)
    exec(compile(source, filename, "exec"), namespace)
    return namespace.pop("make")  # held by the cache, not by its globals


class _Generator:
    """Writes one routine body as the source of one Python function: ``s``
    the slot list, ``u<n>`` / ``w<n>`` the undo depth and redo length at
    nesting ``n``, ``t<n>`` temporaries, ``k<n>`` constants, ``S<n>``
    signals; a handler action, or a statement nested deeper than
    ``_MAX_BLOCKS``, is a function of its own that returns its signal."""

    def __init__(self, executor: Executor, routine: Routine) -> None:
        self.executor, self.routine, self.body = executor, routine, _Body(executor, routine)
        self.consts, self.signals, self.functions = [], [], []  # make()'s parts
        self.scopes: dict = {}  # id(scope) -> its constant
        self.temps = 0
        self.loops: list = []  # enclosing PSM loops: (label, leave, iterate, function)
        self.exit: Optional[str] = None  # of the compound being written
        self.scope: Optional[_Scope] = None  # of the expression being written
        # the function being written: its name ("" for ``run``), inside a
        # Python loop of its own?, statement nesting, Python blocks open
        self.fid, self.in_loop, self.level, self.blocks = "", False, 0, 0

    def compile(self) -> _Body:
        body, scope = self.body, self.body.scope
        for param in self.routine.params:
            scope = scope.declaring(param.name, _SCALAR, self._slot(param.type))
        body.scope = scope
        run = self.block([self.routine.definition.body], scope)
        source = ["def make(executor, interp, k, db, find_routine, cache, executed, resilience):"]
        source += _indented([f"[{', '.join(f'k{i}' for i in range(len(self.consts)))}] = k"]
                            + self.signals + self.functions
                            + ["def run(env):"] + _indented(_PROLOGUE + run) + ["return run"])
        make = _maker("\n".join(source), f"<routine {self.routine.name}>")
        db = self.executor.db
        body.run = make(self.executor, RoutineInterpreter(self.executor), tuple(self.consts), db,
                        db.catalog.find_routine, db.table_function_cache, db.stats.executed,
                        db.resilience)
        return body

    def _slot(self, type_: Any = None) -> int:
        self.body.types.append(type_)
        return len(self.body.types) - 1

    def _error(self, message: str, stmt: ast.Statement) -> RoutineError:
        """A compile-time rejection names routine and statement."""
        return RoutineError(f"{message} in {self.routine.name}: {stmt.to_sql()}")

    def const(self, value: Any) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def literal(self, value: Any) -> str:
        if type(value) in (int, str, bool) or (type(value) is float and math.isfinite(value)):
            return repr(value)
        return "Null" if value is Null else self.const(value)

    def name(self, expr: ast.Name) -> str:
        """A variable's slot, or the FOR-record field lookup."""
        key, qualifier = expr.name.lower(), expr.qualifier
        entry = self.scope.names.get(key if qualifier is None else qualifier.lower())
        kind = entry[0] if entry is not None else None
        if qualifier is None:
            if kind not in (None, _RECORD):
                return f"s[{entry[1]}]"
            records, message = self.scope.records, f"unknown column or variable {expr.name!r}"
        else:
            records = (entry[1],) if kind == _RECORD else ()
            message = f"unknown table alias {qualifier!r}"
        return f"_field(s, {records!r}, {key!r}, {message!r})"

    def fallback(self, expr: ast.Expression, lines: list) -> str:
        """A node left to its compiled closure, names resolved through
        the frame's scope — set just before."""
        closure, value = self.const(compile_expression(self.executor, expr, {})), self.temp()
        lines.extend(self._embedded(self.scope, f"{value} = {closure}(env)"))
        return value

    def _embedded(self, scope: _Scope, call: str) -> list:
        """``call``, embedded SQL, run with names resolved in ``scope``."""
        name = self.scopes.get(id(scope))
        if name is None:
            name = self.scopes[id(scope)] = self.const(scope)
        return [f"frame.scope = {name}", call]

    def expression(self, expr: ast.Expression, scope: _Scope, lines: list) -> str:
        self.scope = scope
        return psm_expression(expr, lines, self)

    def signal(self, what: str) -> str:
        name = f"S{len(self.signals)}"
        self.signals.append(f"{name} = _Signal({what!r})")
        return name

    def assign(self, targets: list, values: list) -> list:
        lines = []
        for (slot, type_), value in zip(targets, values):
            lines += [f"v = {value}", f"s[{slot}] = {_coerced(type_, 'v', self.const)}"]
        return lines

    def value(self, expr: Optional[ast.Expression], type_: Any) -> Optional[str]:
        """A literal (or no value: NULL) coerced to ``type_`` now, as source;
        None for anything else, or a literal whose coercion raises."""
        if expr is not None and not isinstance(expr, ast.Literal):
            return None
        try:
            return self.literal(coerce(Null if expr is None else expr.value, type_))
        except SqlError:
            return None

    def _row_into(self, targets: list, error: str, what: str) -> list:
        """``row`` assigned to ``targets``; one of another width fails."""
        return [f"if len(row) != {len(targets)}:", f"    raise {error}("
                f"{f'{what}: {len(targets)} targets but '!r} + str(len(row)) + ' columns')"
                ] + self.assign(targets, [f"row[{i}]" for i in range(len(targets))])

    def function(self, build: Callable[[], tuple]) -> tuple[str, Any]:
        """``build()``'s lines as a nested function: ``(name, the rest)``."""
        name = "f" + self.temp()[1:]
        saved = self.fid, self.in_loop, self.level, self.blocks
        self.fid, self.in_loop, self.level, self.blocks = name, False, 0, 0
        try:
            lines, result = build()
        finally:
            self.fid, self.in_loop, self.level, self.blocks = saved
        self.functions += [f"def {name}(env):"] + _indented(_PROLOGUE + lines)
        return name, result

    # -- control flow: a signal is left in ``pending`` and leaves through
    # ``break``s, each loop it crosses handing it on, or a ``return``

    def escape(self) -> str:
        return "break" if self.in_loop else "return pending" if self.fid else "return"

    def dispatch(self, call: str) -> list:
        """``call``, which returns a signal (truthy) or None, and the escape of one."""
        return [f"if pending := {call}: {self.escape()}"]

    def python_loop(self, head: list, build: Callable[[], list]) -> list:
        """``head`` over the lines ``build()`` writes inside it."""
        saved, self.in_loop = self.in_loop, True
        self.blocks += 1
        try:
            return head + _indented(build())
        finally:
            self.in_loop = saved
            self.blocks -= 1

    # -- the statement guard -------------------------------------------------

    def block(self, statements: list, scope: _Scope) -> list:
        """``statements`` in order, each inside its own guard; a
        declaration extends the scope of the statements that follow it."""
        lines: list = []
        for stmt in statements:
            if self.blocks >= _MAX_BLOCKS:
                name, scope = self.function(lambda: self._guarded(stmt, scope))
                lines += self.dispatch(f"{name}(env)")
            else:
                body, scope = self._guarded(stmt, scope)
                lines += body
        return lines or ["pass"]

    def _guarded(self, stmt: ast.Statement, scope: _Scope) -> tuple[list, _Scope]:
        """No savepoint: the undo-log depth at a statement's start, kept
        on by ``_invoke``'s open mark — read only where the statement's
        statement may log a write (:func:`_logs_nothing`).  A watchdog cancellation
        takes the rollback + handler path of a SIGNAL; an unhandled
        condition climbs one guard at a time, so the whole routine unwinds."""
        level = self.level
        self.level += 1
        self.blocks += 1
        try:
            body, after = self.statement(stmt, scope)
        finally:
            self.level -= 1
            self.blocks -= 1
        if not _logs_nothing(stmt):
            marks, depth = f"; u{level} = len(log); w{level} = len(txn.redo)", f"u{level}, w{level}"
        else:  # the undo to the lengths at the error is the same no-op
            marks, depth = "", "len(log), len(txn.redo)"
        return [
            f"executed.value += 1{marks}",
            "try:", "    if resilience.armed: resilience.check()", *_indented(body),
            "except SqlError:",
            *_indented(self.dispatch(f"handle(env, {depth})")),
        ], after

    def statement(self, stmt: ast.Statement, scope: _Scope) -> tuple[list, _Scope]:
        """``(lines, scope after it)``; a statement refused here fails
        when (and only if) it is reached."""
        write, call = _STATEMENTS.get(type(stmt)), _EMBEDDED.get(type(stmt))
        if getattr(stmt, "modifier", None) is not None:
            error, message = "ExecutionError", (
                "temporal statement modifiers require the temporal stratum")
        elif isinstance(stmt, ast.TransactionStatement):
            error, message = "RoutineError", (
                "transaction control statements are not allowed inside routines")
        elif call is not None:
            return self._embedded(scope, call.format(self.const(stmt))), scope
        elif write is None:
            error = "RoutineError"
            message = f"unsupported statement in routine body: {type(stmt).__name__}"
        else:
            written = write(self, stmt, scope)
            return written if isinstance(written, tuple) else (written, scope)
        return [f"raise {error}({message!r})"], scope

    def _targets(self, names: list[str], scope: _Scope, stmt: ast.Statement) -> list:
        """``(slot, its type)`` per assignment target."""
        targets = []
        for name in names:
            entry = scope.names.get(name.lower())
            if entry is None:
                raise self._error(f"unknown variable {name!r}", stmt)
            if entry[0] != _SCALAR:
                raise self._error(f"cannot SET non-scalar variable {name!r}", stmt)
            targets.append((entry[1], self.body.types[entry[1]]))
        return targets

    # -- compound and declarations -----------------------------------------

    def _compound(self, stmt: ast.Compound, scope: _Scope) -> list:
        """Its block; one with an EXIT handler is a one-pass loop its
        signal breaks, and at END the handlers it declared are dropped."""
        statements = stmt.declarations + stmt.statements
        handlers = [s for s in statements if isinstance(s, ast.DeclareHandler)]
        enclosing, self.exit = self.exit, None
        self.blocks += bool(handlers)
        try:
            if any(handler.kind == "EXIT" for handler in handlers):
                self.exit = self.signal("EXIT")
                lines = self.python_loop(
                    ["while True:"], lambda: self.block(statements, scope) + ["break"]
                ) + [f"if pending is {self.exit}:", "    pending = None",
                     "if pending is not None:", "    " + self.escape()]
            else:
                lines = self.block(statements, scope)
        finally:
            self.exit = enclosing
            self.blocks -= bool(handlers)
        if not handlers:
            return lines
        declared = f"h{self.level}"
        return [f"{declared} = len(frame.handlers)", "try:"] + _indented(lines) + [
            "finally:", f"    del frame.handlers[{declared}:]"
        ]

    def _declare_variable(self, stmt: ast.DeclareVariable, scope: _Scope) -> tuple:
        if stmt.array_type is not None:
            columns = self.const([(f.name, f.type) for f in stmt.array_type.fields])
            lines = []
            for name in stmt.names:
                slot = self._slot()
                lines.append(f"s[{slot}] = _table({name!r}, {columns})")
                scope = scope.declaring(name, _TABLE, slot)
            return lines, scope
        # the DEFAULT sees the scope before these names
        lines: list = []
        value = self.value(stmt.default, stmt.type)
        if value is None:
            value = self.expression(stmt.default, scope, lines)
            lines += [f"v = {value}", f"v = {_coerced(stmt.type, 'v', self.const)}"]
        else:
            lines.append(f"v = {value}")
        slots = []
        for name in stmt.names:
            slots.append(self._slot(stmt.type))
            scope = scope.declaring(name, _SCALAR, slots[-1])
        return lines + [" = ".join(f"s[{slot}]" for slot in slots) + " = v"], scope

    def _declare_cursor(self, stmt: ast.DeclareCursor, scope: _Scope) -> tuple:
        slot, select = self._slot(), self.const(stmt.select)
        return [f"s[{slot}] = _CursorState({select})"], scope.with_cursor(stmt.name, slot)

    def _declare_handler(self, stmt: ast.DeclareHandler, scope: _Scope) -> list:
        action, _ = self.function(lambda: (self.block([stmt.action], scope), None))
        exit_ = self.exit if stmt.kind == "EXIT" else None
        return [f"frame.handlers.append(_Handler({stmt.kind!r}, {stmt.condition!r}, {action},"
                f" {exit_}))"]

    def _set(self, stmt: ast.SetStatement, scope: _Scope) -> list:
        targets = self._targets(stmt.targets, scope, stmt)
        if len(targets) == 1:
            (slot, type_), = targets
            lines: list = []
            if (value := self.value(stmt.value, type_)) is not None:
                return [f"s[{slot}] = {value}"]
            return lines + self.assign(targets, [self.expression(stmt.value, scope, lines)])
        # row form: SET (a, b) = (SELECT x, y ...)
        value_expr = stmt.value
        if isinstance(value_expr, ast.Parenthesized):
            value_expr = value_expr.expr
        if not isinstance(value_expr, ast.ScalarSubquery):
            return ["raise RoutineError('row SET requires a row subquery')"]
        return self._assign_row(value_expr.select, targets, scope, "row SET")

    def _select_into(self, stmt: ast.SelectInto, scope: _Scope) -> list:
        targets = self._targets(stmt.targets, scope, stmt)
        return self._assign_row(stmt.select, targets, scope, "SELECT INTO")

    def _assign_row(self, select: ast.Select, targets: list, scope: _Scope, what: str) -> list:
        rows, many = self.temp(), "row SET: query" if what == "row SET" else what
        return self._embedded(
            scope, f"{rows} = executor.execute_select({self.const(select)}, env).rows"
        ) + [
            f"if len({rows}) > 1:",
            f"    raise CardinalityError({f'{many} returned more than one row'!r})",
            f"if not {rows}:",
            *_indented(self.dispatch("not_found(env)")),
            "else:",
            f"    row = {rows}[0]",
            *_indented(self._row_into(targets, "RoutineError", what)),
        ]

    # -- control flow ---------------------------------------------------

    def _branches(self, pairs: list, otherwise: Optional[list], scope: _Scope, test) -> list:
        """The first arm whose ``test`` of its condition's source holds,
        else ``otherwise``; each condition evaluated only if reached."""
        arms = []
        for condition, body in pairs:
            lines: list = []
            value = test(self.expression(condition, scope, lines))
            arms.append((lines, value, self.block(body, scope)))
        lines = self.block(otherwise, scope) if otherwise is not None else []
        for before, value, body in reversed(arms):
            lines = before + [f"if {value}:"] + _indented(body) + (
                ["else:"] + _indented(lines) if lines else []
            )
        return lines

    def _if(self, stmt: Any, scope: _Scope) -> list:
        """IF, and CASE: a simple CASE compares its operand to each WHEN."""
        pairs = stmt.branches if isinstance(stmt, ast.IfStatement) else stmt.whens
        if getattr(stmt, "operand", None) is None:
            return self._branches(pairs, stmt.else_branch, scope, lambda c: f"{c} is True")
        lines: list = []
        operand = self.temp()
        lines.append(f"{operand} = {self.expression(stmt.operand, scope, lines)}")
        return lines + self._branches(
            pairs, stmt.else_branch, scope, lambda c: f"compare({operand}, {c}) == 0"
        )

    def _loop_body(self, stmt: Any, scope: _Scope, head: list, first: list,
                   until: Optional[ast.Expression] = None) -> list:
        """A PSM loop: ``head`` over ``first`` and a one-pass loop round
        the body, whose signal the loop's own LEAVE ends, its ITERATE
        goes on with (to the UNTIL of a REPEAT), and any other hands on."""
        leave, iterate = self.signal("LEAVE"), self.signal("ITERATE")
        self.loops.append(((stmt.label or "").lower(), leave, iterate, self.fid))
        try:
            body = self.python_loop(
                ["while True:"], lambda: self.block(stmt.body, scope) + ["break"]
            )
        finally:
            self.loops.pop()
        body += [
            "if pending is not None:", f"    if pending is {leave}:", "        pending = None",
            f"    if pending is not {iterate}:", "        break", "    pending = None",
        ] + (self._condition(until, scope, "") if until is not None else ["    continue"])
        return self.python_loop(head, lambda: first + body) + [
            "if pending is not None:", "    " + self.escape()
        ]

    def _condition(self, expr: ast.Expression, scope: _Scope, stop: str) -> list:
        lines: list = []
        value = self.expression(expr, scope, lines)
        return lines + [f"if {value} is {stop}True:", "    break"]

    def _while(self, stmt: ast.WhileStatement, scope: _Scope) -> list:
        return self._loop_body(stmt, scope, ["while True:"],
                               self._condition(stmt.condition, scope, "not "))

    def _repeat(self, stmt: ast.RepeatStatement, scope: _Scope) -> list:
        return self._loop_body(stmt, scope, ["while True:"], [], stmt.until)

    def _loop(self, stmt: ast.LoopStatement, scope: _Scope) -> list:
        count = self.temp()
        return [f"{count} = 0"] + self._loop_body(stmt, scope, ["while True:"], [
            f"{count} += 1", f"if {count} > 10_000_000:",
            "    raise RoutineError('LOOP exceeded iteration guard')",
        ])

    def _for(self, stmt: ast.ForStatement, scope: _Scope) -> list:
        record = self._slot()  # the column map; the row follows it
        self._slot()
        result, rows, row = self.temp(), self.temp(), self.temp()
        lines = self._embedded(
            scope, f"{result} = executor.execute_select({self.const(stmt.select)}, env)"
        ) + [f"{rows} = {result}.rows"]
        if stmt.split is not None:
            lines.append(f"{rows} = _periods(executor, env, {self.const(stmt.split)}, {rows})")
        lines.append(f"s[{record}] = _columns({result})")
        inner = scope.declaring(stmt.loop_var, _RECORD, record)
        return lines + self._loop_body(
            stmt, inner, [f"for {row} in {rows}:"], [f"s[{record + 1}] = list({row})"]
        )

    def _jump(self, stmt: Any, scope: _Scope) -> list:
        """LEAVE / ITERATE: to the enclosing loop so labelled."""
        label = stmt.label.lower()
        for name, leave, iterate, function in reversed(self.loops):
            if name == label:
                signal = leave if isinstance(stmt, ast.LeaveStatement) else iterate
                if function != self.fid:  # a loop round this nested function
                    return [f"return {signal}"]
                return [f"pending = {signal}", "break"]
        raise self._error(f"no enclosing loop labelled {stmt.label!r}", stmt)

    def _return(self, stmt: ast.ReturnStatement, scope: _Scope) -> list:
        lines: list = []
        if stmt.value is not None:  # else Frame.result is Null already
            lines.append(f"frame.result = {self.expression(stmt.value, scope, lines)}")
        return lines + ["return RETURN" if self.fid else "return"]

    def _signal(self, stmt: ast.SignalStatement, scope: _Scope) -> list:
        return [f"raise SignalError({stmt.sqlstate!r}, {stmt.message!r})"]

    # -- cursors ------------------------------------------------------------

    def _cursor(self, name: str, scope: _Scope, check: str, message: str) -> list:
        """``c``, the state of the cursor ``name`` denotes here, failing
        with ``message`` where ``check`` holds; a cursor not (yet)
        declared fails when the statement runs."""
        slot = scope.cursors.get(name.lower())
        missing = repr(f"no such cursor: {name}")
        if slot is None:
            return [f"raise CursorError({missing})"]
        return [f"c = s[{slot}]", "if c is Null:", f"    raise CursorError({missing})",
                f"if {check}:", f"    raise CursorError({f'cursor {name} {message}'!r})"]

    def _open(self, stmt: ast.OpenCursor, scope: _Scope) -> list:
        return self._cursor(stmt.name, scope, "c.is_open", "is already open") + self._embedded(
            scope, "c.rows = executor.execute_select(c.select, env).rows"
        ) + ["c.position = 0", "c.is_open = True"]

    def _fetch(self, stmt: ast.FetchCursor, scope: _Scope) -> list:
        targets = self._targets(stmt.targets, scope, stmt)
        return self._cursor(stmt.name, scope, "not c.is_open", "is not open") + [
            "if c.position >= len(c.rows):",
            *_indented(self.dispatch("not_found(env)")),
            "else:",
            "    row = c.rows[c.position]",
            "    c.position += 1",
            *_indented(self._row_into(targets, "CursorError", f"FETCH {stmt.name}")),
        ]

    def _close(self, stmt: ast.CloseCursor, scope: _Scope) -> list:
        return self._cursor(stmt.name, scope, "not c.is_open", "is not open") + [
            "c.is_open = False", "c.rows = []", "c.position = 0"
        ]


def _logs_nothing(stmt: ast.Statement) -> bool:
    """Whether ``stmt`` can log no write, so its guard takes no undo
    marks: a SET or scalar DECLARE of a literal or variable-only
    expression, CLOSE, LEAVE / ITERATE, a RETURN of such an expression
    (FETCH cannot: its NOT FOUND handler's action may write)."""
    if isinstance(stmt, (ast.CloseCursor, ast.LeaveStatement, ast.IterateStatement)):
        return True
    if isinstance(stmt, ast.SetStatement) and len(stmt.targets) == 1:
        value = stmt.value
    elif isinstance(stmt, ast.DeclareVariable) and stmt.array_type is None:
        value = stmt.default
    elif isinstance(stmt, ast.ReturnStatement):
        value = stmt.value
    else:
        return False
    return value is None or all(isinstance(node, _WRITE_FREE) for node in ast.walk(value))


# statement class -> _Generator method taking (stmt, scope) and returning
# the statement's lines, with the scope after it for a declaration
_STATEMENTS = {
    ast.Compound: _Generator._compound, ast.DeclareVariable: _Generator._declare_variable,
    ast.DeclareCursor: _Generator._declare_cursor,
    ast.DeclareHandler: _Generator._declare_handler,
    ast.SetStatement: _Generator._set, ast.SelectInto: _Generator._select_into,
    ast.IfStatement: _Generator._if, ast.CaseStatement: _Generator._if,
    ast.WhileStatement: _Generator._while, ast.RepeatStatement: _Generator._repeat,
    ast.ForStatement: _Generator._for, ast.LoopStatement: _Generator._loop,
    ast.LeaveStatement: _Generator._jump, ast.IterateStatement: _Generator._jump,
    ast.ReturnStatement: _Generator._return, ast.SignalStatement: _Generator._signal,
    ast.OpenCursor: _Generator._open, ast.FetchCursor: _Generator._fetch,
    ast.CloseCursor: _Generator._close,
}
# statement class -> the call running it, embedded SQL whose names
# resolve in the statement's scope (a CALL's arguments and OUT targets too)
_EMBEDDED = dict.fromkeys(
    (ast.Insert, ast.Update, ast.Delete, ast.CreateTable, ast.DropTable),
    "executor.execute({}, env)",
)
_EMBEDDED[ast.Select] = "frame.result_sets.append(executor.execute_select({}, env))"
_EMBEDDED[ast.CallStatement] = "frame.result_sets.extend(interp.call_procedure({}, env))"
