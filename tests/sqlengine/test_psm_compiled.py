"""Differential: compiled routine bodies ≡ the walking PSM interpreter.

``src/repro/sqlengine/routines.py`` compiles a routine body once into
closures over a flat frame; ``tests/reference_psm.py`` is the tree
walker it replaced, and together with ``tests/reference_executor.py``
(tree-walking expressions, whose function calls and CALLs go to the
walker) it runs a statement without touching a compiled body.  A
hypothesis generator writes a function and a procedure over nested
compounds with shadowed declarations, IF / CASE (both forms) / WHILE /
REPEAT / LOOP / FOR with LEAVE and ITERATE to inner and outer labels,
cursors (OPEN / FETCH past the end / CLOSE / re-OPEN / FETCH on a closed
cursor), CONTINUE and EXIT handlers for SQLEXCEPTION, a SQLSTATE and NOT
FOUND (whose actions may raise themselves), SIGNAL, a statement that
writes a temporary and a base table and then raises inside itself under
a CONTINUE, an EXIT or no handler, row SET and SELECT INTO over 0 / 1 /
2 rows, row-array
variables with ``INSERT INTO TABLE``, DML on a base table, nested
function and procedure calls with OUT / INOUT, and recursion.  Both
sides must agree on return value, result sets, OUT values, final table
contents, error class + SQLSTATE, ``engine.statements`` and the
per-routine ``engine.routine.calls.<routine>``.

What the generator stays away from is where the two differ **on
purpose**; each has its own fixed-case test:

1. an EXIT handler, or a handler whose action raises, whose extent holds
   a FOR loop — the walker leaks the record's scope, so the handler stays
   declared for one more statement guard (``test_handler_semantics.py``);
2. LEAVE / ITERATE to a label that does not enclose them, and SET /
   FETCH / SELECT INTO targets that are not declared — compile-time
   ``RoutineError`` now (``test_routines.py``);
3. recursion deeper than the walker's statement-counting ``MAX_DEPTH``
   allows (``test_routines.py``);

and one more that lexical scoping implies: a handler's action reads and
writes the variables visible where the handler was **declared**; the
walker looked its names up on the scope stack of the failing statement,
so a block that shadowed one got its own copy assigned
(``test_handler_action_is_scoped_where_it_is_declared`` below).  Handler
actions here touch only ``hc``, which nothing shadows.

Mutants tried by hand against this file (each made the differential
fail under ``--hypothesis-seed=0`` and was reverted): dropping ``txn.rollback_to`` before
handler dispatch in ``_Compiler.block``; ``_Scope.declaring`` keeping
the outer slot of a shadowed name; FETCH storing the raw value without
its coercion; ``_handle`` returning the EXIT signal before a handler
action's own RETURN; ITERATE mapped to the loop's LEAVE signal; the
compound not dropping its handlers at END; ``_not_found`` skipped on an
empty SELECT INTO.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sqlengine import Database
from repro.sqlengine.errors import SqlError
from repro.sqlengine.parser import parse_statement
from tests.counters import routine_calls
from tests.reference_executor import ReferenceExecutor

SCHEMA = [
    "CREATE TABLE t (a INTEGER, b INTEGER)",
    "CREATE TABLE log (k INTEGER)",
    "CREATE TABLE one (x INTEGER)",
    "INSERT INTO one VALUES (1)",
    "INSERT INTO t VALUES (1, 10)",
    "INSERT INTO t VALUES (2, 20)",
    "INSERT INTO t VALUES (2, 21)",
    "INSERT INTO t VALUES (3, 30)",
    # raises for one argument value, so calls fail now and then
    """CREATE FUNCTION risky (x INTEGER) RETURNS INTEGER LANGUAGE SQL
       BEGIN
         IF x = 2 THEN SIGNAL SQLSTATE '45000' SET MESSAGE_TEXT = 'two'; END IF;
         RETURN x + 1;
       END""",
    # writes, then fails: what a handler in the caller must find undone
    """CREATE FUNCTION leaky (x INTEGER) RETURNS INTEGER LANGUAGE SQL
       BEGIN
         INSERT INTO log VALUES (100 + x);
         UPDATE t SET b = b + 1 WHERE a = x;
         IF x >= 1 THEN SIGNAL SQLSTATE '45000' SET MESSAGE_TEXT = 'leak'; END IF;
         RETURN x;
       END""",
    # writes a temporary and a base table, then fails: a statement that
    # calls it writes and raises inside itself
    "CREATE TEMPORARY TABLE scratch (k INTEGER)",
    """CREATE FUNCTION spill (x INTEGER) RETURNS INTEGER MODIFIES SQL DATA LANGUAGE SQL
       BEGIN
         INSERT INTO scratch VALUES (x);
         INSERT INTO log VALUES (200 + x);
         SIGNAL SQLSTATE '45000' SET MESSAGE_TEXT = 'spilled';
       END""",
    # runs the generated procedure and shows its OUT / INOUT values
    """CREATE PROCEDURE wrapper (d INTEGER) LANGUAGE SQL
       BEGIN
         DECLARE o INTEGER;
         DECLARE io INTEGER DEFAULT 5;
         CALL proc(d, 1, o, io);
         SELECT o, io FROM one;
       END""",
]

INT_VARS = ("v0", "v1", "b")  # `b` is also a column of t


class Ctx:
    """What the generator knows about the place it writes a statement."""

    def __init__(self, function: bool) -> None:
        self.function = function
        self.depth = 0
        self.labels: tuple = ()    # enclosing loop labels
        self.cursors: tuple = ()   # cursors in lexical scope
        self.arrays: tuple = ()    # row-array variables in scope
        self.records: tuple = ()   # FOR records in scope
        self.exit_extent = False   # inside a compound with an EXIT handler
        self.names = [0]           # shared counter for unique names

    def child(self, **changes) -> "Ctx":
        other = Ctx(self.function)
        other.__dict__.update(self.__dict__)
        other.depth = self.depth + 1
        other.__dict__.update(changes)
        return other

    def fresh(self, prefix: str) -> str:
        self.names[0] += 1
        return f"{prefix}{self.names[0]}"


LITERALS = st.sampled_from(["0", "1", "2", "3", "NULL"])
VARS = st.sampled_from(INT_VARS)


@st.composite
def expression(draw, ctx: Ctx, calls: bool = True) -> str:
    """``calls=False`` inside DML: its expressions are the engine plan's
    on both sides, and a call from there would reach a compiled body."""
    kind = draw(st.integers(0, 14))
    var = draw(VARS)
    if kind in (9, 14) and not calls:
        return var
    if kind == 14:
        return f"leaky({var})"
    if kind <= 1:
        return draw(LITERALS)
    if kind <= 3:
        return var
    if kind == 4:
        return f"{var} + {draw(LITERALS)}"
    if kind == 5:
        return f"{var} - {draw(VARS)}"
    if kind == 6:
        return f"{var} / {draw(VARS)}"  # division by zero now and then
    if kind == 7:
        return f"(SELECT COUNT(*) FROM t WHERE a > {var})"
    if kind == 8:
        return f"(SELECT b FROM t WHERE a = {draw(LITERALS)})"  # 0, 1 or 2 rows
    if kind == 9:
        return f"risky({var})"
    if kind == 10:
        return f"COALESCE({var}, {draw(LITERALS)})"
    if kind == 11:
        return f"CASE WHEN {var} > 1 THEN {draw(VARS)} ELSE {draw(LITERALS)} END"
    if kind == 12 and ctx.records:
        record = draw(st.sampled_from(ctx.records))
        return draw(st.sampled_from([f"{record}.a", f"{record}.b", "a"]))
    if kind == 13 and ctx.arrays:
        return f"(SELECT COUNT(*) FROM {draw(st.sampled_from(ctx.arrays))})"
    return "s"  # the VARCHAR(3) variable where an INTEGER is wanted


@st.composite
def condition(draw, ctx: Ctx) -> str:
    kind = draw(st.integers(0, 5))
    var = draw(VARS)
    if kind == 0:
        return f"{draw(expression(ctx))} < {draw(expression(ctx))}"
    if kind == 1:
        return f"{var} = {draw(LITERALS)}"
    if kind == 2:
        return f"{var} IS NULL"
    if kind == 3:
        return f"EXISTS (SELECT 1 FROM t WHERE a = {var})"
    if kind == 4:
        return f"{var} IN (1, 2)"
    return "s = '1'"


@st.composite
def block(draw, ctx: Ctx, at_least: int = 1, also: tuple = ()) -> str:
    """``also`` are statements the block must hold, somewhere."""
    count = draw(st.integers(at_least, 3 if ctx.depth < 3 else 2))
    statements = [draw(statement(ctx)) for _ in range(count)]
    for extra in also:
        statements.insert(draw(st.integers(0, len(statements))), extra)
    return " ".join(text + ";" for text in statements)


@st.composite
def jump(draw, ctx: Ctx) -> str:
    """LEAVE or ITERATE, to this loop or one around it, now and then."""
    text = (f"{draw(st.sampled_from(['LEAVE', 'ITERATE']))}"
            f" {draw(st.sampled_from(ctx.labels))}")
    if draw(st.booleans()):
        return text
    return f"IF {draw(condition(ctx))} THEN {text}; END IF"


@st.composite
def loop(draw, ctx: Ctx) -> str:
    """A labelled loop that ends: its counter is declared beside it,
    stepped first thing in the body, and assigned nowhere else."""
    label, counter = ctx.fresh("l"), ctx.fresh("c")
    inner = ctx.child(labels=ctx.labels + (label,))
    kind = draw(st.integers(0, 3 if not ctx.exit_extent else 2))
    step = f"SET {counter} = {counter} + 1;"
    head = f"BEGIN DECLARE {counter} INTEGER DEFAULT 0; "
    also = (draw(jump(inner)),) if draw(st.booleans()) else ()
    if kind == 0:
        body = draw(block(inner, also=also))
        return (f"{head}{label}: WHILE {counter} < 3 DO {step} {body}"
                f" END WHILE {label}; END")
    if kind == 1:
        body = draw(block(inner, also=also))
        return (f"{head}{label}: REPEAT {step} {body} UNTIL {counter} >= 2"
                f" END REPEAT {label}; END")
    if kind == 2:
        body = draw(block(inner, also=also))
        return (f"{head}{label}: LOOP {step} IF {counter} > 2 THEN LEAVE {label};"
                f" END IF; {body} END LOOP {label}; END")
    record = ctx.fresh("r")
    body = draw(block(inner.child(records=ctx.records + (record,)), also=also))
    where = draw(st.sampled_from(["", f" WHERE a >= {draw(VARS)}", " WHERE a = 2"]))
    return (f"{label}: FOR {record} AS SELECT a, b FROM t{where} ORDER BY a, b"
            f" DO {body} END FOR {label}")


RAISING_ACTIONS = [  # the second one after writing
    "SIGNAL SQLSTATE '45001'",
    "BEGIN INSERT INTO log VALUES (hc); SET hc = spill(hc); END",
]


@st.composite
def handler(draw, ctx: Ctx, exits: bool, raising: bool = False) -> str:
    """``raising``: the action may raise itself — which leaves the
    declaring compound like an EXIT, so its extent holds no FOR loop."""
    condition_ = draw(st.sampled_from(
        ["SQLEXCEPTION", "SQLSTATE '45000'", "NOT FOUND"]
    ))
    kind = "EXIT" if exits and condition_ != "NOT FOUND" else "CONTINUE"
    actions = ["SET hc = hc + 1", f"INSERT INTO log VALUES ({draw(LITERALS)})",
               "BEGIN SET hc = hc + 10; INSERT INTO log VALUES (hc); END"]
    if raising:
        actions += RAISING_ACTIONS
    if ctx.function:
        actions.append("RETURN -1")
    if ctx.labels:
        actions.append(f"LEAVE {draw(st.sampled_from(ctx.labels))}")
    return f"DECLARE {kind} HANDLER FOR {condition_} {draw(st.sampled_from(actions))};"


@st.composite
def compound(draw, ctx: Ctx) -> str:
    declarations = []
    inner = ctx.child()
    for var in INT_VARS:  # shadow some of the outer variables
        if draw(st.integers(0, 3)) == 0:
            default = draw(st.sampled_from(["", " DEFAULT 1", f" DEFAULT {var} + 1"]))
            declarations.append(f"DECLARE {var} INTEGER{default};")
    if draw(st.integers(0, 2)) == 0:
        cursor = ctx.fresh("cur")
        query = draw(st.sampled_from([
            "SELECT a FROM t ORDER BY a, b",
            f"SELECT b FROM t WHERE a >= {draw(VARS)} ORDER BY b",
            "SELECT a, b FROM t ORDER BY a, b",
        ]))
        declarations.append(f"DECLARE {cursor} CURSOR FOR {query};")
        inner = inner.child(cursors=inner.cursors + (cursor,), depth=inner.depth)
    if draw(st.integers(0, 3)) == 0:
        array = ctx.fresh("arr")
        declarations.insert(0, f"DECLARE {array} ROW(x INTEGER, y INTEGER) ARRAY;")
        inner = inner.child(arrays=inner.arrays + (array,), depth=inner.depth)
    exits = draw(st.integers(0, 2)) == 0
    handlers = [
        draw(handler(ctx, exits, raising=True)) for _ in range(draw(st.integers(0, 2)))
    ]
    if any(" EXIT " in text or text.endswith(tuple(action + ";" for action in RAISING_ACTIONS))
           for text in handlers):
        inner = inner.child(exit_extent=True, depth=inner.depth)
    # a block with handlers gets something for them to catch
    also = ("SIGNAL SQLSTATE '45000'",) if handlers and draw(st.booleans()) else ()
    declarations.extend(handlers)
    return f"BEGIN {' '.join(declarations)} {draw(block(inner, also=also))} END"


@st.composite
def statement(draw, ctx: Ctx) -> str:
    deep = ctx.depth >= 4
    kind = draw(st.integers(0, 22 if not deep else 13))
    var = draw(VARS)
    if kind <= 2:
        return f"SET {var} = {draw(expression(ctx))}"
    if kind == 3:
        return f"SET s = {draw(st.sampled_from(['1', chr(39) + 'ab' + chr(39), chr(39) + 'toolong' + chr(39), var]))}"
    if kind == 4:
        return f"SIGNAL SQLSTATE '{draw(st.sampled_from(['45000', '45001']))}'"
    if kind == 5:
        key = draw(st.sampled_from(["0", "1", "2", var]))  # 0, 1 or 2 rows
        if draw(st.booleans()):
            return f"SELECT a, b INTO v0, v1 FROM t WHERE a = {key}"
        return f"SET (v1, b) = (SELECT a, b FROM t WHERE a = {key})"
    if kind == 6:
        return draw(st.sampled_from([
            f"INSERT INTO t VALUES ({draw(LITERALS)}, {var})",
            f"UPDATE t SET b = b + 1 WHERE a = {var}",
            f"DELETE FROM t WHERE a = {draw(LITERALS)} AND b > v0",
            f"INSERT INTO log VALUES ({draw(expression(ctx, calls=False))})",
        ]))
    if kind in (7, 12) and ctx.cursors:
        # a run of cursor statements, in any order: most runs open
        # before they fetch, some fetch past the end or on a closed one
        cursor = draw(st.sampled_from(ctx.cursors))
        target = draw(st.sampled_from(["v0", "s", "s", "v0, v1"]))
        fetch = f"FETCH {cursor} INTO {target}"
        return "; ".join(draw(st.lists(
            st.sampled_from([f"OPEN {cursor}", fetch, fetch, fetch, f"CLOSE {cursor}"]),
            min_size=1, max_size=6,
        )))
    if kind == 8 and ctx.arrays:
        array = draw(st.sampled_from(ctx.arrays))
        return f"INSERT INTO TABLE {array} (SELECT a, b FROM t WHERE a >= {var})"
    if kind == 9 and ctx.labels:
        jump = draw(st.sampled_from(["LEAVE", "ITERATE"]))
        return f"{jump} {draw(st.sampled_from(ctx.labels))}"
    if kind == 10:
        if ctx.function:
            return f"RETURN {draw(expression(ctx))}"
        return f"SELECT a, b, {var} AS v FROM t WHERE a >= {draw(VARS)} ORDER BY a, b"
    if kind == 11:
        # recursion and the other routine, both behind the depth guard
        call = draw(st.sampled_from([
            f"SET {var} = fn(d - 1, {draw(VARS)})",
            f"CALL proc(d - 1, {draw(expression(ctx))}, v0, v1)",
        ]))
        return f"IF d > 0 THEN {call}; END IF"
    if kind <= 13:
        return f"SET hc = {draw(expression(ctx))}"
    inner = ctx.child()
    if kind <= 15:
        text = f"IF {draw(condition(ctx))} THEN {draw(block(inner))}"
        if draw(st.booleans()):
            text += f" ELSEIF {draw(condition(ctx))} THEN {draw(block(inner))}"
        if draw(st.booleans()):
            text += f" ELSE {draw(block(inner))}"
        return text + " END IF"
    if kind == 16:
        whens = " ".join(
            f"WHEN {draw(LITERALS)} THEN {draw(block(inner))}"
            for _ in range(draw(st.integers(1, 2)))
        )
        otherwise = f" ELSE {draw(block(inner))}" if draw(st.booleans()) else ""
        return f"CASE {draw(expression(ctx))} {whens}{otherwise} END CASE"
    if kind == 17:
        otherwise = f" ELSE {draw(block(inner))}" if draw(st.booleans()) else ""
        return (f"CASE WHEN {draw(condition(ctx))} THEN {draw(block(inner))}"
                f"{otherwise} END CASE")
    if kind <= 19:
        return draw(loop(ctx))
    if kind == 20:
        return draw(write_then_raise(ctx))
    return draw(compound(ctx))


@st.composite
def write_then_raise(draw, ctx: Ctx) -> str:
    """A statement that writes and then raises, inside itself: its
    callee's temporary- and base-table inserts must be undone, under a
    CONTINUE handler, an EXIT handler or none."""
    failing = draw(st.sampled_from([
        f"SET {draw(VARS)} = spill({draw(VARS)})",
        f"SET hc = leaky({draw(VARS)})",
    ]))
    kind = draw(st.sampled_from(["CONTINUE", "EXIT", None]))
    if kind is None:
        return f"BEGIN {failing}; SET hc = hc + 100; END"
    return (f"BEGIN DECLARE {kind} HANDLER FOR SQLSTATE '45000' SET hc = hc + 1;"
            f" {failing}; SET hc = hc + 100; END")


@st.composite
def routine(draw, function: bool) -> str:
    ctx = Ctx(function).child(cursors=("cur0",), depth=0)
    declarations = (
        "DECLARE v0 INTEGER DEFAULT 0; DECLARE v1 INTEGER DEFAULT x;"
        " DECLARE b INTEGER; DECLARE s VARCHAR(3); DECLARE hc INTEGER DEFAULT 0;"
        " DECLARE cur0 CURSOR FOR SELECT a FROM t WHERE a > v0 ORDER BY a, b; "
    ) + " ".join(  # CONTINUE only: FOR loops stay allowed everywhere below
        draw(handler(ctx, exits=False)) for _ in range(draw(st.integers(0, 2)))
    )
    body = draw(block(ctx, at_least=2))
    if function:
        return (
            "CREATE FUNCTION fn (d INTEGER, x INTEGER) RETURNS INTEGER LANGUAGE SQL"
            f" BEGIN {declarations} {body} RETURN v0 + COALESCE(v1, 0) + hc; END"
        )
    return (
        "CREATE PROCEDURE proc (d INTEGER, x INTEGER, OUT o INTEGER, INOUT io INTEGER)"
        f" LANGUAGE SQL BEGIN {declarations} {body}"
        " SET o = v0 + hc; SET io = COALESCE(io, 0) + COALESCE(v1, 0);"
        " SELECT s, b FROM one; END"  # raw values: no coercion on the way out
    )


@st.composite
def routines(draw) -> tuple[str, str]:
    return draw(routine(True)), draw(routine(False))


def build(function: str, procedure: str, reference: bool) -> Database:
    db = Database()
    if reference:
        db._executor = ReferenceExecutor(db)
    for sql in SCHEMA + [function, procedure]:
        db.execute(sql)
    db.stats.reset()
    return db


def observe(db: Database, sql: str):
    try:
        result = db.execute(sql)
    except SqlError as exc:
        outcome = ("error", type(exc).__name__, getattr(exc, "sqlstate", None))
    else:
        results = result if isinstance(result, list) else [result]
        outcome = ("ok", [(r.columns, r.rows) for r in results])
    return (
        outcome,
        db.table("t").rows,
        db.table("log").rows,
        db.table("scratch").rows,
        db.obs.value("engine.statements"),
        routine_calls(db),
        db.stats.call_depth,
        len(db.txn.marks),
    )


STATEMENTS = ["SELECT fn(2, 1) AS r FROM one", "CALL wrapper(2)", "SELECT fn(1, 3) AS r FROM one"]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(pair=routines())
def test_compiled_bodies_equal_the_walker(pair):
    function, procedure = pair
    compiled = build(function, procedure, reference=False)
    walked = build(function, procedure, reference=True)
    for sql in STATEMENTS:
        assert observe(compiled, sql) == observe(walked, sql), (function, procedure, sql)
    # the walker's side never compiled a body, the engine's compiled each once
    assert walked.obs.value("engine.psm.compiles") == 0
    assert compiled.obs.value("engine.psm.compiles") <= 6


# -- fixed cases -----------------------------------------------------------


def test_handler_action_is_scoped_where_it_is_declared():
    """The one difference lexical scoping implies beyond the three bugs:
    the walker resolved a handler action's names where the statement
    failed, so the inner block's ``x`` was assigned and this returned 1."""
    db = Database()
    db.execute(
        """
        CREATE FUNCTION f () RETURNS INTEGER LANGUAGE SQL
        BEGIN
          DECLARE x INTEGER DEFAULT 1;
          DECLARE CONTINUE HANDLER FOR SQLEXCEPTION SET x = x + 100;
          BEGIN
            DECLARE x INTEGER DEFAULT 2;
            SIGNAL SQLSTATE '45000';
          END;
          RETURN x;
        END
        """
    )
    assert db.query("SELECT f()").scalar() == 101


def test_a_body_is_compiled_once_per_routine_object():
    db = Database()
    db.execute("CREATE FUNCTION inc (x INTEGER) RETURNS INTEGER LANGUAGE SQL"
               " BEGIN RETURN x + 1; END")
    routine_ = db.catalog.get_routine("inc")
    assert routine_.compiled is None  # registration compiles nothing
    assert db.query("SELECT inc(1)").scalar() == 2
    body = routine_.compiled
    assert body is not None and db.obs.value("engine.psm.compiles") == 1
    for _ in range(3):
        db.query("SELECT inc(1)")
    assert routine_.compiled is body
    assert db.obs.value("engine.psm.compiles") == 1
    # DROP / CREATE makes a new Routine object, which compiles anew
    db.execute("DROP FUNCTION inc")
    db.execute("CREATE FUNCTION inc (x INTEGER) RETURNS INTEGER LANGUAGE SQL"
               " BEGIN RETURN x + 2; END")
    assert db.query("SELECT inc(1)").scalar() == 3
    assert db.obs.value("engine.psm.compiles") == 2


def test_a_rolled_back_create_leaves_the_old_body_in_charge():
    db = Database()
    db.execute("CREATE FUNCTION one_more (x INTEGER) RETURNS INTEGER LANGUAGE SQL"
               " BEGIN RETURN x + 1; END")
    db.execute("CREATE FUNCTION twice (x INTEGER) RETURNS INTEGER LANGUAGE SQL"
               " BEGIN RETURN one_more(one_more(x)); END")
    assert db.query("SELECT twice(1)").scalar() == 3
    db.execute("BEGIN")
    db.execute("DROP FUNCTION one_more")
    db.execute("CREATE FUNCTION one_more (x INTEGER) RETURNS INTEGER LANGUAGE SQL"
               " BEGIN RETURN x + 10; END")
    assert db.query("SELECT twice(1)").scalar() == 21  # the call site follows
    db.execute("ROLLBACK")
    assert db.query("SELECT twice(1)").scalar() == 3
    # another DDL climbs back to the rolled-back schema version: the
    # call site asks the catalog, not a version it remembers
    db.execute("CREATE TABLE unrelated (x INTEGER)")
    assert db.query("SELECT twice(1)").scalar() == 3


def test_one_interpreter_in_src():
    """The walker lives in ``tests/`` only; ``src/`` holds no second way
    to run a routine body and nothing that selects one."""
    src = Path(__file__).resolve().parents[2] / "src"
    text = "\n".join(path.read_text() for path in sorted(src.rglob("*.py")))
    for gone in ("_STATEMENT_HANDLERS", "_find_slot", "push_scope", "pop_scope",
                 "reference_psm", "_HandlerExit", "class _Leave",
                 "class _Iterate", "class _Return"):
        assert gone not in text, gone
    # (the wire server's request ``_dispatch`` is another thing)
    engine = "\n".join(
        path.read_text() for path in sorted((src / "repro/sqlengine").glob("*.py"))
    )
    assert "def _dispatch" not in engine
    call = (src / "repro/sqlengine/exprcompile.py").read_text()
    closure = call[call.index("def call_closure"):call.index("return call_closure")]
    assert "has_routine(" not in closure and "get_routine(" not in closure


def test_a_handled_error_buffers_the_redo_the_mark_based_guard_buffers(tmp_path):
    """On a durable store, the statement guards undo a failed statement
    without a savepoint of their own: what the transaction buffered for
    the WAL after handled errors — and the WAL the commit writes — must
    be byte for byte what the walker's mark-based guards leave."""
    procedure = """
        CREATE PROCEDURE p (x INTEGER) LANGUAGE SQL
        BEGIN
          DECLARE hc INTEGER DEFAULT 0;
          DECLARE CONTINUE HANDLER FOR SQLSTATE '45000'
            BEGIN SET hc = hc + 1; INSERT INTO log VALUES (hc); END;
          INSERT INTO log VALUES (x);
          SET hc = spill(x);
          UPDATE t SET b = b + 1 WHERE a = x;
          BEGIN
            DECLARE EXIT HANDLER FOR SQLEXCEPTION INSERT INTO log VALUES (99);
            SET hc = leaky(x);
            INSERT INTO log VALUES (98);
          END;
          SET hc = hc + risky(x);
        END"""

    def run(reference: bool) -> tuple:
        db = Database.open(tmp_path / ("walker" if reference else "compiled"))
        if reference:
            db._executor = ReferenceExecutor(db)
        for sql in SCHEMA + [procedure]:
            db.execute(sql)
        db.execute("BEGIN")
        db.execute("CALL p(2)")
        buffered = json.dumps(db.txn.redo)
        db.execute("COMMIT")
        wal = db.durability.wal_path.read_bytes()
        observed = (buffered, db.table("log").rows, db.table("t").rows,
                    db.table("scratch").rows, db.obs.value("engine.statements"))
        db.close()
        return observed, wal

    (compiled, compiled_wal), (walked, walked_wal) = run(False), run(True)
    assert compiled == walked
    assert compiled_wal == walked_wal
    assert json.loads(compiled[0])  # the handled statements left records


def test_routines_run_under_an_open_mark():
    """The guards undo through the undo log an open mark keeps on: an
    invocation from outside every engine entry point opens its own, so a
    handled error still leaves nothing of the failed statement behind."""
    db = Database()
    for sql in SCHEMA:
        db.execute(sql)
    db.execute(
        "CREATE FUNCTION f () RETURNS INTEGER LANGUAGE SQL BEGIN"
        " DECLARE x INTEGER DEFAULT 1;"
        " DECLARE CONTINUE HANDLER FOR SQLSTATE '45000' SET x = 0;"
        " SET x = spill(5); RETURN x; END"
    )
    assert not db.txn.marks and not db.txn.logging
    call = parse_statement("SELECT f() AS r FROM one")
    assert db.executor.execute(call).rows == [[0]]  # outside Database.execute_ast
    assert db.table("log").rows == [] and db.table("scratch").rows == []
    assert not db.txn.marks and not db.txn.log
