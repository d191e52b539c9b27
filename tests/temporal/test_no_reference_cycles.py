"""A statement leaves no reference cycle behind.

Garbage that only the cycle collector can free lives until a collection
of its generation runs; a statement's result caught in a cycle (every
output row of an aligned constant-period join, while that join was a
closure that referred to itself) stays alive until a full collection.  Each case
runs one statement with the collector off and then asks it what it
finds: nothing, on a cold run (the statement's transformation and plans
built afresh, a routine body generated and compiled) and on a warm one.
"""

import asyncio
import gc

import pytest

from benchmarks.e2e.workloads import ROUTINE_FREE_SQL
from repro.server import ReproClient, ReproServer
from repro.sqlengine import Database
from repro.sqlengine.values import Null
from repro.taubench import ALL_QUERIES, build_dataset, get_query
from repro.temporal import SlicingStrategy, TemporalStratum

from tests.temporal.test_seqset_join import CONTEXT, SHAPES

BEGIN, END = "2010-02-01", "2010-06-01"
MAX, PERST, AUTO = SlicingStrategy.MAX, SlicingStrategy.PERST, SlicingStrategy.AUTO


def cyclic_garbage(run) -> int:
    """What the cycle collector frees after ``run()`` ran with it off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
    finally:
        found = gc.collect()
        if enabled:
            gc.enable()
    return found


@pytest.fixture(scope="module")
def dataset():
    """DS1-SMALL of this module's own, so a first run is a first execution."""
    return build_dataset("DS1", "SMALL")


def cold_then_warm(stratum, sql, strategy) -> tuple:
    """The garbage of a run with the stratum's and the engine's caches
    emptied, then of a second run served by them."""
    stratum._transform_cache.clear()
    stratum.db.plan_cache.clear()
    return tuple(
        cyclic_garbage(lambda: stratum.execute(sql, strategy=strategy))
        for _ in range(2)
    )


@pytest.mark.parametrize(
    "query, strategy",
    [
        (query, strategy)
        for query in ALL_QUERIES
        for strategy in (MAX, PERST, AUTO)
        if strategy is not PERST or query.perst_applicable
    ],
    ids=lambda value: getattr(value, "name", None),
)
def test_taupsm_statement_leaves_no_cycle(dataset, query, strategy):
    query.install(dataset)
    sql = query.sequenced_sql(dataset, BEGIN, END)
    assert cold_then_warm(dataset.stratum, sql, strategy) == (0, 0)


@pytest.mark.parametrize("name", sorted(ROUTINE_FREE_SQL))
def test_routine_free_template_leaves_no_cycle(dataset, name):
    sql = (
        f"VALIDTIME [DATE '{BEGIN}', DATE '{END}'] "
        + ROUTINE_FREE_SQL[name].format(p=50.0, q=200)
    )
    assert cold_then_warm(dataset.stratum, sql, AUTO) == (0, 0)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_seqset_join_shape_leaves_no_cycle(dataset, shape):
    stratum = dataset.stratum
    sql = CONTEXT + SHAPES[shape][0]
    aligned = stratum.db.obs.value("engine.join.aligned")
    assert cold_then_warm(stratum, sql, MAX) == (0, 0)
    assert stratum.db.obs.value("engine.join.aligned") > aligned


# planned statements of the shapes the generated plan function writes
# apart: a grouped fold, a reordered scan prefix, an UPDATE's match
PLANNED = {
    "grouped": "SELECT c, COUNT(*), SUM(v) FROM a GROUP BY c HAVING COUNT(*) > 0",
    "reordered": "SELECT a.k, b.w FROM a, b WHERE a.k = b.k AND b.c = 'x'",
    "update": "UPDATE a SET v = v + 1 WHERE k = 1 AND c = 'x'",
}


@pytest.mark.parametrize("name", sorted(PLANNED))
def test_planned_statement_leaves_no_cycle(name):
    """Cold: the statement's plan and its generated function are built."""
    db = Database()
    db.execute("CREATE TABLE a (k INTEGER, c CHAR(3), v FLOAT)")
    db.execute("CREATE TABLE b (k INTEGER, c CHAR(3), w FLOAT)")
    rows = [[1, "x", 1.0], [2, "y", 2.0], [1, "y", 3.0], [Null, "x", 4.0]]
    db.insert_rows("a", rows)
    db.insert_rows("b", rows)
    found = tuple(cyclic_garbage(lambda: db.execute(PLANNED[name])) for _ in range(2))
    assert found == (0, 0)
    if name == "reordered":
        assert db.obs.value("engine.join.reordered") == 2


FACT = """CREATE FUNCTION fact (n INTEGER) RETURNS FLOAT LANGUAGE SQL
BEGIN
  IF n <= 1 THEN RETURN 1; END IF;
  RETURN n * fact(n - 1);
END"""
# a CONTINUE handler fires twice, an EXIT handler leaves its compound
HANDLED = """CREATE FUNCTION handled (x INTEGER) RETURNS INTEGER LANGUAGE SQL
BEGIN
  DECLARE hits INTEGER DEFAULT 0;
  DECLARE CONTINUE HANDLER FOR SQLSTATE '45000' SET hits = hits + 1;
  SIGNAL SQLSTATE '45000';
  w: WHILE hits < 2 DO
    SIGNAL SQLSTATE '45000';
  END WHILE w;
  BEGIN
    DECLARE EXIT HANDLER FOR SQLEXCEPTION SET hits = hits + 10;
    SET hits = hits + x / 0;
    SET hits = -1;
  END;
  RETURN hits;
END"""


@pytest.mark.parametrize("definition, sql, expected", [
    (FACT, "SELECT fact(10) AS r", 3628800.0),
    (HANDLED, "SELECT handled(1) AS r", 12),
])
def test_generated_body_leaves_no_cycle(definition, sql, expected):
    """Cold: the statement's first call generates and compiles the body."""
    db = Database()
    db.execute(definition)
    results = []
    found = tuple(
        cyclic_garbage(lambda: results.append(db.query(sql).scalar())) for _ in range(2)
    )
    assert results == [expected, expected]
    assert db.obs.value("engine.psm.compiles") == 1
    assert found == (0, 0)


def test_cursor_loop_leaves_no_cycle(dataset):
    """q17b's cursor loop, its helpers called once per item: a current
    read, whose clones compile on the first run."""
    get_query("q17b").install(dataset)
    stratum = dataset.stratum
    results = []
    found = tuple(
        cyclic_garbage(lambda: results.append(
            stratum.execute("SELECT canadian_small_books() AS n").rows
        ))
        for _ in range(2)
    )
    assert results[0] == results[1]
    assert found == (0, 0)


def test_generated_body_is_named_and_compiled_once():
    """MAX's three q17b clones compile once each, on the first run, into
    code whose file name names the routine; an identical re-install
    keeps them, bodies included."""
    dataset = build_dataset("DS1", "SMALL")
    query = get_query("q17b")
    query.install(dataset)
    stratum, value = dataset.stratum, dataset.stratum.db.obs.value
    sql = query.sequenced_sql(dataset, BEGIN, END)
    before = value("engine.psm.compiles")
    compiles = []
    for _ in range(3):
        stratum.execute(sql, strategy=MAX)
        compiles.append(value("engine.psm.compiles"))
    assert compiles == [before + 3] * 3
    clones = [r for r in stratum.db.catalog.routines() if r.name.startswith("max_")]
    assert len(clones) == 3
    for routine in clones:
        assert routine.compiled.run.__code__.co_filename == f"<routine {routine.name}>"
    query.install(dataset)
    stratum.execute(sql, strategy=MAX)
    assert value("engine.psm.compiles") == before + 3


def test_sequenced_read_over_the_wire_leaves_no_cycle():
    stratum = TemporalStratum()
    stratum.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
    stratum.execute("ALTER TABLE t ADD VALIDTIME")
    stratum.db.execute("INSERT INTO t (id, v, begin_time, end_time) VALUES " + ", ".join(
        f"({i}, {i % 7}, DATE '2010-01-{1 + i % 28:02d}', DATE '2010-03-{1 + i % 28:02d}')"
        for i in range(200)
    ))
    sql = "VALIDTIME [DATE '2010-01-01', DATE '2010-04-01'] SELECT id, v FROM t WHERE v > 2"

    async def scenario():
        server = ReproServer(stratum)
        host, port = await server.start()
        client = await ReproClient.connect(host, port)
        try:
            await client.execute(sql)  # the first run builds the plan
            found = []
            for _ in range(3):
                gc.collect()
                gc.disable()
                try:
                    result = await client.execute(sql)
                finally:
                    found.append(gc.collect())
                    gc.enable()
            return found, result
        finally:
            await client.close()
            await server.shutdown()

    found, result = asyncio.run(scenario())
    assert len(result.rows) > 0
    assert found == [0, 0, 0]
