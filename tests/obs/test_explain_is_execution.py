"""EXPLAIN is a rendering of the statement execution prepares.

``TemporalStratum.prepare`` is the one place a statement is decided and
transformed; ``execute_ast`` runs its record, ``EXPLAIN`` prints it.
These tests pin the consequences: the ``transformed SQL:`` block *is*
the statement the engine receives (bitemporal currency included — the
hand-written second dispatcher EXPLAIN used to carry never applied it),
the ``strategy:`` / ``seqset: fallback`` / ``routine clones:`` lines
name what the run then does, and a statement execution refuses is
refused by EXPLAIN with the same error.
"""

import pytest

from repro.sqlengine.errors import SqlError
from repro.sqlengine.values import Date
from repro.taubench import ALL_QUERIES, build_dataset
from repro.temporal import SlicingStrategy, TemporalStratum
from repro.temporal import seqset as seqset_module
from repro.temporal import stratum as stratum_module
from repro.temporal.errors import PerStatementInapplicableError

CONTEXT = "[DATE '2010-01-01', DATE '2011-01-01'] "
TABLES = {
    "vt": ("VALIDTIME",),
    "tt": ("TRANSACTIONTIME",),
    "bt": ("VALIDTIME", "TRANSACTIONTIME"),
}
CLONE_PREFIXES = ("max_", "ps_", "curr_", "curtt_")


def make_stratum() -> TemporalStratum:
    """``vt`` (valid time), ``tt`` (transaction time) and ``bt`` (both),
    each with a superseded and a current version of one employee."""
    stratum = TemporalStratum()
    db = stratum.db
    db.now = Date.from_ymd(2010, 1, 1)
    for name, dimensions in TABLES.items():
        db.execute(f"CREATE TABLE {name} (emp CHAR(4), sal INTEGER)")
        for dimension in dimensions:
            stratum.execute(f"ALTER TABLE {name} ADD {dimension}")
        periods = ", DATE '2010-01-01', DATE '2010-06-01'" * len(dimensions)
        db.execute(f"INSERT INTO {name} VALUES ('a', 5{periods})")
        periods = ", DATE '2010-06-01', DATE '9999-12-31'" * len(dimensions)
        db.execute(f"INSERT INTO {name} VALUES ('a', 7{periods})")
    db.now = Date.from_ymd(2010, 9, 1)
    return stratum


def transformed_block(text: str) -> str:
    lines = text.splitlines()
    start = lines.index("transformed SQL:") + 1
    block = []
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        block.append(line[2:])
    return "\n".join(block)


def received(stratum, monkeypatch, sql, strategy):
    """The statements the engine is handed at top level while ``sql``
    executes (for SEQ-SET, which hands it a plan, the plan's select),
    and the result."""
    db = stratum.db
    seen, depth = [], [0]
    engine_execute = db.execute_ast

    def spy(stmt, *args, **kwargs):
        if depth[0] == 0:
            seen.append(stmt.to_sql())
        depth[0] += 1
        try:
            return engine_execute(stmt, *args, **kwargs)
        finally:
            depth[0] -= 1

    run_plan = seqset_module.execute_seqset

    def plan_spy(db_, plan, *args):
        seen.append(plan.select.to_sql())
        return run_plan(db_, plan, *args)

    monkeypatch.setattr(db, "execute_ast", spy)
    for module in (seqset_module, stratum_module):  # wherever it is looked up
        monkeypatch.setattr(module, "execute_seqset", plan_spy, raising=False)
    try:
        return seen, stratum.execute(sql, strategy)
    finally:
        monkeypatch.undo()


STATEMENTS = [
    ("SELECT emp, sal FROM {t} WHERE sal > 1", SlicingStrategy.AUTO),
    ("NONSEQUENCED VALIDTIME SELECT emp, sal FROM {t}", SlicingStrategy.AUTO),
    ("NONSEQUENCED TRANSACTIONTIME SELECT emp, sal FROM {t}", SlicingStrategy.AUTO),
    ("TRANSACTIONTIME " + CONTEXT + "SELECT emp, sal FROM {t} WHERE sal > 1",
     SlicingStrategy.MAX),
] + [
    ("VALIDTIME " + CONTEXT + "SELECT emp, sal FROM {t} WHERE sal > 1", strategy)
    for strategy in SlicingStrategy
]


@pytest.mark.parametrize("table", TABLES)
@pytest.mark.parametrize(
    "template,strategy", STATEMENTS,
    ids=[f"{sql.split(' [')[0].split(' SELECT')[0]}-{strategy.value}"
         for sql, strategy in STATEMENTS],
)
def test_transformed_sql_is_the_statement_the_engine_receives(
    monkeypatch, table, template, strategy
):
    stratum = make_stratum()
    sql = template.format(t=table)
    cold = stratum.execute("EXPLAIN " + sql, strategy).text()
    seen, result = received(stratum, monkeypatch, sql, strategy)
    assert len(result.rows) > 0
    assert seen[-1] == transformed_block(cold)
    # a SEQ-SET attempt that fell back shows up as MAX's statement only
    assert len(seen) == 1
    # and again with everything cached and installed
    assert transformed_block(stratum.execute("EXPLAIN " + sql, strategy).text()) == (
        seen[-1]
    )


def test_bitemporal_currency_is_shown():
    """The drift that motivated the single path, spelled out."""
    stratum = make_stratum()
    text = stratum.execute(
        "EXPLAIN VALIDTIME " + CONTEXT + "SELECT emp, sal FROM bt WHERE sal > 1",
        SlicingStrategy.MAX,
    ).text()
    assert text.splitlines()[-3].endswith(
        "AND bt.tt_start <= DATE '2010-09-01' AND DATE '2010-09-01' < bt.tt_stop"
    )


class TestTaubench:
    """All 16 τPSM queries on DS1-SMALL: what EXPLAIN announces is what
    the run does."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return build_dataset("DS1", "SMALL")

    @staticmethod
    def clones(catalog) -> set:
        return {
            routine.name for routine in catalog.routines()
            if routine.name.startswith(CLONE_PREFIXES)
        }

    @pytest.mark.parametrize(
        "strategy",
        [SlicingStrategy.MAX, SlicingStrategy.PERST, SlicingStrategy.AUTO,
         SlicingStrategy.SEQSET],  # every τPSM query invokes a routine: fallback
        ids=lambda s: s.value,
    )
    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
    def test_strategy_and_clones(self, dataset, query, strategy):
        stratum = dataset.stratum
        catalog = stratum.db.catalog
        query.install(dataset)
        for name in self.clones(catalog):
            catalog.drop_routine(name)
        sql = query.sequenced_sql(dataset, *dataset.context_bounds(30))
        if strategy is SlicingStrategy.PERST and not query.perst_applicable:
            # outside PERST's fragment: EXPLAIN refuses as the run does
            refusals = []
            for text in ("EXPLAIN " + sql, sql):
                with pytest.raises(PerStatementInapplicableError) as refused:
                    stratum.execute(text, strategy)
                refusals.append(str(refused.value))
            assert refusals[0] == refusals[1]
            assert self.clones(catalog) == set()
            return
        lines = stratum.execute("EXPLAIN " + sql, strategy).lines
        assert self.clones(catalog) == set()  # EXPLAIN installed nothing
        stratum.execute(sql, strategy)

        announced = next(l for l in lines if l.startswith("strategy: "))
        fallback = [l for l in lines if l.startswith("seqset: fallback to max (")]
        if fallback:
            assert stratum.last_strategy is SlicingStrategy.MAX
            assert fallback[0] == f"seqset: fallback to max ({stratum.last_fallback})"
        else:
            assert announced.split()[1] == stratum.last_strategy.value
            assert stratum.last_fallback is None
        listed = [l for l in lines if l.startswith("routine clones: ")]
        named = set(listed[0][len("routine clones: "):].split(", ")) if listed else set()
        assert named == self.clones(catalog)


class TestRefusals:
    """What execution refuses, EXPLAIN refuses — same class, same
    message, same SQLSTATE; each of these used to render a plan."""

    REFUSED = [
        # a routine with an inner modifier, from a sequenced / current context
        "VALIDTIME SELECT emp, hist_count() FROM vt",
        "SELECT emp, hist_count() FROM vt",
        # sequenced modification of a table without valid time
        "VALIDTIME " + CONTEXT + "UPDATE tt SET sal = 1",
        "VALIDTIME " + CONTEXT + "DELETE FROM plain",
        # transaction time is system-maintained
        "TRANSACTIONTIME " + CONTEXT + "UPDATE tt SET sal = 1",
        "TRANSACTIONTIME " + CONTEXT + "DELETE FROM tt",
        "TRANSACTIONTIME " + CONTEXT + "INSERT INTO tt (emp, sal) VALUES ('b', 1)",
        # a current modification of a bitemporal table
        "UPDATE bt SET sal = 1",
        # a sequenced modification that reads data temporal along its
        # own dimension
        "VALIDTIME " + CONTEXT + "UPDATE vt SET sal = (SELECT MAX(sal) FROM vt)",
    ]

    @pytest.fixture
    def stratum(self):
        stratum = make_stratum()
        stratum.db.execute("CREATE TABLE plain (emp CHAR(4), sal INTEGER)")
        stratum.register_routine(
            "CREATE FUNCTION hist_count () RETURNS INTEGER READS SQL DATA"
            " LANGUAGE SQL BEGIN"
            " NONSEQUENCED VALIDTIME SELECT emp FROM vt;"
            " RETURN 1; END"
        )
        return stratum

    @staticmethod
    def refusal(run) -> tuple:
        with pytest.raises(SqlError) as caught:
            run()
        error = caught.value
        return type(error), str(error), getattr(error, "sqlstate", None)

    @pytest.mark.parametrize("sql", REFUSED)
    def test_same_error_as_execution(self, stratum, sql):
        version = stratum.db.catalog.schema_version
        executed = self.refusal(lambda: stratum.execute(sql))
        for prefix in ("EXPLAIN ", "EXPLAIN ANALYZE "):
            assert self.refusal(lambda: stratum.execute(prefix + sql)) == executed
        assert stratum.db.catalog.schema_version == version

    def test_perst_outside_its_fragment(self):
        dataset = build_dataset("DS1", "SMALL")
        query = next(q for q in ALL_QUERIES if not q.perst_applicable)
        query.install(dataset)
        sql = query.sequenced_sql(dataset, *dataset.context_bounds(30))
        run = dataset.stratum.execute
        executed = self.refusal(lambda: run(sql, SlicingStrategy.PERST))
        assert executed[0].__name__ == "PerStatementInapplicableError"
        assert self.refusal(
            lambda: run("EXPLAIN " + sql, SlicingStrategy.PERST)
        ) == executed
        # the verdict is cached; asking again raises a fresh, equal error
        assert self.refusal(lambda: run(sql, SlicingStrategy.PERST)) == executed
