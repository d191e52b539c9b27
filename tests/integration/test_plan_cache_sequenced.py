"""Acceptance: sequenced MAX over a multi-period context compiles each
distinct statement once and reuses the plan on every further period.

The MAX driver invokes the transformed procedure once per constant
period; the procedure body's statements are the same AST objects on
every invocation, so the engine's plan cache must hit on every period
after the first: ``plan_cache_hits >= periods - 1``.
"""

import pytest

from repro.taubench import build_dataset
from repro.taubench.queries import ALL_QUERIES
from repro.temporal import SlicingStrategy, TemporalStratum
from repro.temporal.stratum import MAX_CP_TABLE

REPORT_PRICES = """
CREATE PROCEDURE report_prices ()
LANGUAGE SQL
BEGIN
  SELECT id, price FROM item WHERE price > 10.0;
END
"""


def make_stratum() -> TemporalStratum:
    stratum = TemporalStratum()
    stratum.create_temporal_table(
        "CREATE TABLE item (id CHAR(10), title CHAR(100), price FLOAT,"
        " begin_time DATE, end_time DATE)"
    )
    db = stratum.db
    # several change points inside the context → several constant periods
    for values in [
        "('i1', 'Book One', 25.0, DATE '2010-01-15', DATE '2010-05-01')",
        "('i1', 'Book One', 30.0, DATE '2010-05-01', DATE '9999-12-31')",
        "('i2', 'Book Two', 80.0, DATE '2010-03-01', DATE '2010-09-01')",
        "('i3', 'Book Three', 15.0, DATE '2010-02-01', DATE '2010-07-01')",
    ]:
        db.execute(f"INSERT INTO item VALUES {values}")
    stratum.register_routine(REPORT_PRICES)
    return stratum


def test_max_call_hits_plan_cache_once_per_period():
    stratum = make_stratum()
    db = stratum.db
    before = db.stats.snapshot()
    results = stratum.execute(
        "VALIDTIME [DATE '2010-01-01', DATE '2010-12-01'] CALL report_prices()",
        strategy=SlicingStrategy.MAX,
    )
    after = db.stats.snapshot()
    periods = len(db.catalog.get_table(MAX_CP_TABLE).rows)
    assert periods >= 4  # genuinely multi-period
    hits = after["plan_cache_hits"] - before["plan_cache_hits"]
    assert hits >= periods - 1
    # the result itself is right: one result set, price history stamped
    assert len(results) == 1
    coalesced = results[0].coalesced()
    assert (("i2", 80.0),) in {(values,) for values, _ in coalesced}

    # a second execution reuses the prepared statement (the statement
    # cache: nothing is transformed or even looked up) AND the cached
    # plans: every period is now a hit and nothing recompiles
    mid = db.stats.snapshot()
    served = db.obs.value("stratum.statement_cache.hits")
    stratum.execute(
        "VALIDTIME [DATE '2010-01-01', DATE '2010-12-01'] CALL report_prices()",
        strategy=SlicingStrategy.MAX,
    )
    end = db.stats.snapshot()
    assert end["plans_compiled"] == mid["plans_compiled"]
    assert end["plan_cache_hits"] - mid["plan_cache_hits"] >= periods
    assert end["transforms"] == mid["transforms"]
    assert db.obs.value("stratum.statement_cache.hits") == served + 1


def test_max_select_hits_plan_cache_across_executions():
    stratum = make_stratum()
    db = stratum.db
    query = (
        "VALIDTIME [DATE '2010-01-01', DATE '2010-12-01']"
        " SELECT id, price FROM item WHERE price > 10.0"
    )
    first = stratum.execute(query, strategy=SlicingStrategy.MAX)
    mid = db.stats.snapshot()
    second = stratum.execute(query, strategy=SlicingStrategy.MAX)
    end = db.stats.snapshot()
    assert second.coalesced() == first.coalesced()
    assert end["plans_compiled"] == mid["plans_compiled"]
    assert end["plan_cache_hits"] > mid["plan_cache_hits"]


@pytest.mark.parametrize(
    "strategy", [SlicingStrategy.MAX, SlicingStrategy.PERST],
    ids=lambda strategy: strategy.value,
)
def test_second_pass_of_the_templates_builds_nothing(strategy):
    """DS1-SMALL: after one pass of the τPSM templates, a second pass
    transforms nothing and plans only what ``engine.plan_invalidated``
    counts (PERST q17's CTAS re-infers its auxiliary table's column types
    per period).  Each template's clone installation moves the schema
    version, which used to evict every other template's transform and
    plans."""
    dataset = build_dataset("DS1", "SMALL")
    queries = [
        query for query in ALL_QUERIES
        if strategy is SlicingStrategy.MAX or query.perst_applicable
    ]
    for query in queries:
        query.install(dataset)
    texts = [query.sequenced_sql(dataset, *dataset.context_bounds(90)) for query in queries]
    stratum = dataset.stratum
    value = stratum.db.obs.value
    for sql in texts:
        stratum.execute(sql, strategy)
    before = (
        value("stratum.transforms"), value("engine.plans_compiled"),
        value("engine.plan_invalidated"),
    )
    for sql in texts:
        stratum.execute(sql, strategy)
    assert value("stratum.transforms") == before[0]
    assert value("engine.plans_compiled") - before[1] == value("engine.plan_invalidated") - before[2]
