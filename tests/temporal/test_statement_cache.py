"""The statement cache: a repeated text costs only its execution.

DS1-SMALL.  ``TemporalStratum.execute`` (and a server session) look the
submitted text up under the caller's strategy: a hit reuses the AST
parsed last time and — while the catalog schema version, both registry
versions, the clock and ``now`` are what its preparation read — the
``PreparedStatement`` as well.  Whatever was decided from the data is
decided again.  The cases compare with a fresh parse
(``execute_ast(parse_statement(sql))``), which the cache must never be
distinguishable from; most of them fail against a memo keyed by the
text alone.
"""

import pytest

from repro.server.session import ServerSession
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.values import Date
from repro.taubench import build_dataset, get_query
from repro.taubench.queries import ALL_QUERIES
from repro.temporal import SlicingStrategy
from repro.temporal.errors import SequencedContextError
from repro.temporal.heuristic import LARGE_DATABASE_ROWS

# the routine_free workload's nine shapes; the suffix is the context
ROUTINE_FREE = {
    "sel_30d": "SELECT i.id, i.price FROM item i WHERE i.price > 50",
    "sel_365d": "SELECT i.id, i.price FROM item i WHERE i.price > 50",
    "range_365d": (
        "SELECT i.id, i.title, i.number_of_pages FROM item i"
        " WHERE i.number_of_pages BETWEEN 200 AND 400 AND i.price < 80"
    ),
    "distinct_365d": "SELECT DISTINCT i.subject FROM item i WHERE i.price > 50",
    "pubsel_365d": (
        "SELECT p.publisher_id, p.name, p.city FROM publisher p"
        " WHERE p.country <> 'Canada'"
    ),
    "join2_30d": (
        "SELECT i.id, ia.author_id FROM item i, item_author ia"
        " WHERE i.id = ia.item_id AND i.price > 50"
    ),
    "join2_365d": (
        "SELECT i.id, ia.author_id FROM item i, item_author ia"
        " WHERE i.id = ia.item_id AND i.price > 50"
    ),
    "agg_365d": (
        "SELECT COUNT(*) AS n, AVG(i.price) AS avg_price FROM item i"
        " WHERE i.price > 50"
    ),
    "grp_365d": "SELECT i.subject, COUNT(*) AS n FROM item i GROUP BY i.subject",
}


def loaded():
    dataset = build_dataset("DS1", "SMALL")
    for query in ALL_QUERIES:
        query.install(dataset)
    return dataset


@pytest.fixture
def dataset():
    return loaded()


def sequenced(dataset, body: str, days: int = 90) -> str:
    begin, end = dataset.context_bounds(days)
    return f"VALIDTIME [DATE '{begin}', DATE '{end}'] " + body


def outcome(run):
    """Raw rows in order (per result set for a CALL), a row count, or
    the error's class and SQLSTATE."""
    try:
        result = run()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("error", type(exc).__name__, getattr(exc, "sqlstate", None))

    def raw(value):
        if isinstance(value, list):
            return [raw(item) for item in value]
        if hasattr(value, "rows"):
            return (list(value.columns), [list(row) for row in value.rows])
        return value

    return ("ok", raw(result))


def fresh(stratum, sql, strategy=SlicingStrategy.AUTO):
    return outcome(lambda: stratum.execute_ast(parse_statement(sql), strategy))


def cached(stratum, sql, strategy=SlicingStrategy.AUTO):
    return outcome(lambda: stratum.execute(sql, strategy))


def decided(stratum, sql, strategy=SlicingStrategy.AUTO):
    """The strategy a cached execution ran, after checking its outcome
    against a fresh parse's."""
    found = cached(stratum, sql, strategy)
    chosen = stratum.last_strategy
    assert found == fresh(stratum, sql, strategy)
    return chosen


def statement_cache(stratum):
    value = stratum.db.obs.value
    return (
        value("stratum.statement_cache.hits"),
        value("stratum.statement_cache.misses"),
    )


@pytest.mark.parametrize(
    "strategy",
    [SlicingStrategy.MAX, SlicingStrategy.PERST, SlicingStrategy.AUTO],
    ids=lambda strategy: strategy.value,
)
def test_every_statement_equals_a_fresh_parse(strategy):
    """All τPSM queries and the routine-free shapes, three interleaved
    passes (each later routine's clone installation moves the schema
    version under the earlier entries): raw rows, order and SQLSTATE as
    on a twin stratum that parses every time, and the cached AST renders
    what the text parses to."""
    measured, twin = loaded(), loaded()
    texts = [
        query.sequenced_sql(measured, *measured.context_bounds(90))
        for query in ALL_QUERIES
    ] + [
        sequenced(measured, body, 30 if name.endswith("_30d") else 365)
        for name, body in ROUTINE_FREE.items()
    ]
    stratum = measured.stratum
    for passes in range(3):
        for sql in texts:
            hits = statement_cache(stratum)[0]
            found = cached(stratum, sql, strategy)
            assert found == fresh(twin.stratum, sql, strategy), sql
            # a text that ran is served from then on; one whose
            # preparation raised (PERST's refusals) is parsed every time
            assert statement_cache(stratum)[0] == hits + (passes and found[0] == "ok")
    for sql in texts:
        assert stratum.parse(sql, strategy).to_sql() == parse_statement(sql).to_sql()
    assert stratum.parse(texts[0], strategy) is stratum.parse(texts[0], strategy)


def test_rollback_revalidates_entries_of_its_window(dataset):
    """An entry stored inside a rolled-back window is served afterwards
    only through revalidation: the rollback moved the schema version
    past it, and nothing the statement reaches changed."""
    stratum = dataset.stratum
    db = stratum.db
    sql = sequenced(dataset, "SELECT COUNT(*), AVG(i.price) FROM item i")
    stratum.execute("BEGIN")
    db.execute("CREATE TABLE scratch (x INTEGER)")
    stratum.execute(sql)
    window = db.catalog.schema_version
    stratum.execute("ROLLBACK")
    db.execute("CREATE TABLE other (x INTEGER)")
    assert db.catalog.schema_version > window + 1
    transforms, (hits, _) = db.obs.value("stratum.transforms"), statement_cache(stratum)
    revalidated = db.obs.value("stratum.transform_cache.revalidated")
    assert cached(stratum, sql) == fresh(stratum, sql)
    assert statement_cache(stratum)[0] == hits + 1
    assert db.obs.value("stratum.transform_cache.revalidated") > revalidated
    assert db.obs.value("stratum.transforms") == transforms


def test_auto_redecides_when_writes_cross_the_row_threshold(dataset):
    """Rules b, c and the default compare the reachable row total with
    fixed thresholds: inserts that push q7b's past
    ``LARGE_DATABASE_ROWS`` turn PERST (default) into MAX (rule b), and
    deleting them turns it back."""
    stratum = dataset.stratum
    db = stratum.db
    sql = get_query("q7b").sequenced_sql(dataset, *dataset.context_bounds(90))
    for _ in range(2):
        assert decided(stratum, sql) is SlicingStrategy.PERST
    template = db.catalog.get_table("item").rows[0]
    far = [Date.from_iso("2030-01-01"), Date.from_iso("2030-02-01")]
    filler = [
        [f"x{n:07d}"] + list(template[1:-2]) + far
        for n in range(LARGE_DATABASE_ROWS)
    ]
    db.insert_rows("item", filler)
    for _ in range(2):
        assert decided(stratum, sql) is SlicingStrategy.MAX
    db.execute("DELETE FROM item WHERE id LIKE 'x%'")
    assert decided(stratum, sql) is SlicingStrategy.PERST


def test_time_travel_and_now_give_the_fresh_parse_result(dataset):
    """The clock is a literal of the transaction-currency pass, and ``now``
    where a current UPDATE closes its versions: moving either between two
    executions of one text must behave as a fresh parse does."""
    measured, twin = dataset, loaded()
    for each in (measured, twin):
        stratum = each.stratum
        stratum.db.execute("CREATE TABLE audit (entity CHAR(4), val INTEGER)")
        stratum.execute("ALTER TABLE audit ADD TRANSACTIONTIME")
        stratum.execute("INSERT INTO audit (entity, val) VALUES ('e1', 1)")
        stratum.db.now = Date.from_ymd(2010, 9, 1)
        stratum.execute("UPDATE audit SET val = 2 WHERE entity = 'e1'")
    read = "SELECT entity, val FROM audit"
    item = measured.stratum.db.catalog.get_table("item").rows[0][0]
    update = f"UPDATE item SET price = price + 1 WHERE id = '{item}'"
    steps = [
        ("clock", None), ("clock", Date.from_ymd(2010, 8, 1)), ("clock", None),
        ("now", Date.from_ymd(2010, 9, 15)), ("now", Date.from_ymd(2010, 10, 1)),
    ]
    for what, value in steps:
        for each in (measured, twin):
            if what == "clock":
                each.stratum.transaction_clock = value
            else:
                each.stratum.db.now = value
        for sql in (read, update):
            assert cached(measured.stratum, sql) == fresh(twin.stratum, sql), (what, sql)
    assert cached(measured.stratum, read)[1][1] == [["e1", 2]]
    versions = [
        sorted(map(repr, each.stratum.db.catalog.get_table("item").rows))
        for each in (measured, twin)
    ]
    assert versions[0] == versions[1]


def test_context_without_bounds_follows_the_data_span(dataset):
    """``VALIDTIME`` without bounds ranges over the data span, read anew:
    a version that begins before every other widens it."""
    stratum = dataset.stratum
    sql = "VALIDTIME SELECT p.publisher_id FROM publisher p WHERE p.city = 'Nowhere'"
    assert cached(stratum, sql) == fresh(stratum, sql) == ("ok", (
        ["publisher_id", "begin_time", "end_time"], []
    ))
    early = Date.from_iso("2001-01-01")
    stratum.db.insert_rows("publisher", [
        ["pz", "Old Press", "1 Old St", "Nowhere", "Canada", early, Date.from_iso("2002-01-01")]
    ])
    found = cached(stratum, sql)
    assert found == fresh(stratum, sql)
    assert found[1][1] == [["pz", early, Date.from_iso("2002-01-01")]]


NONSEQ_ONLY = (
    "CREATE PROCEDURE dear_items () LANGUAGE SQL BEGIN"
    " VALIDTIME [DATE '2010-01-01', DATE '2010-03-01']"
    " SELECT i.id, i.price FROM item i WHERE i.price > 100; END"
)


def test_refused_statement_raises_until_the_routine_is_replaced(dataset):
    """Preparing refuses a sequenced call of a nonsequenced-only routine
    (SequencedContextError); nothing is cached, so every execution is
    refused, until the routine is replaced by one the statement may call."""
    stratum = dataset.stratum
    stratum.register_routine(NONSEQ_ONLY)
    sql = sequenced(dataset, "CALL dear_items()")
    hits = statement_cache(stratum)[0]
    for _ in range(3):
        with pytest.raises(SequencedContextError):
            stratum.execute(sql, SlicingStrategy.MAX)
    assert statement_cache(stratum)[0] == hits
    stratum.db.catalog.drop_routine("dear_items")
    stratum.register_routine(
        NONSEQ_ONLY.replace(" VALIDTIME [DATE '2010-01-01', DATE '2010-03-01']", "")
    )
    for _ in range(2):
        found = cached(stratum, sql, SlicingStrategy.MAX)
        assert found[0] == "ok" and found == fresh(stratum, sql, SlicingStrategy.MAX)


def test_sessions_with_different_strategies_share_no_entry(dataset):
    stratum = dataset.stratum
    sql = get_query("q2").sequenced_sql(dataset, *dataset.context_bounds(90))
    sessions = {}
    for strategy in (SlicingStrategy.MAX, SlicingStrategy.PERST):
        session = sessions[strategy] = ServerSession.open(stratum, strategy.value)
        session.configure(strategy=strategy.value)
    results, before = {}, statement_cache(stratum)
    for _ in range(2):
        for strategy, session in sessions.items():
            result, _ = session.run_statement(sql)
            assert stratum.last_strategy is strategy
            results[strategy] = result.coalesced()
    assert results[SlicingStrategy.MAX] == results[SlicingStrategy.PERST]
    assert statement_cache(stratum) == (before[0] + 2, before[1] + 2)
    for session in sessions.values():
        session.close()
