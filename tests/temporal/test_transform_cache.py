"""The stratum's transform cache: reuse across executions, invalidation
by registry changes, routine redefinition, and the ablation switch.

A repeated ``execute(sql)`` is served by the statement cache and asks
the candidate cache nothing, so the tests that count candidate-cache
traffic submit a fresh parse each time (:func:`fresh`)."""

import pytest

from repro.sqlengine.parser import parse_statement
from repro.sqlengine.values import Date
from repro.temporal import SlicingStrategy, TemporalStratum

from tests.conftest import GET_AUTHOR_NAME, make_bookstore

SEQ_Q = (
    "VALIDTIME [DATE '2010-02-01', DATE '2010-07-01']"
    " SELECT first_name FROM author WHERE author_id = 'a1'"
)


@pytest.fixture
def stratum() -> TemporalStratum:
    return make_bookstore()


def fresh(stratum, sql, strategy=SlicingStrategy.AUTO):
    return stratum.execute_ast(parse_statement(sql), strategy)


def counters(stratum):
    snap = stratum.db.stats.snapshot()
    return snap["transforms"], snap["transform_cache_hits"]


class TestReuse:
    @pytest.mark.parametrize(
        "strategy", [SlicingStrategy.MAX, SlicingStrategy.PERST]
    )
    def test_second_execution_hits(self, stratum, strategy):
        first = fresh(stratum, SEQ_Q, strategy)
        transforms_before, hits_before = counters(stratum)
        second = fresh(stratum, SEQ_Q, strategy)
        transforms_after, hits_after = counters(stratum)
        assert transforms_after == transforms_before  # no re-transform
        assert hits_after == hits_before + 1
        assert second.coalesced() == first.coalesced()

    def test_current_path_hits(self, stratum):
        query = "SELECT first_name FROM author WHERE author_id = 'a1'"
        first = fresh(stratum, query)
        transforms_before, hits_before = counters(stratum)
        second = fresh(stratum, query)
        transforms_after, hits_after = counters(stratum)
        assert transforms_after == transforms_before
        assert hits_after == hits_before + 1
        assert second.rows == first.rows == [["Ben"]]

    def test_hit_reflects_data_changes(self, stratum):
        """The cache reuses the *transformation*, never the result."""
        before = stratum.execute(SEQ_Q, strategy=SlicingStrategy.MAX)
        stratum.db.execute(
            "UPDATE author SET first_name = 'Benny'"
            " WHERE author_id = 'a1' AND first_name = 'Ben'"
        )
        after = stratum.execute(SEQ_Q, strategy=SlicingStrategy.MAX)
        assert {v for (v,), _ in before.coalesced()} == {"Ben", "Benjamin"}
        assert {v for (v,), _ in after.coalesced()} == {"Benny", "Benjamin"}


class TestProbeAccounting:
    """The heuristic's questions go through the same cache: every
    candidate it asks for is a counted transform or a counted hit."""

    @pytest.mark.parametrize("strategy", [SlicingStrategy.AUTO])
    def test_every_probe_is_a_transform_or_a_hit(self, stratum, strategy):
        stratum.register_routine(GET_AUTHOR_NAME)
        query = (
            "VALIDTIME [DATE '2010-02-01', DATE '2010-07-01']"
            " SELECT get_author_name(author_id) FROM author"
        )
        asked = []
        candidate = stratum.candidate

        def counting(flavor, *args):
            asked.append(flavor)
            return candidate(flavor, *args)

        stratum.candidate = counting
        deltas = []
        for _ in range(3):
            asked.clear()
            transforms, hits = counters(stratum)
            stratum.execute(query, strategy=strategy)
            after = counters(stratum)
            deltas.append((after[0] - transforms, after[1] - hits, len(asked)))
        # SEQ-SET (declined: a routine), PERST, then the one that runs
        assert {"seqset", "perst"} <= set(asked) and len(asked) >= 3
        for built, served, probes in deltas:
            assert built + served == probes
        assert deltas[0][0] >= 2  # the verdicts are built once...
        assert [built for built, _, _ in deltas[1:]] == [0, 0]  # ...and kept


class TestInvalidation:
    def test_add_validtime_is_never_stale(self, stratum):
        """A registry change must retransform: after `u` gains valid
        time, the cached current transformation (which read `u` raw)
        would wrongly return its closed-out row."""
        db = stratum.db
        db.execute("CREATE TABLE u (author_id CHAR(10), rating INTEGER)")
        db.execute("INSERT INTO u VALUES ('a1', 5)")
        db.execute("INSERT INTO u VALUES ('a2', 3)")
        query = (
            "SELECT a.first_name, u.rating FROM author AS a, u"
            " WHERE a.author_id = u.author_id"
        )
        first = stratum.execute(query)
        assert sorted(first.rows) == [["Ben", 5], ["Rosa", 3]]
        stratum.execute("ALTER TABLE u ADD VALIDTIME")
        # close out a2's rating before `now` (2010-04-01)
        db.execute(
            "UPDATE u SET end_time = DATE '2010-03-01' WHERE author_id = 'a2'"
        )
        second = stratum.execute(query)
        assert sorted(second.rows) == [["Ben", 5]]

    def test_routine_redefinition_is_never_stale(self, stratum):
        stratum.register_routine(GET_AUTHOR_NAME)
        query = (
            "VALIDTIME [DATE '2010-02-01', DATE '2010-07-01']"
            " SELECT get_author_name(author_id) FROM author"
            " WHERE author_id = 'a1'"
        )
        first = stratum.execute(query, strategy=SlicingStrategy.MAX)
        assert {v for (v,), _ in first.coalesced()} == {"Ben", "Benjamin"}
        stratum.db.catalog.drop_routine("get_author_name")
        stratum.register_routine(
            GET_AUTHOR_NAME.replace(
                "SET fname = (SELECT first_name FROM author"
                " WHERE author_id = aid);",
                "SET fname = 'redefined';",
            )
        )
        second = stratum.execute(query, strategy=SlicingStrategy.MAX)
        assert {v for (v,), _ in second.coalesced()} == {"redefined"}

    def test_transaction_clock_is_part_of_the_key(self, stratum):
        """Time travel embeds the clock as a literal; a cached transform
        from another clock value must not be served."""
        db = stratum.db
        db.execute("CREATE TABLE audit (note CHAR(20))")
        stratum.execute("ALTER TABLE audit ADD TRANSACTIONTIME")
        stratum.execute("INSERT INTO audit VALUES ('first')")
        db.now = Date.from_ymd(2010, 5, 1)
        stratum.execute("UPDATE audit SET note = 'second'")
        query = "SELECT note FROM audit"
        assert stratum.execute(query).rows == [["second"]]
        stratum.transaction_clock = Date.from_ymd(2010, 4, 15)
        assert stratum.execute(query).rows == [["first"]]
        stratum.transaction_clock = None
        assert stratum.execute(query).rows == [["second"]]

class TestMatchPlanReuse:
    """A temporal UPDATE/DELETE's match statement is cached by statement
    text and its engine plan by that statement; ``now``, the context
    bounds and the clock are outer operands the plan reads per
    execution, never literals bound into it."""

    def plans(self, stratum):
        value = stratum.db.obs.value
        return value("engine.plans_compiled"), value("engine.plan_cache.hits")

    def versions(self, stratum, table, key):
        return sorted(
            (row[-2].to_iso(), row[-1].to_iso(), row[2])
            for row in stratum.db.table(table).rows if row[0] == key
        )

    def test_current_update_before_and_after_now_moves(self, stratum):
        sql = "UPDATE item SET price = price + 1 WHERE id = 'i1'"
        assert stratum.execute(sql) == 1
        compiled, hits = self.plans(stratum)
        stratum.db.now = Date.from_ymd(2010, 8, 1)
        assert stratum.execute(sql) == 1
        assert self.plans(stratum) == (compiled, hits + 1)
        assert self.versions(stratum, "item", "i1") == [
            ("2010-01-15", "2010-04-01", 25.0),
            ("2010-04-01", "2010-08-01", 26.0),
            ("2010-08-01", "9999-12-31", 27.0),
        ]
        stratum.db.now = Date.from_ymd(2009, 1, 1)  # before every version
        assert stratum.execute(sql) == 0
        assert self.plans(stratum) == (compiled, hits + 2)
        # like any plan it is bound to the shape of the table it reads
        stratum.db.catalog.note_schema_change("item")
        stratum.db.now = Date.from_ymd(2010, 9, 1)
        assert stratum.execute(sql) == 1
        assert self.plans(stratum) == (compiled + 1, hits + 2)

    def test_sequenced_update_under_two_contexts(self, stratum):
        body = " UPDATE item SET price = 1.0 WHERE id = 'i1'"
        stratum.execute("VALIDTIME [DATE '2010-02-01', DATE '2010-03-01']" + body)
        compiled, hits = self.plans(stratum)
        stratum.execute("VALIDTIME [DATE '2010-05-01', DATE '2010-06-01']" + body)
        assert self.plans(stratum) == (compiled, hits + 1)
        assert self.versions(stratum, "item", "i1") == [
            ("2010-01-15", "2010-02-01", 25.0),
            ("2010-02-01", "2010-03-01", 1.0),
            ("2010-03-01", "2010-05-01", 25.0),
            ("2010-05-01", "2010-06-01", 1.0),
            ("2010-06-01", "9999-12-31", 25.0),
        ]

    def test_transaction_time_update_under_two_clocks(self, stratum):
        db = stratum.db
        db.execute("CREATE TABLE account (id CHAR(4), owner CHAR(4), balance FLOAT)")
        stratum.execute("ALTER TABLE account ADD TRANSACTIONTIME")
        stratum.execute("INSERT INTO account (id, balance) VALUES ('a1', 1.0)")
        sql = "UPDATE account SET balance = balance + 1 WHERE id = 'a1'"
        db.now = Date.from_ymd(2010, 5, 1)
        assert stratum.execute(sql) == 1
        compiled, hits = self.plans(stratum)
        db.now = Date.from_ymd(2010, 6, 1)
        assert stratum.execute(sql) == 1
        assert self.plans(stratum) == (compiled, hits + 1)
        assert self.versions(stratum, "account", "a1") == [
            ("2010-04-01", "2010-05-01", 1.0),
            ("2010-05-01", "2010-06-01", 2.0),
            ("2010-06-01", "9999-12-31", 3.0),
        ]


class TestInterleavedRoutineStatements:
    """Two routine-bearing sequenced statements used to evict each other
    forever: each re-transform installed fresh clone objects, bumped the
    catalog schema version and so invalidated the other's transform and
    every compiled plan (hit ratio 0 on the τPSM suites)."""

    GET_LAST_NAME = GET_AUTHOR_NAME.replace(
        "get_author_name", "get_last_name"
    ).replace("SELECT first_name", "SELECT last_name")
    QUERIES = [
        "VALIDTIME [DATE '2010-02-01', DATE '2010-07-01']"
        f" SELECT {name}(author_id) FROM author WHERE author_id = 'a1'"
        for name in ("get_author_name", "get_last_name")
    ]

    @pytest.mark.parametrize(
        "strategy", [SlicingStrategy.MAX, SlicingStrategy.PERST]
    )
    def test_interleaving_reaches_a_fixed_point(self, stratum, strategy):
        stratum.register_routine(GET_AUTHOR_NAME)
        stratum.register_routine(self.GET_LAST_NAME)
        value = stratum.db.obs.value
        compiled = []
        for _ in range(3):
            for query in self.QUERIES:
                fresh(stratum, query, strategy)
            compiled.append(value("engine.plans_compiled"))
        assert value("stratum.transform_cache.hits") > 0
        assert compiled[2] == compiled[1]  # nothing re-planned in pass 3

    def test_changed_body_still_invalidates(self, stratum):
        stratum.register_routine(GET_AUTHOR_NAME)
        stratum.register_routine(self.GET_LAST_NAME)
        for query in self.QUERIES * 2:
            stratum.execute(query, strategy=SlicingStrategy.MAX)
        stratum.db.catalog.drop_routine("get_last_name")
        stratum.register_routine(
            self.GET_LAST_NAME.replace(
                "SET fname = (SELECT last_name FROM author"
                " WHERE author_id = aid);",
                "SET fname = 'redefined';",
            )
        )
        for query, expected in zip(self.QUERIES, ({"Ben", "Benjamin"}, {"redefined"})):
            result = stratum.execute(query, strategy=SlicingStrategy.MAX)
            assert {v for (v,), _ in result.coalesced()} == expected


class TestLruEviction:
    """Capacity pressure evicts the least recently used entry, not the
    whole cache — a hot transformation must survive a flood of one-off
    statements."""

    def filler(self, i):
        return (
            "VALIDTIME [DATE '2010-02-01', DATE '2010-07-01']"
            f" SELECT first_name FROM author WHERE last_name = 'f{i}'"
        )

    def test_hot_key_survives_capacity_pressure(self, stratum):
        stratum.TRANSFORM_CACHE_CAPACITY = 4
        fresh(stratum, SEQ_Q, SlicingStrategy.MAX)
        for i in range(8):
            fresh(stratum, self.filler(i), SlicingStrategy.MAX)
            # touching the hot key between fillers refreshes its recency
            fresh(stratum, SEQ_Q, SlicingStrategy.MAX)
        assert len(stratum._transform_cache) <= 4
        transforms_before, hits_before = counters(stratum)
        fresh(stratum, SEQ_Q, SlicingStrategy.MAX)
        transforms_after, hits_after = counters(stratum)
        assert transforms_after == transforms_before  # still cached
        assert hits_after == hits_before + 1

    def test_evicts_oldest_untouched_entry(self, stratum):
        stratum.TRANSFORM_CACHE_CAPACITY = 4
        statements = [self.filler(i) for i in range(4)]
        for statement in statements:
            fresh(stratum, statement, SlicingStrategy.MAX)
        # refresh filler 0, then overflow: filler 1 is now the oldest
        fresh(stratum, statements[0], SlicingStrategy.MAX)
        fresh(stratum, self.filler(99), SlicingStrategy.MAX)
        transforms_before, _ = counters(stratum)
        fresh(stratum, statements[0], SlicingStrategy.MAX)  # hit
        assert counters(stratum)[0] == transforms_before
        fresh(stratum, statements[1], SlicingStrategy.MAX)  # evicted
        assert counters(stratum)[0] == transforms_before + 1


CONTEXT = "VALIDTIME [DATE '2010-02-01', DATE '2010-07-01'] "
OUTER_NAME = """
CREATE FUNCTION outer_name (aid CHAR(10))
RETURNS CHAR(50)
READS SQL DATA
LANGUAGE SQL
BEGIN
  RETURN get_author_name(aid);
END
"""
REDEFINED = GET_AUTHOR_NAME.replace(
    "SET fname = (SELECT first_name FROM author WHERE author_id = aid);",
    "SET fname = (SELECT last_name FROM author WHERE author_id = aid);",
)
# an ABS that reads valid-time data: MAX must clone it once it exists
SHADOWING_ABS = """
CREATE FUNCTION abs (x FLOAT)
RETURNS INTEGER
READS SQL DATA
LANGUAGE SQL
BEGIN
  RETURN (SELECT COUNT(*) FROM item_author);
END
"""


class TestRevalidation:
    """A cached transform or plan is checked against the names its
    statement reaches, not against every schema change: another
    statement's clone installation leaves it served, and a change to
    anything it reaches — directly, through a routine or a view, or a
    name it called as a built-in — rebuilds it, after which it answers
    what a database that never cached anything answers."""

    GET_LAST_NAME = TestInterleavedRoutineStatements.GET_LAST_NAME
    QUERIES = TestInterleavedRoutineStatements.QUERIES
    SETUP = [
        GET_AUTHOR_NAME,
        OUTER_NAME,
        "CREATE TABLE shelf (id CHAR(10), qty INTEGER)",
        "INSERT INTO shelf VALUES ('i1', 3), ('i2', 9)",
        "CREATE VIEW stocked AS SELECT id, qty FROM shelf WHERE qty > 0",
    ]
    CALLS = CONTEXT + (
        "SELECT get_author_name(author_id) FROM author WHERE author_id = 'a1'"
    )
    OUTER = CONTEXT + (
        "SELECT outer_name(author_id) FROM author WHERE author_id = 'a1'"
    )
    SHELF = "SELECT id, qty FROM shelf ORDER BY id"
    VIEW = "SELECT id, qty FROM stocked ORDER BY id"
    BUILTIN = CONTEXT + "SELECT id, abs(price) FROM item"
    RECREATE_SHELF = [
        "DROP TABLE shelf",
        "CREATE TABLE shelf (id CHAR(10), qty INTEGER)",
        "INSERT INTO shelf VALUES ('i3', 7)",
    ]

    def build(self, changes=()):
        stratum = make_bookstore()
        for sql in self.SETUP + list(changes):
            stratum.execute(sql)
        return stratum

    def run(self, stratum, sql):
        result = stratum.execute(sql, SlicingStrategy.MAX)
        if hasattr(result, "coalesced"):
            return sorted(map(repr, result.coalesced()))
        return result.rows

    def work(self, stratum):
        value = stratum.db.obs.value
        return value("stratum.transforms"), value("engine.plans_compiled")

    @pytest.mark.parametrize("submit", ["cached", "fresh"])
    def test_another_statements_clones_leave_it_served(self, submit):
        stratum = self.build([self.GET_LAST_NAME])
        execute = (
            stratum.execute if submit == "cached"
            else lambda sql, strategy: fresh(stratum, sql, strategy)
        )
        execute(self.CALLS, SlicingStrategy.MAX)
        execute(self.CALLS, SlicingStrategy.MAX)
        version = stratum.db.catalog.schema_version
        execute(self.QUERIES[1], SlicingStrategy.MAX)  # installs its clone
        assert stratum.db.catalog.schema_version > version
        before = self.work(stratum)
        execute(self.CALLS, SlicingStrategy.MAX)
        assert self.work(stratum) == before
        value = stratum.db.obs.value
        assert value("stratum.transform_cache.revalidated") >= 1
        assert value("engine.plan_cache.revalidated") >= 1

    @pytest.mark.parametrize("statement, changes", [
        pytest.param(
            CALLS, ["DROP FUNCTION get_author_name", REDEFINED],
            id="routine-it-calls",
        ),
        pytest.param(
            OUTER, ["DROP FUNCTION get_author_name", REDEFINED],
            id="routine-reached-through-another",
        ),
        pytest.param(SHELF, RECREATE_SHELF, id="table-dropped-and-recreated"),
        pytest.param(
            VIEW,
            ["DROP VIEW stocked",
             "CREATE VIEW stocked AS SELECT id, qty FROM shelf WHERE qty > 5"],
            id="view-redefined",
        ),
        pytest.param(VIEW, RECREATE_SHELF, id="table-under-the-view"),
        pytest.param(BUILTIN, [SHADOWING_ABS], id="routine-shadows-a-built-in"),
        pytest.param(
            SHELF,
            ["ALTER TABLE shelf ADD VALIDTIME",
             "NONSEQUENCED VALIDTIME UPDATE shelf SET end_time = DATE '2010-03-01'"
             " WHERE id = 'i2'"],
            id="add-validtime",
        ),
    ])
    def test_a_change_it_reaches_rebuilds_it(self, statement, changes):
        stratum = self.build()
        first = self.run(stratum, statement)
        assert self.run(stratum, statement) == first
        for sql in changes:
            stratum.execute(sql)
        before = self.work(stratum)
        found = self.run(stratum, statement)
        assert self.work(stratum)[1] > before[1]  # evicted: planned anew
        assert found == self.run(self.build(changes), statement)
        assert found != first

    def test_ddl_rolled_back_then_climbed_back_serves_nothing_stale(self):
        stratum = self.build()
        first = self.run(stratum, self.OUTER)
        stratum.execute("BEGIN")
        stratum.execute("DROP FUNCTION get_author_name")
        stratum.execute(REDEFINED)
        inside = self.run(stratum, self.OUTER)
        assert inside != first
        stratum.execute("ROLLBACK")
        assert self.run(stratum, self.OUTER) == first
        # the version climbs back over the rolled-back window's numbers
        for n in range(4):
            stratum.execute(f"CREATE TABLE pad{n} (x INTEGER)")
        assert self.run(stratum, self.OUTER) == first
        stratum.execute("DROP FUNCTION get_author_name")
        stratum.execute(REDEFINED)
        assert self.run(stratum, self.OUTER) == inside
