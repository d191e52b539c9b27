"""Span-tree shape tests: one per execution strategy.

The tracer is off by default; each test enables it, runs one statement
and compares :meth:`Span.shape` — the ``(name, [children...])`` tree
with timings and attributes stripped — against the documented pipeline
(DESIGN.md §3.3).  Attribute checks pin the load-bearing facts: which
strategy the transform span reports, how many slices the constant
periods span carries, and that per-period spans tile the context.
"""

import pytest

from repro.sqlengine.parser import parse_statement
from repro.sqlengine.values import Date
from repro.temporal import SlicingStrategy
from repro.temporal.constant_periods import compute_constant_periods
from repro.temporal.period import Period

from tests.conftest import GET_AUTHOR_NAME, make_bookstore

CONTEXT_SQL = "VALIDTIME [DATE '2010-01-01', DATE '2011-01-01'] "
CONTEXT = Period(Date.from_iso("2010-01-01").ordinal, Date.from_iso("2011-01-01").ordinal)


@pytest.fixture
def stratum():
    s = make_bookstore()
    s.register_routine(GET_AUTHOR_NAME)
    s.db.tracer.enabled = True
    return s


def run(stratum, sql, strategy=SlicingStrategy.AUTO):
    result = stratum.execute(sql, strategy=strategy)
    root = stratum.db.tracer.last_root
    assert root is not None
    return result, root


class TestSequencedMax:
    def test_select_path_shape(self, stratum):
        _, root = run(
            stratum,
            CONTEXT_SQL + "SELECT i.id, i.price FROM item i WHERE i.price > 50",
            SlicingStrategy.MAX,
        )
        assert root.shape() == (
            "statement",
            [
                ("stratum.transform", []),
                ("stratum.constant_periods", []),
                ("stratum.max.execute", []),
            ],
        )
        transform = root.find("stratum.transform")
        assert transform.attrs["strategy"] == "max"
        assert transform.attrs["dim"] == "vt"
        assert transform.attrs["cached"] is False

    def test_slices_attr_matches_constant_periods(self, stratum):
        sql = "SELECT i.id, i.price FROM item i WHERE i.price > 50"
        _, root = run(stratum, CONTEXT_SQL + sql, SlicingStrategy.MAX)
        expected = len(
            compute_constant_periods(
                stratum.db, ["item"], stratum.registry, CONTEXT
            )
        )
        cp = root.find("stratum.constant_periods")
        assert cp.attrs["slices"] == expected
        assert root.find("stratum.max.execute").attrs["slices"] == expected

    def test_function_query_has_routine_children(self, stratum):
        _, root = run(
            stratum,
            CONTEXT_SQL + "SELECT get_author_name('a1') AS name FROM item",
            SlicingStrategy.MAX,
        )
        routines = root.find("stratum.max.execute").find_all("routine")
        assert routines, "MAX function query must invoke the cloned routine"
        assert {s.attrs["name"] for s in routines} == {"max_get_author_name"}

    def test_call_loop_tiles_the_context(self, stratum):
        stratum.register_routine(
            "CREATE PROCEDURE names () LANGUAGE SQL BEGIN"
            " SELECT first_name FROM author WHERE author_id = 'a1'; END"
        )
        _, root = run(
            stratum,
            "VALIDTIME [DATE '2010-05-01', DATE '2010-07-01'] CALL names()",
            SlicingStrategy.MAX,
        )
        loop = root.find("stratum.max.loop")
        assert loop is not None
        periods = loop.find_all("stratum.max.period")
        assert len(periods) == loop.attrs["slices"] == 2
        # each period span drives exactly one routine invocation...
        for span in periods:
            assert [c.name for c in span.children] == ["routine"]
            assert span.children[0].attrs["name"] == "max_names"
        # ...and the periods tile the context in order
        bounds = [(s.attrs["begin"], s.attrs["end"]) for s in periods]
        assert bounds == [
            ("2010-05-01", "2010-06-01"),
            ("2010-06-01", "2010-07-01"),
        ]

    def test_cached_transform_is_flagged(self, stratum):
        sql = CONTEXT_SQL + "SELECT i.id FROM item i"
        run(stratum, sql, SlicingStrategy.MAX)
        # a fresh parse asks the candidate cache, which serves it
        stratum.execute_ast(parse_statement(sql), SlicingStrategy.MAX)
        root = stratum.db.tracer.last_root
        assert root.find("stratum.transform").attrs["cached"] is True
        # the text again: the statement cache serves parse and prepare
        _, root = run(stratum, sql, SlicingStrategy.MAX)
        assert root.find("stratum.transform") is None
        assert root.find("stratum.prepare").attrs["cached"] is True


class TestSequencedPerst:
    def test_algebraic_shape_skips_constant_periods(self, stratum):
        _, root = run(
            stratum,
            CONTEXT_SQL + "SELECT i.id, i.price FROM item i WHERE i.price > 50",
            SlicingStrategy.PERST,
        )
        assert root.shape() == (
            "statement",
            [("stratum.transform", []), ("stratum.perst.execute", [])],
        )
        assert root.find("stratum.transform").attrs["strategy"] == "perst"
        assert root.find("stratum.perst.execute").attrs["rows"] == len(
            stratum.db.catalog.get_table("item")
        )

    def test_function_query_invokes_ps_clone(self, stratum):
        _, root = run(
            stratum,
            CONTEXT_SQL + "SELECT get_author_name('a1') AS name FROM item",
            SlicingStrategy.PERST,
        )
        routines = root.find("stratum.perst.execute").find_all("routine")
        assert {s.attrs["name"] for s in routines} == {"ps_get_author_name"}


class TestOtherSemantics:
    def test_current_shape(self, stratum):
        _, root = run(stratum, "SELECT get_author_name('a1') AS n")
        transform = root.find("stratum.transform")
        assert transform.attrs["strategy"] == "current"
        routines = root.find_all("routine")
        assert {s.attrs["name"] for s in routines} == {"curr_get_author_name"}

    def test_nonsequenced_shape(self, stratum):
        _, root = run(
            stratum, "NONSEQUENCED VALIDTIME SELECT id, begin_time FROM item"
        )
        assert root.shape() == ("statement", [("stratum.nonsequenced", [])])
        assert root.find("stratum.nonsequenced").attrs["dim"] == "valid"

    def test_transaction_time_dimension_attr(self):
        s = make_bookstore()
        s.db.execute("CREATE TABLE audit (entity CHAR(4), val INTEGER)")
        s.db.now = Date.from_ymd(2010, 1, 1)
        s.execute("ALTER TABLE audit ADD TRANSACTIONTIME")
        s.execute("INSERT INTO audit (entity, val) VALUES ('e1', 1)")
        s.db.now = Date.from_ymd(2010, 3, 1)
        s.execute("UPDATE audit SET val = 2 WHERE entity = 'e1'")
        s.db.now = Date.from_ymd(2010, 6, 1)
        s.db.tracer.enabled = True
        _, root = run(
            s,
            "TRANSACTIONTIME [DATE '2010-01-01', DATE '2010-06-01']"
            " SELECT entity, val FROM audit",
            SlicingStrategy.MAX,
        )
        transform = root.find("stratum.transform")
        assert transform.attrs["strategy"] == "max"
        assert transform.attrs["dim"] == "tt"
        assert root.find("stratum.constant_periods") is not None


class TestDisabledTracer:
    def test_no_spans_recorded_by_default(self):
        s = make_bookstore()
        assert s.db.tracer.enabled is False
        s.execute(CONTEXT_SQL + "SELECT i.id FROM item i")
        assert s.db.tracer.last_root is None

    def test_results_identical_on_and_off(self, stratum):
        sql = CONTEXT_SQL + "SELECT get_author_name('a1') AS name FROM item"
        on = stratum.execute(sql, strategy=SlicingStrategy.MAX).coalesced()
        stratum.db.tracer.enabled = False
        off = stratum.execute(sql, strategy=SlicingStrategy.MAX).coalesced()
        assert sorted(on) == sorted(off)


class TestMetrics:
    def test_slice_counter_matches_constant_periods(self, stratum):
        obs = stratum.db.obs
        before = obs.value("stratum.slices")
        run(
            stratum,
            CONTEXT_SQL + "SELECT i.id FROM item i",
            SlicingStrategy.MAX,
        )
        expected = len(
            compute_constant_periods(
                stratum.db, ["item"], stratum.registry, CONTEXT
            )
        )
        assert obs.value("stratum.slices") - before == expected

    def test_rows_written_aliases_the_registry(self, stratum):
        stats = stratum.db.stats
        obs = stratum.db.obs
        before = stats.snapshot()["rows_written"]
        stratum.db.execute(
            "INSERT INTO item VALUES"
            " ('i9', 'Book Nine', 5.0, DATE '2010-05-01', DATE '9999-12-31')"
        )
        assert stats.snapshot()["rows_written"] == before + 1
        assert stats.snapshot()["rows_written"] == obs.sum_prefix("engine.rows_written.")
        assert obs.value("engine.rows_written.insert") >= 1

    def test_undo_depth_gauge_high_water(self, stratum):
        # the gauge samples the log depth when a statement mark is taken,
        # so the *second* statement inside the transaction observes the
        # entries the first one left behind
        stratum.db.execute("BEGIN")
        stratum.db.execute(
            "INSERT INTO item VALUES"
            " ('i8', 'Book Eight', 6.0, DATE '2010-05-01', DATE '9999-12-31')"
        )
        stratum.db.execute(
            "INSERT INTO item VALUES"
            " ('i9', 'Book Nine', 7.0, DATE '2010-05-01', DATE '9999-12-31')"
        )
        stratum.db.execute("ROLLBACK")
        assert stratum.db.obs.gauges.get("txn.undo_depth_high_water", 0) >= 1
