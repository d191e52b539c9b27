"""Current semantics and temporal upward compatibility (paper §IV-C)."""

import pytest

from repro.sqlengine.parser import parse_statement
from repro.sqlengine.values import Date
from repro.temporal.current import transform_current

from tests.conftest import GET_AUTHOR_NAME, make_bookstore


@pytest.fixture
def stratum():
    s = make_bookstore()
    s.register_routine(GET_AUTHOR_NAME)
    return s


class TestCurrentTransformText:
    """The emitted SQL should match the shapes of Figures 5 and 6."""

    def test_query_gains_current_predicates(self, stratum):
        stmt = parse_statement(
            "SELECT i.title FROM item i, item_author ia"
            " WHERE i.id = ia.item_id"
        )
        result = transform_current(stmt, stratum.db.catalog, stratum.registry)
        sql = result.statement.to_sql()
        assert "i.begin_time <= CURRENT_DATE" in sql
        assert "CURRENT_DATE < i.end_time" in sql
        assert "ia.begin_time <= CURRENT_DATE" in sql

    def test_routine_cloned_with_curr_prefix(self, stratum):
        stmt = parse_statement(
            "SELECT 1 FROM item_author ia"
            " WHERE get_author_name(ia.author_id) = 'Ben'"
        )
        result = transform_current(stmt, stratum.db.catalog, stratum.registry)
        assert len(result.routines) == 1
        clone = result.routines[0]
        assert clone.name == "curr_get_author_name"
        assert "author.begin_time <= CURRENT_DATE" in clone.to_sql()
        assert "curr_get_author_name(ia.author_id)" in result.statement.to_sql()

    def test_non_temporal_routine_untouched(self, stratum):
        stratum.register_routine(
            "CREATE FUNCTION pure (x INTEGER) RETURNS INTEGER LANGUAGE SQL"
            " BEGIN RETURN x * 2; END"
        )
        stmt = parse_statement("SELECT pure(2) FROM item")
        result = transform_current(stmt, stratum.db.catalog, stratum.registry)
        assert result.routines == []  # reachability optimization (§V-C)
        assert "pure(2)" in result.statement.to_sql()

    def test_subquery_gets_predicates(self, stratum):
        stmt = parse_statement(
            "SELECT 1 FROM item i WHERE EXISTS"
            " (SELECT 1 FROM author a WHERE a.author_id = 'a1')"
        )
        sql = transform_current(
            stmt, stratum.db.catalog, stratum.registry
        ).statement.to_sql()
        assert "a.begin_time <= CURRENT_DATE" in sql


class TestTemporalUpwardCompatibility:
    """Legacy statements keep their meaning after ADD VALIDTIME."""

    def test_current_query_sees_only_now(self, stratum):
        stratum.db.now = Date.from_ymd(2010, 4, 1)
        result = stratum.execute("SELECT first_name FROM author WHERE author_id = 'a1'")
        assert result.rows == [["Ben"]]
        stratum.db.now = Date.from_ymd(2010, 8, 1)
        result = stratum.execute("SELECT first_name FROM author WHERE author_id = 'a1'")
        assert result.rows == [["Benjamin"]]

    def test_current_query_through_function(self, stratum):
        stratum.db.now = Date.from_ymd(2010, 4, 1)
        result = stratum.execute(
            "SELECT i.title FROM item i, item_author ia"
            " WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'"
        )
        assert sorted(r[0] for r in result.rows) == ["Book One", "Book Two"]

    def test_plain_table_stays_plain(self, stratum):
        stratum.db.execute("CREATE TABLE notes (t CHAR(10))")
        stratum.db.execute("INSERT INTO notes VALUES ('hello')")
        assert stratum.execute("SELECT t FROM notes").rows == [["hello"]]

    def test_current_insert(self, stratum):
        stratum.db.now = Date.from_ymd(2010, 7, 1)
        stratum.execute("INSERT INTO item (id, title, price) VALUES ('i9', 'New Book', 10.0)")
        assert stratum.execute(
            "SELECT title FROM item WHERE id = 'i9'"
        ).rows == [["New Book"]]
        # invisible in the past
        stratum.db.now = Date.from_ymd(2010, 6, 1)
        assert stratum.execute("SELECT title FROM item WHERE id = 'i9'").rows == []

    def test_current_update_preserves_history(self, stratum):
        stratum.db.now = Date.from_ymd(2010, 7, 1)
        stratum.execute("UPDATE item SET price = 30.0 WHERE id = 'i1'")
        assert stratum.execute("SELECT price FROM item WHERE id = 'i1'").scalar() == 30.0
        stratum.db.now = Date.from_ymd(2010, 5, 1)
        assert stratum.execute("SELECT price FROM item WHERE id = 'i1'").scalar() == 25.0

    def test_current_update_same_day_overwrites(self, stratum):
        stratum.db.now = Date.from_ymd(2010, 7, 1)
        stratum.execute("INSERT INTO item (id, title, price) VALUES ('i9', 'X', 1.0)")
        stratum.execute("UPDATE item SET price = 2.0 WHERE id = 'i9'")
        rows = stratum.execute(
            "NONSEQUENCED VALIDTIME SELECT price FROM item WHERE id = 'i9'"
        ).rows
        assert rows == [[2.0]]  # no empty-period version left behind

    def test_current_delete_terminates(self, stratum):
        stratum.db.now = Date.from_ymd(2010, 7, 1)
        stratum.execute("DELETE FROM item WHERE id = 'i1'")
        assert stratum.execute("SELECT title FROM item WHERE id = 'i1'").rows == []
        stratum.db.now = Date.from_ymd(2010, 5, 1)
        assert stratum.execute(
            "SELECT title FROM item WHERE id = 'i1'"
        ).rows == [["Book One"]]

    def test_current_delete_same_day_insert_removes_row(self, stratum):
        stratum.db.now = Date.from_ymd(2010, 7, 1)
        stratum.execute("INSERT INTO item (id, title, price) VALUES ('i9', 'X', 1.0)")
        stratum.execute("DELETE FROM item WHERE id = 'i9'")
        rows = stratum.execute(
            "NONSEQUENCED VALIDTIME SELECT price FROM item WHERE id = 'i9'"
        ).rows
        assert rows == []

    def test_current_update_through_where_function(self, stratum):
        """The WHERE's function reads the current timeslice, as it does in
        a current query: 'Ben' on 2010-04-01, 'Benjamin' after June."""
        stratum.db.now = Date.from_ymd(2010, 4, 1)
        count = stratum.execute(
            "UPDATE item SET price = 99.0"
            " WHERE id = 'i1' AND get_author_name('a1') = 'Ben'"
        )
        assert count == 1
        assert stratum.execute("SELECT price FROM item WHERE id = 'i1'").scalar() == 99.0
        stratum.db.now = Date.from_ymd(2010, 8, 1)
        assert stratum.execute(
            "UPDATE item SET price = 1.0"
            " WHERE id = 'i1' AND get_author_name('a1') = 'Ben'"
        ) == 0


class TestNonsequenced:
    def test_timestamps_visible(self, stratum):
        result = stratum.execute(
            "NONSEQUENCED VALIDTIME SELECT first_name, begin_time, end_time"
            " FROM author WHERE author_id = 'a1' ORDER BY begin_time"
        )
        assert result.rows[0][0] == "Ben"
        assert result.rows[0][2] == Date.from_iso("2010-06-01")

    def test_explicit_timestamp_predicate(self, stratum):
        result = stratum.execute(
            "NONSEQUENCED VALIDTIME SELECT first_name FROM author"
            " WHERE begin_time = DATE '2010-06-01'"
        )
        assert result.rows == [["Benjamin"]]


class TestFeatureNotSupported:
    """What the stratum has no transformation for is a ``TemporalError``
    with SQLSTATE 0A000 — a raw ``NotImplementedError`` has no handler,
    no wire SQLSTATE, and killed the shell."""

    def refused(self, run):
        from repro.temporal.errors import FeatureNotSupportedError, TemporalError

        with pytest.raises(FeatureNotSupportedError) as caught:
            run()
        assert isinstance(caught.value, TemporalError)
        assert caught.value.sqlstate == "0A000"

    def test_current_insert_without_a_column_list(self, stratum):
        """No column list means every column but the period pair, as on
        a transaction-time table: the row is stored over [now, forever)."""
        assert stratum.execute("INSERT INTO item VALUES ('i9', 'Nine', 9.0)") == 1
        assert stratum.execute(
            "NONSEQUENCED VALIDTIME SELECT title, begin_time, end_time"
            " FROM item WHERE id = 'i9'"
        ).rows == [["Nine", stratum.db.now, Date(Date.MAX_ORDINAL)]]

    def test_current_update_has_no_transformed_form(self, stratum):
        self.refused(lambda: stratum.transform(
            "UPDATE item SET price = 1.0 WHERE id = 'i1'"
        ))

    def test_sequenced_modification_under_max_transform(self, stratum):
        from repro.temporal import SlicingStrategy

        self.refused(lambda: stratum.transform(
            "VALIDTIME [DATE '2010-02-01', DATE '2010-03-01']"
            " UPDATE item SET price = 1.0 WHERE id = 'i1'",
            SlicingStrategy.MAX,
        ))

    def test_sequenced_modification_under_perst_transform(self, stratum):
        from repro.temporal import SlicingStrategy

        self.refused(lambda: stratum.transform(
            "VALIDTIME [DATE '2010-02-01', DATE '2010-03-01']"
            " DELETE FROM item WHERE id = 'i1'",
            SlicingStrategy.PERST,
        ))
