"""Per-statement slicing tests (paper §VI, Figure 11)."""

import pytest

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.parser import parse_statement
from repro.temporal import SlicingStrategy
from repro.temporal.errors import PerStatementInapplicableError
from repro.temporal.period import Period
from repro.temporal.perst_slicing import PerstTransformer

from tests.conftest import GET_AUTHOR_NAME, make_bookstore

SEQ_Q2 = (
    "VALIDTIME [DATE '2010-01-01', DATE '2010-10-01']"
    " SELECT i.title FROM item i, item_author ia"
    " WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'"
)


@pytest.fixture
def stratum():
    s = make_bookstore()
    s.register_routine(GET_AUTHOR_NAME)
    return s


def transform(stratum, sql):
    return PerstTransformer(stratum.db.catalog, stratum.registry).transform(
        parse_statement(sql)
    )


class TestSignatureTransform:
    """§VI-A: evaluation period in, temporal table out."""

    def test_function_signature(self, stratum):
        result = transform(stratum, SEQ_Q2)
        clone = result.routines[0]
        sql = clone.to_sql()
        assert "ps_get_author_name (aid CHAR(10), ps_begin DATE, ps_end DATE)" in sql
        assert (
            "RETURNS ROW(taupsm_result CHAR(50), begin_time DATE, end_time DATE) ARRAY"
            in sql
        )

    def test_variable_becomes_temporal_table(self, stratum):
        sql = transform(stratum, SEQ_Q2).routines[0].to_sql()
        assert "DECLARE fname ROW(fname CHAR(50), begin_time DATE, end_time DATE) ARRAY" in sql

    def test_set_becomes_delete_then_insert(self, stratum):
        sql = transform(stratum, SEQ_Q2).routines[0].to_sql()
        assert "DELETE FROM fname" in sql
        assert "INSERT INTO fname SELECT first_name" in sql
        assert "LAST_INSTANCE(author.begin_time, ps_begin)" in sql
        assert "FIRST_INSTANCE(author.end_time, ps_end)" in sql

    def test_return_alias_optimization(self, stratum):
        """Returning a bare variable returns its table directly (§VI-B)."""
        sql = transform(stratum, SEQ_Q2).routines[0].to_sql()
        assert "RETURN fname" in sql
        assert "INSERT INTO ps_return_tb" not in sql

    def test_invoking_query_matches_figure_11(self, stratum):
        sql = transform(stratum, SEQ_Q2).statement.to_sql()
        assert "TABLE(ps_get_author_name(ia.author_id, ps_begin, ps_end))" in sql
        assert "taupsm_result = 'Ben'" in sql
        assert "LAST_INSTANCE" in sql and "FIRST_INSTANCE" in sql


class TestStatementTransforms:
    def test_multiple_sets_join_variable_tables(self, stratum):
        stratum.register_routine("""
        CREATE FUNCTION full_name (aid CHAR(10)) RETURNS CHAR(90)
        READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE fn CHAR(40);
          DECLARE ln CHAR(40);
          SET fn = (SELECT first_name FROM author WHERE author_id = aid);
          SET ln = (SELECT last_name FROM author WHERE author_id = aid);
          RETURN fn || ' ' || ln;
        END
        """)
        result = transform(stratum, "VALIDTIME SELECT full_name('a1') FROM item")
        clone = next(r for r in result.routines if r.name == "ps_full_name")
        sql = clone.to_sql()
        # the RETURN expression joins both variable tables on period overlap
        assert "FROM fn" in sql and "ln" in sql
        assert "INSERT INTO ps_return_tb" in sql

    def test_return_scalar_subquery(self, stratum):
        stratum.register_routine("""
        CREATE FUNCTION direct (aid CHAR(10)) RETURNS CHAR(40)
        READS SQL DATA LANGUAGE SQL
        BEGIN
          RETURN (SELECT first_name FROM author WHERE author_id = aid);
        END
        """)
        result = transform(stratum, "VALIDTIME SELECT direct('a1') FROM item")
        sql = next(r for r in result.routines if r.name == "ps_direct").to_sql()
        assert "INSERT INTO ps_return_tb SELECT first_name" in sql

    def test_temporal_if_uses_loop_fallback(self, stratum):
        stratum.register_routine("""
        CREATE FUNCTION pricy (iid CHAR(10)) RETURNS CHAR(10)
        READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE p FLOAT;
          DECLARE flag CHAR(10);
          SET p = (SELECT price FROM item WHERE id = iid);
          IF p > 50.0 THEN
            SET flag = 'high';
          ELSE
            SET flag = 'low';
          END IF;
          RETURN flag;
        END
        """)
        result = transform(stratum, "VALIDTIME SELECT pricy('i1') FROM item")
        clone = next(r for r in result.routines if r.name == "ps_pricy")
        sql = clone.to_sql()
        assert "FOR taupsm_cp AS" in sql  # §VI-C per-statement loop
        assert result.cp_requirements  # stratum must materialize cp

    def test_cursor_body_mode(self, stratum):
        stratum.register_routine("""
        CREATE FUNCTION count_titles (aid CHAR(10)) RETURNS INTEGER
        READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE done INTEGER DEFAULT 0;
          DECLARE t CHAR(100);
          DECLARE n INTEGER DEFAULT 0;
          DECLARE c CURSOR FOR
            SELECT i.title FROM item i, item_author ia
            WHERE i.id = ia.item_id AND ia.author_id = aid;
          DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
          OPEN c;
          w: WHILE done = 0 DO
            FETCH c INTO t;
            IF done = 0 THEN SET n = n + 1; END IF;
          END WHILE w;
          CLOSE c;
          RETURN n;
        END
        """)
        result = transform(
            stratum, "VALIDTIME SELECT count_titles('a1') FROM author"
        )
        clone = next(r for r in result.routines if r.name == "ps_count_titles")
        sql = clone.to_sql()
        assert "FOR taupsm_cp AS" in sql
        assert "CREATE TEMPORARY TABLE taupsm_aux_c" in sql  # aux per period
        assert "taupsm_once: LOOP" in sql
        assert "INSERT INTO ps_return_tb" in sql

    def test_row_array_function_gains_period_columns(self, stratum):
        stratum.register_routine("""
        CREATE FUNCTION list_names (aid CHAR(10))
        RETURNS ROW(fname CHAR(40)) ARRAY
        READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE result ROW(fname CHAR(40)) ARRAY;
          INSERT INTO TABLE result (
            SELECT first_name FROM author WHERE author_id = aid);
          RETURN result;
        END
        """)
        result = transform(
            stratum,
            "VALIDTIME SELECT f.fname FROM TABLE(list_names('a1')) AS f",
        )
        clone = next(r for r in result.routines if r.name == "ps_list_names")
        assert "RETURNS ROW(fname CHAR(40), begin_time DATE, end_time DATE) ARRAY" in clone.to_sql()
        top = result.statement.to_sql()
        assert "TABLE(ps_list_names('a1', ps_begin, ps_end))" in top


class TestInapplicability:
    def test_self_referential_assignment_rejected(self, stratum):
        stratum.register_routine("""
        CREATE FUNCTION acc (aid CHAR(10)) RETURNS FLOAT
        READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE p FLOAT;
          SET p = (SELECT price FROM item WHERE id = aid);
          SET p = p + 1.0;
          SET p = p * 2.0;
          RETURN p;
        END
        """)
        with pytest.raises(PerStatementInapplicableError):
            transform(stratum, "VALIDTIME SELECT acc('i1') FROM item")

    def test_scalar_var_from_temporal_rejected_without_tv(self, stratum):
        # an OUT parameter made time-varying is rejected for procedures
        stratum.register_routine("""
        CREATE PROCEDURE fetch_price (iid CHAR(10), OUT p FLOAT)
        LANGUAGE SQL
        BEGIN
          SET p = (SELECT price FROM item WHERE id = iid);
        END
        """)
        with pytest.raises(PerStatementInapplicableError):
            transform(stratum, "VALIDTIME CALL fetch_price('i1', x)")


class TestExecution:
    def test_q2_history(self, stratum):
        result = stratum.execute(SEQ_Q2, strategy=SlicingStrategy.PERST)
        merged = result.coalesced()
        assert (("Book One",), Period.from_iso("2010-01-15", "2010-06-01")) in merged
        assert len(merged) == 2

    def test_routine_called_far_fewer_times_than_max(self, stratum):
        db = stratum.db
        db.stats.reset()
        stratum.execute(SEQ_Q2, strategy=SlicingStrategy.MAX)
        max_calls = db.obs.value("engine.routine.calls.max_get_author_name")
        db.stats.reset()
        stratum.execute(SEQ_Q2, strategy=SlicingStrategy.PERST)
        perst_calls = db.obs.value("engine.routine.calls.ps_get_author_name")
        assert perst_calls < max_calls  # the paper's central cost asymmetry

    def test_sequenced_call_procedure(self, stratum):
        stratum.register_routine(
            "CREATE PROCEDURE names () LANGUAGE SQL BEGIN"
            " SELECT first_name FROM author WHERE author_id = 'a1'; END"
        )
        results = stratum.execute(
            "VALIDTIME [DATE '2010-05-01', DATE '2010-07-01'] CALL names()",
            strategy=SlicingStrategy.PERST,
        )
        merged = results[0].coalesced()
        assert (("Ben",), Period.from_iso("2010-05-01", "2010-06-01")) in merged
        assert (("Benjamin",), Period.from_iso("2010-06-01", "2010-07-01")) in merged

    def test_variable_gap_produces_no_rows(self, stratum):
        """A variable undefined at some granules yields no result there."""
        stratum.register_routine("""
        CREATE FUNCTION title_of (iid CHAR(10)) RETURNS CHAR(100)
        READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE t CHAR(100);
          SET t = (SELECT title FROM item WHERE id = iid);
          RETURN t;
        END
        """)
        result = stratum.execute(
            "VALIDTIME [DATE '2010-01-01', DATE '2010-12-01']"
            " SELECT title_of('i2') FROM author WHERE author_id = 'a2'",
            strategy=SlicingStrategy.PERST,
        )
        merged = result.coalesced()
        # i2 exists only [2010-03-01, 2010-09-01)
        assert merged == [
            (("Book Two",), Period.from_iso("2010-03-01", "2010-09-01"))
        ]
