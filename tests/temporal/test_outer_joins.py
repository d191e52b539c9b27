"""Outer joins over temporal tables: null-extension must survive.

A naive transformation puts overlap predicates in the WHERE clause,
silently converting LEFT JOIN into INNER JOIN; the stratum must place
them in the ON clause instead (current and MAX), and PERST must route
such selects through its loop fallback rather than the algebraic path.
"""

import pytest

from repro.sqlengine.parser import parse_statement
from repro.sqlengine.values import Date, Null
from repro.temporal import SlicingStrategy
from repro.temporal.errors import PerStatementInapplicableError

from tests.conftest import make_bookstore
from tests.oracle import check

LEFT_QUERY = (
    "SELECT i.title, ia.author_id FROM item i"
    " LEFT JOIN item_author ia ON i.id = ia.item_id"
)


@pytest.fixture
def stratum():
    s = make_bookstore()
    # remove i2's links so a null-extended row exists
    s.db.execute("DELETE FROM item_author WHERE item_id = 'i2'")
    s.db.now = Date.from_ymd(2010, 4, 1)
    return s


class TestCurrentSemantics:
    def test_null_extension_preserved(self, stratum):
        rows = sorted(map(tuple, stratum.execute(LEFT_QUERY).rows))
        assert ("Book Two", Null) in rows
        assert ("Book One", "a1") in rows

    def test_condition_lands_in_on_clause(self, stratum):
        transformed = stratum.transform(LEFT_QUERY)
        sql = transformed.statement.to_sql()
        on_clause = sql.split(" ON ")[1].split(" WHERE ")[0]
        assert "ia.begin_time <= CURRENT_DATE" in on_clause

    def test_left_side_condition_stays_in_where(self, stratum):
        transformed = stratum.transform(LEFT_QUERY)
        sql = transformed.statement.to_sql()
        assert "WHERE" in sql
        where_clause = sql.split(" WHERE ")[1]
        assert "i.begin_time <= CURRENT_DATE" in where_clause


class TestSequencedMax:
    def test_commutativity_with_null_extension(self, stratum):
        sequenced = (
            "VALIDTIME [DATE '2010-01-01', DATE '2010-10-01'] " + LEFT_QUERY
        )
        assert check(stratum, sequenced) == {SlicingStrategy.MAX: "agrees"}

    def test_null_extended_history(self, stratum):
        sequenced = (
            "VALIDTIME [DATE '2010-03-01', DATE '2010-04-01'] " + LEFT_QUERY
        )
        result = stratum.execute(sequenced, strategy=SlicingStrategy.MAX)
        values = {v for v, _ in result.coalesced()}
        assert ("Book Two", Null) in values


class TestSequencedPerst:
    def test_algebraic_path_refuses_left_join(self, stratum):
        from repro.temporal.perst_slicing import PerstTransformer

        transformer = PerstTransformer(stratum.db.catalog, stratum.registry)
        sequenced = parse_statement("VALIDTIME " + LEFT_QUERY)
        with pytest.raises(PerStatementInapplicableError):
            transformer.transform(sequenced)

    def test_heuristic_falls_back_to_max(self, stratum):
        sequenced = (
            "VALIDTIME [DATE '2010-03-01', DATE '2010-04-01'] " + LEFT_QUERY
        )
        result = stratum.execute(sequenced, strategy=SlicingStrategy.AUTO)
        assert stratum.last_strategy is SlicingStrategy.MAX
        assert len(result) > 0
