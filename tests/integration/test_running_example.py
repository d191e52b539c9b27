"""End-to-end walk through the paper's running example (Figures 1-11)."""

import pytest

from repro.sqlengine.values import Date
from repro.temporal import SlicingStrategy, TemporalStratum
from repro.temporal.period import Period

from tests.conftest import GET_AUTHOR_NAME, make_bookstore

FIG2_QUERY = (
    "SELECT i.title FROM item i, item_author ia"
    " WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'"
)
FIG3_QUERY = (
    "VALIDTIME [DATE '2010-01-01', DATE '2010-12-01'] " + FIG2_QUERY
)


@pytest.fixture
def stratum() -> TemporalStratum:
    s = make_bookstore()
    s.register_routine(GET_AUTHOR_NAME)  # Figure 1
    return s


class TestFigure2Current:
    """The unmodified query keeps its current-state meaning (TUC)."""

    def test_while_ben_is_current(self, stratum):
        stratum.db.now = Date.from_ymd(2010, 4, 1)
        result = stratum.execute(FIG2_QUERY)
        assert sorted(r[0] for r in result.rows) == ["Book One", "Book Two"]

    def test_after_rename_no_results(self, stratum):
        stratum.db.now = Date.from_ymd(2010, 8, 1)
        assert stratum.execute(FIG2_QUERY).rows == []

    def test_figures_5_and_6_shapes(self, stratum):
        transformed = stratum.transform(FIG2_QUERY)
        sql = transformed.to_sql()
        assert "curr_get_author_name" in sql
        assert "author.begin_time <= CURRENT_DATE" in sql
        assert "i.begin_time <= CURRENT_DATE" in sql


class TestFigure3Sequenced:
    EXPECTED = [
        (("Book One",), Period.from_iso("2010-01-15", "2010-06-01")),
        (("Book Two",), Period.from_iso("2010-03-01", "2010-06-01")),
    ]

    def test_history_under_max(self, stratum):
        result = stratum.execute(FIG3_QUERY, strategy=SlicingStrategy.MAX)
        assert result.coalesced() == self.EXPECTED

    def test_history_under_perst(self, stratum):
        result = stratum.execute(FIG3_QUERY, strategy=SlicingStrategy.PERST)
        assert result.coalesced() == self.EXPECTED

    def test_figure_9_and_10_shapes(self, stratum):
        transformed = stratum.transform(FIG3_QUERY, SlicingStrategy.MAX)
        sql = transformed.to_sql()
        assert "max_get_author_name (aid CHAR(10), begin_time_in DATE)" in sql
        assert "max_get_author_name(ia.author_id, cp.begin_time)" in sql

    def test_figure_11_shape(self, stratum):
        transformed = stratum.transform(FIG3_QUERY, SlicingStrategy.PERST)
        sql = transformed.to_sql()
        assert "ps_get_author_name (aid CHAR(10), ps_begin DATE, ps_end DATE)" in sql
        assert "ROW(taupsm_result CHAR(50), begin_time DATE, end_time DATE) ARRAY" in sql
        assert "TABLE(ps_get_author_name(ia.author_id" in sql

    def test_figure_7_call_count_comparison(self, stratum):
        """MAX calls per constant period; PERST far fewer (Fig. 7)."""
        db = stratum.db
        db.stats.reset()
        stratum.execute(FIG3_QUERY, strategy=SlicingStrategy.MAX)
        max_calls = db.obs.value("engine.routine.calls.max_get_author_name")
        db.stats.reset()
        stratum.execute(FIG3_QUERY, strategy=SlicingStrategy.PERST)
        perst_calls = db.obs.value("engine.routine.calls.ps_get_author_name")
        assert perst_calls < max_calls


class TestNonsequencedVariant:
    def test_any_time_matching(self, stratum):
        result = stratum.execute(
            "NONSEQUENCED VALIDTIME SELECT i.title"
            " FROM item i, item_author ia, author a"
            " WHERE i.id = ia.item_id AND a.author_id = ia.author_id"
            " AND a.first_name = 'Benjamin'"
        )
        # 'Benjamin' at any time, items at (possibly different) any time
        assert sorted(set(r[0] for r in result.rows)) == ["Book One", "Book Two"]
