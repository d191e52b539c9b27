"""Sequenced modification tests: VALIDTIME INSERT / UPDATE / DELETE."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine.values import Date
from repro.temporal import SlicingStrategy, TemporalStratum
from repro.temporal.errors import FeatureNotSupportedError, TemporalError
from repro.temporal.period import Period, coalesce

from tests.conftest import make_bookstore
from tests.oracle import check


@pytest.fixture
def stratum():
    return make_bookstore()


def history(stratum, item_id):
    rows = stratum.execute(
        "NONSEQUENCED VALIDTIME SELECT price, begin_time, end_time"
        f" FROM item WHERE id = '{item_id}' ORDER BY begin_time"
    ).rows
    return [
        (row[0], row[1].to_iso(), row[2].to_iso()) for row in rows
    ]


class TestSequencedDelete:
    def test_middle_cut_splits_period(self, stratum):
        # Book One valid [2010-01-15, forever); remove March
        count = stratum.execute(
            "VALIDTIME [DATE '2010-03-01', DATE '2010-04-01']"
            " DELETE FROM item WHERE id = 'i1'"
        )
        assert count == 1
        assert history(stratum, "i1") == [
            (25.0, "2010-01-15", "2010-03-01"),
            (25.0, "2010-04-01", "9999-12-31"),
        ]

    def test_full_cover_removes_row(self, stratum):
        stratum.execute(
            "VALIDTIME [DATE '2010-01-01', DATE '9999-12-31']"
            " DELETE FROM item WHERE id = 'i2'"
        )
        assert history(stratum, "i2") == []

    def test_left_overlap_trims(self, stratum):
        stratum.execute(
            "VALIDTIME [DATE '2010-01-01', DATE '2010-02-01']"
            " DELETE FROM item WHERE id = 'i1'"
        )
        assert history(stratum, "i1") == [(25.0, "2010-02-01", "9999-12-31")]

    def test_non_overlapping_context_no_effect(self, stratum):
        count = stratum.execute(
            "VALIDTIME [DATE '2009-01-01', DATE '2009-06-01']"
            " DELETE FROM item WHERE id = 'i1'"
        )
        assert count == 0
        assert len(history(stratum, "i1")) == 1

    def test_predicate_respected(self, stratum):
        stratum.execute(
            "VALIDTIME [DATE '2010-01-01', DATE '9999-12-31']"
            " DELETE FROM item WHERE price > 50.0"
        )
        assert history(stratum, "i1") != []  # 25.0 kept
        assert history(stratum, "i2") == []  # 80.0 removed

    def test_requires_temporal_table(self, stratum):
        stratum.db.execute("CREATE TABLE plain (x INTEGER)")
        with pytest.raises(TemporalError):
            stratum.execute(
                "VALIDTIME [DATE '2010-01-01', DATE '2011-01-01']"
                " DELETE FROM plain"
            )


class TestSequencedUpdate:
    def test_middle_update_splits_into_three(self, stratum):
        stratum.execute(
            "VALIDTIME [DATE '2010-03-01', DATE '2010-04-01']"
            " UPDATE item SET price = 99.0 WHERE id = 'i1'"
        )
        assert history(stratum, "i1") == [
            (25.0, "2010-01-15", "2010-03-01"),
            (99.0, "2010-03-01", "2010-04-01"),
            (25.0, "2010-04-01", "9999-12-31"),
        ]

    def test_update_whole_period(self, stratum):
        stratum.execute(
            "VALIDTIME [DATE '2010-01-01', DATE '9999-12-31']"
            " UPDATE item SET price = 1.0 WHERE id = 'i1'"
        )
        assert history(stratum, "i1") == [(1.0, "2010-01-15", "9999-12-31")]

    def test_assignment_sees_old_values(self, stratum):
        stratum.execute(
            "VALIDTIME [DATE '2010-03-01', DATE '2010-04-01']"
            " UPDATE item SET price = price * 2.0 WHERE id = 'i1'"
        )
        assert (50.0, "2010-03-01", "2010-04-01") in history(stratum, "i1")

    def test_timestamp_assignment_rejected(self, stratum):
        with pytest.raises(TemporalError):
            stratum.execute(
                "VALIDTIME [DATE '2010-01-01', DATE '2011-01-01']"
                " UPDATE item SET begin_time = DATE '2000-01-01'"
            )

    def test_snapshot_after_update(self, stratum):
        stratum.execute(
            "VALIDTIME [DATE '2010-03-01', DATE '2010-04-01']"
            " UPDATE item SET price = 99.0 WHERE id = 'i1'"
        )
        stratum.db.now = Date.from_ymd(2010, 3, 15)
        assert stratum.execute(
            "SELECT price FROM item WHERE id = 'i1'"
        ).scalar() == 99.0
        stratum.db.now = Date.from_ymd(2010, 5, 1)
        assert stratum.execute(
            "SELECT price FROM item WHERE id = 'i1'"
        ).scalar() == 25.0


class TestSequencedInsert:
    def test_insert_stamped_with_context(self, stratum):
        stratum.execute(
            "VALIDTIME [DATE '2010-02-01', DATE '2010-05-01']"
            " INSERT INTO item (id, title, price) VALUES ('i9', 'Pop-up', 5.0)"
        )
        assert history(stratum, "i9") == [(5.0, "2010-02-01", "2010-05-01")]

    def test_insert_select_form(self, stratum):
        stratum.db.execute("CREATE TABLE feed (title CHAR(100), price FLOAT)")
        stratum.db.execute("INSERT INTO feed VALUES ('Nine', 25.0)")
        stratum.execute(
            "VALIDTIME [DATE '2010-02-01', DATE '2010-03-01']"
            " INSERT INTO item (id, title, price)"
            " SELECT 'i9', title, price FROM feed"
        )
        assert history(stratum, "i9") == [(25.0, "2010-02-01", "2010-03-01")]
        # a select from a valid-time table would read each version at no
        # single point of the context: refused
        with pytest.raises(FeatureNotSupportedError):
            stratum.execute(
                "VALIDTIME [DATE '2010-02-01', DATE '2010-03-01']"
                " INSERT INTO item (id, title, price)"
                " SELECT 'i8', title, price FROM item WHERE id = 'i1'"
            )
        assert history(stratum, "i8") == []

    def test_explicit_timestamps_rejected(self, stratum):
        with pytest.raises(TemporalError):
            stratum.execute(
                "VALIDTIME [DATE '2010-02-01', DATE '2010-05-01']"
                " INSERT INTO item (id, title, price, begin_time)"
                " VALUES ('i9', 'X', 1.0, DATE '2010-01-01')"
            )

    def test_transaction_time_modification_rejected(self):
        s = TemporalStratum()
        s.db.execute("CREATE TABLE t (a INTEGER)")
        s.execute("ALTER TABLE t ADD TRANSACTIONTIME")
        with pytest.raises(TemporalError):
            s.execute(
                "TRANSACTIONTIME [DATE '2010-01-01', DATE '2011-01-01']"
                " DELETE FROM t"
            )


class TestSequencedModificationProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        row_begin=st.integers(min_value=0, max_value=50),
        row_len=st.integers(min_value=1, max_value=50),
        cut_begin=st.integers(min_value=0, max_value=50),
        cut_len=st.integers(min_value=1, max_value=50),
    )
    def test_delete_removes_exactly_the_cut(
        self, row_begin, row_len, cut_begin, cut_len
    ):
        base = Date.from_ymd(2010, 1, 1).ordinal
        stratum = TemporalStratum()
        stratum.create_temporal_table(
            "CREATE TABLE h (v INTEGER, begin_time DATE, end_time DATE)"
        )
        row_period = Period(base + row_begin, base + row_begin + row_len)
        cut = Period(base + cut_begin, base + cut_begin + cut_len)
        stratum.db.insert_rows(
            "h", [[1, Date(row_period.begin), Date(row_period.end)]]
        )
        sql = (
            f"VALIDTIME [DATE '{Date(cut.begin).to_iso()}',"
            f" DATE '{Date(cut.end).to_iso()}'] DELETE FROM h"
        )
        # every slice in the cut is emptied, every other one unchanged
        assert check(stratum, sql) == {SlicingStrategy.MAX: "agrees"}
        stratum.execute(sql)
        remaining = [
            Period(r[1].ordinal, r[2].ordinal)
            for r in stratum.db.catalog.get_table("h").rows
        ]
        # pieces never overlap
        merged = coalesce([((1,), p) for p in remaining])
        assert len(merged) == len(remaining)
