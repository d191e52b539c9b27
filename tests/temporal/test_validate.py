"""Self-tests of the timeslice oracle (``tests/oracle``).

The oracle is only evidence if it can fail: a wrong row, a wrong stamp
or a duplicate must be reported with the granule where the snapshot
differs, and the reference must be the conventional statement on the
timeslice, not the engine's own transformation.
"""

from collections import Counter

import pytest

from repro.sqlengine.errors import CardinalityError
from repro.sqlengine.values import Date
from repro.temporal import SlicingStrategy, TemporalResult
from repro.temporal.errors import TemporalError
from repro.temporal.period import Period

from tests.conftest import GET_AUTHOR_NAME, make_bookstore
from tests.oracle import (
    Expected,
    ExpectedModification,
    bag_at,
    change_points,
    check,
    reference,
    stamped,
    timeslice,
)


@pytest.fixture
def stratum():
    s = make_bookstore()
    s.register_routine(GET_AUTHOR_NAME)
    return s


CONTEXT = Period.from_iso("2010-05-20", "2010-06-10")
QUERY = "SELECT first_name FROM author WHERE author_id = 'a1'"
SEQUENCED = "VALIDTIME [DATE '2010-05-20', DATE '2010-06-10'] " + QUERY
JUNE = Date.from_iso("2010-06-01").ordinal


def day(iso: str) -> int:
    return Date.from_iso(iso).ordinal


class TestReference:
    def test_reference_captures_transition(self, stratum):
        assert reference(stratum, QUERY, JUNE - 1) == Counter({("Ben",): 1})
        assert reference(stratum, QUERY, JUNE) == Counter({("Benjamin",): 1})

    def test_reference_restores_now(self, stratum):
        """The reference runs on a scratch copy: the stratum's clock, its
        tables and its routines are untouched."""
        before = stratum.db.now
        rows = {t.name: list(t.rows) for t in stratum.db.catalog.tables()}
        reference(stratum, "SELECT get_author_name('a1') FROM item", JUNE)
        assert stratum.db.now is before
        assert {t.name: list(t.rows) for t in stratum.db.catalog.tables()} == rows

    def test_sampling_skips_granules(self, stratum):
        """One comparison per elementary segment decides each granule in
        it: the reference is constant between two change points."""
        points = sorted(change_points(stratum))
        assert JUNE in points
        expected = Expected(stratum, SEQUENCED)
        assert expected.starts == [CONTEXT.begin, JUNE]
        for granule in range(CONTEXT.begin, CONTEXT.end):
            start = max(s for s in expected.starts if s <= granule)
            assert reference(stratum, QUERY, granule) == expected.answers[start]


class TestSampling:
    def test_sample_temporal_result_clips(self, stratum):
        result = TemporalResult(
            ["v", "begin_time", "end_time"],
            [["x", Date.from_iso("2010-01-01"), Date.from_iso("2010-12-01")]],
        )
        rows = stamped(result)
        for granule in (CONTEXT.begin, CONTEXT.end - 1):
            assert bag_at(rows, granule) == Counter({("x",): 1})
        assert bag_at(rows, day("2010-12-01")) == Counter()

    def test_row_outside_context_dropped(self, stratum):
        result = TemporalResult(
            ["v", "begin_time", "end_time"],
            [["x", Date.from_iso("2011-01-01"), Date.from_iso("2011-02-01")]],
        )
        rows = stamped(result)
        assert all(
            bag_at(rows, granule) == Counter()
            for granule in range(CONTEXT.begin, CONTEXT.end)
        )


class TestChecks:
    def test_commutativity_detects_agreement(self, stratum):
        assert check(stratum, SEQUENCED) == {SlicingStrategy.MAX: "agrees"}

    def test_commutativity_detects_disagreement(self, stratum):
        """Another statement's result is reported at the first granule."""
        wrong = stratum.execute(
            "VALIDTIME [DATE '2010-05-20', DATE '2010-06-10']"
            " SELECT last_name FROM author WHERE author_id = 'a1'"
        )
        with pytest.raises(AssertionError, match="at 2010-05-20: 1 row"):
            Expected(stratum, SEQUENCED).compare(wrong)

    def test_equivalence_check(self, stratum):
        assert check(stratum, SEQUENCED, list(SlicingStrategy)) == {
            strategy: "agrees" for strategy in SlicingStrategy
        }


class TestPlantedWrongResults:
    """A correct result, then one defect planted in it."""

    def planted(self, stratum, plant):
        result = stratum.execute(SEQUENCED, SlicingStrategy.MAX)
        Expected(stratum, SEQUENCED).compare(result)
        rows = [list(row) for row in result.rows]
        plant(rows)
        return TemporalResult(result.columns, rows)

    def test_an_end_moved_by_a_day_is_reported_at_that_day(self, stratum):
        def plant(rows):
            ben = next(row for row in rows if row[0] == "Ben")
            ben[-1] = Date(ben[-1].ordinal + 1)

        with pytest.raises(AssertionError, match="at 2010-06-01: 1 row"):
            Expected(stratum, SEQUENCED).compare(self.planted(stratum, plant))

    def test_a_duplicated_row_is_reported(self, stratum):
        def plant(rows):
            rows.append(list(rows[-1]))

        with pytest.raises(AssertionError, match=r"at 2010-06-01: .*\('Benjamin',\), 1\)"):
            Expected(stratum, SEQUENCED).compare(self.planted(stratum, plant))


class TestOutcomes:
    def test_a_reference_error_must_be_matched(self, stratum):
        """Two versions of a1 make the scalar subquery a cardinality
        error at every granule; so must the statement's error be."""
        stratum.db.execute(
            "INSERT INTO author VALUES"
            " ('a1', 'Bo', 'Okri', DATE '2010-05-01', DATE '2010-07-01')"
        )
        sql = (
            "VALIDTIME [DATE '2010-05-20', DATE '2010-06-10']"
            " SELECT get_author_name('a1') FROM item WHERE id = 'i1'"
        )
        assert isinstance(reference(stratum, sql, JUNE), CardinalityError)
        assert check(stratum, sql) == {SlicingStrategy.MAX: "agrees"}
        with pytest.raises(AssertionError, match="CardinalityError"):
            Expected(stratum, sql).compare(stratum.execute(SEQUENCED))

    def test_only_a_typed_refusal_passes(self, stratum):
        with pytest.raises(AssertionError, match="TemporalError"):
            Expected(stratum, SEQUENCED).compare(TemporalError("no"))

    def test_timeslice_drops_periods_and_dead_rows(self, stratum):
        copy = timeslice(stratum, JUNE - 1)
        author = copy.table("author")
        assert [c.name for c in author.columns] == [
            "author_id", "first_name", "last_name",
        ]
        assert sorted(map(tuple, author.rows)) == [
            ("a1", "Ben", "Okri"), ("a2", "Rosa", "Luxemburg"),
        ]


class TestModifications:
    DELETE = "DELETE FROM author WHERE author_id = 'a1'"

    def test_each_strategy_modifies_the_same_database(self, stratum):
        """Every strategy's DELETE is held to the slices, then rolled
        back: the database is left as it was."""
        rows = {t.name: list(t.rows) for t in stratum.db.catalog.tables()}
        sql = "VALIDTIME [DATE '2010-05-20', DATE '2010-06-10'] " + self.DELETE
        assert check(stratum, sql, list(SlicingStrategy)) == {
            strategy: "agrees" for strategy in SlicingStrategy
        }
        assert {t.name: list(t.rows) for t in stratum.db.catalog.tables()} == rows

    def test_a_wrong_modification_is_reported_outside_the_context(self, stratum):
        """A DELETE over a longer context empties a slice the statement
        leaves alone."""
        expected = ExpectedModification(
            stratum, "VALIDTIME [DATE '2010-05-20', DATE '2010-06-10'] " + self.DELETE
        )
        outcome = stratum.execute(
            "VALIDTIME [DATE '2010-05-20', DATE '2010-07-01'] " + self.DELETE
        )
        with pytest.raises(
            AssertionError, match=r"author at 2010-06-10 \(outside the context\)"
        ):
            expected.compare(outcome)
