"""The constant-period materialization cache: a sequenced statement may
skip rebuilding the cp temp table when nothing it depends on changed."""

import pytest

from repro.sqlengine.values import Date
from repro.temporal.constant_periods import materialize_constant_periods
from repro.temporal.period import Period
from repro.temporal.stratum import MAX_CP_TABLE, SlicingStrategy

from tests.conftest import make_bookstore

FULL = Period.from_iso("2010-01-01", "2011-01-01")
TABLES = ["author", "item", "item_author"]


@pytest.fixture
def stratum():
    return make_bookstore()


def materialize(stratum, context=FULL, cp_name=MAX_CP_TABLE):
    return materialize_constant_periods(
        stratum.db, TABLES, stratum.registry, context, cp_name
    )


def cp_rows(stratum, cp_name=MAX_CP_TABLE):
    return [list(row) for row in stratum.db.catalog.get_table(cp_name).rows]


class TestSkipRebuild:
    def test_second_materialization_hits(self, stratum):
        db = stratum.db
        count = materialize(stratum)
        rows = cp_rows(stratum)
        version = db.catalog.get_table(MAX_CP_TABLE).version
        assert materialize(stratum) == count
        assert db.obs.value("stratum.cp.cache_hits") == 1
        # untouched: same rows, no new version
        assert cp_rows(stratum) == rows
        assert db.catalog.get_table(MAX_CP_TABLE).version == version

    def test_slice_counter_still_advances_on_hit(self, stratum):
        db = stratum.db
        count = materialize(stratum)
        before = db.obs.value("stratum.slices")
        materialize(stratum)
        assert db.obs.value("stratum.slices") == before + count

    def test_rows_written_only_on_rebuild(self, stratum):
        db = stratum.db
        materialize(stratum)
        written = db.obs.value("engine.rows_written.constant_periods")
        materialize(stratum)
        assert db.obs.value("engine.rows_written.constant_periods") == written

    def test_source_mutation_invalidates(self, stratum):
        db = stratum.db
        materialize(stratum)
        db.execute(
            "UPDATE item SET end_time = DATE '2010-08-15'"
            " WHERE id = 'i2' AND end_time = DATE '2010-09-01'"
        )
        count = materialize(stratum)
        assert db.obs.value("stratum.cp.cache_hits") == 0
        assert Date.from_iso("2010-08-15") in {row[0] for row in cp_rows(stratum)}
        assert count == len(cp_rows(stratum))

    def test_context_change_invalidates(self, stratum):
        db = stratum.db
        materialize(stratum)
        narrow = Period.from_iso("2010-03-01", "2010-06-01")
        count = materialize(stratum, context=narrow)
        assert db.obs.value("stratum.cp.cache_hits") == 0
        rows = cp_rows(stratum)
        assert len(rows) == count
        assert rows[0][0] == Date.from_iso("2010-03-01")
        assert rows[-1][1] == Date.from_iso("2010-06-01")

    def test_distinct_cp_tables_cached_independently(self, stratum):
        db = stratum.db
        materialize(stratum)
        materialize(stratum, cp_name="taupsm_cp_other")
        assert db.obs.value("stratum.cp.cache_hits") == 0
        materialize(stratum)
        materialize(stratum, cp_name="taupsm_cp_other")
        assert db.obs.value("stratum.cp.cache_hits") == 2

    def test_rollback_clears_the_cache(self, stratum):
        """A rollback moves the version of every table it touched forward,
        so the materialization cached before it is rebuilt."""
        db = stratum.db
        materialize(stratum)
        db.execute("BEGIN")
        db.execute(
            "INSERT INTO item VALUES"
            " ('i9', 'Ghost', 1.0, DATE '2010-04-18', DATE '2010-05-15')"
        )
        db.execute("ROLLBACK")
        # item's version moved on: rebuild
        count = materialize(stratum)
        assert db.obs.value("stratum.cp.cache_hits") == 0
        assert count == len(cp_rows(stratum))
        ghost = Date.from_iso("2010-04-18")
        assert ghost not in {row[0] for row in cp_rows(stratum)}


class TestSequencedExecutionUsesCache:
    def test_repeated_max_statement_hits(self, stratum):
        db = stratum.db
        query = (
            "VALIDTIME [DATE '2010-02-01', DATE '2010-07-01']"
            " SELECT first_name FROM author WHERE author_id = 'a1'"
        )
        first = stratum.execute(query, strategy=SlicingStrategy.MAX)
        second = stratum.execute(query, strategy=SlicingStrategy.MAX)
        assert db.obs.value("stratum.cp.cache_hits") >= 1
        assert second.coalesced() == first.coalesced()

    def test_write_between_statements_misses(self, stratum):
        db = stratum.db
        query = (
            "VALIDTIME [DATE '2010-02-01', DATE '2010-07-01']"
            " SELECT first_name FROM author WHERE author_id = 'a1'"
        )
        stratum.execute(query, strategy=SlicingStrategy.MAX)
        stratum.execute(
            "VALIDTIME [DATE '2010-03-01', DATE '2010-04-01']"
            " UPDATE author SET first_name = 'Benny' WHERE author_id = 'a1'"
        )
        result = stratum.execute(query, strategy=SlicingStrategy.MAX)
        assert db.obs.value("stratum.cp.cache_hits") == 0
        assert {v for (v,), _ in result.coalesced()} >= {"Benny"}
