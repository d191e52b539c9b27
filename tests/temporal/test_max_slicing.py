"""Maximally-fragmented slicing tests (paper §V, Figures 9 and 10)."""

import pytest

from repro.sqlengine.parser import parse_statement
from repro.sqlengine.values import Date
from repro.temporal import SlicingStrategy
from repro.temporal.analysis import temporal_routines
from repro.temporal.max_slicing import transform_query_max, transform_routine_max
from repro.temporal.period import Period

from tests.conftest import GET_AUTHOR_NAME, make_bookstore
from tests.counters import routine_calls, routine_reuses

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


class TestTransformText:
    def test_function_clone_matches_figure_10(self, stratum):
        rename = {"get_author_name": "max_get_author_name"}
        clone = transform_routine_max(
            stratum.db.catalog.get_routine("get_author_name").definition,
            stratum.registry,
            rename,
        )
        sql = clone.to_sql()
        assert "CREATE FUNCTION max_get_author_name" in sql
        assert "begin_time_in DATE" in sql
        assert "author.begin_time <= begin_time_in" in sql
        assert "begin_time_in < author.end_time" in sql

    def test_query_matches_figure_9(self, stratum):
        stmt = parse_statement(SEQ_Q2)
        result = transform_query_max(
            stmt, stratum.db.catalog, stratum.registry, "cp"
        )
        sql = result.statement.to_sql()
        assert "cp.begin_time AS begin_time" in sql
        assert "cp.end_time AS end_time" in sql
        assert "max_get_author_name(ia.author_id, cp.begin_time)" in sql
        assert "i.begin_time <= cp.begin_time" in sql
        assert "ia.begin_time <= cp.begin_time" in sql

    def test_rename_map_only_temporal_routines(self, stratum):
        stratum.register_routine(
            "CREATE FUNCTION pure (x INTEGER) RETURNS INTEGER LANGUAGE SQL"
            " BEGIN RETURN x; END"
        )
        stmt = parse_statement(
            "VALIDTIME SELECT pure(1), get_author_name('a1') FROM item"
        )
        catalog = stratum.db.catalog
        assert temporal_routines(stmt, catalog, stratum.registry) == ["get_author_name"]
        result = transform_query_max(stmt, catalog, stratum.registry, "cp")
        assert [r.name for r in result.routines] == ["max_get_author_name"]

    def test_nested_call_passes_point_along(self, stratum):
        stratum.register_routine(
            "CREATE FUNCTION shout_name (aid CHAR(10)) RETURNS CHAR(50)"
            " READS SQL DATA LANGUAGE SQL BEGIN"
            " RETURN UPPER(get_author_name(aid)); END"
        )
        stmt = parse_statement("VALIDTIME SELECT shout_name('a1') FROM item")
        result = transform_query_max(stmt, stratum.db.catalog, stratum.registry, "cp")
        outer = next(r for r in result.routines if r.name == "max_shout_name")
        assert "max_get_author_name(aid, begin_time_in)" in outer.to_sql()

    def test_cp_alias_avoids_collision(self, stratum):
        stmt = parse_statement("VALIDTIME SELECT 1 FROM item cp")
        result = transform_query_max(stmt, stratum.db.catalog, stratum.registry, "taupsm_cp")
        sql = result.statement.to_sql()
        # the cp table gets an alias of its own, and the point is read
        # from it, not from the user's ``cp``
        assert "FROM taupsm_cp cp2, item cp " in sql
        assert "cp.begin_time <= cp2.begin_time AND cp2.begin_time < cp.end_time" in sql

    def test_temporal_tables_collected(self, stratum):
        stmt = parse_statement(SEQ_Q2)
        result = transform_query_max(stmt, stratum.db.catalog, stratum.registry, "cp")
        assert result.cp_requirements == {"cp": ["author", "item", "item_author"]}


class TestExecution:
    def test_sequenced_result_history(self, stratum):
        result = stratum.execute(SEQ_Q2, strategy=SlicingStrategy.MAX)
        merged = result.coalesced()
        assert (("Book One",), Period.from_iso("2010-01-15", "2010-06-01")) in merged
        assert (("Book Two",), Period.from_iso("2010-03-01", "2010-06-01")) in merged
        assert len(merged) == 2  # nothing after Ben -> Benjamin

    def test_one_call_per_constant_period_per_row(self, stratum):
        """One *logical* invocation per (candidate row x constant
        period); the body runs once per distinct read window — the cell
        of the probed author's version bounds the period begins in."""
        db = stratum.db
        db.stats.reset()
        stratum.execute(SEQ_Q2, strategy=SlicingStrategy.MAX)
        run = routine_calls(db)["max_get_author_name"]
        reused = routine_reuses(db).get("max_get_author_name", 0)
        periods = [row[0].ordinal for row in db.catalog.get_table("taupsm_cp").rows]
        assert len(periods) >= 4

        def alive(row, point):
            return row[-2].ordinal <= point < row[-1].ordinal

        authors = db.catalog.get_table("author").rows
        items = db.catalog.get_table("item").rows
        links = db.catalog.get_table("item_author").rows
        logical, windows = 0, set()
        for point in periods:
            for link in links:
                if not alive(link, point):
                    continue
                for item in items:
                    if item[0] == link[0] and alive(item, point):
                        logical += 1
                        bounds = {
                            bound.ordinal for version in authors
                            if version[0] == link[1] for bound in version[-2:]
                        }
                        windows.add((
                            link[1],
                            max(b for b in bounds if b <= point),
                            min(b for b in bounds if b > point),
                        ))
        assert run + reused == logical >= len(periods)
        assert 0 < run == len(windows) < logical

    def test_default_context_spans_data(self, stratum):
        result = stratum.execute(
            "VALIDTIME SELECT first_name FROM author WHERE author_id = 'a1'",
            strategy=SlicingStrategy.MAX,
        )
        merged = result.coalesced()
        names = {values[0] for values, _ in merged}
        assert names == {"Ben", "Benjamin"}

    def test_context_clips_result(self, stratum):
        result = stratum.execute(
            "VALIDTIME [DATE '2010-02-01', DATE '2010-03-01']"
            " SELECT first_name FROM author WHERE author_id = 'a1'",
            strategy=SlicingStrategy.MAX,
        )
        for _, period in result.temporal_rows():
            assert period.begin >= Date.from_iso("2010-02-01").ordinal
            assert period.end <= Date.from_iso("2010-03-01").ordinal

    def test_sequenced_call_stamps_result_sets(self, stratum):
        stratum.register_routine(
            "CREATE PROCEDURE names () LANGUAGE SQL BEGIN"
            " SELECT first_name FROM author WHERE author_id = 'a1'; END"
        )
        results = stratum.execute(
            "VALIDTIME [DATE '2010-05-01', DATE '2010-07-01'] CALL names()",
            strategy=SlicingStrategy.MAX,
        )
        assert len(results) == 1
        merged = results[0].coalesced()
        assert (("Ben",), Period.from_iso("2010-05-01", "2010-06-01")) in merged
        assert (("Benjamin",), Period.from_iso("2010-06-01", "2010-07-01")) in merged

    def test_sequenced_union_query(self, stratum):
        result = stratum.execute(
            "VALIDTIME [DATE '2010-02-01', DATE '2010-03-01']"
            " SELECT first_name AS n FROM author WHERE author_id = 'a1'"
            " UNION SELECT last_name AS n FROM author WHERE author_id = 'a2'",
            strategy=SlicingStrategy.MAX,
        )
        names = {values[0] for values, _ in result.coalesced()}
        assert names == {"Ben", "Luxemburg"}

    def test_aggregate_query_under_max(self, stratum):
        result = stratum.execute(
            "VALIDTIME [DATE '2010-03-15', DATE '2010-03-16']"
            " SELECT COUNT(*) FROM item",
            strategy=SlicingStrategy.MAX,
        )
        assert result.coalesced() == [
            ((2,), Period.from_iso("2010-03-15", "2010-03-16"))
        ]
