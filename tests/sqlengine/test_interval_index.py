"""Interval index: structure correctness, version invalidation, and the
executor's predicate-shape probe (pruning must never change results: the
probed query equals ``tests/reference_executor.py``'s full nested loop)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine import Database
from repro.sqlengine.errors import CatalogError
from repro.sqlengine.interval_index import IntervalIndex
from repro.sqlengine.storage import Column, Table
from repro.sqlengine.types import SqlType
from repro.sqlengine.values import Date, Null
from tests.reference_executor import installed


def make_rows(rng, count, span=400, base=730000):
    """Random half-open [begin, end) rows plus a few NULL-bounded ones."""
    rows = []
    for _ in range(count):
        begin = base + rng.randrange(span)
        end = begin + 1 + rng.randrange(60)
        rows.append([Date(begin), Date(end)])
    rows.append([Null, Date(base + 10)])
    rows.append([Date(base + 20), Null])
    rows.append([Null, Null])
    rng.shuffle(rows)
    return rows


def brute_positions(rows, begin_max, end_min, begin_min=None):
    """The probe as SQL reads it: an absent bound tests nothing, and a
    NULL row bound fails every test it is in."""
    def holds(value, test):
        return isinstance(value, Date) and test(value.ordinal)

    return [
        position
        for position, (begin, end) in enumerate(rows)
        if (begin_min is None or holds(begin, lambda b: b >= begin_min))
        and (begin_max is None or holds(begin, lambda b: b <= begin_max))
        and (end_min is None or holds(end, lambda e: e >= end_min))
    ]


BOUND = st.one_of(st.none(), st.integers(95, 115))


@st.composite
def bounded_rows(draw):
    """Rows with NULL begins, NULL ends, empty and inverted periods."""
    bound = st.one_of(st.just(Null), st.integers(98, 112).map(Date))
    return draw(st.lists(st.lists(bound, min_size=2, max_size=2), max_size=25))


class TestIntervalIndex:
    def test_search_matches_brute_force(self):
        rng = random.Random(7)
        rows = make_rows(rng, 200)
        index = IntervalIndex(rows, 0, 1)
        for _ in range(300):
            begin_max = 730000 + rng.randrange(500) - 50
            end_min = 730000 + rng.randrange(500) - 50
            assert index.search_positions(begin_max, end_min) == brute_positions(
                rows, begin_max, end_min
            )

    @settings(max_examples=300, deadline=None)
    @given(rows=bounded_rows(), begin_min=BOUND, begin_max=BOUND, end_min=BOUND)
    def test_every_bound_combination_matches_brute_force(
        self, rows, begin_min, begin_max, end_min
    ):
        """Each of ``begin_min`` / ``begin_max`` / ``end_min`` present or
        absent, stabs (served by the stab structure) included."""
        index = IntervalIndex(rows, 0, 1)
        assert index.search_positions(begin_max, end_min, begin_min) == brute_positions(
            rows, begin_max, end_min, begin_min
        )
        if begin_max is not None:
            assert index.search_positions(begin_max, begin_max + 1) == brute_positions(
                rows, begin_max, begin_max + 1
            )

    def test_results_in_table_position_order(self):
        rng = random.Random(11)
        rows = make_rows(rng, 120)
        index = IntervalIndex(rows, 0, 1)
        for probe in ((730300, 730100, None), (730300, None, 730100), (None, 730200, None)):
            positions = index.search_positions(*probe)
            assert positions and positions == sorted(positions)

    def test_stab(self):
        rows = [
            [Date(100), Date(200)],
            [Date(150), Date(160)],
            [Date(200), Date(300)],
            [Null, Date(500)],
        ]
        index = IntervalIndex(rows, 0, 1)
        # half-open semantics: alive at p iff begin <= p < end
        assert index.search_positions(150, 151) == [0, 1]
        assert index.search_positions(160, 161) == [0]
        assert index.search_positions(199, 200) == [0]
        assert index.search_positions(200, 201) == [2]
        assert index.search_positions(99, 100) == []

    def test_stab_positions_from_the_stab_structure(self):
        """A stab probe is answered from the per-segment lists — rows
        alive at every point, in table order, as the full pass finds
        them — while the segments stay within the size guard."""
        rng = random.Random(13)
        rows = make_rows(rng, 200)
        index = IntervalIndex(rows, 0, 1)
        assert index.serves_stabs()
        positions = range(len(rows))
        for point in range(730000 - 5, 730000 + 470):
            alive = [
                p for p in positions
                if isinstance(rows[p][0], Date) and isinstance(rows[p][1], Date)
                and rows[p][0].ordinal <= point < rows[p][1].ordinal
            ]
            assert index.search_positions(point, point + 1) == alive

    def test_a_wide_history_keeps_the_full_pass(self):
        """Row ``i`` over ``[i, forever)``: row ``i`` lives in ``n - i``
        segments, n²/2 in all, past the size guard — the structure is not
        built and a stab is one pass over the ordinals, with the same
        answer."""
        n = 100
        rows = [[Date(1000 + i), Date(3652059)] for i in range(n)]
        index = IntervalIndex(rows, 0, 1)
        assert not index.serves_stabs()
        assert index.search_positions(1000 + 49, 1000 + 50) == list(range(50))

    def test_overlaps(self):
        """``[b, e)`` overlaps a row iff ``row.begin <= e - 1 AND
        row.end >= b + 1``."""
        rows = [
            [Date(100), Date(200)],
            [Date(200), Date(300)],
            [Date(300), Date(400)],
        ]
        index = IntervalIndex(rows, 0, 1)

        def overlaps(begin, end):
            return index.search_positions(end - 1, begin + 1)

        assert overlaps(150, 250) == [0, 1]
        assert overlaps(200, 300) == [1]
        assert overlaps(400, 500) == []
        assert overlaps(1, 1000) == [0, 1, 2]

    def test_empty_table(self):
        index = IntervalIndex([], 0, 1)
        assert index.search_positions(10**6, 0) == []
        assert index.search_positions(10**6, None, 0) == []
        assert index.search_positions(5, 6) == []
        assert index.changes.points == frozenset()

    def test_all_null_bounds(self):
        index = IntervalIndex([[Null, Null], [Null, Date(5)]], 0, 1)
        assert index.search_positions(10**6, 0) == []
        assert index.search_positions(10**6, None, 0) == []
        assert index.changes.points == {5}

    def test_null_bounded_rows_fail_their_bounds(self):
        """A NULL bound is NaN in the ordinal lists: it fails every
        comparison, as SQL's NULL does — an all-covering overlap probe
        returns only the fully Date-bounded rows, and a begin range with
        no end bound keeps a row whose end is NULL (SEQ-SET's alignment
        and the executor's probe both rely on this)."""
        rows = [
            [Date(100), Date(200)],
            [Null, Date(150)],
            [Date(120), Null],
            [Null, Null],
            [Date(300), Date(400)],
        ]
        index = IntervalIndex(rows, 0, 1)
        assert len(index.begins) == len(index.ends) == 5
        assert index.search_positions(10**6, 0) == [0, 4]
        assert index.search_positions(10**6, None, 0) == [0, 2, 4]
        assert index.search_positions(None, 0) == [0, 1, 4]
        assert index.changes.points == {100, 120, 150, 200, 300, 400}


def interval_table(name="t"):
    table = Table(
        name,
        [
            Column("id", SqlType("INTEGER")),
            Column("begin_time", SqlType("DATE")),
            Column("end_time", SqlType("DATE")),
        ],
    )
    table.declare_interval("begin_time", "end_time")
    return table


class TestTableIntegration:
    def test_declare_interval_validates_columns(self):
        table = interval_table()
        with pytest.raises(CatalogError):
            table.declare_interval("begin_time", "no_such_column")

    def test_declare_interval_idempotent(self):
        table = interval_table()
        table.declare_interval("BEGIN_TIME", "END_TIME")
        assert table.interval_pairs == [("begin_time", "end_time")]

    def test_index_cached_until_mutation(self):
        table = interval_table()
        table.insert([1, Date(100), Date(200)])
        first = table.interval_index(1, 2)
        assert table.interval_index(1, 2) is first
        hits = first.search_positions(160, 161)
        table.insert([2, Date(150), Date(250)])
        # the index follows the insert; hits a reader already holds do not
        current = table.interval_index(1, 2)
        assert current is first
        assert current.search_positions(160, 161) == [0, 1]
        assert (current.begins, current.ends) == ([100, 150], [200, 250])
        assert hits == [0]

    def test_change_points_cached_and_one_sided(self):
        table = interval_table()
        table.insert([1, Date(100), Date(200)])
        table.rows.append([2, Date(300), Null])  # raw: NULL end survives
        table.version += 1
        points = table.change_points(1, 2)
        assert points == {100, 200, 300}
        assert table.change_points(1, 2) is points
        table.insert([3, Date(400), Date(500)])
        assert table.change_points(1, 2) == {100, 200, 300, 400, 500}


class TestExecutorProbe:
    @pytest.fixture
    def db(self):
        db = Database()
        db.execute(
            "CREATE TABLE history (id INTEGER, amount FLOAT,"
            " begin_time DATE, end_time DATE)"
        )
        rng = random.Random(3)
        rows = []
        for i in range(80):
            begin = 733000 + rng.randrange(300)
            end = begin + 1 + rng.randrange(40)
            rows.append((i, float(i), Date(begin), Date(end)))
        for row in rows:
            db.execute(
                "INSERT INTO history VALUES"
                f" ({row[0]}, {row[1]}, DATE '{row[2].to_iso()}', DATE '{row[3].to_iso()}')"
            )
        db.catalog.get_table("history").declare_interval("begin_time", "end_time")
        return db

    @staticmethod
    def reference(db, sql):
        """``sql``'s rows from the reference nested loop: no index, no
        plan, every row of every table read."""
        with installed(db):
            return db.query(sql).rows

    STAB = (
        "SELECT h.id FROM history h"
        " WHERE h.begin_time <= DATE '{p}' AND DATE '{p}' < h.end_time"
    )

    def test_probe_prunes_and_preserves_results(self, db):
        point = Date(733150).to_iso()
        scanned_before = db.obs.value("engine.rows_scanned")
        indexed = db.query(self.STAB.format(p=point))
        scanned_indexed = db.obs.value("engine.rows_scanned") - scanned_before
        assert db.obs.value("engine.interval_index_hits") == 1
        assert db.obs.value("engine.interval_rows_pruned") > 0
        # row-for-row, same order
        assert indexed.rows == self.reference(db, self.STAB.format(p=point))
        assert scanned_indexed < len(db.catalog.get_table("history").rows)

    def test_probe_row_order_matches_linear(self, db):
        query = (
            "SELECT h.id FROM history h"
            " WHERE h.begin_time < DATE '2008-06-01'"
            " AND DATE '2008-01-01' <= h.end_time"
        )
        assert db.query(query).rows == self.reference(db, query)

    def test_hash_probe_takes_precedence(self, db):
        db.query(
            "SELECT h.amount FROM history h WHERE h.id = 7"
            " AND h.begin_time <= DATE '2009-01-01'"
            " AND DATE '2009-01-01' < h.end_time"
        )
        assert db.obs.value("engine.interval_index_hits") == 0

    def test_null_bound_yields_empty_scan(self, db):
        """A bound evaluating to NULL can match no row: empty candidates.
        A stab at an earlier table's column is aligned, and a NULL there
        is aligned at nothing: no search at all."""
        db.execute("CREATE TABLE params (p DATE)")
        db.execute("INSERT INTO params VALUES (NULL)")
        result = db.query(
            "SELECT h.id FROM params x, history h"
            " WHERE h.begin_time <= x.p AND x.p < h.end_time"
        )
        assert result.rows == []
        assert db.obs.value("engine.join.aligned") == 1
        assert db.obs.value("engine.interval_index_hits") == 0
        result = db.query(
            "SELECT h.id FROM history h WHERE h.begin_time <= NULL AND NULL < h.end_time"
        )
        assert result.rows == []
        assert db.obs.value("engine.interval_index_hits") == 1
        assert db.obs.value("engine.interval_rows_pruned") == 80

    def test_probe_survives_rollback_antialiasing(self, db):
        """A rolled-back mutation moves the version counter forward;
        indexes built inside the window describe its rows and must not be
        probed after it."""
        table = db.catalog.get_table("history")
        point = Date(733150).to_iso()
        db.execute("BEGIN")
        db.execute(
            "INSERT INTO history VALUES"
            " (500, 1.0, DATE '2008-03-01', DATE '2008-12-01')"
        )
        with_insert = db.query(self.STAB.format(p=point))  # builds index
        db.execute("ROLLBACK")
        after = db.query(self.STAB.format(p=point))
        assert after.rows == self.reference(db, self.STAB.format(p=point))
        assert [500] in with_insert.rows
        assert [500] not in after.rows
