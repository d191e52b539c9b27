"""Engine edge cases: composition, nesting, coercion boundaries."""

import math

import pytest

from repro.sqlengine import Database
from repro.sqlengine.errors import CatalogError, RoutineError, SqlError
from repro.sqlengine.values import Date, Null
from repro.temporal import SlicingStrategy
from tests.counters import routine_calls
from tests.reference_executor import installed
from tests.temporal.test_seqset_join import per_period, raw


@pytest.fixture
def db():
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b CHAR(10))")
    db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
    return db


class TestViewComposition:
    def test_view_over_view(self, db):
        db.execute("CREATE VIEW v1 AS (SELECT a FROM t WHERE a > 1)")
        db.execute("CREATE VIEW v2 AS (SELECT a FROM v1 WHERE a < 3)")
        assert db.query("SELECT a FROM v2").rows == [[2]]

    def test_view_joined_with_table(self, db):
        db.execute("CREATE VIEW v AS (SELECT a AS k FROM t)")
        result = db.query("SELECT t.b FROM t, v WHERE t.a = v.k ORDER BY t.b")
        assert len(result) == 3

    def test_view_inside_routine(self, db):
        db.execute("CREATE VIEW v AS (SELECT MAX(a) AS m FROM t)")
        db.execute(
            "CREATE FUNCTION peak () RETURNS INTEGER READS SQL DATA"
            " LANGUAGE SQL BEGIN RETURN (SELECT m FROM v); END"
        )
        assert db.query("SELECT peak()").scalar() == 3


class TestNestedTableFunctions:
    def test_table_function_composed_with_scalar_function(self, db):
        db.execute(
            "CREATE FUNCTION double_it (x INTEGER) RETURNS INTEGER"
            " LANGUAGE SQL BEGIN RETURN x * 2; END"
        )
        db.execute("""
        CREATE FUNCTION doubled () RETURNS ROW(n INTEGER) ARRAY
        READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE res ROW(n INTEGER) ARRAY;
          INSERT INTO TABLE res (SELECT double_it(a) FROM t);
          RETURN res;
        END
        """)
        result = db.query("SELECT f.n FROM TABLE(doubled()) AS f ORDER BY f.n")
        assert [r[0] for r in result.rows] == [2, 4, 6]

    def test_two_table_functions_joined(self, db):
        db.execute("""
        CREATE FUNCTION small () RETURNS ROW(n INTEGER) ARRAY
        READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE res ROW(n INTEGER) ARRAY;
          INSERT INTO TABLE res (SELECT a FROM t WHERE a < 3);
          RETURN res;
        END
        """)
        result = db.query(
            "SELECT x.n, y.n FROM TABLE(small()) AS x, TABLE(small()) AS y"
            " WHERE x.n < y.n"
        )
        assert result.rows == [[1, 2]]


class TestScoping:
    def test_parameter_shadowed_by_column(self, db):
        # a column named like the parameter wins inside queries
        db.execute(
            "CREATE FUNCTION probe (a INTEGER) RETURNS INTEGER READS SQL DATA"
            " LANGUAGE SQL BEGIN"
            " RETURN (SELECT COUNT(*) FROM t WHERE a = a); END"
        )
        # t.a = t.a is true for all 3 rows (column shadows parameter)
        assert db.query("SELECT probe(1)").scalar() == 3

    def test_qualified_column_beats_variable(self, db):
        db.execute(
            "CREATE FUNCTION probe (x INTEGER) RETURNS INTEGER READS SQL DATA"
            " LANGUAGE SQL BEGIN"
            " RETURN (SELECT COUNT(*) FROM t WHERE t.a > x); END"
        )
        assert db.query("SELECT probe(1)").scalar() == 2

    def test_routine_frames_are_isolated(self, db):
        db.execute(
            "CREATE FUNCTION inner_fn () RETURNS INTEGER LANGUAGE SQL BEGIN"
            " DECLARE v INTEGER DEFAULT 5; RETURN v; END"
        )
        db.execute(
            "CREATE FUNCTION outer_fn () RETURNS INTEGER LANGUAGE SQL BEGIN"
            " DECLARE v INTEGER DEFAULT 1;"
            " RETURN v + inner_fn(); END"
        )
        assert db.query("SELECT outer_fn()").scalar() == 6

    def test_unknown_variable_raises(self, db):
        db.execute(
            "CREATE FUNCTION bad () RETURNS INTEGER LANGUAGE SQL BEGIN"
            " SET ghost = 1; RETURN 0; END"
        )
        with pytest.raises(RoutineError):
            db.query("SELECT bad()")


class TestCoercionBoundaries:
    def test_update_coerces_to_column_type(self, db):
        db.execute("UPDATE t SET a = '42' WHERE b = 'x'")
        assert db.query("SELECT a FROM t WHERE b = 'x'").scalar() == 42

    def test_insert_select_coerces(self, db):
        db.execute("CREATE TABLE u (a CHAR(5))")
        db.execute("INSERT INTO u SELECT a FROM t WHERE a = 1")
        assert db.query("SELECT a FROM u").scalar() == "1"

    def test_fetch_coerces_to_variable_type(self, db):
        db.execute("""
        CREATE FUNCTION first_b () RETURNS CHAR(10) READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE s CHAR(10);
          DECLARE done INTEGER DEFAULT 0;
          DECLARE c CURSOR FOR SELECT a FROM t ORDER BY a;
          DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
          OPEN c;
          FETCH c INTO s;
          CLOSE c;
          RETURN s;
        END
        """)
        assert db.query("SELECT first_b()").scalar() == "1"


class TestStatsAccounting:
    def test_statement_counter_monotone(self, db):
        before = db.obs.value("engine.statements")
        db.query("SELECT 1")
        assert db.obs.value("engine.statements") > before

    def test_reset(self, db):
        db.query("SELECT 1")
        db.stats.reset()
        assert db.obs.value("engine.statements") == 0
        assert routine_calls(db) == {}

    def test_snapshot_is_a_copy(self, db):
        snapshot = db.stats.snapshot()
        db.query("SELECT 1")
        assert snapshot["statements"] < db.obs.value("engine.statements")


class TestEmptyAndDegenerate:
    def test_empty_table_scan(self, db):
        db.execute("CREATE TABLE empty_t (x INTEGER)")
        assert db.query("SELECT x FROM empty_t").rows == []
        assert db.query("SELECT COUNT(*) FROM empty_t").scalar() == 0

    def test_cross_product_with_empty_is_empty(self, db):
        db.execute("CREATE TABLE empty_t (x INTEGER)")
        assert db.query("SELECT 1 FROM t, empty_t").rows == []

    def test_in_empty_list_via_subquery(self, db):
        assert db.query(
            "SELECT COUNT(*) FROM t WHERE a IN (SELECT a FROM t WHERE a > 99)"
        ).scalar() == 0

    def test_not_in_empty_subquery_keeps_all(self, db):
        assert db.query(
            "SELECT COUNT(*) FROM t WHERE a NOT IN (SELECT a FROM t WHERE a > 99)"
        ).scalar() == 3

    def test_select_null_literal(self, db):
        assert db.query("SELECT NULL").scalar() is Null


class TestNaN:
    """One rule on every path: NaN equals NaN and sorts above every other
    number (PostgreSQL's).  Before it, ``x <> 5.0`` kept the NaN row on
    one filter path and dropped it on another, ``x = 1.0`` was
    TRUE for it, and a hash probe could never find it."""

    NAN = "CAST('nan' AS FLOAT)"
    INF = "CAST('inf' AS FLOAT)"

    @pytest.fixture
    def fdb(self):
        db = Database()
        db.execute("CREATE TABLE f (id INTEGER, x FLOAT)")
        db.execute(f"INSERT INTO f VALUES (1, {self.NAN}), (2, 1.0), (3, 5.0)")
        return db

    @pytest.fixture
    def wide(self):
        """``f`` widened to every value class a typed filter reads: NaN, NULL and
        ±inf floats, CHAR values with trailing blanks, a BOOLEAN and a
        DATE column, each row valid over the whole sequenced context."""
        from repro.temporal import TemporalStratum

        stratum = TemporalStratum()
        db = stratum.db
        db.execute(
            "CREATE TABLE f (id INTEGER, x FLOAT, c CHAR(6), b BOOLEAN, d DATE)"
        )
        stratum.execute("ALTER TABLE f ADD VALIDTIME")
        day = Date.from_iso
        db.insert_rows("f", [
            [i, x, c, b, Null if d is Null else day(d), day("2009-01-01"), day("9999-12-31")]
            for i, x, c, b, d in [
                (1, math.nan, "ab", True, "2010-01-01"),
                (2, 1.0, "ab  ", False, "2010-06-01"),
                (3, 5.0, "b", Null, Null),
                (4, Null, Null, True, "2011-01-01"),
                (5, math.inf, "zz", False, "2010-06-01"),
                (6, -math.inf, "ab ", True, "2009-12-31"),
            ]
        ])
        return stratum

    @pytest.mark.parametrize("alone", [True, False, "seqset"])
    @pytest.mark.parametrize("predicate, ids", [
        ("x <> 5.0", [1, 2, 5, 6]),
        ("x = 1.0", [2]),
        (f"x = {NAN}", [1]),
        ("x > 5.0", [1, 5]),
        ("x < 5.0", [2, 6]),
        (f"x >= {NAN}", [1]),
        (f"x < {NAN}", [2, 3, 5, 6]),
        ("x BETWEEN 0.0 AND 10.0", [2, 3]),
        ("x IN (1.0, 5.0)", [2, 3]),
        (f"x IN ({NAN})", [1]),
        ("x >= 5.0", [1, 3, 5]),
        ("x <= 1.0", [2, 6]),
        ("x NOT BETWEEN 0.0 AND 10.0", [1, 5, 6]),
        ("x NOT IN (1.0, 5.0)", [1, 5, 6]),
        ("x IN (1.0, NULL)", [2]),
        ("x NOT IN (1.0, NULL)", []),
        (f"x NOT IN ({NAN})", [2, 3, 5, 6]),
        ("x IS NULL", [4]),
        ("x IS NOT NULL", [1, 2, 3, 5, 6]),
        ("c = 'ab'", [1, 2, 6]),
        ("c <> 'ab  '", [3, 5]),
        ("c > 'ab'", [3, 5]),
        ("c IN ('ab', 'zz')", [1, 2, 5, 6]),
        ("b = TRUE", [1, 4, 6]),
        ("b <> TRUE", [2, 5]),
        ("b IS NULL", [3]),
        ("d > DATE '2010-01-01'", [2, 4, 5]),
        ("d BETWEEN DATE '2010-01-01' AND DATE '2010-06-01'", [1, 2, 5]),
        ("d NOT IN (DATE '2010-06-01')", [1, 4, 6]),
        ("d IS NOT NULL", [1, 2, 4, 5, 6]),
    ])
    def test_every_path_agrees(self, wide, alone, predicate, ids):
        """The predicate ``alone`` may take a hash probe; a partial
        conjunct beside it forces the row-at-a-time filters.  In MAX's
        aligned constant-period join (``"seqset"``) the planner's
        placement decides it once per candidate (a typed filter) or in
        the residual (a ``CAST`` constant, IN, IS NULL, NOT BETWEEN) and
        must equal the reference executor's nested loop."""
        db = wide.db
        if alone != "seqset":
            sql = f"SELECT id FROM f WHERE {predicate}"
            if not alone:
                sql += " AND id + 0 = id"
            assert db.query(sql).rows == [[i] for i in ids]
            return
        sql = (
            "VALIDTIME [DATE '2010-01-01', DATE '2011-01-01']"
            f" SELECT id FROM f WHERE {predicate}"
        )
        aligned = db.obs.value("engine.join.aligned")
        rows = wide.execute(sql, strategy=SlicingStrategy.MAX).rows
        assert db.obs.value("engine.join.aligned") == aligned + 1
        with installed(db):
            assert rows == wide.execute(sql, strategy=SlicingStrategy.MAX).rows
        assert [row[0] for row in rows] == ids

    @pytest.mark.parametrize("predicate", [
        "x > 'abc'",
        "d = 5",
        "c < DATE '2010-01-01'",
        "x BETWEEN 0.0 AND 'z'",
        "d BETWEEN DATE '2010-01-01' AND 5",
        "id = 99 AND x > 'abc'",  # a total conjunct rejects every row first
        "x > 'abc' AND id = 99",
        "id > 3 AND d = 5",
    ])
    def test_wrong_class_literal_stays_on_seqset(self, wide, predicate):
        """A literal of another class than its column's makes its conjunct
        partial for the execution: the aligned join evaluates it in the
        residual, on the candidates the total conjuncts keep, and answers
        what MAX's statement answers one period at a time on the nested
        loop, which places the conjuncts by the same rule — its rows or
        its error class."""
        sql = (
            "VALIDTIME [DATE '2010-01-01', DATE '2011-01-01']"
            f" SELECT id FROM f WHERE {predicate}"
        )

        def answer(run):
            try:
                return run(wide, sql)[1]
            except SqlError as exc:
                return type(exc)

        aligned = wide.db.obs.value("engine.join.aligned")
        assert answer(raw) == answer(per_period)
        assert wide.db.obs.value("engine.join.aligned") == aligned + 1

    def test_comparison_values(self, fdb):
        assert fdb.query("SELECT id, x = 1.0, x > 1.0 FROM f").rows == [
            [1, False, True], [2, True, False], [3, False, True],
        ]

    def test_nan_from_arithmetic(self, fdb):
        for expr in (f"{self.INF} - {self.INF}", f"{self.INF} * 0"):
            assert fdb.query(f"SELECT id FROM f WHERE x = {expr}").rows == [[1]]

    def test_hash_probe_and_join_find_it(self, fdb):
        fdb.execute("CREATE TABLE g (y FLOAT)")
        fdb.execute(f"INSERT INTO g VALUES ({self.NAN}), (5.0)")
        assert fdb.query(
            "SELECT f.id FROM g, f WHERE f.x = g.y ORDER BY f.id"
        ).rows == [[1], [3]]
        fdb.execute(
            "CREATE FUNCTION of_x (v FLOAT) RETURNS INTEGER READS SQL DATA"
            " LANGUAGE SQL BEGIN RETURN (SELECT MAX(id) FROM f WHERE x = v); END"
        )
        assert fdb.query(f"SELECT of_x({self.NAN}), of_x(1.0)").rows == [[1, 2]]

    def test_order_distinct_group_and_extrema(self, fdb):
        fdb.execute(f"INSERT INTO f VALUES (4, {self.NAN}), (5, {self.INF})")
        assert fdb.query("SELECT id FROM f ORDER BY x, id").rows == [
            [2], [3], [5], [1], [4],
        ]
        assert fdb.query("SELECT id FROM f ORDER BY x DESC, id").rows == [
            [1], [4], [5], [3], [2],
        ]
        assert len(fdb.query("SELECT DISTINCT x FROM f").rows) == 4
        counts = fdb.query("SELECT COUNT(*) FROM f GROUP BY x ORDER BY 1").rows
        assert counts == [[1], [1], [1], [2]]
        assert fdb.query("SELECT MIN(x) FROM f").scalar() == 1.0
        top = fdb.query("SELECT MAX(x) FROM f").scalar()
        assert top != top  # NaN

    def test_integer_cast_is_a_typed_error(self, fdb):
        from repro.sqlengine.errors import TypeError_

        for value in (self.NAN, self.INF):
            with pytest.raises(TypeError_):
                fdb.query(f"SELECT CAST({value} AS INTEGER)")


class TestCrossClassEquality:
    """Only a total equality keys a hash probe, so a comparison across
    value classes raises wherever it is evaluated — before, it pruned
    silently when it keyed the probe and raised when it did not."""

    @pytest.fixture
    def xdb(self):
        db = Database()
        db.execute("CREATE TABLE t (n INTEGER, c CHAR(4))")
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        db.execute("CREATE TABLE u (k INTEGER)")
        db.execute("INSERT INTO u VALUES (1), (2)")
        return db

    @pytest.mark.parametrize("sql", [
        "SELECT * FROM t WHERE c = 1",
        "SELECT * FROM t WHERE n = 1 AND c = 1",
        "SELECT * FROM t WHERE c = 1 AND n = 1",
        "SELECT * FROM t, u WHERE t.c = u.k",
    ])
    def test_raises_the_same_error(self, xdb, sql):
        from repro.sqlengine.errors import TypeError_

        with pytest.raises(TypeError_, match="cannot compare str with int"):
            xdb.query(sql)

    def test_the_join_raises_on_its_first_row_pair(self, xdb):
        from repro.sqlengine.errors import TypeError_

        before = xdb.obs.value("engine.rows_scanned")
        with pytest.raises(TypeError_):
            xdb.query("SELECT t.n FROM t, u WHERE t.c = u.k")
        # t's two rows, then u bound once under the first of them
        assert xdb.obs.value("engine.rows_scanned") - before == 4


class TestStarArguments:
    """``COUNT(*)`` is SQL's one ``(*)`` argument list.  Every other
    ``f(*)`` parsed as a star call: on a one-row table ``SUM(*)`` raised a
    Python ``TypeError`` and ``MAX(*)`` returned a Python ``None`` cell.
    Now each is a typed syntax error (SQLSTATE 42601), on the engine and
    on the reference executor alike; ``COUNT(*)`` still counts rows."""

    @pytest.fixture
    def one_row(self):
        db = Database()
        db.execute("CREATE TABLE t (n INTEGER, c CHAR(4))")
        db.execute("INSERT INTO t VALUES (1, 'a')")
        return db

    @pytest.mark.parametrize("reference", [False, True], ids=["engine", "reference"])
    @pytest.mark.parametrize("call", [
        "SUM(*)", "AVG(*)", "MIN(*)", "MAX(*)", "UPPER(*)", "sum(*)",
    ])
    def test_only_count_takes_a_star(self, one_row, call, reference):
        from contextlib import nullcontext

        from repro.sqlengine.errors import StarArgumentError
        from tests.reference_executor import installed

        with installed(one_row) if reference else nullcontext():
            with pytest.raises(StarArgumentError) as raised:
                one_row.query(f"SELECT {call} FROM t")
            assert one_row.query("SELECT COUNT(*), count(*) FROM t").rows == [[1, 1]]
        assert raised.value.sqlstate == "42601"
        assert isinstance(raised.value, SqlError)
