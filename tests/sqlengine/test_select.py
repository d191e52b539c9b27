"""Query-execution tests: scans, joins, aggregation, subqueries, views."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine import Database
from repro.sqlengine.errors import (
    CardinalityError,
    CatalogError,
    ExecutionError,
)
from repro.sqlengine.values import Date, Null
from tests.reference_executor import installed


@pytest.fixture
def db():
    db = Database()
    db.execute("CREATE TABLE emp (id INTEGER, name CHAR(20), dept CHAR(10), salary FLOAT)")
    db.execute("INSERT INTO emp VALUES (1, 'ann', 'eng', 100.0)")
    db.execute("INSERT INTO emp VALUES (2, 'bob', 'eng', 80.0)")
    db.execute("INSERT INTO emp VALUES (3, 'cat', 'ops', 90.0)")
    db.execute("CREATE TABLE dept (code CHAR(10), city CHAR(20))")
    db.execute("INSERT INTO dept VALUES ('eng', 'tucson')")
    db.execute("INSERT INTO dept VALUES ('hr', 'boston')")
    return db


class TestBasicSelect:
    def test_projection(self, db):
        result = db.query("SELECT name FROM emp WHERE id = 2")
        assert result.rows == [["bob"]]

    def test_star(self, db):
        result = db.query("SELECT * FROM emp WHERE id = 1")
        assert result.columns == ["id", "name", "dept", "salary"]

    def test_qualified_star(self, db):
        result = db.query("SELECT e.* FROM emp e, dept d WHERE e.dept = d.code AND e.id = 1")
        assert len(result.columns) == 4

    def test_expression_in_select_list(self, db):
        result = db.query("SELECT salary * 2 AS double_pay FROM emp WHERE id = 1")
        assert result.columns == ["double_pay"]
        assert result.rows == [[200.0]]

    def test_from_less_select(self, db):
        assert db.query("SELECT 1 + 1").rows == [[2]]

    def test_where_filters_unknown(self, db):
        db.execute("INSERT INTO emp VALUES (4, 'dan', NULL, NULL)")
        result = db.query("SELECT id FROM emp WHERE salary > 0")
        assert [r[0] for r in result.rows] == [1, 2, 3]

    def test_distinct(self, db):
        result = db.query("SELECT DISTINCT dept FROM emp ORDER BY dept")
        assert result.rows == [["eng"], ["ops"]]

    def test_order_by_desc(self, db):
        result = db.query("SELECT name FROM emp ORDER BY salary DESC")
        assert [r[0] for r in result.rows] == ["ann", "cat", "bob"]

    def test_order_by_source_column_not_projected(self, db):
        result = db.query("SELECT name FROM emp ORDER BY id DESC")
        assert [r[0] for r in result.rows] == ["cat", "bob", "ann"]

    def test_order_by_position(self, db):
        result = db.query("SELECT name, salary FROM emp ORDER BY 2")
        assert result.rows[0][0] == "bob"

    def test_limit(self, db):
        assert len(db.query("SELECT id FROM emp ORDER BY id LIMIT 2")) == 2

    def test_missing_table_raises(self, db):
        with pytest.raises(CatalogError):
            db.query("SELECT 1 FROM nope")

    def test_ambiguous_column_raises(self, db):
        db.execute("CREATE TABLE emp2 (id INTEGER)")
        db.execute("INSERT INTO emp2 VALUES (9)")
        with pytest.raises(ExecutionError):
            db.query("SELECT id FROM emp, emp2")


class TestJoins:
    def test_comma_join_with_predicate(self, db):
        result = db.query(
            "SELECT e.name, d.city FROM emp e, dept d WHERE e.dept = d.code"
            " ORDER BY e.name"
        )
        assert result.rows == [["ann", "tucson"], ["bob", "tucson"]]

    def test_inner_join_on(self, db):
        result = db.query(
            "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.code"
        )
        assert len(result) == 2

    def test_left_join_produces_nulls(self, db):
        result = db.query(
            "SELECT e.name, d.city FROM emp e LEFT JOIN dept d"
            " ON e.dept = d.code ORDER BY e.name"
        )
        assert result.rows[2] == ["cat", Null]

    def test_cross_join(self, db):
        assert len(db.query("SELECT 1 FROM emp CROSS JOIN dept")) == 6

    def test_self_join(self, db):
        result = db.query(
            "SELECT a.name FROM emp a, emp b"
            " WHERE a.salary > b.salary AND b.name = 'bob'"
        )
        assert sorted(r[0] for r in result.rows) == ["ann", "cat"]


class TestAggregation:
    def test_count_star(self, db):
        assert db.query("SELECT COUNT(*) FROM emp").scalar() == 3

    def test_count_column_skips_nulls(self, db):
        db.execute("INSERT INTO emp VALUES (4, 'dan', NULL, NULL)")
        assert db.query("SELECT COUNT(salary) FROM emp").scalar() == 3

    def test_sum_avg_min_max(self, db):
        row = db.query(
            "SELECT SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM emp"
        ).rows[0]
        assert row == [270.0, 90.0, 80.0, 100.0]

    def test_group_by(self, db):
        result = db.query(
            "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept ORDER BY dept"
        )
        assert result.rows == [["eng", 2], ["ops", 1]]

    def test_having(self, db):
        result = db.query(
            "SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) > 1"
        )
        assert result.rows == [["eng"]]

    def test_aggregate_on_empty_input(self, db):
        result = db.query("SELECT COUNT(*), SUM(salary) FROM emp WHERE id > 99")
        assert result.rows == [[0, Null]]

    def test_count_distinct(self, db):
        assert db.query("SELECT COUNT(DISTINCT dept) FROM emp").scalar() == 2

    def test_aggregate_expression(self, db):
        assert db.query("SELECT MAX(salary) - MIN(salary) FROM emp").scalar() == 20.0

    def test_aggregate_outside_group_raises(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT id FROM emp WHERE SUM(salary) > 1")


class TestSubqueries:
    def test_scalar_subquery(self, db):
        result = db.query(
            "SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)"
        )
        assert result.rows == [["ann"]]

    def test_scalar_subquery_empty_is_null(self, db):
        assert db.query("SELECT (SELECT name FROM emp WHERE id = 99)").scalar() is Null

    def test_scalar_subquery_multi_row_raises(self, db):
        with pytest.raises(CardinalityError):
            db.query("SELECT (SELECT name FROM emp)")

    def test_correlated_subquery(self, db):
        result = db.query(
            "SELECT e.name FROM emp e WHERE e.salary >"
            " (SELECT AVG(salary) FROM emp x WHERE x.dept = e.dept)"
        )
        assert result.rows == [["ann"]]

    def test_exists(self, db):
        result = db.query(
            "SELECT d.code FROM dept d WHERE EXISTS"
            " (SELECT 1 FROM emp e WHERE e.dept = d.code)"
        )
        assert result.rows == [["eng"]]

    def test_not_exists(self, db):
        result = db.query(
            "SELECT d.code FROM dept d WHERE NOT EXISTS"
            " (SELECT 1 FROM emp e WHERE e.dept = d.code)"
        )
        assert result.rows == [["hr"]]

    def test_in_subquery(self, db):
        result = db.query(
            "SELECT name FROM emp WHERE dept IN (SELECT code FROM dept)"
        )
        assert len(result) == 2

    def test_not_in_subquery(self, db):
        result = db.query(
            "SELECT name FROM emp WHERE dept NOT IN (SELECT code FROM dept)"
        )
        assert result.rows == [["cat"]]

    def test_derived_table(self, db):
        result = db.query(
            "SELECT s.n FROM (SELECT COUNT(*) AS n FROM emp) AS s"
        )
        assert result.rows == [[3]]


class TestSetOperations:
    def test_union_dedupes(self, db):
        result = db.query(
            "SELECT dept FROM emp UNION SELECT code AS dept FROM dept ORDER BY dept"
        )
        assert [r[0] for r in result.rows] == ["eng", "hr", "ops"]

    def test_union_all_keeps_duplicates(self, db):
        result = db.query("SELECT dept FROM emp UNION ALL SELECT code FROM dept")
        assert len(result) == 5

    def test_except(self, db):
        result = db.query("SELECT code FROM dept EXCEPT SELECT dept FROM emp")
        assert result.rows == [["hr"]]

    def test_intersect(self, db):
        result = db.query("SELECT code FROM dept INTERSECT SELECT dept FROM emp")
        assert result.rows == [["eng"]]

    def test_mismatched_arity_raises(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT id, name FROM emp UNION SELECT code FROM dept")

    def test_except_all_keeps_multiplicities(self, bags):
        # a = {1, 1, 1, 2, NULL, NULL}, b = {1, NULL, 3}
        result = bags.query("SELECT x FROM a EXCEPT ALL SELECT x FROM b")
        assert result.rows == [[1], [1], [2], [Null]]

    def test_intersect_all_keeps_multiplicities(self, bags):
        result = bags.query("SELECT x FROM a INTERSECT ALL SELECT x FROM b")
        assert result.rows == [[1], [Null]]
        result = bags.query("SELECT x FROM b INTERSECT ALL SELECT x FROM a")
        assert result.rows == [[1], [Null]]

    def test_distinct_forms_keep_one_copy(self, bags):
        assert bags.query(
            "SELECT x FROM a EXCEPT SELECT x FROM b"
        ).rows == [[2]]
        assert bags.query(
            "SELECT x FROM a INTERSECT SELECT x FROM b"
        ).rows == [[1], [Null]]


@pytest.fixture
def bags():
    db = Database()
    db.execute("CREATE TABLE a (x INTEGER)")
    db.execute("CREATE TABLE b (x INTEGER)")
    for x in ("1", "1", "1", "2", "NULL", "NULL"):
        db.execute(f"INSERT INTO a VALUES ({x})")
    for x in ("1", "NULL", "3"):
        db.execute(f"INSERT INTO b VALUES ({x})")
    return db


_SET_OPS = ["UNION", "UNION ALL", "EXCEPT", "EXCEPT ALL", "INTERSECT", "INTERSECT ALL"]
_BAG = st.lists(
    st.tuples(st.sampled_from(["1", "2", "NULL"]), st.sampled_from(["'x'", "'x  '", "'y'"])),
    max_size=6,
)


class TestSetOperationsDifferential:
    """Every set operation, chained left to right, against the reference
    executor's own multiset implementation: rows, order and copies (CHAR
    padding makes equal keys with different spellings)."""

    @settings(max_examples=60, deadline=None)
    @given(
        contents=st.lists(_BAG, min_size=3, max_size=3),
        ops=st.lists(st.sampled_from(_SET_OPS), min_size=1, max_size=2),
    )
    def test_engine_matches_reference(self, contents, ops):
        db = Database()
        for name, rows in zip("pqr", contents):
            db.execute(f"CREATE TABLE {name} (k INTEGER, s VARCHAR(4))")
            for k, text in rows:
                db.execute(f"INSERT INTO {name} VALUES ({k}, {text})")
        sql = " ".join(
            f"{op} SELECT k, s FROM {name}" for op, name in zip(ops, "qr")
        )
        sql = "SELECT k, s FROM p " + sql
        engine = db.query(sql).rows
        with installed(db):
            reference = db.query(sql).rows
        assert engine == reference


class TestViews:
    def test_view_select(self, db):
        db.execute("CREATE VIEW rich AS (SELECT name FROM emp WHERE salary > 85)")
        result = db.query("SELECT * FROM rich ORDER BY name")
        assert result.rows == [["ann"], ["cat"]]

    def test_view_with_alias(self, db):
        db.execute("CREATE VIEW rich AS (SELECT name FROM emp WHERE salary > 85)")
        result = db.query("SELECT r.name FROM rich r WHERE r.name = 'cat'")
        assert result.rows == [["cat"]]

    def test_drop_view(self, db):
        db.execute("CREATE VIEW v AS (SELECT 1 AS one)")
        db.execute("DROP VIEW v")
        with pytest.raises(CatalogError):
            db.query("SELECT * FROM v")

    def test_duplicate_view_raises(self, db):
        db.execute("CREATE VIEW v AS (SELECT 1 AS one)")
        with pytest.raises(CatalogError):
            db.execute("CREATE VIEW v AS (SELECT 2 AS two)")


class TestIndexedBinding:
    """The equality-probe optimization must never change results."""

    def test_join_matches_full_scan_semantics(self, db):
        indexed = db.query(
            "SELECT e.name FROM emp e, dept d WHERE e.dept = d.code ORDER BY e.name"
        )
        # same query phrased so no probe applies (inequality)
        full = db.query(
            "SELECT e.name FROM emp e, dept d"
            " WHERE NOT e.dept <> d.code ORDER BY e.name"
        )
        assert indexed.rows == full.rows

    def test_probe_on_literal(self, db):
        result = db.query("SELECT name FROM emp WHERE dept = 'ops'")
        assert result.rows == [["cat"]]

    def test_probe_with_null_literal_matches_nothing(self, db):
        db.execute("INSERT INTO emp VALUES (4, 'dan', NULL, 1.0)")
        assert len(db.query("SELECT name FROM emp WHERE dept = NULL")) == 0

    def test_bare_column_probe_from_parameter(self, db):
        db.execute(
            "CREATE FUNCTION pay_of (who CHAR(20)) RETURNS FLOAT READS SQL DATA"
            " LANGUAGE SQL BEGIN RETURN (SELECT salary FROM emp WHERE name = who); END"
        )
        assert db.query("SELECT pay_of('bob')").scalar() == 80.0

    def test_same_named_columns_across_tables_not_misprobed(self, db):
        db.execute("CREATE TABLE a1 (x INTEGER, y INTEGER)")
        db.execute("CREATE TABLE b1 (x INTEGER, y INTEGER)")
        db.execute("INSERT INTO a1 VALUES (1, 2)")
        db.execute("INSERT INTO b1 VALUES (1, 3)")
        # y is ambiguous-by-name: the probe must not bind a1.x = a1.y
        result = db.query("SELECT a1.y FROM a1, b1 WHERE a1.x = b1.x")
        assert result.rows == [[2]]


class TestDateQueries:
    def test_date_comparison(self, db):
        db.execute("CREATE TABLE ev (d DATE)")
        db.execute("INSERT INTO ev VALUES (DATE '2010-01-01')")
        db.execute("INSERT INTO ev VALUES (DATE '2011-01-01')")
        result = db.query("SELECT d FROM ev WHERE d < DATE '2010-06-01'")
        assert result.rows == [[Date.from_iso("2010-01-01")]]

    def test_date_arithmetic(self, db):
        assert db.query("SELECT DATE '2010-01-01' + 31").scalar() == Date.from_iso(
            "2010-02-01"
        )

    def test_date_difference(self, db):
        assert db.query(
            "SELECT DATE '2010-02-01' - DATE '2010-01-01'"
        ).scalar() == 31


class TestShapesTheBindPhaseDecides:
    """Statements that used to run only through the interpreted fallback:
    each is now decided at plan time, before any row is read."""

    @pytest.mark.parametrize("from_clause, alias", [
        ("emp x, dept x", "x"),
        ("emp, emp", "emp"),
    ])
    def test_two_sources_under_one_alias(self, db, from_clause, alias):
        with pytest.raises(CatalogError, match=f"duplicate table alias '{alias}'"):
            db.query(f"SELECT * FROM {from_clause}")

    @pytest.mark.parametrize("sql", [
        "SELECT *, COUNT(*) FROM emp",
        "SELECT * FROM emp GROUP BY dept",
    ])
    def test_star_in_a_grouped_select(self, db, sql):
        with pytest.raises(ExecutionError, match=r"SELECT \* is not allowed"):
            db.query(sql)

    def test_right_join_onto_a_join(self, db):
        db.execute("CREATE TABLE city (name CHAR(20), pop INTEGER)")
        db.execute("INSERT INTO city VALUES ('tucson', 5)")
        db.execute("INSERT INTO city VALUES ('boston', 6)")
        db.execute("INSERT INTO city VALUES ('oslo', 7)")
        # LEFT join whose null-extended side is the materialized join
        result = db.query(
            "SELECT e.name, d.code, c.pop FROM emp e JOIN dept d ON e.dept = d.code"
            " RIGHT JOIN city c ON c.name = d.city ORDER BY c.pop, e.name"
        )
        assert result.rows == [
            ["ann", "eng", 5], ["bob", "eng", 5], [Null, Null, 6], [Null, Null, 7],
        ]
        star = db.query(
            "SELECT * FROM emp e JOIN dept d ON e.dept = d.code"
            " RIGHT JOIN city c ON c.name = d.city WHERE c.pop = 7"
        )
        assert star.columns == [
            "name", "pop", "id", "name", "dept", "salary", "code", "city",
        ]
        assert star.rows == [["oslo", 7] + [Null] * 6]

    def test_unknown_table_beside_an_empty_one(self, db):
        db.execute("CREATE TABLE nothing (id INTEGER)")
        for first in ("nothing", "emp"):
            with pytest.raises(CatalogError, match="no such table: nope"):
                db.query(f"SELECT 1 FROM {first}, nope")
