"""Expression-evaluation tests, driven through FROM-less SELECTs."""

import pytest

from repro.sqlengine import Database
from repro.sqlengine.errors import CatalogError, DivisionByZeroError, TypeError_
from repro.sqlengine.values import Date, Null, Unknown


@pytest.fixture
def db():
    return Database()


def val(db, expr):
    return db.query(f"SELECT {expr}").scalar()


class TestArithmetic:
    def test_basics(self, db):
        assert val(db, "2 + 3 * 4") == 14
        assert val(db, "(2 + 3) * 4") == 20
        assert val(db, "10 - 4 - 3") == 3
        assert val(db, "2.5 * 2") == 5.0

    def test_integer_division_truncates_toward_zero(self, db):
        assert val(db, "7 / 2") == 3
        assert val(db, "-7 / 2") == -3

    def test_float_division(self, db):
        assert val(db, "7.0 / 2") == 3.5

    def test_division_by_zero_raises(self, db):
        with pytest.raises(DivisionByZeroError):
            val(db, "1 / 0")

    def test_unary_minus(self, db):
        assert val(db, "-(2 + 3)") == -5

    def test_null_propagates_through_arithmetic(self, db):
        assert val(db, "1 + NULL") is Null
        assert val(db, "NULL * 2") is Null

    def test_negate_string_raises(self, db):
        with pytest.raises(TypeError_):
            val(db, "-'abc'")


class TestStringOps:
    def test_concat(self, db):
        assert val(db, "'foo' || 'bar'") == "foobar"

    def test_concat_number(self, db):
        assert val(db, "'n=' || 5") == "n=5"

    def test_concat_null(self, db):
        assert val(db, "'x' || NULL") is Null

    def test_like(self, db):
        assert val(db, "CASE WHEN 'hello' LIKE 'h%o' THEN 1 ELSE 0 END") == 1
        assert val(db, "CASE WHEN 'hello' LIKE 'h_llo' THEN 1 ELSE 0 END") == 1
        assert val(db, "CASE WHEN 'hello' LIKE 'h_o' THEN 1 ELSE 0 END") == 0

    def test_like_escapes_regex_chars(self, db):
        assert val(db, "CASE WHEN 'a.b' LIKE 'a.b' THEN 1 ELSE 0 END") == 1
        assert val(db, "CASE WHEN 'axb' LIKE 'a.b' THEN 1 ELSE 0 END") == 0


class TestPredicates:
    def test_comparisons(self, db):
        assert val(db, "CASE WHEN 1 < 2 THEN 'y' ELSE 'n' END") == "y"
        assert val(db, "CASE WHEN 'a' >= 'b' THEN 'y' ELSE 'n' END") == "n"

    def test_between(self, db):
        assert val(db, "CASE WHEN 5 BETWEEN 1 AND 10 THEN 1 ELSE 0 END") == 1
        assert val(db, "CASE WHEN 0 BETWEEN 1 AND 10 THEN 1 ELSE 0 END") == 0

    def test_not_between(self, db):
        assert val(db, "CASE WHEN 0 NOT BETWEEN 1 AND 10 THEN 1 ELSE 0 END") == 1

    def test_in_list(self, db):
        assert val(db, "CASE WHEN 2 IN (1, 2, 3) THEN 1 ELSE 0 END") == 1
        assert val(db, "CASE WHEN 9 IN (1, 2, 3) THEN 1 ELSE 0 END") == 0

    def test_in_with_null_candidate_is_unknown(self, db):
        # 9 IN (1, NULL) is UNKNOWN, so neither branch on truth
        assert val(db, "CASE WHEN 9 IN (1, NULL) THEN 1 ELSE 0 END") == 0
        assert val(db, "CASE WHEN NOT 9 IN (1, NULL) THEN 1 ELSE 0 END") == 0

    def test_is_null(self, db):
        assert val(db, "CASE WHEN NULL IS NULL THEN 1 ELSE 0 END") == 1
        assert val(db, "CASE WHEN 1 IS NOT NULL THEN 1 ELSE 0 END") == 1


T, F, U = True, False, Unknown


class TestBetweenNullBound:
    """``x BETWEEN a AND b`` is ``x >= a AND x <= b``: a False half
    decides even when a NULL bound leaves the other half Unknown
    (PostgreSQL agrees), so ``5 BETWEEN NULL AND 3`` is FALSE and its
    negation TRUE — in the SELECT list and in WHERE, on a plain scan
    and under SEQSET, which tests the non-negated form once per
    candidate (a typed filter) and the negated one in its residual."""

    ROWS = [1, 5, 9, Null]
    # bounds -> (x BETWEEN bounds, x NOT BETWEEN bounds) for each of ROWS
    CASES = {
        "NULL AND 3": ([U, F, F, U], [U, T, T, U]),
        "3 AND NULL": ([F, U, U, U], [T, U, U, U]),
        "NULL AND NULL": ([U, U, U, U], [U, U, U, U]),
        "3 AND 7": ([F, T, F, U], [T, F, T, U]),
    }

    @pytest.fixture(scope="class")
    def stratum(self):
        from repro.temporal import TemporalStratum

        stratum = TemporalStratum()
        stratum.db.execute("CREATE TABLE p (x INTEGER)")
        stratum.execute("ALTER TABLE p ADD VALIDTIME")
        stratum.db.insert_rows("p", [
            [x, Date.from_iso("2009-01-01"), Date.from_iso("9999-12-31")]
            for x in self.ROWS
        ])
        return stratum

    def test_constants(self, db):
        assert db.query(
            "SELECT 5 BETWEEN NULL AND 3, 5 NOT BETWEEN NULL AND 3,"
            " 5 BETWEEN NULL AND 9, 5 BETWEEN 7 AND NULL, 5 NOT BETWEEN 7 AND NULL"
        ).rows == [[F, T, U, F, T]]

    @pytest.mark.parametrize("sequenced", [False, True])
    @pytest.mark.parametrize("bounds", list(CASES))
    def test_select_list_and_where(self, stratum, bounds, sequenced):
        from repro.temporal import SlicingStrategy

        db = stratum.db

        def run(sql):
            if not sequenced:
                return db.query(sql).rows
            sql = "VALIDTIME [DATE '2010-01-01', DATE '2011-01-01'] " + sql
            rows = stratum.execute(sql, strategy=SlicingStrategy.SEQSET).rows
            # SEQ-SET ran: no fallback to MAX
            assert stratum.last_strategy is SlicingStrategy.SEQSET
            assert stratum.last_fallback is None
            assert rows == stratum.execute(sql, strategy=SlicingStrategy.MAX).rows
            return [row[:-2] for row in rows]  # the period columns

        inside, outside = self.CASES[bounds]
        assert run(
            f"SELECT x, x BETWEEN {bounds}, x NOT BETWEEN {bounds} FROM p"
        ) == [list(row) for row in zip(self.ROWS, inside, outside)]
        for negation, answers in (("", inside), ("NOT ", outside)):
            assert run(f"SELECT x FROM p WHERE x {negation}BETWEEN {bounds}") == [
                [x] for x, answer in zip(self.ROWS, answers) if answer is T
            ]


class TestCase:
    def test_searched_case_first_match_wins(self, db):
        assert val(db, "CASE WHEN 1 = 1 THEN 'a' WHEN 2 = 2 THEN 'b' END") == "a"

    def test_simple_case(self, db):
        assert val(db, "CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END") == "two"

    def test_case_no_match_no_else_is_null(self, db):
        assert val(db, "CASE WHEN 1 = 2 THEN 'x' END") is Null


class TestBuiltins:
    def test_upper_lower(self, db):
        assert val(db, "UPPER('abc')") == "ABC"
        assert val(db, "LOWER('ABC')") == "abc"

    def test_length(self, db):
        assert val(db, "LENGTH('hello')") == 5

    def test_substring(self, db):
        assert val(db, "SUBSTRING('hello', 2, 3)") == "ell"
        assert val(db, "SUBSTRING('hello', 3)") == "llo"

    def test_trim(self, db):
        assert val(db, "TRIM('  x  ')") == "x"

    def test_abs_mod(self, db):
        assert val(db, "ABS(-4)") == 4
        assert val(db, "MOD(7, 3)") == 1

    def test_mod_by_zero_raises(self, db):
        with pytest.raises(DivisionByZeroError):
            val(db, "MOD(1, 0)")

    def test_coalesce(self, db):
        assert val(db, "COALESCE(NULL, NULL, 3)") == 3
        assert val(db, "COALESCE(NULL, NULL)") is Null

    def test_nullif(self, db):
        assert val(db, "NULLIF(1, 1)") is Null
        assert val(db, "NULLIF(1, 2)") == 1

    def test_first_last_instance(self, db):
        """Paper Fig. 4: the earlier / later of two times."""
        early = "DATE '2010-01-01'"
        late = "DATE '2010-06-01'"
        assert val(db, f"FIRST_INSTANCE({early}, {late})") == Date.from_iso("2010-01-01")
        assert val(db, f"LAST_INSTANCE({early}, {late})") == Date.from_iso("2010-06-01")

    def test_first_last_instance_null(self, db):
        assert val(db, "FIRST_INSTANCE(NULL, DATE '2010-01-01')") is Null

    def test_year_days_date(self, db):
        assert val(db, "YEAR(DATE '2010-06-01')") == 2010
        assert val(db, "DATE(DAYS(DATE '2010-06-01'))") == Date.from_iso("2010-06-01")

    def test_current_date_is_settable(self, db):
        db.now = Date.from_ymd(2010, 7, 4)
        assert val(db, "CURRENT_DATE") == Date.from_ymd(2010, 7, 4)

    def test_cast(self, db):
        assert val(db, "CAST('42' AS INTEGER)") == 42
        assert val(db, "CAST(42 AS CHAR(5))") == "42"

    def test_unknown_function_raises(self, db):
        with pytest.raises(CatalogError):
            val(db, "no_such_function(1)")
