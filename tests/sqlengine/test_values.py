"""Value model tests: NULL, three-valued logic, dates, ordering."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine.errors import TypeError_
from repro.sqlengine.values import (
    Date,
    Null,
    Row,
    Unknown,
    column_keys,
    compare,
    equals,
    is_null,
    logic_and,
    logic_not,
    logic_or,
    sort_key,
    sorted_rows,
    truth,
)

from tests.reference_executor import _Reversed


class TestNull:
    def test_null_is_singleton(self):
        from repro.sqlengine.values import _NullType

        assert _NullType() is Null

    def test_null_is_falsy(self):
        assert not Null

    def test_is_null(self):
        assert is_null(Null)
        assert not is_null(0)
        assert not is_null("")

    def test_repr(self):
        assert repr(Null) == "NULL"


class TestCompare:
    def test_numbers(self):
        assert compare(1, 2) == -1
        assert compare(2, 2) == 0
        assert compare(3, 2) == 1

    def test_int_float_mix(self):
        assert compare(1, 1.0) == 0
        assert compare(1.5, 1) == 1

    def test_bool_as_number(self):
        assert compare(True, 1) == 0
        assert compare(False, 1) == -1

    def test_strings_ignore_trailing_blanks(self):
        assert compare("abc  ", "abc") == 0

    def test_strings_ordered(self):
        assert compare("apple", "banana") == -1

    def test_null_propagates(self):
        assert compare(Null, 1) is Unknown
        assert compare("x", Null) is Unknown
        assert compare(Null, Null) is Unknown

    def test_dates(self):
        a = Date.from_iso("2010-01-01")
        b = Date.from_iso("2010-06-01")
        assert compare(a, b) == -1
        assert compare(b, b) == 0

    def test_cross_type_raises(self):
        with pytest.raises(TypeError_):
            compare(1, "one")

    def test_equals(self):
        assert equals(2, 2) is True
        assert equals(2, 3) is False
        assert equals(Null, 3) is Unknown


class TestThreeValuedLogic:
    def test_and_truth_table(self):
        assert logic_and(True, True) is True
        assert logic_and(True, False) is False
        assert logic_and(False, Unknown) is False
        assert logic_and(True, Unknown) is Unknown
        assert logic_and(Unknown, Unknown) is Unknown

    def test_or_truth_table(self):
        assert logic_or(False, False) is False
        assert logic_or(False, True) is True
        assert logic_or(True, Unknown) is True
        assert logic_or(False, Unknown) is Unknown

    def test_not(self):
        assert logic_not(True) is False
        assert logic_not(False) is True
        assert logic_not(Unknown) is Unknown
        assert logic_not(Null) is Unknown

    def test_truth_collapses_unknown(self):
        assert truth(True)
        assert not truth(False)
        assert not truth(Unknown)
        assert not truth(Null)

    @given(st.sampled_from([True, False, None]), st.sampled_from([True, False, None]))
    def test_and_commutative(self, a, b):
        left = Unknown if a is None else a
        right = Unknown if b is None else b
        assert logic_and(left, right) is logic_and(right, left)

    @given(st.sampled_from([True, False, None]), st.sampled_from([True, False, None]))
    def test_de_morgan(self, a, b):
        left = Unknown if a is None else a
        right = Unknown if b is None else b
        assert logic_not(logic_and(left, right)) is logic_or(
            logic_not(left), logic_not(right)
        )


class TestDate:
    def test_iso_round_trip(self):
        assert Date.from_iso("2010-06-15").to_iso() == "2010-06-15"

    def test_from_ymd(self):
        assert Date.from_ymd(2010, 6, 15) == Date.from_iso("2010-06-15")

    def test_invalid_iso_raises(self):
        with pytest.raises(TypeError_):
            Date.from_iso("not-a-date")

    def test_plus_days(self):
        assert Date.from_iso("2010-12-31").plus_days(1).to_iso() == "2011-01-01"

    def test_ordering(self):
        assert Date.from_iso("2010-01-01") < Date.from_iso("2010-01-02")

    def test_max_is_year_9999(self):
        assert Date(Date.MAX_ORDINAL).to_iso() == "9999-12-31"

    def test_hashable(self):
        assert len({Date.from_iso("2010-01-01"), Date.from_iso("2010-01-01")}) == 1

    def test_non_int_ordinal_raises(self):
        with pytest.raises(TypeError_):
            Date("2010-01-01")

    @given(st.integers(min_value=Date.MIN_ORDINAL, max_value=Date.MAX_ORDINAL))
    def test_ordinal_round_trip(self, ordinal):
        assert Date.from_iso(Date(ordinal).to_iso()).ordinal == ordinal


class TestRow:
    def test_access_by_index_and_name(self):
        row = Row(["a", "B"], [1, 2])
        assert row[0] == 1
        assert row["b"] == 2  # case-insensitive

    def test_missing_column_raises(self):
        with pytest.raises(KeyError):
            Row(["a"], [1])["b"]

    def test_length_mismatch_raises(self):
        with pytest.raises(TypeError_):
            Row(["a", "b"], [1])

    def test_equality_on_values(self):
        assert Row(["a"], [1]) == Row(["x"], [1])

    def test_as_dict(self):
        assert Row(["a", "b"], [1, 2]).as_dict() == {"a": 1, "b": 2}


class TestSortKey:
    def test_nulls_sort_first(self):
        values = [3, Null, 1]
        assert sorted(values, key=sort_key)[0] is Null

    def test_mixed_numbers(self):
        assert sorted([2.5, 1, 3], key=sort_key) == [1, 2.5, 3]

    def test_dates_and_strings_separate(self):
        # no exception: different type classes get disjoint key spaces
        data = [Date.from_iso("2010-01-01"), "abc", 5, Null]
        assert sorted(data, key=sort_key)[0] is Null

    @given(st.lists(st.one_of(st.integers(), st.floats(allow_nan=False))))
    def test_numeric_sort_matches_python(self, xs):
        assert sorted(xs, key=sort_key) == sorted(xs)


# -- ORDER BY on typed keys ---------------------------------------------------

SORT_VALUES = st.one_of(
    st.sampled_from([Null, float("nan"), float("inf"), -float("inf"), True, False,
                     "a", "a  ", "", " a", "b", Date.MIN, Date.MAX, 0, 1, -1, 1.0, 0.5]),
    st.integers(-3, 3), st.text(alphabet="ab ", max_size=3),
    st.builds(Date, st.integers(Date.MIN_ORDINAL, Date.MIN_ORDINAL + 3)),
)
# one class per column (the fast paths) or any mix
SORT_COLUMN = st.one_of(
    st.lists(st.integers(-3, 3)), st.lists(st.text(alphabet="ab ", max_size=3)),
    st.lists(st.builds(Date, st.integers(0, 5))), st.lists(SORT_VALUES),
)


@settings(max_examples=300, deadline=None)
@given(values=SORT_COLUMN)
def test_column_keys_order_and_tie_as_sort_key(values):
    keys = column_keys(values)
    for i, left in enumerate(values):
        for j, right in enumerate(values):
            assert (keys[i] < keys[j]) == (sort_key(left) < sort_key(right)), (left, right)
            assert (keys[i] == keys[j]) == (sort_key(left) == sort_key(right)), (left, right)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), width=st.integers(1, 3))
def test_sorted_rows_equal_one_sort_on_reversed_keys(data, width):
    """One stable pass per key, last to first, DESC reversed, is the one
    sort on the tuple of ``sort_key``s (DESC wrapped) it replaces."""
    columns = [data.draw(SORT_COLUMN, label=f"column {j}") for j in range(width)]
    count = min(len(column) for column in columns)
    rows = [[column[i] for column in columns] + [i] for i in range(count)]
    descending = data.draw(st.lists(st.booleans(), min_size=width, max_size=width))
    expected = sorted(rows, key=lambda row: tuple(
        _Reversed(sort_key(row[j])) if descending[j] else sort_key(row[j]) for j in range(width)
    ))
    got = sorted_rows(rows, [([row[j] for row in rows], descending[j]) for j in range(width)])
    assert [row[-1] for row in got] == [row[-1] for row in expected]
