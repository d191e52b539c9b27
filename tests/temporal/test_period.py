"""Period algebra and coalescing tests, including property-based ones."""

import pytest
from hypothesis import given, strategies as st

from repro.sqlengine.values import Date
from repro.temporal.period import (
    Period,
    coalesce,
    collect_change_points,
    constant_periods,
)

periods = st.builds(
    lambda a, b: Period(min(a, b), max(a, b) + 1),
    st.integers(min_value=700_000, max_value=700_400),
    st.integers(min_value=700_000, max_value=700_400),
)


class TestPeriodBasics:
    def test_empty_period_raises(self):
        with pytest.raises(ValueError):
            Period(5, 5)
        with pytest.raises(ValueError):
            Period(6, 5)

    def test_from_iso_and_str(self):
        p = Period.from_iso("2010-01-01", "2010-02-01")
        assert str(p) == "[2010-01-01, 2010-02-01)"
        assert p.duration == 31

    def test_contains_half_open(self):
        p = Period(10, 20)
        assert p.contains(10)
        assert p.contains(19)
        assert not p.contains(20)

    def test_contains_period(self):
        assert Period(0, 10).contains_period(Period(2, 8))
        assert not Period(0, 10).contains_period(Period(2, 12))

    def test_overlaps(self):
        assert Period(0, 10).overlaps(Period(9, 20))
        assert not Period(0, 10).overlaps(Period(10, 20))  # meets, no overlap

    def test_meets(self):
        assert Period(0, 10).meets(Period(10, 20))

    def test_intersect(self):
        assert Period(0, 10).intersect(Period(5, 20)) == Period(5, 10)
        assert Period(0, 10).intersect(Period(10, 20)) is None

    def test_union_with(self):
        assert Period(0, 10).union_with(Period(10, 20)) == Period(0, 20)
        assert Period(0, 10).union_with(Period(5, 8)) == Period(0, 10)
        assert Period(0, 10).union_with(Period(11, 20)) is None

    def test_dates_properties(self):
        p = Period.from_dates(Date.from_iso("2010-01-01"), Date.from_iso("2010-02-01"))
        assert p.begin_date.to_iso() == "2010-01-01"
        assert p.end_date.to_iso() == "2010-02-01"

    @given(periods, periods)
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(periods, periods)
    def test_intersection_within_both(self, a, b):
        inter = a.intersect(b)
        if inter is not None:
            assert a.contains_period(inter)
            assert b.contains_period(inter)
        else:
            assert not a.overlaps(b)

    @given(periods, periods)
    def test_union_contains_both_when_defined(self, a, b):
        union = a.union_with(b)
        if union is not None:
            assert union.contains_period(a)
            assert union.contains_period(b)


class TestCoalesce:
    def test_adjacent_equal_values_merge(self):
        rows = [(("x",), Period(0, 5)), (("x",), Period(5, 9))]
        assert coalesce(rows) == [(("x",), Period(0, 9))]

    def test_overlapping_equal_values_merge(self):
        rows = [(("x",), Period(0, 6)), (("x",), Period(4, 9))]
        assert coalesce(rows) == [(("x",), Period(0, 9))]

    def test_gap_not_merged(self):
        rows = [(("x",), Period(0, 4)), (("x",), Period(6, 9))]
        assert len(coalesce(rows)) == 2

    def test_different_values_not_merged(self):
        rows = [(("x",), Period(0, 5)), (("y",), Period(5, 9))]
        assert len(coalesce(rows)) == 2

    def test_char_padding_insensitive(self):
        rows = [(("x ",), Period(0, 5)), (("x",), Period(5, 9))]
        assert len(coalesce(rows)) == 1

    def test_snapshot_equivalence_helper(self):
        left = [(("x",), Period(0, 5)), (("x",), Period(5, 9))]
        right = [(("x",), Period(0, 9))]
        assert coalesce(left) == coalesce(right)
        assert coalesce(left) != coalesce([(("x",), Period(0, 8))])

    @given(st.lists(st.tuples(st.sampled_from(["a", "b"]), periods), max_size=20))
    def test_coalesce_idempotent(self, raw):
        rows = [((value,), period) for value, period in raw]
        once = coalesce(rows)
        assert coalesce(once) == once

    @given(st.lists(st.tuples(st.sampled_from(["a", "b"]), periods), max_size=20))
    def test_coalesce_preserves_granule_membership(self, raw):
        rows = [((value,), period) for value, period in raw]
        merged = coalesce(rows)

        def granules(rs):
            out = set()
            for values, period in rs:
                for g in range(period.begin, period.end):
                    out.add((values, g))
            return out

        assert granules(rows) == granules(merged)

    @given(st.lists(st.tuples(st.sampled_from(["a", "b"]), periods), max_size=20))
    def test_coalesced_periods_disjoint_per_value(self, raw):
        rows = [((value,), period) for value, period in raw]
        merged = coalesce(rows)
        by_value = {}
        for values, period in merged:
            by_value.setdefault(values, []).append(period)
        for ps in by_value.values():
            ps.sort()
            for left, right in zip(ps, ps[1:]):
                assert left.end < right.begin  # disjoint and non-adjacent


class TestConstantPeriods:
    def test_partition_of_context(self):
        context = Period(0, 100)
        cps = constant_periods([10, 40], context)
        assert cps == [Period(0, 10), Period(10, 40), Period(40, 100)]

    def test_points_outside_context_ignored(self):
        cps = constant_periods([-5, 200], Period(0, 100))
        assert cps == [Period(0, 100)]

    def test_point_on_boundary_ignored(self):
        cps = constant_periods([0, 100], Period(0, 100))
        assert cps == [Period(0, 100)]

    def test_no_points(self):
        assert constant_periods([], Period(5, 9)) == [Period(5, 9)]

    @given(st.sets(st.integers(min_value=0, max_value=400), max_size=30))
    def test_partition_properties(self, points):
        context = Period(0, 400)
        cps = constant_periods(points, context)
        # exactly tile the context
        assert cps[0].begin == context.begin
        assert cps[-1].end == context.end
        for left, right in zip(cps, cps[1:]):
            assert left.end == right.begin
        # every interior point is a boundary
        boundaries = {p.begin for p in cps} | {p.end for p in cps}
        for point in points:
            if context.begin < point < context.end:
                assert point in boundaries


class TestCollectChangePoints:
    def test_collects_begin_and_end(self):
        from repro.sqlengine.storage import Column, Table
        from repro.sqlengine.types import SqlType

        table = Table(
            "t",
            [Column("v", SqlType("INTEGER")), Column("begin_time", SqlType("DATE")),
             Column("end_time", SqlType("DATE"))],
        )
        table.insert([1, Date(100), Date(200)])
        table.insert([2, Date(150), Date(250)])
        assert collect_change_points([table]) == {100, 150, 200, 250}
