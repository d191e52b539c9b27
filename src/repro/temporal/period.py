"""Periods: half-open intervals of day granules, plus coalescing.

The paper's model (§III, §V-A): each row of a valid-time table carries a
period ``[begin_time, end_time)``; sequenced evaluation manipulates these
periods so the result looks as if the query ran independently at every
granule.  ``Period`` wraps a pair of day ordinals; :func:`coalesce`
merges value-equivalent rows with adjacent or overlapping periods, which
is how the reference semantics and both slicing strategies are compared
for equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from repro.sqlengine.values import Date, sort_key

FOREVER = Date.MAX_ORDINAL
BEGINNING = Date.MIN_ORDINAL


@dataclass(frozen=True, order=True)
class Period:
    """A half-open period ``[begin, end)`` of day ordinals."""

    begin: int
    end: int

    def __post_init__(self) -> None:
        if self.begin >= self.end:
            raise ValueError(f"empty period [{self.begin}, {self.end})")

    @classmethod
    def from_dates(cls, begin: Date, end: Date) -> "Period":
        """Build a period from two Date bounds."""
        return cls(begin.ordinal, end.ordinal)

    @classmethod
    def from_iso(cls, begin: str, end: str) -> "Period":
        """Build a period from two ISO date strings."""
        return cls(Date.from_iso(begin).ordinal, Date.from_iso(end).ordinal)

    @classmethod
    def forever(cls) -> "Period":
        """The whole timeline, [0001-01-01, 9999-12-31)."""
        return cls(BEGINNING, FOREVER)

    @property
    def begin_date(self) -> Date:
        """The begin bound as a Date."""
        return Date(self.begin)

    @property
    def end_date(self) -> Date:
        """The (exclusive) end bound as a Date."""
        return Date(self.end)

    @property
    def duration(self) -> int:
        """Length in granules (days)."""
        return self.end - self.begin

    def contains(self, granule: int) -> bool:
        """True if the granule lies inside the half-open period."""
        return self.begin <= granule < self.end

    def contains_period(self, other: "Period") -> bool:
        """True if ``other`` lies entirely inside this period."""
        return self.begin <= other.begin and other.end <= self.end

    def overlaps(self, other: "Period") -> bool:
        """True if the two periods share at least one granule."""
        return self.begin < other.end and other.begin < self.end

    def meets(self, other: "Period") -> bool:
        """Allen's *meets*: this period ends exactly where ``other`` begins."""
        return self.end == other.begin

    def intersect(self, other: "Period") -> Optional["Period"]:
        """The common sub-period, or None when disjoint."""
        begin = max(self.begin, other.begin)
        end = min(self.end, other.end)
        if begin >= end:
            return None
        return Period(begin, end)

    def union_with(self, other: "Period") -> Optional["Period"]:
        """The merged period if the two overlap or meet, else None."""
        if self.begin <= other.end and other.begin <= self.end:
            return Period(min(self.begin, other.begin), max(self.end, other.end))
        return None

    def granules(self) -> Iterable[int]:
        """Iterate the granules in this period (careful with FOREVER)."""
        return range(self.begin, self.end)

    def __str__(self) -> str:
        return f"[{Date(self.begin).to_iso()}, {Date(self.end).to_iso()})"


def coalesce(
    rows: Sequence[tuple[tuple, Period]],
) -> list[tuple[tuple, Period]]:
    """Merge value-equivalent rows whose periods overlap or meet.

    Input: ``(value_tuple, period)`` pairs.  Output is sorted by value key
    then period and is the canonical form used to compare temporal
    relations for snapshot equivalence.
    """
    by_value: dict[tuple, list] = {}
    originals: dict[tuple, tuple] = {}
    for values, period in rows:
        key = tuple(sort_key(v) for v in values)
        by_value.setdefault(key, []).append(period)
        originals.setdefault(key, values)
    result: list[tuple[tuple, Period]] = []
    for key in sorted(by_value):
        periods = sorted(by_value[key])
        merged: list[Period] = []
        for period in periods:
            if merged:
                combined = merged[-1].union_with(period)
                if combined is not None:
                    merged[-1] = combined
                    continue
            merged.append(period)
        values = originals[key]
        result.extend((values, period) for period in merged)
    return result


def temporal_rows_equal(
    left: Sequence[tuple[tuple, Period]],
    right: Sequence[tuple[tuple, Period]],
) -> bool:
    """Snapshot equivalence: equal after coalescing."""
    return coalesce(left) == coalesce(right)


def constant_periods(
    points: Iterable[int], context: Optional[Period] = None
) -> list[Period]:
    """Constant periods (§V-A): maximal periods between change points.

    ``points`` are the begin/end times collected from the input tables;
    the result partitions the context into periods during which no input
    table changes.  Context boundaries count as change points so that
    periods never extend outside the context.
    """
    if context is None:
        context = Period.forever()
    distinct = {p for p in points if context.begin < p < context.end}
    distinct.add(context.begin)
    distinct.add(context.end)
    ordered = sorted(distinct)
    return [
        Period(a, b) for a, b in zip(ordered, ordered[1:])
    ]


def collect_change_points(
    tables: Iterable, begin_column: str = "begin_time", end_column: str = "end_time"
) -> set[int]:
    """All begin/end ordinals appearing in the given engine tables."""
    points: set[int] = set()
    for table in tables:
        begin_index = table.column_index(begin_column)
        end_index = table.column_index(end_column)
        for row in table.rows:
            begin = row[begin_index]
            end = row[end_index]
            if isinstance(begin, Date):
                points.add(begin.ordinal)
            if isinstance(end, Date):
                points.add(end.ordinal)
    return points
