"""Interval index for temporal scan pruning.

The temporal transforms (§V) emit predicates of two shapes against a
table's ``(begin, end)`` period columns::

    t.begin <= P AND P < t.end          -- stab: rows alive at point P
    t.begin < E AND B < t.end           -- overlap with period [B, E)

Both reduce to *"begin at most X and end at least Y"* over the day
ordinals; MAX's outer join with its constant-period table bounds the
*begin* column from both sides instead (``X <= cp.begin AND cp.begin <
Y``).  The index is the pair's day ordinals in table order, two lists,
with NaN for a bound that is not a :class:`Date`: a comparison with NaN
is never true, just as one with NULL never is, so a NULL-bounded row
fails exactly the bounds it is tested against and no row needs a rule
of its own.  ``search_positions(begin_max, end_min, begin_min)`` — any
bound may be absent — is one pass over the lists, and its positions
are ascending, so the pruned scan is row-for-row identical to the
linear one.

A stab costs its output: :class:`ChangePoints` keeps, next to the
ascending change points of some rows, each elementary segment's live
rows for one ``(begin, end)`` pair, so the rows alive at ``p`` are one
bisect and one list copy.  The index keeps its pair's change points
(``changes``, what constant periods and read windows use) and answers a
stab probe from them once filled; the planner answers a hash bucket's
stab from one built over the bucket (``Table.bucket_stab``).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Iterable, Optional

from repro.sqlengine.values import Date

_INF = float("inf")
_NAN = float("nan")  # a NULL bound: every comparison with it is False

# A stab structure is built only while its segments hold at most this
# many rows per row it covers (DESIGN §3.5): its memory stays within a
# few times the rows' own and its build within as many full passes.
SPAN_LIMIT = 32


def without(sequence, doomed: list[int]):
    """A copy of ``sequence`` (list, ``array`` or ``bytearray``) minus
    the ascending, non-empty index list ``doomed`` — O(len) slice
    copies, whatever the number of removals."""
    kept = sequence[: doomed[0]]
    start = doomed[0] + 1
    for index in doomed[1:]:
        kept += sequence[start:index]
        start = index + 1
    kept += sequence[start:]
    return kept


def _ordinal(value: Any) -> float:
    """A bound's day ordinal, or :data:`_NAN` where it is not a Date."""
    return value.ordinal if isinstance(value, Date) else _NAN


def stab_point(limits: Optional[list]) -> Optional[int]:
    """``p`` when probe limits ``[begin_min, begin_max, end_min]`` are
    exactly the stab ``begin <= p < end``, else None."""
    if limits is None:
        return None
    begin_min, begin_max, end_min = limits
    if begin_min is None and begin_max is not None and end_min == begin_max + 1:
        return begin_max
    return None


class ChangePoints:
    """The day ordinals at which some of a set of rows begins or ends in
    a set of period columns: ``points`` as a set (constant periods merge
    several tables'), plus, on first need, the ascending form
    :meth:`window` bisects.

    As a *stab structure* it also holds ``live`` (:meth:`fill`): for each
    elementary segment ``i`` — ``[ascending[i - 1], ascending[i])``,
    unbounded past either end — the items of the rows alive there under
    one ``(begin, end)`` pair, in table order.  No row's ``begin <= p <
    end`` verdict changes inside a segment, so the rows alive at a point
    are one bisect and one list copy (:meth:`alive`).  ``live`` stays
    None when the segments would hold more than :data:`SPAN_LIMIT` items
    per row.  Nothing edits a filled structure: a delta drops it.
    """

    __slots__ = ("points", "_ascending", "live")

    def __init__(self, points: frozenset) -> None:
        self.points = points
        self._ascending: Optional[list[int]] = None
        self.live: Optional[list[list]] = None

    @classmethod
    def of(cls, rows: list, columns: tuple, pair: Optional[tuple] = None) -> "ChangePoints":
        """Every Date in ``columns`` of ``rows`` — one whose opposite
        bound is NULL too, matching
        :func:`repro.temporal.period.collect_change_points` — and, given
        a ``pair`` among them, the stab structure of ``rows`` under it."""
        points: set[int] = set()
        for row in rows:
            for index in columns:
                value = row[index]
                if isinstance(value, Date):
                    points.add(value.ordinal)
        structure = cls(frozenset(points))
        if pair is not None:
            begin, end = pair
            structure.fill(
                (
                    (row[begin].ordinal, row[end].ordinal, row) for row in rows
                    if isinstance(row[begin], Date) and isinstance(row[end], Date)
                ),
                len(rows),
            )
        return structure

    def window(self, point: int) -> tuple:
        """``(lo, hi)``: the nearest change point at or before ``point``
        and the nearest after it (∓inf where there is none).  No row's
        ``begin <= p < end`` verdict differs between two ``p`` of
        ``[lo, hi)``."""
        ascending = self._ascending
        if ascending is None:
            ascending = self._ascending = sorted(self.points)
        after = bisect_right(ascending, point)
        return (
            ascending[after - 1] if after else -_INF,
            ascending[after] if after < len(ascending) else _INF,
        )

    def fill(self, entries: Iterable[tuple], rows: int) -> "ChangePoints":
        """Set ``live`` from ``entries``, ``(begin, end, item)`` for each
        row whose bounds are both Dates (as ordinals, each one of the
        points), in table order — unless the segments would hold more
        than ``SPAN_LIMIT * rows`` items.  Returns the structure."""
        ascending = self._ascending
        if ascending is None:
            ascending = self._ascending = sorted(self.points)
        spans = []
        total = 0
        for begin, end, item in entries:
            first = bisect_right(ascending, begin)
            last = bisect_right(ascending, end)
            if first < last:  # an empty or inverted period is alive nowhere
                spans.append((first, last, item))
                total += last - first
        if total <= SPAN_LIMIT * rows:
            live: list[list] = [[] for _ in range(len(ascending) + 1)]
            for first, last, item in spans:
                for segment in live[first:last]:
                    segment.append(item)
            self.live = live
        return self

    def alive(self, point: int, window: Optional[list] = None) -> list:
        """A fresh list of the filled items alive at ``point``; an open
        read ``window`` ``[lo, hi, point]`` is narrowed to the segment
        around it (:meth:`window`)."""
        ascending = self._ascending  # sorted by fill
        at = bisect_right(ascending, point)
        if window is not None:
            if at and ascending[at - 1] > window[0]:
                window[0] = ascending[at - 1]
            if at < len(ascending) and ascending[at] < window[1]:
                window[1] = ascending[at]
        return self.live[at][:]


class IntervalIndex:
    """Index over one ``(begin, end)`` column pair of a table: ``begins[i]``
    and ``ends[i]`` are the day ordinals of row ``i``'s bounds, in table
    order, NaN where a bound is not a :class:`Date`.

    Built from the table's current row list and kept valid at
    ``table.version`` by the table's mutation primitives (see
    :meth:`Table.interval_index`): :meth:`add` follows an appended row,
    :meth:`update` a row whose bounds were overwritten, :meth:`remove`
    deleted positions.  ``changes`` and the stab structure over them are
    built on first need; a delta resets both (an append extends the
    points instead).  Searches return fresh lists, so a caller holding
    hits never sees them change.
    """

    __slots__ = ("begin_index", "end_index", "begins", "ends", "_changes", "_stab")

    def __init__(self, rows: list[list[Any]], begin_index: int, end_index: int) -> None:
        self.begin_index = begin_index
        self.end_index = end_index
        self.begins = [_ordinal(row[begin_index]) for row in rows]
        self.ends = [_ordinal(row[end_index]) for row in rows]
        self._changes: Optional[ChangePoints] = None
        self._stab: Optional[ChangePoints] = None

    @property
    def changes(self) -> ChangePoints:
        """The pair's change points: every Date bound, one whose opposite
        bound is NULL too (matching
        :func:`repro.temporal.period.collect_change_points`)."""
        changes = self._changes
        if changes is None:
            points = set(self.begins)
            points.update(self.ends)
            points.discard(_NAN)  # every NULL bound is this one object
            changes = self._changes = ChangePoints(frozenset(points))
        return changes

    # -- deltas (applied by the Table primitives after the rows changed) -----

    def add(self, row: list[Any]) -> None:
        """``row`` was appended to the table."""
        begin = _ordinal(row[self.begin_index])
        end = _ordinal(row[self.end_index])
        self.begins.append(begin)
        self.ends.append(end)
        changes = self._changes
        if changes is not None:
            points = {point for point in (begin, end) if point is not _NAN}
            # a filled structure is never edited: a new one, points kept
            if self._stab is not None or not points <= changes.points:
                self._changes = ChangePoints(changes.points | points)
        self._stab = None

    def update(self, position: int, row: list[Any]) -> None:
        """A bound of ``row``, at table ``position``, was overwritten."""
        begin = _ordinal(row[self.begin_index])
        end = _ordinal(row[self.end_index])
        if begin != self.begins[position] or end != self.ends[position]:
            self.begins[position] = begin
            self.ends[position] = end
            self._changes = self._stab = None

    def remove(self, doomed: list[int]) -> None:
        """The rows at the ascending table positions ``doomed`` were
        deleted."""
        self.begins = without(self.begins, doomed)
        self.ends = without(self.ends, doomed)
        self._changes = self._stab = None

    # -- queries ------------------------------------------------------------

    def search_positions(
        self, begin_max: Optional[int], end_min: Optional[int],
        begin_min: Optional[int] = None,
    ) -> list[int]:
        """Table positions (ascending) of the rows with ``begin_min <=
        begin <= begin_max AND end >= end_min`` — the planner's probe.  A
        bound given as None tests nothing; a NULL row bound fails every
        test it is in.  A stab is answered by the stab structure when it
        is within its size guard, any other probe by one pass in table
        order."""
        point = stab_point([begin_min, begin_max, end_min])
        if point is not None and self.serves_stabs():
            return self._stab.alive(point)
        begins, ends = self.begins, self.ends
        every = range(len(begins))
        if begin_min is None:
            if begin_max is None:
                return list(every) if end_min is None else [
                    i for i in every if ends[i] >= end_min
                ]
            if end_min is None:
                return [i for i in every if begins[i] <= begin_max]
            return [i for i in every if begins[i] <= begin_max and ends[i] >= end_min]
        hi = _INF if begin_max is None else begin_max
        if end_min is None:
            return [i for i in every if begin_min <= begins[i] <= hi]
        return [i for i in every if begin_min <= begins[i] <= hi and ends[i] >= end_min]

    def serves_stabs(self) -> bool:
        """Does the stab structure over ``changes`` (positions, filled on
        first need) fit :data:`SPAN_LIMIT`?"""
        stab = self._stab
        if stab is None:
            begins, ends = self.begins, self.ends
            stab = self._stab = self.changes.fill(
                (
                    (begins[i], ends[i], i) for i in range(len(begins))
                    if begins[i] < ends[i]  # False for a NULL bound
                ),
                len(begins),
            )
        return stab.live is not None
