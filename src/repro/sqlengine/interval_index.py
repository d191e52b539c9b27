"""Endpoint-sorted interval index for temporal scan pruning.

The temporal transforms (§V) emit predicates of two shapes against a
table's ``(begin, end)`` period columns::

    t.begin <= P AND P < t.end          -- stab: rows alive at point P
    t.begin < E AND B < t.end           -- overlap with period [B, E)

Both reduce to *"begin at most X and end at least Y"* over the day
ordinals.  This index stores the rows whose period bounds are both
DATE values sorted by begin ordinal, with a segment tree of maximum
end ordinals on top, so ``search(begin_max, end_min)`` reports the
matching rows in O(log n + k) instead of scanning the heap.  MAX's
outer join with its constant-period table bounds the *begin* column
from both sides instead (``X <= cp.begin AND cp.begin < Y``):
``search_positions`` also takes a ``begin_min``, a second bisect, and
either bound on a side may be absent.

Rows whose begin or end is not a :class:`Date` (NULL bounds) are left
out of the entries: a comparison against NULL is never true, so such
rows can never satisfy the bound conjuncts and excluding them is safe.
The one exception is a probe with no end bound, which a row with a
Date begin and a NULL end can satisfy: those rows are kept aside
(``_open_*``, in table order) and reported by such probes only.
Results equal a linear scan's filter over the same bounds, and
candidates are returned in table position order to keep row order
byte-for-byte identical too.

A stab costs its output: :class:`ChangePoints` keeps, next to the
ascending change points of some rows, each elementary segment's live
rows for one ``(begin, end)`` pair, so the rows alive at ``p`` are one
bisect and one list copy.  The index answers a stab probe from one built
over its entries; the planner answers a hash bucket's stab from one
built over the bucket (``Table.bucket_stab``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Optional

from repro.sqlengine.values import Date

_NEG_INF = -1  # below any valid day ordinal (Date.MIN_ORDINAL is 1)
_INF = float("inf")

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
    """Index over one ``(begin, end)`` column pair of a table.

    Built from the table's current row list and kept valid at
    ``table.version`` by the table's mutation primitives (see
    :meth:`Table.interval_index`): :meth:`add` follows an appended row,
    :meth:`set_end` a changed end bound, :meth:`remove` deleted
    positions.  Every delta only edits the begin-sorted entry lists; the
    max-end tree over them is rebuilt by the next search, the stab
    structure by the next stab.  Searches return fresh lists, so a caller
    holding hits never sees them change.
    """

    __slots__ = (
        "begin_index", "end_index", "entry_count", "total_rows",
        "_begins", "_positions", "_rows", "_ends", "_tree",
        "_open_begins", "_open_positions", "_stab",
    )

    def __init__(self, rows: list[list[Any]], begin_index: int, end_index: int) -> None:
        entries = []
        self._open_begins: list[int] = []
        self._open_positions: list[int] = []
        for position, row in enumerate(rows):
            begin = row[begin_index]
            end = row[end_index]
            if isinstance(begin, Date):
                if isinstance(end, Date):
                    entries.append((begin.ordinal, position, end.ordinal, row))
                else:
                    self._open_begins.append(begin.ordinal)
                    self._open_positions.append(position)
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        self.begin_index = begin_index
        self.end_index = end_index
        self.entry_count = len(entries)
        self.total_rows = len(rows)
        self._begins = [entry[0] for entry in entries]
        self._positions = [entry[1] for entry in entries]
        self._ends = [entry[2] for entry in entries]
        self._rows = [entry[3] for entry in entries]
        self._tree: Optional[list[int]] = None
        self._stab: Optional[ChangePoints] = None

    def _max_end_tree(self) -> list[int]:
        """The segment tree over the begin-sorted entries (heap layout,
        root at 1); each node holds the maximum end ordinal of its range
        so whole subtrees with every end below the threshold are skipped
        during reporting.  Built level by level on first use after a
        build or a delta."""
        tree = self._tree
        if tree is None:
            size = 1
            while size < max(self.entry_count, 1):
                size *= 2
            level = self._ends + [_NEG_INF] * (size - self.entry_count)
            levels = [level]
            while len(level) > 1:
                level = list(map(max, level[0::2], level[1::2]))
                levels.append(level)
            tree = [_NEG_INF]
            for level in reversed(levels):
                tree += level
            self._tree = tree
        return tree

    # -- deltas (applied by the Table primitives after the rows changed) -----

    def add(self, row: list[Any]) -> None:
        """``row`` was appended to the table."""
        position = self.total_rows
        self.total_rows += 1
        begin = row[self.begin_index]
        end = row[self.end_index]
        if not isinstance(begin, Date):
            return
        if isinstance(end, Date):
            # the new position is the largest: after every equal begin
            at = bisect_right(self._begins, begin.ordinal)
            self._begins.insert(at, begin.ordinal)
            self._positions.insert(at, position)
            self._ends.insert(at, end.ordinal)
            self._rows.insert(at, row)
            self.entry_count += 1
            self._tree = self._stab = None
        else:
            self._open_begins.append(begin.ordinal)
            self._open_positions.append(position)

    def set_end(self, position: int, begin: int, end: int) -> bool:
        """The row at table ``position`` (begin ordinal ``begin``, both
        bounds dates before and after) now ends at ordinal ``end``;
        False when the index holds no such entry."""
        lo = bisect_left(self._begins, begin)
        hi = bisect_right(self._begins, begin)
        at = bisect_left(self._positions, position, lo, hi)
        if at == hi or self._positions[at] != position:
            return False
        self._ends[at] = end
        self._tree = self._stab = None
        return True

    def remove(self, doomed: list[int]) -> None:
        """The rows at the ascending table positions ``doomed`` were
        deleted: their entries go, later positions shift down."""
        doomed_set = set(doomed)
        gone = [
            at for at, position in enumerate(self._positions)
            if position in doomed_set
        ]
        if gone:
            self._begins = without(self._begins, gone)
            self._positions = without(self._positions, gone)
            self._ends = without(self._ends, gone)
            self._rows = without(self._rows, gone)
            self.entry_count -= len(gone)
        self._positions = [
            position - bisect_left(doomed, position) for position in self._positions
        ]
        if self._open_positions:
            kept = [
                (begin, position)
                for begin, position in zip(self._open_begins, self._open_positions)
                if position not in doomed_set
            ]
            self._open_begins = [begin for begin, _ in kept]
            self._open_positions = [
                position - bisect_left(doomed, position) for _, position in kept
            ]
        self.total_rows -= len(doomed)
        self._tree = self._stab = None

    # -- queries ------------------------------------------------------------

    def _search_hits(
        self, begin_max: Optional[int], end_min: Optional[int],
        begin_min: Optional[int] = None,
    ) -> list[int]:
        """Entry indexes with ``begin_min <= begin <= begin_max AND end
        >= end_min`` (a bound given as None is absent), sorted by table
        position."""
        start = 0 if begin_min is None else bisect_left(self._begins, begin_min)
        stop = (
            self.entry_count if begin_max is None
            else bisect_right(self._begins, begin_max)
        )
        if start >= stop:
            return []
        if end_min is None:
            hits = list(range(start, stop))
            hits.sort(key=self._positions.__getitem__)
            return hits
        threshold = end_min - 1  # report entries with end > threshold
        tree = self._max_end_tree()
        size = len(tree) // 2
        hits = []
        # iterative DFS over the tree, pruning subtrees outside the begin
        # range or whose max end is at most the threshold
        stack = [(1, 0, size)]
        while stack:
            node, lo, hi = stack.pop()
            if lo >= stop or hi <= start or tree[node] <= threshold:
                continue
            if hi - lo == 1:
                hits.append(lo)
                continue
            mid = (lo + hi) // 2
            # push right first so the left child is processed first; the
            # ordering of `hits` does not matter (re-sorted by position)
            stack.append((2 * node + 1, mid, hi))
            stack.append((2 * node, lo, mid))
        hits.sort(key=self._positions.__getitem__)
        return hits

    def search(self, begin_max: int, end_min: int) -> list[list[Any]]:
        """Rows with ``begin <= begin_max AND end >= end_min`` (ordinals),
        in table position order."""
        rows = self._rows
        return [rows[i] for i in self._search_hits(begin_max, end_min)]

    def search_positions(
        self, begin_max: Optional[int], end_min: Optional[int],
        begin_min: Optional[int] = None,
    ) -> list[int]:
        """Table positions (ascending) of the rows with ``begin_min <=
        begin <= begin_max AND end >= end_min``, any bound None meaning
        absent — the planner's probe.  Without ``end_min`` a row whose
        end is NULL qualifies on its begin alone.  A stab is answered
        by the stab structure when it is within its size guard."""
        point = stab_point([begin_min, begin_max, end_min])
        if point is not None and self.serves_stabs():
            return self._stab.alive(point)
        positions = self._positions
        found = [
            positions[i] for i in self._search_hits(begin_max, end_min, begin_min)
        ]
        if end_min is None and self._open_positions:
            lo = -_INF if begin_min is None else begin_min
            hi = _INF if begin_max is None else begin_max
            found += [
                position
                for begin, position in zip(self._open_begins, self._open_positions)
                if lo <= begin <= hi
            ]
            found.sort()
        return found

    def serves_stabs(self) -> bool:
        """Does the stab structure over the entries (positions, built on
        first need) fit :data:`SPAN_LIMIT`?"""
        stab = self._stab
        if stab is None:
            begins, ends = self._begins, self._ends
            by_position = sorted(zip(self._positions, begins, ends))
            stab = self._stab = ChangePoints(frozenset(begins) | frozenset(ends)).fill(
                ((begin, end, position) for position, begin, end in by_position),
                self.total_rows,
            )
        return stab.live is not None

    def stab(self, point: int) -> list[list[Any]]:
        """Rows alive at ``point``: ``begin <= point AND point < end``."""
        return self.search(point, point + 1)

    def overlaps(self, begin: int, end: int) -> list[list[Any]]:
        """Rows whose period overlaps ``[begin, end)``:
        ``begin < row.end AND row.begin < end``."""
        return self.search(end - 1, begin + 1)
