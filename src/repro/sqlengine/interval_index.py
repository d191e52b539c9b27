"""Endpoint-sorted interval index for temporal scan pruning.

The temporal transforms (§V) emit predicates of two shapes against a
table's ``(begin, end)`` period columns::

    t.begin <= P AND P < t.end          -- stab: rows alive at point P
    t.begin < E AND B < t.end           -- overlap with period [B, E)

Both reduce to *"begin at most X and end at least Y"* over the day
ordinals.  This index stores the rows whose period bounds are both
DATE values sorted by begin ordinal, with a segment tree of maximum
end ordinals on top, so ``search(begin_max, end_min)`` reports the
matching rows in O(log n + k) instead of scanning the heap.

Rows whose begin or end is not a :class:`Date` (NULL bounds) are left
out of the index: a comparison against NULL is never true, so such
rows can never satisfy the bound conjuncts and excluding them is safe.
The index only *prunes* — callers still evaluate the full WHERE over
the candidates — so results are identical to a linear scan, and
candidates are returned in table position order to keep row order
byte-for-byte identical too.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Optional

from repro.sqlengine.values import Date

_NEG_INF = -1  # below any valid day ordinal (Date.MIN_ORDINAL is 1)


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


class IntervalIndex:
    """Index over one ``(begin, end)`` column pair of a table.

    Built from the table's current row list and kept valid at
    ``table.version`` by the table's mutation primitives (see
    :meth:`Table.interval_index`): :meth:`add` follows an appended row,
    :meth:`set_end` a changed end bound, :meth:`remove` deleted
    positions.  Every delta only edits the begin-sorted entry lists; the
    max-end tree over them is rebuilt by the next search.  Searches
    return fresh lists, so a caller holding hits never sees them change.
    """

    __slots__ = (
        "begin_index", "end_index", "entry_count", "total_rows",
        "_begins", "_positions", "_rows", "_ends", "_tree",
    )

    def __init__(self, rows: list[list[Any]], begin_index: int, end_index: int) -> None:
        entries = []
        for position, row in enumerate(rows):
            begin = row[begin_index]
            end = row[end_index]
            if isinstance(begin, Date) and isinstance(end, Date):
                entries.append((begin.ordinal, position, end.ordinal, row))
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
        if isinstance(begin, Date) and isinstance(end, Date):
            # the new position is the largest: after every equal begin
            at = bisect_right(self._begins, begin.ordinal)
            self._begins.insert(at, begin.ordinal)
            self._positions.insert(at, position)
            self._ends.insert(at, end.ordinal)
            self._rows.insert(at, row)
            self.entry_count += 1
            self._tree = None

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
        self._tree = None
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
        self.total_rows -= len(doomed)
        self._tree = None

    # -- queries ------------------------------------------------------------

    def _search_hits(self, begin_max: int, end_min: int) -> list[int]:
        """Entry indexes with ``begin <= begin_max AND end >= end_min``,
        sorted by table position."""
        prefix = bisect_right(self._begins, begin_max)
        if prefix == 0:
            return []
        threshold = end_min - 1  # report entries with end > threshold
        tree = self._max_end_tree()
        size = len(tree) // 2
        hits: list[int] = []
        # iterative DFS over the tree, pruning subtrees that start at or
        # past the prefix or whose max end is at most the threshold
        stack = [(1, 0, size)]
        while stack:
            node, lo, hi = stack.pop()
            if lo >= prefix or tree[node] <= threshold:
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

    def search_positions(self, begin_max: int, end_min: int) -> list[int]:
        """Table positions (ascending) of the rows :meth:`search` would
        return — the entry point for the vectorized selection path."""
        positions = self._positions
        return [positions[i] for i in self._search_hits(begin_max, end_min)]

    def stab(self, point: int) -> list[list[Any]]:
        """Rows alive at ``point``: ``begin <= point AND point < end``."""
        return self.search(point, point + 1)

    def overlaps(self, begin: int, end: int) -> list[list[Any]]:
        """Rows whose period overlaps ``[begin, end)``:
        ``begin < row.end AND row.begin < end``."""
        return self.search(end - 1, begin + 1)
