"""In-memory table storage.

Rows are plain Python lists (one slot per column) so inserts, updates,
the undo log and WAL redo stay cheap and identity-based;
:class:`~repro.sqlengine.values.Row` objects are only materialised at
result boundaries.  The rows are a table's only in-memory form: hash
and interval indexes, change points and stab structures are *derived*
from them (see :class:`Table` for the one validity rule), and the
planner's typed filters read them through each column's declared kind
(:func:`_column_kind`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.sqlengine.errors import CatalogError, ExecutionError
from repro.sqlengine.interval_index import ChangePoints, IntervalIndex, without
from repro.sqlengine.types import SqlType, coerce
from repro.sqlengine.values import Date, Null, sort_key


class Column:
    """Column metadata."""

    __slots__ = ("name", "type", "not_null", "primary_key")

    def __init__(
        self,
        name: str,
        type_: SqlType,
        not_null: bool = False,
        primary_key: bool = False,
    ) -> None:
        self.name = name
        self.type = type_
        self.not_null = not_null or primary_key
        self.primary_key = primary_key

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Column({self.name}, {self.type})"


def _column_kind(type_: SqlType) -> str:
    """The comparison domain a declared column type maps to.

    * ``int``  — integers and booleans (booleans normalise to 0/1, the
      same normalisation :func:`repro.sqlengine.values.compare` applies);
    * ``date`` — day ordinals;
    * ``float`` — FLOAT/REAL/DOUBLE (and non-integer DECIMAL/NUMERIC,
      which the engine stores as Python floats);
    * ``str``  — character types, compared right-stripped because
      ``compare`` strips both sides;
    * ``obj``  — anything else: raw values, of no value class.
    """
    if type_.is_integer or type_.is_boolean:
        return "int"
    if type_.is_date:
        return "date"
    if type_.name in ("FLOAT", "REAL", "DOUBLE", "DECIMAL", "NUMERIC"):
        return "float"
    if type_.is_character:
        return "str"
    return "obj"


# -- deltas -------------------------------------------------------------------
# One function per mutation shape.  Each receives a derived structure
# that was valid just before the mutation (its key names the kind, see
# Table) and returns it brought forward — edited in place, or a
# replacement — or None when only a rebuild can express the change.

_POSITIONS = ("positions",)


def _drop_buckets(key: tuple, structure: dict, values: list) -> None:
    """A stab key's buckets of the hash ``values`` rebuild on their next
    stab: the buckets map is edited, the stab structures never are."""
    for value in values:
        if value is not Null:
            structure.pop(sort_key(value), None)


def _append_delta(key: tuple, structure: Any, row: list[Any], position: int) -> Any:
    """``row`` was appended, at ``position``."""
    kind = key[0]
    if kind == "hash":
        value = row[key[1]]
        if value is not Null:
            bucket = sort_key(value)
            # copy-on-write: a reader holding the old bucket keeps it
            structure[bucket] = structure.get(bucket, []) + [row]
    elif kind == "interval":
        structure.add(row)
    elif kind == "change_points":
        points = {
            value.ordinal for value in (row[key[1]], row[key[2]])
            if isinstance(value, Date)
        }
        if not points <= structure.points:
            structure = ChangePoints(structure.points | points)
    elif kind == "stab":
        _drop_buckets(key, structure, [row[key[1]]])
    else:
        structure[id(row)] = position
    return structure


def _update_delta(key: tuple, structure: Any, touched: list) -> Any:
    """Cells were overwritten in place: ``touched`` lists ``(position,
    row, [(column, old, new), ...])`` with the rows already updated."""
    kind = key[0]
    if kind == "positions":
        return structure  # identity and position are unchanged
    for position, row, changes in touched:
        for column, old, new in changes:
            if column not in key[1:] or old is new:
                continue
            elif kind == "hash":
                # the row stays in its bucket only under an equal key
                if old is Null or new is Null or sort_key(old) != sort_key(new):
                    return None
            elif kind == "stab":
                # the row's bucket, and under a changed key the one it left
                _drop_buckets(
                    key, structure, [row[key[1]], old if column == key[1] else Null]
                )
            elif not (isinstance(old, Date) and isinstance(new, Date)):
                return None  # a non-Date bound: the row enters or leaves
            elif old.ordinal != new.ordinal:
                if kind == "change_points" or column == key[1]:
                    return None  # a point may vanish / the entry moves
                begin = row[key[1]]  # no entry to follow under a NULL begin
                if isinstance(begin, Date) and not structure.set_end(
                    position, begin.ordinal, new.ordinal
                ):
                    return None
    return structure


def _delete_delta(key: tuple, structure: Any, doomed: list[int], rows: list) -> Any:
    """The ``rows`` at the ascending positions ``doomed`` were removed."""
    kind = key[0]
    if kind == "hash":
        column = key[1]
        gone = set(map(id, rows))
        buckets = {
            sort_key(row[column]) for row in rows if row[column] is not Null
        }
        for bucket in buckets:
            # copy-on-write, like the append
            kept = [row for row in structure[bucket] if id(row) not in gone]
            if kept:
                structure[bucket] = kept
            else:
                del structure[bucket]
    elif kind == "interval":
        structure.remove(doomed)
    elif kind == "stab":
        _drop_buckets(key, structure, [row[key[1]] for row in rows])
    else:
        return None  # change points, positions: cheap to rebuild
    return structure


class Table:
    """A heap table: column metadata plus a list of row lists.

    Every mutating primitive consults ``txn`` (the owning database's
    :class:`~repro.sqlengine.txn.TransactionManager`, attached when the
    table is registered in a catalog): while logging is active it
    records an inverse operation, and an armed fault plan may abort the
    primitive *before* it mutates anything.  Unregistered tables
    (routine variable tables, result scratch) carry ``txn = None`` and
    pay nothing.

    **Derived structures** — hash indexes, interval indexes,
    change-point sets, per-bucket stab structures and the row-position
    map — are built lazily from ``rows`` by the
    accessor methods below (the only build code) and held in
    ``_derived`` as ``key -> (version, row count, structure)``.  One
    rule decides validity: *a structure is valid at* ``table.version``
    *because it was built there or because every mutation since was
    applied to it as a delta*.  Each primitive changes the rows, bumps
    ``version`` and then carries the structures that were valid just
    before: ``append_row``, ``update_rows`` and ``delete_rows`` apply
    their row delta and re-tag last; what a delta cannot express (a
    changed hash key or begin bound, a non-Date bound) drops that structure — or, for the stab buckets,
    the buckets of the rows it touched — and ``replace_rows``,
    ``add_column`` and any edit of ``rows`` behind the primitives' back
    (tests) carry nothing, so the next accessor rebuilds.  These five
    are the only row writers: statements and crash recovery both call
    them (see :mod:`repro.sqlengine.recovery`).  Readers are never disturbed: a
    hash bucket is replaced, never grown or shrunk in place, and index
    searches return fresh lists.  Rollback evicts by tag
    (:func:`repro.sqlengine.txn._restore_table_version`).
    """

    # default for tables never registered in a catalog
    txn = None

    def __init__(self, name: str, columns: Sequence[Column], temporary: bool = False) -> None:
        self.name = name
        self.columns = list(columns)
        self.temporary = temporary
        self.rows: list[list[Any]] = []
        self._index: dict[str, int] = {
            column.name.lower(): i for i, column in enumerate(self.columns)
        }
        if len(self._index) != len(self.columns):
            raise CatalogError(f"duplicate column names in table {name}")
        # replaced whenever the columns change: a plan bound against
        # this stamp still fits the table (``planner._Scan.validate``)
        self.schema_stamp = object()
        # bumped by every mutation; tags the derived structures
        self.version = 0
        # key -> (version, row count, structure), keys ("hash", column),
        # ("interval", begin, end), ("change_points", begin, end),
        # ("stab", column, begin, end, *period columns), ("positions",) —
        # see the class docstring
        self._derived: dict[tuple, tuple[int, int, Any]] = {}
        # declared (begin, end) period column pairs, eligible for
        # interval-index scans
        self.interval_pairs: list[tuple[str, str]] = []
        # MVCC (see repro.sqlengine.mvcc): the in-flight transaction
        # holding this table's write claim, the csn of the last commit
        # that touched it, the committed pre-images serving pinned
        # snapshots, and the read-only Table views resolved from them.
        # All stay empty while a single session is registered.
        self.writer = None
        self.last_committed_csn = 0
        self.version_chain: list[tuple] = []
        self._snapshot_views: dict[int, "Table"] = {}

    # -- metadata -----------------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def has_column(self, name: str) -> bool:
        return name.lower() in self._index

    def column_index(self, name: str) -> int:
        try:
            return self._index[name.lower()]
        except KeyError:
            raise CatalogError(
                f"table {self.name} has no column {name!r}"
            ) from None

    def column_type(self, name: str) -> SqlType:
        return self.columns[self.column_index(name)].type

    # -- data ---------------------------------------------------------------

    def prepare_row(
        self, values: Sequence[Any], columns: Optional[Sequence[str]] = None
    ) -> list[Any]:
        """Coerce and validate one row without storing it.

        Multi-row INSERT prepares every row through this before
        appending any, so a NOT NULL or coercion failure on row N
        cannot leave rows 1..N-1 behind.
        """
        if columns is None:
            if len(values) != len(self.columns):
                raise ExecutionError(
                    f"INSERT into {self.name}: expected {len(self.columns)}"
                    f" values, got {len(values)}"
                )
            row = [
                coerce(value, column.type)
                for value, column in zip(values, self.columns)
            ]
        else:
            if len(values) != len(columns):
                raise ExecutionError(
                    f"INSERT into {self.name}: {len(columns)} columns but"
                    f" {len(values)} values"
                )
            row = [Null] * len(self.columns)
            for name, value in zip(columns, values):
                index = self.column_index(name)
                row[index] = coerce(value, self.columns[index].type)
        for column, value in zip(self.columns, row):
            if column.not_null and value is Null:
                raise ExecutionError(
                    f"NULL not allowed in {self.name}.{column.name}"
                )
        return row

    def prepare_cells(
        self, indexes: Sequence[int], values: Sequence[Any]
    ) -> list[tuple[int, Any]]:
        """Coerce and validate one row's SET values without storing
        them: :meth:`prepare_row` for an UPDATE.  The match plan
        prepares every matched row's cells before any is written, so a
        failure on the last row leaves all of them untouched."""
        cells = []
        for index, value in zip(indexes, values):
            column = self.columns[index]
            value = coerce(value, column.type)
            if column.not_null and value is Null:
                raise ExecutionError(
                    f"NULL not allowed in {self.name}.{column.name}"
                )
            cells.append((index, value))
        return cells

    def append_row(self, row: list[Any]) -> None:
        """Append a prepared row (see :meth:`prepare_row`); logs undo."""
        txn = self.txn
        if txn is not None:
            if txn.mvcc.multi:
                txn.mvcc.claim(txn, self)
            if txn.fault_plan is not None:
                txn.fault_plan.hit("table.insert", self.name)
            if txn.logging:
                txn.log.append(("ins", self, self.version))
            if txn.wal is not None and not self.temporary:
                txn.wal.record_insert(self.name, row)
        rows = self.rows
        rows.append(row)
        self.version += 1
        if self._derived:
            self._carry(len(rows) - 1, _append_delta, row, len(rows) - 1)

    def insert(self, values: Sequence[Any], columns: Optional[Sequence[str]] = None) -> None:
        """Insert one row; missing columns get NULL, values are coerced."""
        self.append_row(self.prepare_row(values, columns))

    def scan(self) -> Iterator[list[Any]]:
        """Iterate over rows.  Callers must not mutate yielded lists."""
        return iter(self.rows)

    def delete_rows(self, rows: Sequence[list[Any]]) -> int:
        """Delete the given live rows (by identity); returns the count."""
        txn = self.txn
        if txn is not None:
            if txn.mvcc.multi:
                txn.mvcc.claim(txn, self)
            if txn.fault_plan is not None:
                txn.fault_plan.hit("table.delete", self.name)
        if not rows:
            return 0
        old_rows = self.rows
        doomed = sorted(map(self._row_position, rows))
        if txn is not None:
            if txn.logging:
                # the displaced list object is the inverse
                txn.log.append(("rows", self, self.version, old_rows))
            if txn.wal is not None and not self.temporary:
                txn.wal.record_delete(self.name, doomed)
        self.rows = without(old_rows, doomed)
        self.version += 1
        self._carry(
            len(old_rows), _delete_delta, doomed,
            [old_rows[position] for position in doomed],
        )
        return len(doomed)

    def update_rows(
        self, rows: Sequence[list[Any]], cells: Sequence[Sequence[tuple[int, Any]]]
    ) -> int:
        """Overwrite prepared ``(column index, value)`` cells (see
        :meth:`prepare_cells`) of the given live rows, ``cells[i]`` into
        ``rows[i]``; returns the count updated."""
        txn = self.txn
        if txn is not None:
            if txn.mvcc.multi:
                txn.mvcc.claim(txn, self)
            if txn.fault_plan is not None:
                txn.fault_plan.hit("table.update", self.name)
        if not rows:
            return 0
        log = txn.log if txn is not None and txn.logging else None
        wal = txn.wal if txn is not None and not self.temporary else None
        # a row's position is needed only to address it in a redo
        # record or in a derived structure
        touched = [] if self._derived or wal is not None else None
        for row, new in zip(rows, cells):
            if log is not None:
                log.append((
                    "upd", self, self.version, row,
                    [(index, row[index]) for index, _ in new],
                ))
            if touched is not None:
                position = self._row_position(row)
                if wal is not None:
                    wal.record_update(self.name, position, new)
                touched.append((
                    position, row,
                    [(index, row[index], value) for index, value in new],
                ))
            for index, value in new:
                row[index] = value
        self.version += 1
        if touched:
            self._carry(len(self.rows), _update_delta, touched)
        return len(rows)

    def replace_rows(self, new_rows: list[list[Any]]) -> None:
        """Swap in a rebuilt row list (bulk delete / reorder / empty)."""
        txn = self.txn
        if txn is not None:
            if txn.mvcc.multi:
                txn.mvcc.claim(txn, self)
            if txn.fault_plan is not None:
                txn.fault_plan.hit("table.replace_rows", self.name)
            if txn.logging:
                txn.log.append(("rows", self, self.version, self.rows))
            if txn.wal is not None and not self.temporary:
                txn.wal.record_set_rows(self.name, new_rows)
        self.rows = new_rows
        self.version += 1

    def add_column(self, column: Column, default: Any = Null) -> None:
        """Append a column, back-filling existing rows with ``default``.

        Keeps ``_index`` and the hash-index bookkeeping consistent — the
        supported way to widen a table (the temporal stratum uses it for
        ``ADD VALIDTIME`` / ``ADD TRANSACTIONTIME`` migrations).
        """
        key = column.name.lower()
        if key in self._index:
            raise CatalogError(
                f"table {self.name} already has column {column.name!r}"
            )
        txn = self.txn
        if txn is not None:
            if txn.mvcc.multi:
                txn.mvcc.claim(txn, self)
            if txn.fault_plan is not None:
                txn.fault_plan.hit("table.add_column", self.name)
            if txn.logging:
                txn.log.append(("addcol", self, self.version, len(self.columns)))
            if txn.wal is not None and not self.temporary:
                txn.wal.record_add_column(self.name, column, default)
        self.columns.append(column)
        self._index[key] = len(self.columns) - 1
        self.schema_stamp = object()
        for row in self.rows:
            row.append(default)
        self.version += 1

    # -- derived structures ---------------------------------------------------

    def _row_position(self, row: list[Any]) -> int:
        """The position of a live row (identity, not equality) — rows can
        be duplicates by value."""
        position = self.row_positions().get(id(row))
        if position is None or self.rows[position] is not row:
            raise ExecutionError(
                f"row is not resident in table {self.name} (cannot log redo)"
            )
        return position

    def _count(self, name: str, n: int = 1) -> None:
        """Count on the owning database's registry (catalog tables only)."""
        txn = self.txn
        if txn is not None:
            txn.db.obs.inc(name, n)

    def _current(self, key: tuple) -> Any:
        """The structure under ``key`` if valid at this version."""
        entry = self._derived.get(key)
        if entry is not None and entry[0] == self.version:
            return entry[2]
        return None

    def _built(self, key: tuple, structure: Any) -> Any:
        self._derived[key] = (self.version, len(self.rows), structure)
        self._count("engine.derived.builds." + key[0])
        return structure

    def _carry(self, count_before: int, delta: Callable[..., Any], *change: Any) -> None:
        """Bring every structure that was valid just before the mutation
        (``count_before`` rows at ``version - 1``) forward by ``delta``.

        Runs after the rows changed and ``version`` moved.  A structure
        leaves ``_derived`` while its delta runs and returns re-tagged,
        so one that raised midway or that the delta refused is simply
        gone; entries describing older states are left alone — rollback
        to their version revalidates them, anything else rebuilds.
        """
        derived = self._derived
        version = self.version
        count = len(self.rows)
        carried = 0
        for key, (tag, rows, structure) in list(derived.items()):
            if tag != version - 1 or rows != count_before:
                continue
            del derived[key]
            structure = delta(key, structure, *change)
            if structure is not None:
                derived[key] = (version, count, structure)
                carried += 1
        if carried:
            self._count("engine.derived.deltas", carried)

    def hash_index(self, column_index: int) -> dict:
        """A hash index mapping sort-keyed column values to row lists
        (table order within a bucket).  NULLs are excluded (equality
        with NULL is never True).  A bucket a caller holds is never
        edited: appends and deletes replace it."""
        key = ("hash", column_index)
        index = self._current(key)
        if index is None:
            index = {}
            for row in self.rows:
                value = row[column_index]
                if value is Null:
                    continue
                index.setdefault(sort_key(value), []).append(row)
            self._built(key, index)
        return index

    def row_positions(self) -> dict:
        """``id(row)`` → position in :attr:`rows`.  A join whose scan
        prefix ran in another order than FROM order sorts the prefix's
        matches back into the nested loop's emission order with it
        (before any later FROM item is joined), and logged in-place
        writes address their row with it."""
        positions = self._current(_POSITIONS)
        if positions is None:
            positions = self._built(
                _POSITIONS,
                {id(row): position for position, row in enumerate(self.rows)},
            )
        return positions

    def declare_interval(self, begin_column: str, end_column: str) -> None:
        """Declare a ``(begin, end)`` period column pair as eligible for
        interval-index scans (idempotent).  The temporal registry calls
        this when a table gains VALIDTIME or TRANSACTIONTIME columns."""
        pair = (begin_column.lower(), end_column.lower())
        # validate both columns exist up front
        self.column_index(begin_column)
        self.column_index(end_column)
        if pair not in self.interval_pairs:
            self.interval_pairs.append(pair)

    def interval_index(self, begin_index: int, end_index: int) -> IntervalIndex:
        """The interval index over a column-index pair (see
        :mod:`repro.sqlengine.interval_index`)."""
        key = ("interval", begin_index, end_index)
        index = self._current(key)
        if index is None:
            index = self._built(key, IntervalIndex(self.rows, begin_index, end_index))
        return index

    def _change_points(self, begin_index: int, end_index: int) -> ChangePoints:
        key = ("change_points", begin_index, end_index)
        structure = self._current(key)
        if structure is None:
            structure = self._built(
                key, ChangePoints.of(self.rows, (begin_index, end_index))
            )
        return structure

    def change_points(self, begin_index: int, end_index: int) -> frozenset[int]:
        """Every begin/end day ordinal appearing in the column pair, so
        sequenced statements merge per-table sets instead of rescanning
        unchanged tables.  A Date bound counts even when the opposite
        bound is NULL, matching
        :func:`repro.temporal.period.collect_change_points`.
        """
        return self._change_points(begin_index, end_index).points

    def change_window(self, begin_index: int, end_index: int, point: int) -> tuple:
        """The ``[lo, hi)`` around ``point`` in which no row of the pair
        begins or ends (see :meth:`ChangePoints.window`)."""
        return self._change_points(begin_index, end_index).window(point)

    def bucket_stab(
        self, column: int, bucket: tuple, begin_index: int, end_index: int,
        columns: tuple,
    ) -> ChangePoints:
        """The stab structure over ``hash_index(column)[bucket]``: the
        change points of the period ``columns`` (every declared pair's,
        so a segment is the read window the bucket's versions allow) and
        the rows alive in each segment under the ``(begin, end)`` pair.
        Its ``live`` is None beyond the size guard.  One derived entry per
        key column and pair maps buckets to structures, built on a
        bucket's first stab; a delta drops the buckets whose rows it
        touched."""
        key = ("stab", column, begin_index, end_index, *columns)
        buckets = self._current(key)
        if buckets is None:
            buckets = self._built(key, {})
        structure = buckets.get(bucket)
        if structure is None:
            structure = buckets[bucket] = ChangePoints.of(
                self.hash_index(column).get(bucket, []), columns,
                (begin_index, end_index),
            )
        return structure

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.name}, {len(self.rows)} rows)"
