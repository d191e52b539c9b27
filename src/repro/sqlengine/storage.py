"""In-memory table storage.

Rows are plain Python lists (one slot per column) so inserts, updates,
the undo log and WAL redo stay cheap and identity-based;
:class:`~repro.sqlengine.values.Row` objects are only materialised at
result boundaries.  For scans, a table additionally exposes a *derived*
columnar representation (:class:`ColumnStore`): typed column vectors
(stdlib ``array`` for integers, ordinals and date ordinals; lists for
strings and everything else) plus a per-column validity bitmap for
NULLs.  The store is version-cached exactly like the hash and interval
indexes — rows remain the single authoritative write surface, so txn
undo, WAL redo and recovery semantics are unchanged — and the batch
predicate kernels in :mod:`repro.sqlengine.exprcompile` evaluate WHERE
conjuncts over its column slices, returning selection vectors instead
of looping rows.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.sqlengine.errors import CatalogError, ExecutionError
from repro.sqlengine.interval_index import IntervalIndex
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
    """The vector kind a declared column type maps to.

    * ``int``  — integers and booleans (booleans normalise to 0/1, the
      same normalisation :func:`repro.sqlengine.values.compare` applies);
    * ``date`` — day ordinals;
    * ``float`` — FLOAT/REAL/DOUBLE (and non-integer DECIMAL/NUMERIC,
      which the engine stores as Python floats);
    * ``str``  — character types, stored right-stripped because
      ``compare`` strips both sides;
    * ``obj``  — anything else: raw values, never batch-evaluated.
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


class ColumnVector:
    """One column of a :class:`ColumnStore`.

    ``data`` is an ``array('q')`` of ints/ordinals, an ``array('d')`` of
    floats, or a list (strings / raw objects); ``valid`` is a bytearray
    validity bitmap (1 = non-NULL).  Slots holding NULL carry a dummy
    value in ``data`` and must never be read without consulting
    ``valid``.  A value that does not fit the declared kind degrades the
    whole vector to ``obj`` (batch kernels then fall back to rows).
    """

    __slots__ = ("kind", "data", "valid", "nulls")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        if kind == "int" or kind == "date":
            self.data: Any = array("q")
        elif kind == "float":
            self.data = array("d")
        else:
            self.data = []
        self.valid = bytearray()
        # NULL count: kernels skip the validity bitmap entirely when 0
        self.nulls = 0

    def append(self, value: Any) -> None:
        kind = self.kind
        if value is Null:
            self.valid.append(0)
            self.nulls += 1
            self.data.append(0 if kind in ("int", "date", "float") else None)
            return
        if kind == "int" and isinstance(value, int):
            try:
                # bool is an int subclass; int() normalises it like compare
                self.data.append(int(value))
            except OverflowError:  # beyond 64-bit: keep the raw object
                self._degrade()
                self.data.append(value)
        elif kind == "date" and isinstance(value, Date):
            self.data.append(value.ordinal)
        elif kind == "float" and isinstance(value, (int, float)):
            self.data.append(float(value))
        elif kind == "str" and isinstance(value, str):
            self.data.append(value.rstrip())
        elif kind == "obj":
            self.data.append(value)
        else:
            # a value outside the declared kind: demote to raw objects
            self._degrade()
            self.data.append(value)
        self.valid.append(1)

    def _degrade(self) -> None:
        """Demote to an ``obj`` vector, keeping positions aligned."""
        raw = list(self.data)
        self.kind = "obj"
        self.data = raw

    def bytes_resident(self) -> int:
        """Estimated resident bytes of this vector (data + validity)."""
        data = self.data
        if isinstance(data, array):
            payload = len(data) * data.itemsize
        else:
            payload = 0
            for value in data:
                if isinstance(value, str):
                    payload += 49 + len(value)  # CPython str header + chars
                else:
                    payload += 32  # pointer + small-object estimate
        return payload + len(self.valid)


class ColumnStore:
    """The derived columnar image of a table's rows.

    Built from the authoritative row list and cached against
    ``table.version`` (see :meth:`Table.column_store`); appends are
    mirrored incrementally, every other mutation invalidates.
    """

    __slots__ = ("vectors", "row_count")

    def __init__(self, columns: Sequence[Column], rows: list[list[Any]]) -> None:
        self.vectors = [ColumnVector(_column_kind(c.type)) for c in columns]
        self.row_count = 0
        for row in rows:
            self.append(row)

    def append(self, row: list[Any]) -> None:
        for vector, value in zip(self.vectors, row):
            vector.append(value)
        self.row_count += 1

    def bytes_resident(self) -> int:
        return sum(vector.bytes_resident() for vector in self.vectors)


class Table:
    """A heap table: column metadata plus a list of row lists.

    Every mutating primitive consults ``txn`` (the owning database's
    :class:`~repro.sqlengine.txn.TransactionManager`, attached when the
    table is registered in a catalog): while logging is active it
    records an inverse operation, and an armed fault plan may abort the
    primitive *before* it mutates anything.  Unregistered tables
    (routine variable tables, result scratch) carry ``txn = None`` and
    pay nothing.
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
        # lazily-built hash indexes for equality lookups; invalidated by
        # bumping `version` on any mutation
        self.version = 0
        self._hash_indexes: dict[int, tuple[int, dict]] = {}
        # declared (begin, end) period column pairs plus the lazily-built
        # interval indexes and change-point sets over them, all version-
        # invalidated like the hash indexes
        self.interval_pairs: list[tuple[str, str]] = []
        self._interval_indexes: dict[tuple[int, int], tuple[int, IntervalIndex]] = {}
        self._change_points: dict[tuple[int, int], tuple[int, frozenset[int]]] = {}
        # derived columnar image: (built_version, store) — same version
        # discipline as the hash indexes, plus an incremental fast path
        # in append_row (the dominant mutation)
        self._column_store: Optional[tuple[int, ColumnStore]] = None
        # row identity → position: (built_version, map); see row_positions
        self._row_positions: Optional[tuple[int, dict]] = None
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
        self.rows.append(row)
        self.version += 1
        cached = self._column_store
        if cached is not None:
            built, store = cached
            if built == self.version - 1 and store.row_count == len(self.rows) - 1:
                # the only mutation between the two versions is this
                # append: mirror it instead of rebuilding the store
                store.append(row)
                self._column_store = (self.version, store)

    def insert(self, values: Sequence[Any], columns: Optional[Sequence[str]] = None) -> None:
        """Insert one row; missing columns get NULL, values are coerced."""
        self.append_row(self.prepare_row(values, columns))

    def scan(self) -> Iterator[list[Any]]:
        """Iterate over rows.  Callers must not mutate yielded lists."""
        return iter(self.rows)

    def delete_where(self, predicate: Callable[[list[Any]], bool]) -> int:
        """Delete rows matching ``predicate``; returns the count removed."""
        txn = self.txn
        if txn is not None:
            if txn.mvcc.multi:
                txn.mvcc.claim(txn, self)
            if txn.fault_plan is not None:
                txn.fault_plan.hit("table.delete", self.name)
        old_rows = self.rows
        wal = txn.wal if txn is not None and not self.temporary else None
        if wal is not None:
            # one pass that also collects positions for the redo record
            kept, doomed = [], []
            for position, row in enumerate(old_rows):
                if predicate(row):
                    doomed.append(position)
                else:
                    kept.append(row)
        else:
            kept = [row for row in old_rows if not predicate(row)]
        removed = len(old_rows) - len(kept)
        if removed:
            if txn is not None and txn.logging:
                # the displaced list object is the inverse
                txn.log.append(("rows", self, self.version, old_rows))
            if wal is not None:
                wal.record_delete(self.name, doomed)
            self.rows = kept
            self.version += 1
        return removed

    def update_where(
        self,
        predicate: Callable[[list[Any]], bool],
        updater: Callable[[list[Any]], dict[int, Any]],
    ) -> int:
        """Update matching rows in place; returns the count updated.

        ``updater`` receives the *pre-update* row and returns a mapping
        of column index to new (already evaluated) value; coercion
        applies.  All of a row's new values are coerced before any is
        written, so a coercion failure leaves the row untouched.
        """
        txn = self.txn
        if txn is not None:
            if txn.mvcc.multi:
                txn.mvcc.claim(txn, self)
            if txn.fault_plan is not None:
                txn.fault_plan.hit("table.update", self.name)
        log = txn.log if txn is not None and txn.logging else None
        wal = txn.wal if txn is not None and not self.temporary else None
        count = 0
        for position, row in enumerate(self.rows):
            if predicate(row):
                staged = [
                    (index, coerce(value, self.columns[index].type))
                    for index, value in updater(row).items()
                ]
                if log is not None:
                    log.append((
                        "upd", self, self.version, row,
                        [(index, row[index]) for index, _ in staged],
                    ))
                if wal is not None:
                    wal.record_update(self.name, position, staged)
                for index, value in staged:
                    row[index] = value
                count += 1
        if count:
            self.version += 1
        return count

    def set_cell(self, row: list[Any], index: int, value: Any) -> None:
        """Overwrite one cell of a live row (temporal current semantics)."""
        txn = self.txn
        if txn is not None:
            if txn.mvcc.multi:
                txn.mvcc.claim(txn, self)
            if txn.fault_plan is not None:
                txn.fault_plan.hit("table.set_cell", self.name)
            if txn.logging:
                txn.log.append(("cell", self, self.version, row, index, row[index]))
            if txn.wal is not None and not self.temporary:
                txn.wal.record_cell(self.name, self._row_position(row), index, value)
        row[index] = value
        self.version += 1

    def write_row(self, row: list[Any], values: Sequence[Any]) -> None:
        """Overwrite a live row wholesale (already evaluated values)."""
        txn = self.txn
        if txn is not None:
            if txn.mvcc.multi:
                txn.mvcc.claim(txn, self)
            if txn.fault_plan is not None:
                txn.fault_plan.hit("table.update", self.name)
            if txn.logging:
                txn.log.append((
                    "upd", self, self.version, row, list(enumerate(row)),
                ))
            if txn.wal is not None and not self.temporary:
                txn.wal.record_write_row(
                    self.name, self._row_position(row), list(values)
                )
        row[:] = values
        self.version += 1

    def replace_rows(self, new_rows: list[list[Any]]) -> None:
        """Swap in a rebuilt row list (bulk delete / reorder)."""
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

    def truncate(self) -> None:
        txn = self.txn
        if txn is not None:
            if txn.mvcc.multi:
                txn.mvcc.claim(txn, self)
            if txn.fault_plan is not None:
                txn.fault_plan.hit("table.truncate", self.name)
            if txn.logging and self.rows:
                txn.log.append(("rows", self, self.version, self.rows))
            if txn.wal is not None and not self.temporary:
                txn.wal.record_set_rows(self.name, [])
        self.rows = []
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
        for row in self.rows:
            row.append(default)
        self.version += 1

    def _row_position(self, row: list[Any]) -> int:
        """The position of a live row (identity, not equality) — rows can
        be duplicates by value.  Only consulted when durability is
        attached, to address the row in a redo record."""
        for position, candidate in enumerate(self.rows):
            if candidate is row:
                return position
        raise ExecutionError(
            f"row is not resident in table {self.name} (cannot log redo)"
        )

    def hash_index(self, column_index: int) -> dict:
        """A hash index mapping sort-keyed column values to row lists.

        Built lazily and rebuilt whenever the table has been mutated
        since the last build.  NULLs are excluded (equality with NULL is
        never True).
        """
        cached = self._hash_indexes.get(column_index)
        if cached is not None and cached[0] == self.version:
            return cached[1]
        index: dict = {}
        for row in self.rows:
            value = row[column_index]
            if value is Null:
                continue
            index.setdefault(sort_key(value), []).append(row)
        self._hash_indexes[column_index] = (self.version, index)
        return index

    def row_positions(self) -> dict:
        """``id(row)`` → position in :attr:`rows`.  A join that ran in
        another order than FROM order sorts its matches back into the
        nested loop's emission order with it.  Version-cached like the
        hash indexes (an in-place update keeps identity and position)."""
        cached = self._row_positions
        if cached is not None and cached[0] == self.version:
            return cached[1]
        positions = {id(row): position for position, row in enumerate(self.rows)}
        self._row_positions = (self.version, positions)
        return positions

    def column_store(self) -> ColumnStore:
        """The derived columnar image of the table (see
        :class:`ColumnStore`).  Built lazily and rebuilt whenever the
        table has been mutated since the last build; ``append_row``
        extends a current store in place instead of rebuilding."""
        cached = self._column_store
        if cached is not None and cached[0] == self.version:
            return cached[1]
        store = ColumnStore(self.columns, self.rows)
        self._column_store = (self.version, store)
        return store

    def bytes_resident(self) -> int:
        """Estimated bytes held by the columnar image of this table."""
        return self.column_store().bytes_resident()

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
        :mod:`repro.sqlengine.interval_index`).  Built lazily and rebuilt
        whenever the table has been mutated since the last build."""
        key = (begin_index, end_index)
        cached = self._interval_indexes.get(key)
        if cached is not None and cached[0] == self.version:
            return cached[1]
        index = IntervalIndex(self.rows, begin_index, end_index)
        self._interval_indexes[key] = (self.version, index)
        return index

    def change_points(self, begin_index: int, end_index: int) -> frozenset[int]:
        """Every begin/end day ordinal appearing in the column pair.

        Cached against ``version`` so sequenced statements merge
        per-table sets instead of rescanning unchanged tables.  A Date
        bound counts even when the opposite bound is NULL, matching
        :func:`repro.temporal.period.collect_change_points`.
        """
        key = (begin_index, end_index)
        cached = self._change_points.get(key)
        if cached is not None and cached[0] == self.version:
            return cached[1]
        points: set[int] = set()
        for row in self.rows:
            begin = row[begin_index]
            end = row[end_index]
            if isinstance(begin, Date):
                points.add(begin.ordinal)
            if isinstance(end, Date):
                points.add(end.ordinal)
        frozen = frozenset(points)
        self._change_points[key] = (self.version, frozen)
        return frozen

    def clone_empty(self, name: Optional[str] = None) -> "Table":
        """A new empty table with the same column layout."""
        clone = Table(
            name or self.name,
            [Column(c.name, c.type, c.not_null, c.primary_key) for c in self.columns],
            temporary=self.temporary,
        )
        clone.interval_pairs = list(self.interval_pairs)
        return clone

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.name}, {len(self.rows)} rows)"
