"""Undo-log transaction manager.

The engine gains atomicity from a single physical undo log shared by
every layer: each mutating primitive in :class:`~repro.sqlengine.storage.Table`,
:class:`~repro.sqlengine.catalog.Catalog` and the stratum's temporal
registries appends an inverse operation while logging is active.  A
*mark* is an index into that log; rolling back to a mark applies the
entries above it in reverse and moves the version counters the
bind/plan caches key on forward.

Marks nest freely on one stack:

* :class:`~repro.sqlengine.engine.Database` wraps every top-level
  statement in an anonymous mark (implicit statement atomicity);
* the temporal stratum wraps each temporal statement, covering the MAX
  per-period CALL loop and PERST delete+insert pairs;
* a failed routine statement is undone to the log depth it began at,
  inside those marks, before its handler runs (no mark of its own);
* ``SAVEPOINT name`` pushes a named mark inside an explicit transaction.

Outside an explicit transaction the log is discarded as soon as the last
mark is released, so bulk loads and committed statements cost one list
append per mutation and nothing is retained.

Undo application manipulates the raw storage structures directly —
never the logging primitives — so rollback cannot re-log or re-trigger
an injected fault.  It moves version counters *forward*, as any other
change does: a table's version is bumped, and the catalog stamps each
name it restores (``Catalog._stamp``).  A counter therefore never
repeats a value, so no cache keyed on one needs evicting: a plan,
transform or derived structure built inside the rolled-back window
describes a state that can never become current again.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sqlengine.errors import ExecutionError


class _Mark:
    """A savepoint: an index into the undo log, optionally named.

    ``redo_index`` is the matching position in the durability manager's
    redo buffer (0 while durability is detached), so rolling back to a
    mark also discards the redo records the window buffered.
    """

    __slots__ = ("name", "index", "redo_index")

    def __init__(self, name: Optional[str], index: int, redo_index: int = 0) -> None:
        self.name = name
        self.index = index
        self.redo_index = redo_index


def _apply_undo(entry: tuple) -> None:
    """Apply one inverse operation (raw structures, never primitives)."""
    tag = entry[0]
    if tag == "cat":
        # a stamp on the name the entry restores, unless the change was
        # exempt from one (a temporary table, an identical routine)
        _, catalog, objects, stamps, key, old_value = entry
        if old_value is None:
            objects.pop(key, None)
        else:
            objects[key] = old_value
        if stamps is not None:
            catalog._stamp(stamps, key)
        return
    if tag == "cat_stamp":
        _, catalog, key = entry
        catalog._stamp(catalog._relation_stamps, key)
        return
    if tag == "reg":
        # temporal registry add/remove
        _, registry, key, old_info = entry
        if old_info is None:
            registry._tables.pop(key, None)
        else:
            registry._tables[key] = old_info
        registry.version += 1
        return
    table = entry[1]
    if tag == "ins":
        table.rows.pop()
    elif tag == "upd":
        _, _, row, old_cells = entry
        for index, value in old_cells:
            row[index] = value
    elif tag == "rows":
        # delete_rows / replace_rows reassign the row list, so the
        # inverse is simply the displaced list object
        table.rows = entry[2]
    elif tag == "addcol":
        ncols = entry[2]
        for column in table.columns[ncols:]:
            table._index.pop(column.name.lower(), None)
        del table.columns[ncols:]
        for row in table.rows:
            del row[ncols:]
        # a period pair declared over the removed columns goes with them
        table.interval_pairs = [
            pair for pair in table.interval_pairs
            if all(column in table._index for column in pair)
        ]
        table.schema_stamp = object()
    else:  # pragma: no cover - exhaustive over logged tags
        raise AssertionError(f"unknown undo entry {tag!r}")
    # the rows are as they were, but under a new version: structures
    # tagged at any earlier one are dropped and rebuilt on their next use
    table._renewed()


class TransactionManager:
    """The database's undo log, mark stack, and explicit-transaction state.

    ``logging`` is maintained as a plain attribute (true while a mark is
    open or an explicit transaction is in progress) so the storage
    primitives pay two attribute loads, not a property call, per
    mutation.
    """

    def __init__(self, db, name: str = "main") -> None:
        self.db = db
        self.name = name
        self.log: list[tuple] = []
        self.marks: list[_Mark] = []
        self.explicit = False
        self.logging = False
        # fault injection: any object with ``hit(site, target)``, which
        # the mutation and durability primitives call before they act
        # (None = disarmed; the fault harness lives in the tests)
        self.fault_plan: Any = None
        # MVCC (repro.sqlengine.mvcc): the shared manager, this
        # transaction's pinned snapshot csn (None between autocommit
        # statements), and the set of tables it holds write claims on.
        # The storage primitives consult `mvcc.multi` per mutation; both
        # fields stay empty while a single session is registered.
        self.mvcc = db.mvcc
        self.snapshot: Optional[int] = None
        self.write_set: set = set()
        # redo side: the DurabilityManager, attached by
        # Database.attach_durability (None = durability disabled; the
        # storage primitives' only added cost is this attribute load).
        # `redo` is this transaction's own buffer of encoded records —
        # the manager's `buffer` property delegates to the *active*
        # session's list, so concurrent sessions never interleave
        # uncommitted redo (their claimed table sets are disjoint).
        self.wal = None
        self.redo: list = []
        # high-water mark of undo-log depth, mirrored into the metrics
        # registry only when it moves (the int compare keeps mark() hot)
        self._undo_high_water = 0

    # -- marks (internal savepoints) ------------------------------------

    def mark(self, name: Optional[str] = None) -> _Mark:
        depth = len(self.log)
        if depth > self._undo_high_water:
            self._undo_high_water = depth
            self.db.obs.set_gauge("txn.undo_depth_high_water", depth)
        mark = _Mark(name, depth, len(self.redo) if self.wal is not None else 0)
        self.marks.append(mark)
        self.logging = True
        return mark

    def release(self, mark: _Mark) -> None:
        """Discard ``mark`` (and anything nested inside it), keeping effects."""
        while self.marks:
            top = self.marks.pop()
            if top is mark:
                break
        if not self.marks:
            self.logging = self.explicit
            if not self.explicit:
                self.log.clear()
                # autocommit commit point: the statement's buffered redo
                # records become one durable transaction
                if self.wal is not None:
                    self.wal.commit_buffered()
                if self.write_set:
                    self.mvcc.release_writes(self, committed=True)

    def rollback_to(self, mark: _Mark, keep: bool = False) -> None:
        """Undo every entry logged since ``mark``.

        Marks nested inside it are destroyed; ``keep`` leaves the mark
        itself on the stack (``ROLLBACK TO SAVEPOINT`` semantics).
        """
        while self.marks and self.marks[-1] is not mark:
            self.marks.pop()
        self._undo_to(mark.index)
        if self.wal is not None:
            self.wal.discard_buffer_from(mark.redo_index)
        if not keep and self.marks and self.marks[-1] is mark:
            self.marks.pop()
        if not self.marks:
            self.logging = self.explicit
            if not self.explicit:
                self.log.clear()
                # autocommit abort point: the undo log has restored the
                # claimed tables, so the claims can be released without
                # installing a new version
                if self.write_set:
                    self.mvcc.release_writes(self, committed=False)

    def undo_to(self, depth: int, redo: int, marks: int) -> None:
        """A PSM statement guard's rollback, without a mark of its own: to
        the undo-log ``depth``, redo length and mark count it took."""
        del self.marks[marks:]
        self._undo_to(depth)
        if self.wal is not None:
            self.wal.discard_buffer_from(redo)

    def _undo_to(self, index: int) -> None:
        if len(self.log) <= index:
            return
        log = self.log
        while len(log) > index:
            _apply_undo(log.pop())
        self.db.obs.inc("engine.rollbacks")

    # -- explicit transactions ------------------------------------------

    def begin(self) -> None:
        if self.explicit:
            raise ExecutionError("a transaction is already in progress")
        self.explicit = True
        self.logging = True
        # pin the snapshot every read in this transaction resolves
        # through (repeatable reads); a server session may have pinned
        # already, at the moment the BEGIN statement arrived
        if self.snapshot is None:
            self.mvcc.pin(self)

    def commit(self) -> None:
        if not self.explicit:
            raise ExecutionError("COMMIT: no transaction in progress")
        if self.wal is not None:
            # the whole transaction becomes one durable WAL transaction:
            # one write, one fsync (group commit)
            self.wal.commit_buffered()
        self.explicit = False
        self.marks.clear()
        self.log.clear()
        self.logging = False
        if self.write_set:
            self.mvcc.release_writes(self, committed=True)
        self.mvcc.unpin(self)
        if self.wal is not None:
            # the flush above may have crossed the automatic-checkpoint
            # threshold; a checkpoint needs the transaction closed
            self.wal.auto_checkpoint()

    def rollback(self) -> None:
        if not self.explicit:
            raise ExecutionError("ROLLBACK: no transaction in progress")
        if self.wal is not None:
            # nothing from an aborted transaction ever reaches the WAL
            self.wal.discard_buffer_from(0)
        self.marks.clear()
        self._undo_to(0)
        self.explicit = False
        self.log.clear()
        self.logging = False
        if self.write_set:
            self.mvcc.release_writes(self, committed=False)
        self.mvcc.unpin(self)

    def savepoint(self, name: str) -> None:
        if not self.explicit:
            raise ExecutionError("SAVEPOINT requires an active transaction")
        self.mark(name.lower())

    def rollback_to_savepoint(self, name: str) -> None:
        self.rollback_to(self._find_savepoint(name), keep=True)

    def release_savepoint(self, name: str) -> None:
        self.release(self._find_savepoint(name))

    def _find_savepoint(self, name: str) -> _Mark:
        key = name.lower()
        for mark in reversed(self.marks):
            if mark.name == key:
                return mark
        raise ExecutionError(f"no such savepoint: {name}")

    # -- statement dispatch ---------------------------------------------

    def execute_statement(self, stmt) -> None:
        """Execute a parsed :class:`~repro.sqlengine.ast_nodes.TransactionStatement`."""
        action = stmt.action
        if action == "BEGIN":
            self.begin()
        elif action == "COMMIT":
            self.commit()
        elif action == "ROLLBACK":
            self.rollback()
        elif action == "SAVEPOINT":
            self.savepoint(stmt.name)
        elif action == "ROLLBACK TO SAVEPOINT":
            self.rollback_to_savepoint(stmt.name)
        elif action == "RELEASE SAVEPOINT":
            self.release_savepoint(stmt.name)
        else:  # pragma: no cover - parser emits only the above
            raise ExecutionError(f"unknown transaction action {action!r}")
        return None

    # -- MVCC claims -----------------------------------------------------

    def claim_write(self, table) -> None:
        """Claim ``table`` before an UPDATE or DELETE matches its rows.

        The storage primitives claim on first mutation, but the match
        plan finds every row before the first write, so it claims up
        front: the scan runs against a state this transaction is
        entitled to modify (``read_view`` hands the claim holder the
        live table) and a conflict surfaces before any row is read."""
        self.mvcc.claim(self, table)

    # -- statement guard -------------------------------------------------

    def run_atomic(self, thunk: Callable[[], Any]) -> Any:
        """Run ``thunk`` under a fresh mark: release on success, roll
        back on any exception (including non-SQL errors)."""
        token = self.mark()
        try:
            result = thunk()
        except BaseException:
            self.rollback_to(token)
            raise
        self.release(token)
        return result
