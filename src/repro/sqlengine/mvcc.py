"""Snapshot-isolation MVCC over the copy-on-write version chains.

One :class:`MvccManager` per :class:`~repro.sqlengine.engine.Database`
coordinates any number of sessions (each a
:class:`~repro.sqlengine.txn.TransactionManager`):

* a global *commit sequence number* (``csn``) advances once per
  committed writing transaction;
* a reader **pins** a snapshot — the csn at BEGIN (or at the start of
  an autocommit statement) — and every read resolves through
  :meth:`read_view`, which returns either the live table (fast path:
  nothing newer committed, no foreign writer) or a cached read-only
  view over the pre-image captured in the table's version chain;
* a writer **claims** each table before its first mutation.  The claim
  is where conflicts surface: a table already claimed by another live
  transaction raises :class:`~repro.sqlengine.errors.SerializationError`
  (first-writer-wins), as does a table whose last committed csn is
  newer than the claimant's snapshot (first-committer-wins).  A
  successful claim captures the committed pre-image — row *copies*,
  because updates mutate row lists in place — onto the version chain;
* commit bumps the csn and stamps it on every claimed table; abort
  releases the claims and leaves the chain entry (its image still
  describes the committed state the undo log just restored).

**Single-session cost is zero.** While only one session is registered
(``multi`` is False) claims return immediately, no pre-images are
captured, and reads go straight to the live table — the tier-1 suite
and the benchmarks pay two attribute loads and a branch per mutation.
Chains exist only while a snapshot that needs them is pinned: garbage
collection runs on every unpin and commit, and when the last extra
session leaves, all chains are dropped.

Schema changes are deliberately **not** versioned: DDL is globally
visible the moment it applies (documented in DESIGN.md §3.8).  A
shared :class:`_SchemaResource` still runs the claim protocol, so two
sessions racing on DDL get a clean 40001 instead of corrupt catalogs.
"""

from __future__ import annotations

from typing import Optional

from repro.sqlengine.errors import (
    ExecutionError,
    ReadOnlyError,
    SerializationError,
)
from repro.sqlengine.storage import Table


class _SchemaResource:
    """The catalog, as a single claimable resource (no version chain)."""

    name = "<schema>"
    temporary = False

    __slots__ = ("writer", "last_committed_csn", "version_chain", "_snapshot_views")

    def __init__(self) -> None:
        self.writer = None
        self.last_committed_csn = 0
        self.version_chain: list = []
        self._snapshot_views: dict = {}


class MvccManager:
    """Pins, claims, commit ordering, and version-chain GC."""

    def __init__(self, db) -> None:
        self.db = db
        self.csn = 0
        # the root session always exists; `multi` is the one flag every
        # hot path consults — False means MVCC is fully dormant
        self.session_count = 1
        self.multi = False
        # pinned snapshot csn -> number of transactions pinned at it
        self.pins: dict[int, int] = {}
        # standby mode: only the root session (the replication applier)
        # may claim tables for writing; reader sessions get a typed
        # 25006.  Schema claims stay allowed — serving a sequenced query
        # may lazily install its transform routine.
        self.read_only = False
        self.schema = _SchemaResource()
        # tables (and the schema resource) holding live version chains
        self._chained: set = set()
        # transactions with unreleased write claims
        self._inflight: set = set()

    # -- sessions --------------------------------------------------------

    def register_session(self) -> None:
        """Admit one more session.

        The dormant → multi transition requires the active transaction
        to be between autocommitted statements: while dormant no claims
        are taken and no pre-images captured, so an open explicit
        transaction (or an in-flight statement) holds writes whose
        pre-image cannot be captured retroactively.  Once ``multi``
        (capture active), further sessions join freely."""
        if not self.multi:
            txn = self.db.txn
            if txn.explicit or txn.marks or not self.quiescent():
                raise ExecutionError(
                    "cannot register a session while writes are in flight"
                )
        self.session_count += 1
        self.multi = True

    def unregister_session(self) -> None:
        self.session_count -= 1
        self._maybe_collapse()

    def quiescent(self) -> bool:
        """True when no transaction holds an unreleased write claim."""
        return not self._inflight

    def _maybe_collapse(self) -> None:
        """Drop back to the dormant single-session state when possible."""
        if self.session_count == 1 and not self.pins and not self._inflight:
            self.multi = False
            for resource in self._chained:
                resource.version_chain.clear()
                resource._snapshot_views.clear()
            self._chained.clear()

    # -- snapshot pins ---------------------------------------------------

    def pin(self, txn) -> int:
        """Fix ``txn``'s snapshot at the current csn."""
        snapshot = self.csn
        txn.snapshot = snapshot
        self.pins[snapshot] = self.pins.get(snapshot, 0) + 1
        return snapshot

    def unpin(self, txn) -> None:
        snapshot = txn.snapshot
        if snapshot is None:
            return
        txn.snapshot = None
        remaining = self.pins.get(snapshot, 0) - 1
        if remaining > 0:
            self.pins[snapshot] = remaining
            return
        self.pins.pop(snapshot, None)
        if self._chained:
            self._gc()
        self._maybe_collapse()

    # -- write claims ----------------------------------------------------

    def claim(self, txn, resource, capture: bool = True) -> None:
        """Claim ``resource`` (a table or the schema) for writing.

        No-op while single-session, for temporaries, and for resources
        the transaction already claimed.  Otherwise: first-writer-wins
        against a foreign in-flight claim, first-committer-wins against
        a commit newer than the claimant's snapshot, then pre-image
        capture and registration in the transaction's write set.
        """
        if not self.multi or resource.temporary:
            return
        if (
            self.read_only
            and resource is not self.schema
            and txn is not self.db.root_txn
        ):
            raise ReadOnlyError(
                f"cannot write to {resource.name}: this node is a read-only"
                " standby (25006)"
            )
        write_set = txn.write_set
        if resource in write_set:
            return
        writer = resource.writer
        if writer is not None and writer is not txn:
            raise SerializationError(
                f"could not serialize access to {resource.name}: it is"
                f" write-claimed by concurrent session {writer.name!r} (40001)"
            )
        snapshot = txn.snapshot
        if snapshot is not None and resource.last_committed_csn > snapshot:
            raise SerializationError(
                f"could not serialize access to {resource.name}: a concurrent"
                f" session committed csn {resource.last_committed_csn} after"
                f" this snapshot ({snapshot}) was pinned (40001)"
            )
        if capture:
            chain = resource.version_chain
            base = resource.last_committed_csn
            if not chain or chain[-1][0] != base:
                # row *copies*: update_rows mutates the live row lists
                # in place, on the primary and in standby replay alike
                chain.append(
                    (base, [list(row) for row in resource.rows],
                     list(resource.columns))
                )
                self._chained.add(resource)
        resource.writer = txn
        write_set.add(resource)
        self._inflight.add(txn)

    def claim_schema(self, txn) -> None:
        self.claim(txn, self.schema, capture=False)

    def release_writes(self, txn, committed: bool) -> None:
        """Release every claim ``txn`` holds; a commit installs the new
        versions atomically under the next csn."""
        write_set = txn.write_set
        self._inflight.discard(txn)
        if not write_set:
            return
        if committed:
            self.csn += 1
            csn = self.csn
        for resource in write_set:
            if committed:
                resource.last_committed_csn = csn
            if resource.writer is txn:
                resource.writer = None
        write_set.clear()
        if self._chained:
            self._gc()

    # -- snapshot reads --------------------------------------------------

    def read_view(self, table: Table, txn) -> Table:
        """The version of ``table`` visible to ``txn``'s snapshot.

        Only consulted while ``multi``; the executor's read paths check
        the flag inline and skip the call entirely when dormant.
        """
        if table.temporary or table.txn is None:
            return table  # scratch / routine-local: session-private
        writer = table.writer
        if writer is txn:
            return table  # a transaction reads its own writes
        snapshot = txn.snapshot
        if snapshot is None:
            snapshot = self.csn  # unpinned read (direct API access)
        if writer is None and table.last_committed_csn <= snapshot:
            return table  # fast path: live state is the visible version
        chain = table.version_chain
        for i in range(len(chain) - 1, -1, -1):
            if chain[i][0] <= snapshot:
                return self._view_for(table, chain[i])
        raise SerializationError(
            f"snapshot {snapshot} of table {table.name} is no longer"
            f" available (40001)"
        )

    def _view_for(self, table: Table, entry) -> Table:
        csn, image, columns = entry
        view = table._snapshot_views.get(csn)
        if view is None:
            view = Table(table.name, columns, temporary=True)
            view.interval_pairs = list(table.interval_pairs)
            view.rows = image
            table._snapshot_views[csn] = view
        return view

    # -- chain garbage collection ---------------------------------------

    def _gc(self) -> None:
        """Drop chain entries no pinned snapshot can reach.

        Entry *i* serves snapshots in ``[csn_i, boundary_i)`` where the
        boundary is the next entry's csn — or the table's last committed
        csn for the final entry, unless a writer is in flight (then the
        final pre-image must stay for every pinned reader).
        """
        if not self.pins:
            for resource in self._chained:
                resource.version_chain.clear()
                resource._snapshot_views.clear()
            self._chained.clear()
            self._maybe_collapse()
            return
        min_pin = min(self.pins)
        emptied = []
        for resource in self._chained:
            chain = resource.version_chain
            drop = 0
            for i in range(len(chain)):
                if i + 1 < len(chain):
                    boundary: Optional[int] = chain[i + 1][0]
                elif resource.writer is not None:
                    boundary = None  # pre-image of the in-flight writer
                else:
                    boundary = resource.last_committed_csn
                if boundary is not None and boundary <= min_pin:
                    drop = i + 1
                else:
                    break
            if drop:
                for entry in chain[:drop]:
                    resource._snapshot_views.pop(entry[0], None)
                del chain[:drop]
            if not chain:
                emptied.append(resource)
        for resource in emptied:
            self._chained.discard(resource)

    # -- introspection ---------------------------------------------------

    def state(self) -> dict:
        """JSON-able MVCC state for trace summaries and tests."""
        return {
            "csn": self.csn,
            "sessions": self.session_count,
            "multi": self.multi,
            "pins": dict(self.pins),
            "chained_tables": sorted(
                r.name for r in self._chained if r is not self.schema
            ),
            "inflight_writers": sorted(t.name for t in self._inflight),
        }
