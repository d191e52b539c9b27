"""Crash recovery: load the snapshot, redo the committed WAL suffix.

Called once from ``Database.attach_durability`` while the WAL is still
detached from the transaction manager.  The sequence (classic ARIES-lite
for a logical redo log):

1. **Snapshot** — rebuild catalog tables, views, routines, temporal
   registries, stratum bookkeeping and CURRENT_DATE from the latest
   valid ``snapshot.json`` (absent on a fresh database).
2. **Redo** — scan ``wal.log``.  Frames decode until the first torn,
   checksum-failing, or undecodable record (truncate-at-first-bad-record
   — see :func:`repro.sqlengine.wal.read_frames`).  Records are grouped
   into transactions by their ``begin``/``commit`` markers
   (:func:`committed_groups`); only transactions whose ``commit`` frame
   survived are applied, in log order, by :func:`apply_committed` — the
   function a standby applies each shipped group with.  An uncommitted
   tail (crash mid-commit) is discarded.
3. **Truncate** — the file is cut back to the end of the last committed
   transaction, so the bad/uncommitted tail can never resurface.

A WAL whose header generation does not match the snapshot's is stale —
the crash happened between the snapshot rename and the WAL reset of a
checkpoint — and is discarded wholesale.

Redo goes through the logged primitives a statement writes with:
``Table.append_row`` / ``update_rows`` / ``delete_rows`` /
``replace_rows`` / ``add_column`` and the catalog and registry
primitives.  So derived structures are carried forward by deltas as on
the primary, and a standby's pinned readers keep their snapshots through
the primitives' own MVCC claims.  Nothing re-logs: recovery runs before
``attach_durability`` sets ``txn.wal``, and a standby in replica mode
has ``txn.wal = None``, so no redo record is written; replay runs
outside any mark, so no undo is recorded; and ``engine.rows_written``
counts statements, not primitives.  A record tag or row layout only an
earlier format wrote (``cell``, ``wrow``, per-row row lists) fails with
a typed :class:`~repro.sqlengine.wal.WalError` naming it.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.sqlengine.catalog import Routine
from repro.sqlengine.storage import Table
from repro.sqlengine.values import Date
from repro.sqlengine.wal import (
    WalError,
    decode_column,
    decode_row,
    decode_rows_columnar,
    decode_value,
    read_frames,
)


def recover(manager, replay_cap: "int | None" = None) -> dict[str, Any]:
    """Run recovery for ``manager``; returns a small report dict.

    ``replay_cap`` stops redo after the committed transaction whose
    sequence number equals the cap (later commits are left on disk, not
    applied, and nothing is truncated) — the cross-node scrubber uses it
    to materialize a store *as of* a common commit sequence.
    """
    from repro.sqlengine.checkpoint import load_snapshot

    db = manager.db
    tracer = db.tracer
    manager.replaying = True
    try:
        with tracer.span("recovery", dir=str(manager.dir)):
            with tracer.span("recovery.snapshot") as span:
                snapshot = load_snapshot(manager.snapshot_path)
                if snapshot is not None:
                    if (
                        replay_cap is not None
                        and snapshot.get("txn_counter", 0) > replay_cap
                    ):
                        raise WalError(
                            f"snapshot is already past replay cap {replay_cap}"
                            f" (txn_counter {snapshot.get('txn_counter', 0)})"
                        )
                    _apply_snapshot(manager, snapshot)
                    manager.generation = snapshot["generation"]
                    manager.txn_counter = snapshot.get("txn_counter", 0)
                span.set(
                    present=snapshot is not None,
                    generation=manager.generation,
                )
            with tracer.span("recovery.replay") as span:
                report = _replay_wal(manager, replay_cap)
                span.set(**report)
    finally:
        manager.replaying = False
    manager.open_for_append()
    return report


# ---------------------------------------------------------------------------
# snapshot application
# ---------------------------------------------------------------------------


def _apply_snapshot(manager, snapshot: dict[str, Any]) -> None:
    from repro.sqlengine.parser import parse_statement
    from repro.sqlengine import ast_nodes as ast

    db = manager.db
    catalog = db.catalog
    for spec in snapshot["tables"]:
        table = Table(spec["name"], [decode_column(c) for c in spec["columns"]])
        # a per-row snapshot table (no "cols") is refused by the decoder
        table.rows = decode_rows_columnar(spec.get("cols"))
        catalog.add_table(table, replace=True)
    for name, sql in snapshot["views"]:
        select = parse_statement(sql)
        if not isinstance(select, ast.Select):
            raise WalError(f"snapshot view {name!r} is not a SELECT")
        catalog.add_view(name, select, replace=True)
    for kind, sql in snapshot["routines"]:
        definition = parse_statement(sql)
        catalog.add_routine(Routine(kind=kind, definition=definition), replace=True)
    for dim, entries in snapshot.get("registries", {}).items():
        registry = _registry_for(manager, dim)
        from repro.temporal.schema import TemporalTableInfo

        for name, begin_column, end_column in entries:
            registry.add(
                TemporalTableInfo(
                    name=name, begin_column=begin_column, end_column=end_column
                ),
                catalog.get_table(name),
            )
    stratum_state = snapshot.get("stratum")
    if stratum_state is not None and manager.stratum is not None:
        manager.stratum._nonseq_only_routines = set(stratum_state["nonseq_only"])
        manager.stratum._inner_cp_requirements = {
            cp: list(tables) for cp, tables in stratum_state["inner_cp"].items()
        }
    db._now = Date(snapshot["now"])


def _registry_for(manager, dim: str):
    registry = manager.registries.get(dim)
    if registry is None:
        raise WalError(
            f"database contains temporal registry records ({dim!r}) —"
            " open it through TemporalStratum.open so the registries can"
            " be rebuilt"
        )
    return registry


# ---------------------------------------------------------------------------
# WAL replay
# ---------------------------------------------------------------------------


def _replay_wal(manager, replay_cap: "int | None" = None) -> dict[str, Any]:
    db = manager.db
    report = {
        "records_replayed": 0,
        "transactions_replayed": 0,
        "bytes_truncated": 0,
        "stale_generation": False,
    }
    if not manager.wal_path.exists():
        return report
    data = manager.wal_path.read_bytes()
    records, ends = read_frames(data)
    if not records:
        # empty or header-corrupt WAL: start it over at our generation
        if data:
            report["bytes_truncated"] = len(data)
        manager.reset_wal(manager.generation)
        _report_metrics(db, report)
        return report
    header = records[0]
    if header[0] != "walhdr" or header[1] != manager.generation:
        # stale (pre-checkpoint) or foreign log — discard wholesale
        report["stale_generation"] = True
        report["bytes_truncated"] = len(data)
        manager.reset_wal(manager.generation)
        _report_metrics(db, report)
        return report

    committed_end = ends[0]  # just past the header frame
    for group, commit, _, end in committed_groups(records, ends):
        if replay_cap is not None and commit[1] > replay_cap:
            break  # commits are sequence-ordered: nothing more applies
        apply_committed(manager, group, commit)
        report["records_replayed"] += len(group)
        report["transactions_replayed"] += 1
        committed_end = end
    dropped = len(data) - committed_end
    if dropped and replay_cap is None:
        report["bytes_truncated"] = dropped
        manager.cut_wal_to(committed_end)
    _report_metrics(db, report)
    return report


def committed_groups(records: list, ends: list) -> Iterator[tuple]:
    """``(group, commit, start, end)`` for each complete ``begin`` ..
    ``commit`` group among the frames :func:`read_frames` decoded: the
    records between the markers, the commit record and the byte range
    the group spans.  Records outside a group (the writer produces none
    but the header) are skipped rather than trusted."""
    group = None
    start = previous = 0
    for record, end in zip(records, ends):
        tag = record[0]
        if tag == "begin":
            group, start = [], previous
        elif tag == "commit":
            if group is not None:
                yield group, record, start, end
            group = None
        elif group is not None:
            group.append(record)
        previous = end


def apply_committed(manager, group: list, commit: list) -> None:
    """Apply one committed group — each record through the logged
    primitives, then the commit's clock and sequence number.  Crash
    recovery and standby replay both call this."""
    for record in group:
        _apply_record(manager, record)
    manager.db._now = Date(commit[2])
    manager.txn_counter = max(manager.txn_counter, commit[1])


def _report_metrics(db, report: dict[str, Any]) -> None:
    db.obs.inc("recovery.records_replayed", report["records_replayed"])
    db.obs.inc("recovery.transactions_replayed", report["transactions_replayed"])
    db.obs.inc("recovery.bytes_truncated", report["bytes_truncated"])
    db.obs.inc("recovery.runs", 1)


# ---------------------------------------------------------------------------
# record application
# ---------------------------------------------------------------------------


def _apply_record(manager, record: list) -> None:
    db = manager.db
    catalog = db.catalog
    tag = record[0]
    if tag == "ins":
        catalog.get_table(record[1]).append_row(decode_row(record[2]))
    elif tag == "upd":
        table = catalog.get_table(record[1])
        table.update_rows(
            [table.rows[record[2]]],
            [[(index, decode_value(value)) for index, value in record[3]]],
        )
    elif tag == "delpos":
        table = catalog.get_table(record[1])
        table.delete_rows([table.rows[position] for position in record[2]])
    elif tag == "setrows":
        table = catalog.get_table(record[1])
        table.replace_rows(decode_rows_columnar(record[2]))
    elif tag == "addcol":
        table = catalog.get_table(record[1])
        table.add_column(decode_column(record[2]), decode_value(record[3]))
    elif tag == "mktable":
        table = Table(record[1], [decode_column(c) for c in record[2]])
        table.rows = decode_rows_columnar(record[3])
        catalog.add_table(table, replace=True)
    elif tag == "rmtable":
        if catalog.has_table(record[1]):
            catalog.drop_table(record[1])
    elif tag == "mkview":
        from repro.sqlengine.parser import parse_statement

        catalog.add_view(record[1], parse_statement(record[2]), replace=True)
    elif tag == "rmview":
        if catalog.has_view(record[1]):
            catalog.drop_view(record[1])
    elif tag == "mkroutine":
        from repro.sqlengine.parser import parse_statement
        from repro.sqlengine import ast_nodes as ast

        definition = parse_statement(record[1])
        kind = (
            "FUNCTION"
            if isinstance(definition, ast.CreateFunction)
            else "PROCEDURE"
        )
        catalog.add_routine(
            Routine(kind=kind, definition=definition), replace=True
        )
    elif tag == "rmroutine":
        if catalog.has_routine(record[1]):
            catalog.drop_routine(record[1])
    elif tag == "troutine":
        if manager.stratum is not None:
            from repro.sqlengine.parser import parse_statement

            definition = parse_statement(record[1])
            if catalog.has_routine(definition.name):
                catalog.drop_routine(definition.name)
            manager.stratum.register_routine_ast(definition)
        # without a stratum the preceding mkroutine record already
        # installed the rewritten definition; nothing more to rebuild
    elif tag == "reg":
        from repro.temporal.schema import TemporalTableInfo

        registry = _registry_for(manager, record[1])
        registry.add(
            TemporalTableInfo(
                name=record[2], begin_column=record[3], end_column=record[4]
            ),
            catalog.get_table(record[2]),
        )
    elif tag == "unreg":
        _registry_for(manager, record[1]).remove(record[2])
    elif tag == "now":
        db._now = Date(record[1])
    else:
        raise WalError(f"unknown WAL record tag {tag!r}")
