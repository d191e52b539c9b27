"""Transaction-time support (paper §III).

    "In this paper, we focus on valid time, but everything also applies
     to transaction time."

A transaction-time table records *when the database believed* each row:
every row carries ``[tt_start, tt_stop)``, maintained by the system —
users never write these columns.  The stratum intercepts modifications:

* INSERT stamps new rows ``[clock, forever)``;
* DELETE closes the current version (``tt_stop = clock``);
* UPDATE closes the current version and inserts the changed row,
  preserving everything ever recorded.

Queries compose with the existing machinery because the transformations
are dimension-agnostic: a transaction-time registry exposes the tt
columns, so ``TRANSACTIONTIME [t1, t2] Q`` runs through the very same
MAX/PERST pipelines, and statements without a transaction modifier get
current-transaction-time predicates (rows believed at the clock).
Setting the clock into the past gives time travel ("as of" queries).
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.engine import Database
from repro.sqlengine.errors import CatalogError
from repro.sqlengine.executor import Binding, Env
from repro.sqlengine.storage import Column, Table
from repro.sqlengine.types import SqlType
from repro.sqlengine.values import Date, truth
from repro.temporal.errors import TemporalError
from repro.temporal.schema import (
    TT_START_COLUMN,
    TT_STOP_COLUMN,
    TemporalRegistry,
    TemporalTableInfo,
)

FOREVER = Date(Date.MAX_ORDINAL)


def transaction_info(table_name: str) -> TemporalTableInfo:
    """The registry entry describing a table's transaction-time columns."""
    return TemporalTableInfo(
        name=table_name,
        begin_column=TT_START_COLUMN,
        end_column=TT_STOP_COLUMN,
    )


def add_transactiontime(
    db: Database, registry: TemporalRegistry, table_name: str, clock: Date
) -> TemporalTableInfo:
    """``ALTER TABLE t ADD TRANSACTIONTIME``.

    Adds the tt columns if missing; existing rows are recorded as
    believed since ``clock`` (the migration transaction).
    """
    table = db.catalog.get_table(table_name)
    info = transaction_info(table.name)
    columns_added = False
    for column_name, default in (
        (info.begin_column, clock),
        (info.end_column, FOREVER),
    ):
        if not table.has_column(column_name):
            table.add_column(Column(column_name, SqlType("DATE")), default)
            columns_added = True
        elif not table.column_type(column_name).is_date:
            raise CatalogError(
                f"transaction-time column {table_name}.{column_name}"
                " must be DATE"
            )
    if columns_added:
        # the table's shape changed out-of-band: compiled plans bound
        # against the old column layout must not be reused
        db.catalog.note_schema_change()
    registry.add(info, table)
    return info


class TransactionTimeDml:
    """System-maintained modifications of transaction-time tables.

    The key difference from valid-time current modifications: users may
    not supply or change tt columns, and nothing is ever physically
    deleted — transaction time is append-only.
    """

    def __init__(self, db: Database, registry: TemporalRegistry) -> None:
        self.db = db
        self.registry = registry

    def _table_and_info(self, name: str) -> tuple[Table, TemporalTableInfo]:
        info = self.registry.get(name)
        assert info is not None
        return self.db.catalog.get_table(name), info

    def _reject_explicit_tt_columns(
        self, stmt: Union[ast.Insert, ast.Update], info: TemporalTableInfo
    ) -> None:
        forbidden = {info.begin_column.lower(), info.end_column.lower()}
        if isinstance(stmt, ast.Insert) and stmt.columns is not None:
            if forbidden & {c.lower() for c in stmt.columns}:
                raise TemporalError(
                    "transaction-time columns are system-maintained"
                )
        if isinstance(stmt, ast.Update):
            if forbidden & {c.lower() for c, _ in stmt.assignments}:
                raise TemporalError(
                    "transaction-time columns are system-maintained"
                )

    def execute_insert(self, stmt: ast.Insert, clock: Date) -> int:
        table, info = self._table_and_info(stmt.table)
        self._reject_explicit_tt_columns(stmt, info)
        new_stmt = ast.Insert(
            table=stmt.table,
            columns=None,
            values=None,
            select=stmt.select,
        )
        value_columns = [
            c for c in table.column_names
            if c.lower() not in (info.begin_column.lower(), info.end_column.lower())
        ]
        columns = stmt.columns if stmt.columns is not None else value_columns
        new_stmt.columns = list(columns) + [info.begin_column, info.end_column]
        stamp = [ast.Literal(value=clock), ast.Literal(value=FOREVER)]
        if stmt.values is not None:
            new_stmt.values = [list(row) + stamp for row in stmt.values]
        else:
            select = stmt.select.copy()
            select.items = select.items + [
                ast.SelectItem(expr=ast.Literal(value=clock)),
                ast.SelectItem(expr=ast.Literal(value=FOREVER)),
            ]
            new_stmt.select = select
        return self.db.executor.execute(new_stmt)

    def execute_delete(self, stmt: ast.Delete, clock: Date) -> int:
        """Logical deletion: close the believed-now versions."""
        table, info = self._table_and_info(stmt.table)
        self.db.txn.claim_write(table)
        return self._close_matching(table, info, stmt.where, stmt.alias, clock)

    def execute_update(self, stmt: ast.Update, clock: Date) -> int:
        """Close the believed-now versions and record the new belief."""
        table, info = self._table_and_info(stmt.table)
        # claim before the scan: read-then-mutate must target the live table
        self.db.txn.claim_write(table)
        self._reject_explicit_tt_columns(stmt, info)
        alias = stmt.alias or stmt.table
        colmap = {c.lower(): i for i, c in enumerate(table.column_names)}
        start_index = table.column_index(info.begin_column)
        stop_index = table.column_index(info.end_column)
        executor = self.db.executor
        env = Env()
        matches: list[list[Any]] = []
        for row in table.rows:
            if row[stop_index] != FOREVER:
                continue
            env.bindings[alias.lower()] = Binding(colmap, row)
            if stmt.where is None or truth(executor.evaluate(stmt.where, env)):
                matches.append(row)
        for row in matches:
            env.bindings[alias.lower()] = Binding(colmap, row)
            new_row = list(row)
            for column, expr in stmt.assignments:
                new_row[table.column_index(column)] = executor.evaluate(expr, env)
            new_row[start_index] = clock
            new_row[stop_index] = FOREVER
            if row[start_index] == clock:
                table.write_row(row, new_row)
            else:
                table.set_cell(row, stop_index, clock)
                table.insert(new_row)
        self.db.stats.count_rows(len(matches), "tt_maintenance")
        return len(matches)

    def _close_matching(
        self,
        table: Table,
        info: TemporalTableInfo,
        where: Optional[ast.Expression],
        alias: Optional[str],
        clock: Date,
    ) -> int:
        binding_name = (alias or table.name).lower()
        colmap = {c.lower(): i for i, c in enumerate(table.column_names)}
        start_index = table.column_index(info.begin_column)
        stop_index = table.column_index(info.end_column)
        executor = self.db.executor
        env = Env()
        closed: list[list[Any]] = []
        born_now: set[int] = set()
        for row in table.rows:
            if row[stop_index] == FOREVER:
                env.bindings[binding_name] = Binding(colmap, row)
                if where is None or truth(executor.evaluate(where, env)):
                    if row[start_index] == clock:
                        # inserted and deleted in one transaction
                        born_now.add(id(row))
                    else:
                        closed.append(row)
        for row in closed:
            table.set_cell(row, stop_index, clock)
        if born_now:
            table.delete_where(lambda row: id(row) in born_now)
        count = len(closed) + len(born_now)
        self.db.stats.count_rows(count, "tt_maintenance")
        return count
