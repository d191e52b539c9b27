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

from typing import Union

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.engine import Database
from repro.sqlengine.errors import CatalogError
from repro.sqlengine.storage import Column, Table
from repro.sqlengine.types import SqlType
from repro.sqlengine.values import Date
from repro.temporal.errors import TemporalError
from repro.temporal.modifications import FOREVER, execute_current_modification
from repro.temporal.schema import (
    TT_START_COLUMN,
    TT_STOP_COLUMN,
    TemporalRegistry,
    TemporalTableInfo,
)


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

    def execute_modification(
        self, matcher: Union[ast.Update, ast.Delete], clock: Date
    ) -> int:
        """UPDATE/DELETE, given as the statement's ``"believed"`` match
        statement: close the believed-now versions at the clock (logical
        deletion); an UPDATE also records the new belief."""
        _, info = self._table_and_info(matcher.table)
        if isinstance(matcher, ast.Update):
            self._reject_explicit_tt_columns(matcher, info)
        return execute_current_modification(
            self.db, info, matcher, clock, "tt_maintenance"
        )
