"""Transaction-time support (paper §III).

    "In this paper, we focus on valid time, but everything also applies
     to transaction time."

A transaction-time table records *when the database believed* each row:
every row carries ``[tt_start, tt_stop)``, maintained by the system —
users never write these columns.  The stratum carries out every
modification as a current one at the clock, on the one path of
:mod:`repro.temporal.modifications`:

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

from repro.sqlengine.engine import Database
from repro.sqlengine.errors import CatalogError
from repro.sqlengine.storage import Column
from repro.sqlengine.types import SqlType
from repro.sqlengine.values import Date
from repro.temporal.modifications import FOREVER
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
        db.catalog.note_schema_change(table.name)
    registry.add(info, table)
    return info
