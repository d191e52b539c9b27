"""Load a generated τBench dataset into an already-open stratum (the
CLI's ``--load``)."""

from __future__ import annotations

import dataclasses

from repro.taubench import schema
from repro.taubench.datasets import Dataset
from repro.temporal.stratum import TemporalStratum


def copy_dataset_into(stratum: TemporalStratum, dataset: Dataset) -> Dataset:
    """Copy a dataset's tables into another (typically durable) stratum.

    ``build_dataset`` creates its own fresh stratum; a durable session
    instead wants the data *inside* the already-attached one.  The six
    tables are created (with valid-time support) and bulk-copied in a
    single explicit transaction, so under durability the whole load is
    one WAL commit — one write, one fsync.  Returns the dataset rebound
    to ``stratum``.
    """
    db = stratum.db
    source = dataset.stratum.db
    db.execute("BEGIN")
    try:
        for table_name in schema.TABLE_NAMES:
            if not db.catalog.has_table(table_name):
                db.execute(schema.DDL[table_name])
                stratum.add_validtime(table_name)
            original = source.catalog.get_table(table_name)
            target = db.catalog.get_table(table_name)
            for row in original.rows:
                target.append_row(list(row))
            db.stats.count_rows(len(original), "bulk_load")
    except BaseException:
        db.execute("ROLLBACK")
        raise
    db.execute("COMMIT")
    db.now = source.now
    return dataclasses.replace(dataset, stratum=stratum)
