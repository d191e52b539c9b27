"""Copying a generated dataset into another stratum."""

import pytest

from repro.sqlengine.errors import FaultInjected
from repro.sqlengine.resilience import verify_store
from repro.sqlengine.wal import WAL_FILE, read_frames
from repro.taubench import schema
from repro.taubench.io import copy_dataset_into
from repro.temporal.stratum import TemporalStratum

from tests.faultinject import install_fault


class TestCopyDatasetInto:
    def test_copy_into_fresh_stratum(self, small_dataset):
        target = TemporalStratum()
        copied = copy_dataset_into(target, small_dataset)
        assert copied.stratum is target
        assert copied.probe_item_id == small_dataset.probe_item_id
        assert target.db.now == small_dataset.stratum.db.now
        for table_name in schema.TABLE_NAMES:
            original = small_dataset.stratum.db.catalog.get_table(table_name)
            restored = target.db.catalog.get_table(table_name)
            assert original.rows == restored.rows
            assert target.registry.is_temporal(table_name)

    def test_durable_copy_is_one_commit_and_survives_reopen(
        self, small_dataset, tmp_path
    ):
        path = tmp_path / "db"
        target = TemporalStratum.open(path)
        copy_dataset_into(target, small_dataset)
        target.db.close(checkpoint=False)
        assert verify_store(path).ok
        # every copied row rides in one transaction (the clock's move to
        # the dataset's ``now`` commits on its own after it)
        records, _ = read_frames((path / WAL_FILE).read_bytes())
        inserts_per_txn, current = [], 0
        for record in records:
            if record[0] == "ins":
                current += 1
            elif record[0] == "commit":
                inserts_per_txn.append(current)
                current = 0
        loaded = sum(
            len(small_dataset.stratum.db.catalog.get_table(name))
            for name in schema.TABLE_NAMES
        )
        assert [n for n in inserts_per_txn if n] == [loaded]

        reopened = TemporalStratum.open(path)
        for table_name in schema.TABLE_NAMES:
            original = small_dataset.stratum.db.catalog.get_table(table_name)
            restored = reopened.db.catalog.get_table(table_name)
            assert original.rows == restored.rows
            assert reopened.registry.is_temporal(table_name)
        reopened.db.close(checkpoint=False)

    def test_failed_copy_rolls_back_the_whole_load(self, small_dataset):
        target = TemporalStratum()
        # fail on the last table, after the first five were copied
        last = schema.TABLE_NAMES[-1]
        install_fault(target.db, "table.insert", target=last, at=2)
        with pytest.raises(FaultInjected):
            copy_dataset_into(target, small_dataset)
        for table_name in schema.TABLE_NAMES:
            assert not target.db.catalog.has_table(table_name)
        assert target.db.txn.log == []

    def test_copy_into_existing_tables_appends(self, small_dataset):
        target = TemporalStratum()
        copy_dataset_into(target, small_dataset)
        copy_dataset_into(target, small_dataset)
        for table_name in schema.TABLE_NAMES:
            original = small_dataset.stratum.db.catalog.get_table(table_name)
            restored = target.db.catalog.get_table(table_name)
            assert restored.rows == original.rows + original.rows
