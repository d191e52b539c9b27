"""Dataset persistence round-trip tests."""

import pytest

from repro.sqlengine import Database
from repro.sqlengine.values import Date, Null
from repro.taubench import schema
from repro.taubench.io import (
    DatasetLoadError,
    copy_dataset_into,
    export_dataset,
    export_table,
    import_dataset,
    import_table,
)
from repro.temporal import SlicingStrategy

from tests.oracle import check


class TestTableRoundTrip:
    @pytest.fixture
    def db(self):
        db = Database()
        db.execute(
            "CREATE TABLE t (a INTEGER, b CHAR(10), c FLOAT, d DATE)"
        )
        db.execute(
            "INSERT INTO t VALUES (1, 'x', 2.5, DATE '2010-06-01')"
        )
        db.execute("INSERT INTO t (a) VALUES (2)")  # NULLs in b, c, d
        return db

    def test_round_trip_preserves_values(self, db, tmp_path):
        export_table(db.catalog.get_table("t"), tmp_path / "t.csv")
        db2 = Database()
        db2.execute("CREATE TABLE t (a INTEGER, b CHAR(10), c FLOAT, d DATE)")
        count = import_table(db2, "t", tmp_path / "t.csv")
        assert count == 2
        rows = db2.query("SELECT a, b, c, d FROM t ORDER BY a").rows
        assert rows[0] == [1, "x", 2.5, Date.from_iso("2010-06-01")]
        assert rows[1][1] is Null and rows[1][3] is Null

    def test_header_mismatch_rejected(self, db, tmp_path):
        export_table(db.catalog.get_table("t"), tmp_path / "t.csv")
        db2 = Database()
        db2.execute("CREATE TABLE t (x INTEGER, b CHAR(10), c FLOAT, d DATE)")
        with pytest.raises(ValueError):
            import_table(db2, "t", tmp_path / "t.csv")


class TestCorruptFixtures:
    @pytest.fixture
    def db(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER, d DATE)")
        return db

    def test_empty_file_rejected(self, db, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(DatasetLoadError, match="empty file"):
            import_table(db, "t", path)

    def test_wrong_field_count_names_file_and_line(self, db, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,d\n1,2010-06-01\n2,2010-06-02,EXTRA\n")
        with pytest.raises(DatasetLoadError, match=r"t\.csv, line 3"):
            import_table(db, "t", path)

    def test_bad_value_names_file_line_and_column(self, db, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,d\n1,2010-06-01\nnope,2010-06-02\n")
        with pytest.raises(
            DatasetLoadError, match=r"t\.csv, line 3, column a"
        ):
            import_table(db, "t", path)

    def test_bad_date_names_file_line_and_column(self, db, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,d\n1,not-a-date\n")
        with pytest.raises(
            DatasetLoadError, match=r"t\.csv, line 2, column d"
        ):
            import_table(db, "t", path)

    def test_load_error_is_a_value_error(self, db, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            import_table(db, "t", path)


class TestCopyDatasetInto:
    def test_copy_into_fresh_stratum(self, small_dataset):
        from repro.temporal.stratum import TemporalStratum

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


class TestDatasetRoundTrip:
    def test_export_import_identical_tables(self, small_dataset, tmp_path):
        export_dataset(small_dataset, tmp_path / "ds")
        loaded = import_dataset(tmp_path / "ds")
        assert loaded.spec.key == small_dataset.spec.key
        assert loaded.probe_item_id == small_dataset.probe_item_id
        for table_name in schema.TABLE_NAMES:
            original = small_dataset.stratum.db.catalog.get_table(table_name)
            restored = loaded.stratum.db.catalog.get_table(table_name)
            assert len(original) == len(restored)
            assert original.rows == restored.rows

    def test_imported_dataset_is_queryable(self, small_dataset, tmp_path):
        export_dataset(small_dataset, tmp_path / "ds")
        loaded = import_dataset(tmp_path / "ds")
        from repro.taubench import get_query

        query = get_query("q2")
        query.install(loaded)
        sequenced = query.sequenced_sql(loaded, "2010-02-01", "2010-02-15")
        verdicts = check(loaded.stratum, sequenced, list(SlicingStrategy))
        assert verdicts == {s: "agrees" for s in SlicingStrategy}

    def test_manifest_written(self, small_dataset, tmp_path):
        directory = export_dataset(small_dataset, tmp_path / "ds")
        manifest = (directory / "manifest.txt").read_text()
        assert "name=DS1" in manifest
        assert "size=SMALL" in manifest
