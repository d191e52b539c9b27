"""Storage-layer tests: tables, mutation, hash indexes."""

import pytest

from repro.sqlengine.errors import CatalogError, ExecutionError
from repro.sqlengine.storage import Column, Table
from repro.sqlengine.types import INTEGER, varchar
from repro.sqlengine.values import Null, sort_key


def make_table():
    return Table("t", [Column("id", INTEGER), Column("name", varchar(20))])


class TestTableBasics:
    def test_column_index_case_insensitive(self):
        table = make_table()
        assert table.column_index("ID") == 0
        assert table.column_index("Name") == 1

    def test_unknown_column_raises(self):
        with pytest.raises(CatalogError):
            make_table().column_index("nope")

    def test_duplicate_columns_raise(self):
        with pytest.raises(CatalogError):
            Table("t", [Column("a", INTEGER), Column("A", INTEGER)])

    def test_insert_full_row(self):
        table = make_table()
        table.insert([1, "x"])
        assert table.rows == [[1, "x"]]

    def test_insert_with_column_subset(self):
        table = make_table()
        table.insert([5], columns=["id"])
        assert table.rows[0][1] is Null

    def test_insert_wrong_arity_raises(self):
        with pytest.raises(ExecutionError):
            make_table().insert([1])

    def test_not_null_enforced(self):
        table = Table("t", [Column("a", INTEGER, not_null=True)])
        with pytest.raises(ExecutionError):
            table.insert([Null])

    def test_primary_key_implies_not_null(self):
        table = Table("t", [Column("a", INTEGER, primary_key=True)])
        assert table.columns[0].not_null

    def test_delete_where(self):
        table = make_table()
        table.insert([1, "x"])
        table.insert([2, "y"])
        removed = table.delete_rows([row for row in table.rows if row[0] == 1])
        assert removed == 1
        assert len(table) == 1

    def test_update_where(self):
        table = make_table()
        table.insert([1, "x"])
        count = table.update_rows(table.rows, [[(1, "z")]])
        assert count == 1
        assert table.rows[0][1] == "z"


class TestHashIndex:
    def test_lookup(self):
        table = make_table()
        table.insert([1, "x"])
        table.insert([2, "y"])
        table.insert([2, "z"])
        index = table.hash_index(0)
        assert len(index[sort_key(2)]) == 2

    def test_null_excluded(self):
        table = make_table()
        table.insert([Null, "x"], columns=["id", "name"])
        assert sort_key(Null) not in table.hash_index(0)

    def test_invalidated_on_insert(self):
        table = make_table()
        table.insert([1, "x"])
        bucket = table.hash_index(0)[sort_key(1)]
        table.insert([1, "y"])
        # the index follows the insert; the bucket a reader already holds
        # is replaced, never grown in place
        assert table.hash_index(0) == {sort_key(1): [table.rows[0], table.rows[1]]}
        assert bucket == [table.rows[0]]

    def test_invalidated_on_delete(self):
        table = make_table()
        table.insert([1, "x"])
        table.hash_index(0)
        table.delete_rows(list(table.rows))
        assert sort_key(1) not in table.hash_index(0)

    def test_cached_when_unchanged(self):
        table = make_table()
        table.insert([1, "x"])
        assert table.hash_index(0) is table.hash_index(0)

    def test_truncate_bumps_version(self):
        table = make_table()
        table.insert([1, "x"])
        version = table.version
        table.replace_rows([])
        assert table.version > version
        assert table.rows == [] and table.hash_index(0) == {}
