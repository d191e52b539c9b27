"""Fault-injection harness for the transaction tests.

``snapshot_db`` captures everything rollback promises to restore —
row data, version counters, catalog contents, schema version, registry
entries — so a test can assert that a statement crashed mid-flight left
the database byte-identical to never having run it.  ``install_fault``
arms a :class:`~repro.sqlengine.txn.FaultPlan` on the engine; faults
are single-shot, so re-running the failed statement after
``clear_fault`` (or even without clearing) succeeds.
"""

from __future__ import annotations

import copy
from typing import Any, Optional

from repro.sqlengine.engine import Database
from repro.sqlengine.txn import FaultPlan


def snapshot_db(db: Database) -> dict[str, Any]:
    """A deep-enough snapshot of all state rollback must restore."""
    tables = {}
    for name, table in db.catalog._tables.items():
        tables[name] = {
            "columns": [
                (c.name, str(c.type), c.not_null, c.primary_key)
                for c in table.columns
            ],
            "rows": copy.deepcopy(table.rows),
            "version": table.version,
        }
    return {
        "tables": tables,
        "views": sorted(db.catalog._views.keys()),
        "routines": sorted(db.catalog._routines.keys()),
        "schema_version": db.catalog.schema_version,
    }


def snapshot_registry(registry) -> dict[str, Any]:
    """The registered temporal-table set (names and timestamp columns)."""
    return {
        key: (info.name, info.begin_column, info.end_column)
        for key, info in registry._tables.items()
    }


def assert_snapshot_equal(db: Database, expected: dict[str, Any]) -> None:
    actual = snapshot_db(db)
    assert actual["schema_version"] == expected["schema_version"]
    assert actual["views"] == expected["views"]
    assert actual["routines"] == expected["routines"]
    assert sorted(actual["tables"]) == sorted(expected["tables"])
    for name, want in expected["tables"].items():
        got = actual["tables"][name]
        assert got["columns"] == want["columns"], f"{name}: column layout"
        assert got["rows"] == want["rows"], f"{name}: row data"
        assert got["version"] == want["version"], f"{name}: version counter"
    # derived structures must never describe data newer than the version says
    for name, table in db.catalog._tables.items():
        for key, entry in table._derived.items():
            assert entry[0] <= table.version, f"{name}: stale {key} survived"


def install_fault(
    db: Database, site: str, target: Optional[str] = None, at: int = 1
) -> FaultPlan:
    plan = FaultPlan(site, target=target, at=at)
    db.txn.fault_plan = plan
    return plan


def clear_fault(db: Database) -> None:
    db.txn.fault_plan = None
