"""Per-routine counts read off the metrics registry.

A routine's counters are families ``engine.routine.<what>.<routine>``
(``EngineStats.ROUTINE_CALLS`` and friends); these return one family as
a dict of its nonzero members, keyed by lower-case routine name.
"""

from repro.sqlengine.engine import Database


def per_routine(db: Database, prefix: str) -> dict[str, int]:
    return {
        name[len(prefix):]: value
        for name, value in db.obs.flat().items()
        if name.startswith(prefix) and value
    }


def routine_calls(db: Database) -> dict[str, int]:
    """Bodies run, per routine."""
    return per_routine(db, db.stats.ROUTINE_CALLS)


def routine_reuses(db: Database) -> dict[str, int]:
    """Invocations the routine-result memo served, per routine."""
    return per_routine(db, db.stats.ROUTINE_REUSES)
