"""The end-to-end benchmark's outside-in hooks still resolve.

``benchmarks/e2e/tracing.py`` wraps the program's layers **by module and
name**, from outside; nothing under ``src/`` imports it.  A rename in
``src/`` would otherwise surface only as a failing ``--trace 1`` run —
this makes it a tier-1 failure, resolving each point exactly the way
``tracing.install`` does.
"""

import importlib
import inspect

import pytest

from benchmarks.e2e import tracing

POINTS = sorted(
    {(module, target) for module, target, _ in (
        tracing.ENGINE_POINTS + tracing.SERVER_POINTS + tracing.CLIENT_POINTS
    )}
)


@pytest.mark.parametrize("module_name,target", POINTS)
def test_point_resolves(module_name, target):
    module = importlib.import_module(module_name)
    if "." in target:
        class_name, method = target.split(".")
        resolved = getattr(module, class_name).__dict__[method]
    else:
        resolved = getattr(module, target)
    assert callable(resolved)


def test_imported_first_modules_exist():
    for name in tracing._IMPORT_FIRST:
        importlib.import_module(name)


def test_stratum_boundary_signature():
    """The boundary wrapper calls ``execute_ast(stratum, stmt, strategy)``
    positionally and reads ``last_strategy`` afterwards."""
    from repro.temporal.stratum import TemporalStratum

    parameters = list(inspect.signature(TemporalStratum.execute_ast).parameters)
    assert parameters[:3] == ["self", "stmt", "strategy"]
    assert hasattr(TemporalStratum(), "last_strategy")


# each key of ``tracing.program_counters`` and the registry counter — or
# the family, named by its prefix — it stands for
PROGRAM_COUNTERS = {
    "statements": "engine.statements",
    "routine_calls": "engine.routine.calls.",
    "plans_compiled": "engine.plans_compiled",
    "plan_cache_hits": "engine.plan_cache.hits",
    "transforms": "stratum.transforms",
    "transform_cache_hits": "stratum.transform_cache.hits",
    "rows_scanned": "engine.rows_scanned",
    "rows_written": "engine.rows_written.",
    "slices": "stratum.slices",
    "choice.max": "heuristic.choice.max",
    "choice.perst": "heuristic.choice.perst",
    "choice.seqset": "heuristic.choice.seqset",
    "wal.commits": "wal.commits",
    "wal.bytes": "wal.bytes",
    "checkpoint.writes": "checkpoint.writes",
}
# what a MAX sequenced statement that calls a routine, run three times,
# must move
MOVED = {
    "statements", "routine_calls", "plans_compiled", "plan_cache_hits",
    "transforms", "transform_cache_hits", "rows_scanned", "rows_written",
    "slices",
}


def test_program_counters_read_the_registry():
    """The harness reads the program's counts through
    ``EngineStats.snapshot`` and ``db.obs``; every one is a registry
    counter (or a family's sum), with nothing kept beside it."""
    from repro.temporal import SlicingStrategy
    from tests.conftest import GET_AUTHOR_NAME, make_bookstore

    stratum = make_bookstore()
    stratum.register_routine(GET_AUTHOR_NAME)
    sql = (
        "VALIDTIME [DATE '2010-01-01', DATE '2011-01-01']"
        " SELECT get_author_name('a1') AS name FROM item"
    )
    for _ in range(3):  # the statement cache serves the later runs
        stratum.execute(sql, strategy=SlicingStrategy.MAX)
    counters = tracing.program_counters(stratum)
    assert set(counters) == set(PROGRAM_COUNTERS)
    obs = stratum.db.obs
    for key, name in PROGRAM_COUNTERS.items():
        expected = obs.sum_prefix(name) if name.endswith(".") else obs.value(name)
        assert counters[key] == expected, key
        assert counters[key] > 0 or key not in MOVED, key
