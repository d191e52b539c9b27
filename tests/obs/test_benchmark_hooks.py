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
