"""Temporal SQL/PSM — reproduction of "Temporal Support for Persistent
Stored Modules" (Snodgrass, Gao, Zhang, Thomas; ICDE 2012).

Public API:

* :class:`repro.sqlengine.Database` — the conventional SQL/PSM engine.
* :class:`repro.temporal.TemporalStratum` — the temporal layer: register
  temporal tables, then execute Temporal SQL/PSM (``VALIDTIME`` /
  ``NONSEQUENCED VALIDTIME`` statement modifiers) with current,
  sequenced (MAX or PERST slicing) and nonsequenced semantics.
* :mod:`repro.taubench` — the τPSM benchmark: datasets DS1/DS2/DS3 and
  the sixteen queries q2..q20.
"""

__version__ = "1.0.0"

__all__ = ["Database", "TemporalStratum", "SlicingStrategy", "Period", "__version__"]

_EXPORTS = {
    "Database": ("repro.sqlengine", "Database"),
    "TemporalStratum": ("repro.temporal", "TemporalStratum"),
    "SlicingStrategy": ("repro.temporal", "SlicingStrategy"),
    "Period": ("repro.temporal.period", "Period"),
}


def __getattr__(name: str):
    """Lazy exports so importing subpackages stays cheap and acyclic."""
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
