"""Observability: metrics registry, trace spans, EXPLAIN rendering.

See DESIGN.md §3.3.  Every :class:`~repro.sqlengine.engine.Database`
owns a :class:`MetricsRegistry` (``db.obs``) and a :class:`Tracer`
(``db.tracer``); the stratum and engine report into them, and
``EXPLAIN [ANALYZE]`` / ``repro explain`` / ``repro trace`` read them
back out.

The explain renderer is exported lazily: :mod:`repro.obs.explain`
reaches back into :mod:`repro.sqlengine`, and the engine imports this
package at module level — eager re-export here would be a cycle.
"""

from repro.obs.metrics import Counter, MetricsRegistry, Timer
from repro.obs.tracing import NULL_SPAN, Span, Tracer

_LAZY = {
    "ExplainResult",
    "describe_plan",
    "explain_engine_statement",
    "explain_statement",
}

__all__ = [
    "Counter",
    "MetricsRegistry",
    "Timer",
    "Span",
    "Tracer",
    "NULL_SPAN",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    if name in _LAZY:
        from repro.obs import explain

        return getattr(explain, name)
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
