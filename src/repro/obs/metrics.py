"""The metrics registry: counters and gauges.

Metric names are dotted paths (``engine.routine_memo.entries``) in one
flat dict, one lookup per touch; a hot path holds a :class:`Counter`
handle instead.  A family of counters shares a prefix
(``engine.routine.calls.<routine>``), and its total is
:meth:`MetricsRegistry.sum_prefix`: no second counter holds it.

Two instrument kinds:

* :class:`Counter` — a monotonically adjusted integer (events, rows).
* gauges — externally-owned point-in-time values, set rather than
  accumulated (the undo log's high-water mark).

Everything is in-process and single-threaded, like the engine itself.
"""

from __future__ import annotations

from typing import Any


class Counter:
    """A named integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class MetricsRegistry:
    """The process-wide metric store, one per :class:`Database`."""

    __slots__ = ("_counters", "gauges")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        # gauges: externally-owned point-in-time values (set, not
        # accumulated) — e.g. the undo log's high-water mark
        self.gauges: dict[str, float] = {}

    # -- instrument access (create on first touch) ----------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    # -- conveniences ----------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def value(self, name: str) -> int:
        """Current value of a counter (0 if never touched)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def sum_prefix(self, prefix: str) -> int:
        """Sum of every counter whose name starts with ``prefix``."""
        return sum(
            counter.value
            for name, counter in self._counters.items()
            if name.startswith(prefix)
        )

    def reset_prefix(self, prefix: str) -> None:
        """Zero every counter whose name starts with ``prefix``."""
        for name, counter in self._counters.items():
            if name.startswith(prefix):
                counter.reset()

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    # -- introspection ---------------------------------------------------

    def flat(self) -> dict[str, Any]:
        """One flat dict: counters as ints, gauges as last set."""
        out: dict[str, Any] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, value in self.gauges.items():
            out[name] = value
        return out
