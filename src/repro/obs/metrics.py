"""A hierarchical metrics registry: counters, timers, gauges.

Metric names are dotted paths (``stratum.max.slice_seconds``); the
registry is flat internally (one dict lookup per touch, cheap enough
for hot paths) and hierarchical at the edges — :meth:`snapshot`
returns a nested dict keyed by path segment.

Three instrument kinds:

* :class:`Counter` — a monotonically adjusted integer (events, rows).
* :class:`Timer` — aggregate duration: total seconds over N
  observations.  The §VII-F measured-cost mode divides totals recorded
  around whole executions by slice/invocation counts, so per-event
  means come out of two ``perf_counter`` calls per statement instead
  of two per event.
* gauges — externally-owned point-in-time values, set rather than
  accumulated (the undo log's high-water mark).

Everything is in-process and single-threaded, like the engine itself.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional


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


class Timer:
    """Aggregate wall time: ``total`` seconds across ``count`` events.

    ``record(seconds, events)`` attributes one measured duration to
    several events at once — the cheap way to get a per-event mean
    without timing each event individually.
    """

    __slots__ = ("name", "count", "total", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def record(self, seconds: float, events: int = 1) -> None:
        if events <= 0:
            return
        self.count += events
        self.total += seconds
        per_event = seconds / events
        if per_event > self.max:
            self.max = per_event

    @property
    def mean(self) -> Optional[float]:
        """Mean seconds per event, or None with no observations."""
        if self.count == 0:
            return None
        return self.total / self.count

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timer({self.name}: {self.count} events, {self.total:.6f}s)"


class MetricsRegistry:
    """The process-wide metric store, one per :class:`Database`."""

    __slots__ = ("_counters", "_timers", "gauges")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._timers: dict[str, Timer] = {}
        # gauges: externally-owned point-in-time values (set, not
        # accumulated) — e.g. the undo log's high-water mark
        self.gauges: dict[str, float] = {}

    # -- instrument access (create on first touch) ----------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def timer(self, name: str) -> Timer:
        timer = self._timers.get(name)
        if timer is None:
            timer = self._timers[name] = Timer(name)
        return timer

    # -- conveniences ----------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def value(self, name: str) -> int:
        """Current value of a counter (0 if never touched)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def mean(self, name: str) -> Optional[float]:
        """Mean of a timer's per-event seconds (None if unobserved)."""
        timer = self._timers.get(name)
        return timer.mean if timer is not None else None

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

    def names(self) -> Iterator[str]:
        yield from self._counters
        yield from self._timers
        yield from self.gauges

    def flat(self) -> dict[str, Any]:
        """One flat dict: counters as ints, timers as dicts."""
        out: dict[str, Any] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, timer in self._timers.items():
            out[name] = {
                "count": timer.count,
                "total_seconds": timer.total,
                "mean_seconds": timer.mean,
                "max_seconds": timer.max,
            }
        for name, value in self.gauges.items():
            out[name] = value
        return out

    def snapshot(self) -> dict[str, Any]:
        """The hierarchical view: dotted names become nested dicts."""
        tree: dict[str, Any] = {}
        for name, value in sorted(self.flat().items()):
            node = tree
            parts = name.split(".")
            for part in parts[:-1]:
                child = node.get(part)
                if not isinstance(child, dict) or part not in node:
                    child = node[part] = {}
                node = child
            node[parts[-1]] = value
        return tree

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()
        for timer in self._timers.values():
            timer.reset()
        self.gauges.clear()
