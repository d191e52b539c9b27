"""A hierarchical metrics registry: counters, timers, histograms.

Metric names are dotted paths (``stratum.max.slice_seconds``); the
registry is flat internally (one dict lookup per touch, cheap enough
for hot paths) and hierarchical at the edges — :meth:`snapshot`
returns a nested dict keyed by path segment, and :meth:`scope` gives a
prefixed view so a subsystem can emit under its own branch without
knowing where it is mounted.

Three instrument kinds:

* :class:`Counter` — a monotonically adjusted integer (events, rows).
* :class:`Timer` — aggregate duration: total seconds over N
  observations.  The §VII-F measured-cost mode divides totals recorded
  around whole executions by slice/invocation counts, so per-event
  means come out of two ``perf_counter`` calls per statement instead
  of two per event.
* :class:`Histogram` — power-of-two bucketed distribution with
  min/max/total, for values whose spread matters (undo-log depth,
  per-period wall times).

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


class Histogram:
    """Power-of-two bucketed distribution of non-negative values.

    Bucket ``k`` counts values ``v`` with ``2**(k-1) < v <= 2**k``
    (bucket 0 holds zeros).  Enough resolution to see whether the
    undo log stays shallow or a per-period latency has a long tail,
    at the cost of two integer operations per observation.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: dict[int, int] = {}

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0:
            bucket = 0
        elif value >= 1:
            bucket = int(value).bit_length()
        else:  # fractional values (seconds) land in negative buckets
            bucket = -int(1.0 / value).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self.buckets = {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name}: {self.count} samples)"


class MetricsRegistry:
    """The process-wide metric store, one per :class:`Database`."""

    __slots__ = ("_counters", "_timers", "_histograms", "gauges")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._timers: dict[str, Timer] = {}
        self._histograms: dict[str, Histogram] = {}
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

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

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

    def scope(self, prefix: str) -> "MetricsScope":
        return MetricsScope(self, prefix)

    # -- introspection ---------------------------------------------------

    def names(self) -> Iterator[str]:
        yield from self._counters
        yield from self._timers
        yield from self._histograms
        yield from self.gauges

    def flat(self) -> dict[str, Any]:
        """One flat dict: counters as ints, timers/histograms as dicts."""
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
        for name, histogram in self._histograms.items():
            out[name] = {
                "count": histogram.count,
                "total": histogram.total,
                "mean": histogram.mean,
                "min": histogram.min,
                "max": histogram.max,
                "buckets": dict(sorted(histogram.buckets.items())),
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
        for histogram in self._histograms.values():
            histogram.reset()
        self.gauges.clear()


class MetricsScope:
    """A prefixed view of a registry (``scope("stratum").inc("slices")``
    touches ``stratum.slices``)."""

    __slots__ = ("registry", "prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self.registry = registry
        self.prefix = prefix.rstrip(".")

    def _name(self, name: str) -> str:
        return f"{self.prefix}.{name}"

    def counter(self, name: str) -> Counter:
        return self.registry.counter(self._name(name))

    def timer(self, name: str) -> Timer:
        return self.registry.timer(self._name(name))

    def histogram(self, name: str) -> Histogram:
        return self.registry.histogram(self._name(name))

    def inc(self, name: str, n: int = 1) -> None:
        self.registry.inc(self._name(name), n)

    def value(self, name: str) -> int:
        return self.registry.value(self._name(name))

    def scope(self, prefix: str) -> "MetricsScope":
        return MetricsScope(self.registry, self._name(prefix))
