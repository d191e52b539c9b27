"""Taking the machine's own speed out of the timings.

The sandbox this benchmark runs in changes speed under it: the same
pure-Python loop takes 7–9 ms from one second to the next, and for
minutes at a time everything runs at half speed.  A batch of ten runs
that meets such a spell spreads by 40 % and more, and no bound the
contract allows (25 % at most) survives that.

So the load generator times a fixed piece of interpreter work — a
*spin* — next to every statement, and divides each elapsed time by how
much slower than ``REFERENCE_SPIN_S`` the spins around it ran.  An
end-to-end time is therefore "seconds on a machine where the spin takes
``REFERENCE_SPIN_S``".  Both sides of a comparison are scaled by what
the machine did while they ran, which is what makes them comparable;
the raw seconds are kept for the per-layer accounting, which compares
layers within one run and needs no scaling.
"""

from __future__ import annotations

import bisect
import statistics
import time

# the median spin on the machine BASELINE.md was measured on, in a quiet
# spell.  Only ratios to it matter; changing it rescales every timing.
REFERENCE_SPIN_S = 0.00215
WINDOW_S = 0.5  # spins this close to an interval say how fast it ran


def spin() -> float:
    """Seconds a fixed mix of dict, arithmetic, comparison and call work
    takes — the kind of work the engine's interpreter loops do.  It
    creates no containers, so it never triggers a garbage collection of
    the heap the statement before it left behind."""
    started = time.perf_counter()
    counts: dict[int, int] = {}
    high = 0.0
    get = counts.get
    for i in range(10000):
        key = i & 255
        counts[key] = get(key, 0) + i
        value = i * 0.5
        if value > high:
            high = max(high, value)
    return time.perf_counter() - started


class SpeedLog:
    """Spins taken during one run, and the speed factor of any interval.

    Spins are taken while nothing else of the benchmark runs — between
    statements, between blocks of wire traffic — so that they time the
    machine and not the load."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spins: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.spins.append(spin())
            self.times.append(time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        """How many times slower than the reference the machine ran
        between ``start`` and ``end``: the mean of the spins from the
        last one before the interval to the first one after it, and of
        any others within ``WINDOW_S`` of it."""
        times = self.times
        low = min(bisect.bisect_right(times, start) - 1,
                  bisect.bisect_left(times, start - WINDOW_S))
        high = max(bisect.bisect_left(times, end) + 1,
                   bisect.bisect_right(times, end + WINDOW_S))
        return statistics.fmean(self.spins[max(low, 0):high]) / REFERENCE_SPIN_S

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` in reference-machine seconds."""
        return (end - start) / self.factor(start, end)

    def summary(self) -> dict[str, float]:
        return {
            "speed.spins": len(self.spins),
            "speed.factor_median": statistics.median(self.spins) / REFERENCE_SPIN_S,
            "speed.factor_max": max(self.spins) / REFERENCE_SPIN_S,
        }
