"""A fixed reference computation that gauges the host's current speed.

The reference lives in the benchmark, not the program, so no change to
the program can move it.  It mixes the two kinds of interpreter work the
workloads do: arithmetic with small-dict updates (the simulator's event
loop) and a keyed ``min()`` over objects scattered through a heap (the
flow table's eviction scan).
"""

from __future__ import annotations

import random
import statistics
import time


class _Item:
    __slots__ = ("rank", "order", "key")

    def __init__(self, order: int, rank: float) -> None:
        self.rank = rank
        self.order = order
        self.key = f"r/{order}"


#: Seconds the reference takes at nominal speed: its median on the 2-vCPU
#: virtual machine the bounds in BENCHMARK.json were set on.
NOMINAL_S = 0.004


class Reference:
    """Times the reference computation on demand."""

    ITEMS = 50_000
    GROUP = 1250
    GROUPS = 4
    ARITH_STEPS = 10_000
    REPEATS = 3

    def __init__(self) -> None:
        rng = random.Random(0)
        items = [_Item(order, rng.random()) for order in range(self.ITEMS)]
        rng.shuffle(items)
        self._groups = [items[i:i + self.GROUP]
                        for i in range(0, self.ITEMS, self.GROUP)]
        self._next = 0

    def _compute(self) -> int:
        total = 0
        for _ in range(self.GROUPS):
            group = self._groups[self._next]
            self._next = (self._next + 1) % len(self._groups)
            total += min(group, key=lambda i: (i.rank, i.order, i.key)).order
        table: dict[int, int] = {}
        for step in range(self.ARITH_STEPS):
            total += step * step % 7
            table[step & 1023] = total
        return total

    def sample(self) -> float:
        """Median seconds of a few back-to-back reference computations."""
        times = []
        for _ in range(self.REPEATS):
            started = time.perf_counter()
            self._compute()
            times.append(time.perf_counter() - started)
        return statistics.median(times)

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor taking seconds measured between two samples to nominal
        host speed."""
        return NOMINAL_S / ((before + after) / 2)
