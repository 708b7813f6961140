"""Host speed, measured next to the work it scales.

The benchmark runs on a shared machine whose speed drifts by a quarter
within a minute.  The drift moves consfree and a fixed pure-Python loop
alike: their ratio stays within a few per cent while each alone does not.
So the benchmark times the reference loop around the work, and reports each
time scaled to a nominal host on which that loop takes REFERENCE_S:

    scaled = measured * REFERENCE_S / (reference loop time around it)

The loop touches nothing in consfree, so a change to consfree moves the
scaled times exactly as it moves the measured ones.  The measured times are
reported alongside.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.003  # nominal reference loop time, about this loop on a 2-core x86-64 VM
LOOP_N = 12_000


def reference_loop() -> int:
    """Dict, tuple and call traffic, like consfree's own inner loops."""
    table: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(LOOP_N):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + 1
        total += len(key)
    return total


class HostSpeed:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = self.sample()
        self.at = time.perf_counter()

    def sample(self) -> float:
        """Reference loop time: the median of three runs."""
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            reference_loop()
            runs.append(time.perf_counter() - start)
        s = statistics.median(runs)
        self.samples.append(s)
        return s

    def factor(self) -> float:
        """Scale for the work done since the previous call (or creation):
        nominal over the mean of the reference times before and after it."""
        now = self.sample()
        f = REFERENCE_S / ((self.last + now) / 2)
        self.last, self.at = now, time.perf_counter()
        return f

    def since(self) -> float:
        return time.perf_counter() - self.at
