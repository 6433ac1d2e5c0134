"""The machine's momentary speed, measured between jobs.

On a shared host the same job can take up to twice as long from one
second to the next, because other tenants load the cores and caches
the benchmark runs on.  A fixed loop of the library's staple work
(exact rationals in a dict, a JSON rendering), timed before the first
job, after the last and between jobs at least every CALIBRATE_EVERY_S,
tracks that speed, though only in part (see NOTES.md).  A
job's time scaled by REFERENCE_S over the mean of the two calibrations
that bracket it is the time the job would take at the reference speed.
The loop calls nothing in the library, so a slower library shows in
full in the scaled time; the collector is off while the loop runs, so
neither does the library's heap size reach the loop through it.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

#: Median loop time on the reference machine (see NOTES.md).
REFERENCE_S = 0.006
CALIBRATE_EVERY_S = 0.25
REPEATS = 3

_KEYS = random.Random(0).sample(range(1 << 30), 1500)


def _loop() -> float:
    """Exact rationals in a dict, products of looked-up entries and a
    JSON rendering: the mix of work the library's jobs do, on a working
    set larger than the fastest caches."""
    start = perf_counter()
    table = {}
    for n, key in enumerate(_KEYS):
        table[key] = Fraction(key % 97 + 1, n % 89 + 1)
    total = Fraction(0)
    for key in _KEYS[::4]:
        total += table[key] * table[_KEYS[key % len(_KEYS)]]
    rows = [[str(table[k]) for k in _KEYS[i : i + 40]] for i in range(0, len(_KEYS), 40)]
    json.dumps(rows)
    return perf_counter() - start


class Speedometer:
    def __init__(self):
        self.times: list[float] = []  # when each calibration ended
        self.loops: list[float] = []  # its median loop time

    def calibrate(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            loop = statistics.median(_loop() for _ in range(REPEATS))
        finally:
            if enabled:
                gc.enable()
        self.times.append(perf_counter())
        self.loops.append(loop)

    def due(self) -> bool:
        return not self.times or perf_counter() - self.times[-1] >= CALIBRATE_EVERY_S

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean loop time of the last calibration
        before start and the first after end."""
        before = max(bisect_right(self.times, start) - 1, 0)
        after = min(bisect_left(self.times, end), len(self.times) - 1)
        return REFERENCE_S / ((self.loops[before] + self.loops[after]) / 2)
