"""A meter of the host's speed, running beside the measured work.

On a shared host identical CPU work takes 1.0x to 1.8x its best time, in
bursts of seconds and in regimes of minutes, and the CPU time the guest
reports stretches with it: nothing the program does, yet more than any
bound a benchmark would want to gate on.  What stays put is the *fastest*
time of a short fixed unit of work (within 3 % over minutes).

So a thread of the parent process, on the CPU the children run on, does
such a unit every ``PERIOD_S`` seconds and notes the CPU time it took.
Over a window of a child's run, the mean unit time over the fastest unit
time is how much slower than undisturbed the host ran during that
window, and ``run.py`` divides the window's wall time by it.  Measured here on 8 s
compute-bound windows: quartile spread 22 % as measured, 3 % calibrated.
The units cost about 3 % of the CPU, on traced and untraced repeats alike.

Thread CPU time, not wall time: waiting for the CPU the child holds is
not the host's slowness.  Times are ``CLOCK`` readings, which on Linux is
CLOCK_MONOTONIC: one time base for parent and children.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from typing import Dict, List, Optional

CLOCK = time.monotonic

#: Seconds between two units.
PERIOD_S = 0.025


def wall_s(window: Dict[str, float]) -> float:
    """Length of a ``{"start", "end"}`` window of ``CLOCK`` readings."""
    return window["end"] - window["start"]


class HostProbe(threading.Thread):
    def __init__(self) -> None:
        super().__init__(name="bench-hostprobe", daemon=True)
        import numpy

        #: When each unit ended, and the CPU seconds it took.
        self.ended: List[float] = []
        self.unit_s: List[float] = []
        self.floor_s = float("inf")
        self._halt = threading.Event()
        self._x = numpy.linspace(0.0, 1.0, 64)

    def unit(self) -> None:
        # Half small-array NumPy calls, half bare bytecode: what the
        # program's step loops are made of.  (On 8 s SMD ensembles these
        # two kinds of unit tracked the slowdown with correlation 0.98 and
        # 0.95; a unit that allocates did not, 0.27.)
        x = self._x
        for _ in range(150):
            (x * 1.5 + x).sum()
        total = 0
        for i in range(6000):
            total += i * i % 7

    def run(self) -> None:
        while not self._halt.wait(PERIOD_S):
            start = time.thread_time()
            self.unit()
            spent = time.thread_time() - start
            self.floor_s = min(self.floor_s, spent)
            self.unit_s.append(spent)
            self.ended.append(CLOCK())

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def slowdown(self, start: float, end: float) -> Optional[float]:
        """Mean time of the units that ended in ``[start, end]`` over the
        fastest unit so far; ``None`` when the window holds none."""
        ended = self.ended[:]  # never longer than unit_s
        units = self.unit_s[bisect.bisect_left(ended, start):
                            bisect.bisect_right(ended, end)]
        if not units:
            return None
        return max(1.0, statistics.fmean(units) / self.floor_s)
