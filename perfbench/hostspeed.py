"""Host speed, measured while the benchmark runs, and reference-speed time.

The reference host (2 vCPUs shared with other tenants) switches each
vCPU between speeds 1.6-2x apart, in stretches lasting from a
second to minutes, and each vCPU switches on its own. The slowdown is
on-CPU: the guest sees no steal time, and CPU time grows with wall time
through it. A run of 30 s therefore lands anywhere between all fast and
all slow, and the median round of one run moves with it.

:class:`SpeedMeter` measures the speed of the vCPU the benchmark runs on
while the benchmark's work runs. The process is pinned to one vCPU
(:func:`pin_to_one_cpu`), so the main thread and the thread running an
operation share it. While an operation runs, the main thread wakes every
:data:`SAMPLE_PERIOD_S`, takes the GIL and times a short fixed
pure-Python loop; the operation's thread waits meanwhile. A sample's
speed is :data:`REFERENCE_LOOP_S` divided by the loop's time.

:meth:`SpeedMeter.reference_seconds` converts an interval of wall time
into *reference seconds*: the wall time between samples, with the
loops' own time taken out, each stretch weighted by the speed the
samples around it measured. At the reference speed a reference second
is a wall second; a program change that doubles the work doubles the
reference seconds whatever the host's speed.
"""

from __future__ import annotations

import bisect
import os
import time
from typing import List

_perf = time.perf_counter

#: Wall time between samples while an operation runs.
SAMPLE_PERIOD_S = 0.02
#: Iterations of the calibration loop: 0.5-0.8 ms on the reference host,
#: about 3% of the time of an operation.
LOOP_ITERATIONS = 2_000
#: Time of the calibration loop at the reference speed: the faster of
#: the reference host's two speeds.
REFERENCE_LOOP_S = 0.00048


def _calibration_loop(iterations: int) -> int:
    # Dict stores and loads, integer arithmetic, branches and calls: the
    # kinds of work the program's interpreter loops do.
    table = {}
    total = 0
    for i in range(iterations):
        table[i & 127] = i
        value = table.get((i * 7) & 127, 0)
        if value & 1:
            total += value
        else:
            total ^= i
        total = abs(total) % 1_000_003
    return total


def pin_to_one_cpu() -> None:
    """Pin this process, and every thread it starts later, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedMeter:
    """Speed samples over time, and wall time converted with them."""

    def __init__(self) -> None:
        #: Start and end of each sample's loop, and the speed it measured.
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.speeds: List[float] = []

    def sample(self) -> None:
        start = _perf()
        _calibration_loop(LOOP_ITERATIONS)
        end = _perf()
        self.starts.append(start)
        self.ends.append(end)
        self.speeds.append(REFERENCE_LOOP_S / (end - start))

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds of work between wall times ``start`` and ``end``.

        Samples inside the interval split it into stretches of work; a
        stretch between two samples counts at their mean speed, the
        stretches before the first and after the last at the nearest
        sample's speed. The samples' own loops do not count. Each
        operation is followed by a sample inside its own interval, so
        every interval that holds an operation holds a sample.
        """
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.ends, end)
        if first >= last:
            raise ValueError(f"no speed sample between {start} and {end}")
        total = (self.starts[first] - start) * self.speeds[first]
        for i in range(first, last - 1):
            gap = self.starts[i + 1] - self.ends[i]
            total += gap * 0.5 * (self.speeds[i] + self.speeds[i + 1])
        total += (end - self.ends[last - 1]) * self.speeds[last - 1]
        return total
