"""Host-speed calibration: a fixed unit of pure-Python work, timed.

The benchmark runs on a few vCPUs of a shared host, whose speed moves by
up to 1.8x within seconds as other tenants come and go (a vCPU shares a
physical core with a busy neighbour, or does not).  Every CPU-bound time
moves with it.  The unit below does the same kind of work as the
program (object construction, attribute access, method calls, dict
lookups, float arithmetic) and is timed next to the program, so the
program's times can be given at a reference speed:

    time at reference speed = measured time x REFERENCE_UNIT_S / unit time

``REFERENCE_UNIT_S`` is what the unit takes on an undisturbed vCPU of
the 2-vCPU Intel Xeon VM the benchmark was written on, so reported times
stay close to seconds on that machine.  The unit never changes with the
program: a change that speeds up or slows down the program moves the
reported times by the full amount, while the host's speed cancels out.

``sim_table2`` times the unit with a :class:`Speedometer`: inside the
simulator process, every ``PERIOD_S`` from a ``SIGALRM`` handler, with
the calibration time itself kept out of the program's times.  (The serve
workloads' latencies do not follow this unit -- most of a round trip is
the kernel and the event loop -- so ``fastpath_open`` has its own
reference, ``echo.py``.)
"""

from __future__ import annotations

import bisect
import signal
import time
from statistics import median
from typing import Dict, List, Sequence, Tuple

UNIT_ITERATIONS = 100
#: seconds per unit on an undisturbed vCPU of the reference machine
REFERENCE_UNIT_S = 1.0e-4
#: units per calibration sample; their median is the sample
UNITS_PER_SAMPLE = 15
#: seconds of wall time between two samples
PERIOD_S = 0.1


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def scaled(self, factor: float) -> "_Point":
        return _Point(self.x * factor, self.y * factor)


def unit() -> float:
    """One unit of calibration work (about 0.1 ms on the reference VM)."""
    table: Dict[int, _Point] = {}
    total = 0.0
    for i in range(UNIT_ITERATIONS):
        point = _Point(i, i * 0.5).scaled(1.5)
        prev = table.get(i & 63)
        table[i & 63] = point
        if prev is not None:
            total += point.x - prev.y
    return total


def sample() -> float:
    """Median seconds per unit over ``UNITS_PER_SAMPLE`` units."""
    clock = time.perf_counter
    times = []
    for _ in range(UNITS_PER_SAMPLE):
        start = clock()
        unit()
        times.append(clock() - start)
    return median(times)


class Speedometer:
    """Samples the unit every ``PERIOD_S`` of wall time in this process.

    Samples are taken from a ``SIGALRM`` handler, so they interleave with
    whatever the process runs without the program knowing.  Between two
    samples the host speed is taken as the mean of the two, and
    :meth:`between` converts a measured interval to reference speed,
    leaving out the time the samples themselves took.
    """

    def __init__(self) -> None:
        #: (start, end, seconds per unit) of every sample, in time order
        self.samples: List[Tuple[float, float, float]] = []
        self._previous = None

    @property
    def taken(self) -> int:
        return len(self.samples)

    def _take(self, *_args) -> None:
        start = time.perf_counter()
        per_unit = sample()
        self.samples.append((start, time.perf_counter(), per_unit))

    def start(self) -> None:
        self._take()
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._take()

    def _gaps(self) -> List[Tuple[float, float, float]]:
        """(start, end, reference factor) of the time between samples."""
        return [
            (a[1], b[0], 2.0 * REFERENCE_UNIT_S / (a[2] + b[2]))
            for a, b in zip(self.samples, self.samples[1:])
        ]

    def between(self, start: float, end: float, at_reference: bool = False) -> float:
        """Seconds of [start, end) with the samples left out, as measured
        or (``at_reference``) at the reference speed."""
        total = 0.0
        for lo, hi, factor in self._gaps():
            overlap = min(hi, end) - max(lo, start)
            if overlap > 0:
                total += overlap * factor if at_reference else overlap
        return total

    def factors_at(self, times: Sequence[float]) -> List[float]:
        """The reference factor in force at each of ``times``."""
        gaps = self._gaps()
        starts = [g[0] for g in gaps]
        out = []
        for t in times:
            index = max(0, min(len(gaps) - 1, bisect.bisect_right(starts, t) - 1))
            out.append(gaps[index][2])
        return out
