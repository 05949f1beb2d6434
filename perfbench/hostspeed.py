"""Host-speed calibration: a fixed reference kernel timed beside the program.

The benchmark runs on shared hosts whose speed drifts by up to twice over a
few minutes, for every kind of work at once: two runs of the same code at
different moments then differ by more than any bound a regression gate can
use; and the speed swings within a run too, by half from one episode to
the next.  So every untraced run also times a fixed kernel — Python
dictionary, set and sort work plus numpy passes over arrays larger than the
core's cache, the two kinds of work the program does — between its timed
regions, and reports every timed sample scaled to a reference host speed
by the kernel samples taken nearest to it in time::

    reported seconds = measured seconds × REFERENCE_KERNEL_S / local kernel median

The kernel never calls the program, so a change to the program moves the
reported figures exactly as it moves the measured ones; only the host's
drift cancels.  The measured figures and the kernel's median are printed on
standard error beside them.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

_clock = time.perf_counter

#: The kernel's median time on the host the benchmark's bounds were set on
#: (two vCPUs of an Intel Xeon virtual machine).  Reported seconds are
#: seconds at that speed.
REFERENCE_KERNEL_S = 0.009

#: Share of a run's timed seconds spent on the kernel.
SHARE = 0.1

#: Kernel samples, the closest in time, that give the host speed at a
#: moment: enough that one slow kernel does not skew a timed sample, few
#: enough to follow the host from one region to the next.
NEAREST = 7

_arrays = None


def kernel() -> float:
    """Run the reference work once; returns its wall seconds.

    The collector is off meanwhile: a collection would scan the program's
    heap and make the kernel's time depend on the program after all.
    """
    global _arrays
    import numpy as np

    if _arrays is None:
        _arrays = (np.ones((1000, 1000)), np.empty((1000, 1000)))
    source, target = _arrays
    collecting = gc.isenabled()
    gc.disable()
    start = _clock()
    table = {}
    for i in range(6000):
        table[(i, str(i))] = {i, i + 1}
    ordered = sorted(table, key=lambda key: -key[0])
    union: set = set()
    for members in table.values():
        union |= members
    np.multiply(source, 1.5, out=target)
    for _ in range(2):
        target += source
        target -= source[0]
    elapsed = _clock() - start
    if collecting:
        gc.enable()
    assert len(ordered) == 6000 and len(union) == 6001
    return elapsed


class HostSpeed:
    """Kernel times of one run, kept at a fixed share of its timed seconds."""

    def __init__(self) -> None:
        #: Kernel seconds, and the clock reading at the middle of each run.
        self.samples: list[float] = []
        self.times: list[float] = []
        self.spent_s = 0.0

    def keep_up(self, timed_s: float) -> None:
        """Run the kernel once, and on until it has taken SHARE of *timed_s*.

        Called between timed regions, so every region has kernel samples
        just before and just after it.
        """
        while True:
            began = _clock()
            elapsed = kernel()
            self.samples.append(elapsed)
            self.times.append(began + elapsed / 2)
            self.spent_s += elapsed
            if self.spent_s >= SHARE * timed_s:
                return

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def factor_at(self, when: float) -> float:
        """Reference over measured seconds at clock reading *when*."""
        times = self.times
        low = high = bisect.bisect_left(times, when)
        while high - low < NEAREST and (low > 0 or high < len(times)):
            earlier = when - times[low - 1] if low > 0 else None
            if earlier is not None and (
                high == len(times) or earlier <= times[high] - when
            ):
                low -= 1
            else:
                high += 1
        return REFERENCE_KERNEL_S / statistics.median(self.samples[low:high])
