"""Machine-speed samples taken during a run, so that times can be scaled to a
fixed reference speed.

The host this benchmark was written on is shared: within minutes the same
code runs up to 2x faster or slower, CPU time included, while the ratio of
its time to the time of a fixed pure-Python kernel stays within a few per
cent.  So every run samples that kernel about five times a second from a
SIGALRM handler, and a stretch of the run's wall time is multiplied by
REFERENCE_KERNEL_S over the kernel's time near that stretch.  A scaled
second is a second on a machine where one kernel call takes
REFERENCE_KERNEL_S; time spent in the handler itself is left out.

The kernel is frozen: it never calls secnum, so a change to the library
cannot move it, and editing it (or REFERENCE_KERNEL_S) shifts every time
metric of the benchmark.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from array import array

REFERENCE_KERNEL_S = 0.005
INTERVAL_S = 0.2
# a stretch of the run is scaled by the median kernel time of this many
# samples on either side of it
NEIGHBOURS = 2

# time.perf_counter is CLOCK_MONOTONIC on Linux, so readings of different
# processes compare
clock = time.perf_counter


def _closed_rows(rows: list[int]) -> tuple[int, ...]:
    rows = list(rows)
    changed = True
    while changed:
        changed = False
        for i, row in enumerate(rows):
            reach, rest = row, row
            while rest:
                low = rest & -rest
                rest ^= low
                reach |= rows[low.bit_length() - 1]
            if reach != row:
                rows[i] = reach
                changed = True
    return tuple(rows)


def _monotone_maps(source: tuple[int, ...], target: tuple[int, ...]) -> set:
    n, m = len(source), len(target)
    co = [sum(1 << j for j in range(m) if (target[j] >> i) & 1) for i in range(m)]
    found: set = set()
    values = [0] * n

    def extend(x: int) -> None:
        if x == n:
            found.add(tuple(values))
            return
        for y in range(m):
            for x2 in range(x):
                if (source[x] >> x2) & 1 and not (target[y] >> values[x2]) & 1:
                    break
                if (source[x2] >> x) & 1 and not (co[y] >> values[x2]) & 1:
                    break
            else:
                values[x] = y
                extend(x + 1)

    extend(0)
    return found


def _random_rows(rng: random.Random, n: int) -> list[int]:
    rows = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.3:
                rows[i] |= 1 << j
    return rows


_RNG = random.Random(11)
_PAIRS = [(_random_rows(_RNG, 5), _random_rows(_RNG, 4)) for _ in range(3)]


def kernel() -> int:
    """A fixed mix of the interpreter work secnum does: integer and bit
    arithmetic, dict stores, recursion, tuple and set building."""
    acc, table = 0, {}
    for i in range(15000):
        acc ^= (i * 2654435761) & 0xFFFF
        if acc & 7 == 0:
            table[acc] = i
    total = len(table)
    for source, target in _PAIRS:
        total += len(_monotone_maps(_closed_rows(source), _closed_rows(target)))
    return total


class Sampler:
    """Kernel timings taken every INTERVAL_S of wall time while started, and
    on request.  Sample i ran from enter[i] to leave[i]."""

    def __init__(self):
        self.enter = array("d")
        self.leave = array("d")
        self.kernel_s = array("d")
        self._previous = None

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            started = clock()
            kernel()
            ended = clock()
            self.enter.append(started)
            self.leave.append(ended)
            self.kernel_s.append(ended - started)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def scales(self) -> list[float]:
        """scales()[j] applies to the stretch between sample j-1 and sample
        j (stretch 0 is before the first sample, the last one after the last)."""
        ks = self.kernel_s
        if not ks:
            raise RuntimeError("no speed samples were taken")
        out = []
        for j in range(len(ks) + 1):
            near = ks[max(0, j - NEIGHBOURS):j + NEIGHBOURS]
            out.append(REFERENCE_KERNEL_S / statistics.median(near))
        return out

    def scaler(self):
        """A function (t0, t1) -> scaled seconds of work between the clock
        readings t0 <= t1, leaving out the samples inside that interval."""
        enter, leave = list(self.enter), list(self.leave)
        scales = self.scales()

        def scaled(t0: float, t1: float) -> float:
            # stretch j runs from leave[j-1] to enter[j]
            j = bisect.bisect_right(leave, t0)
            total = 0.0
            while True:
                lo = leave[j - 1] if j > 0 else t0
                hi = enter[j] if j < len(enter) else t1
                lo, hi = max(lo, t0), min(hi, t1)
                if hi > lo:
                    total += (hi - lo) * scales[j]
                if j >= len(enter) or enter[j] >= t1:
                    return total
                j += 1

        return scaled

    def median_kernel_s(self) -> float:
        return statistics.median(self.kernel_s)
