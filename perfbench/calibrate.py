"""Host-speed calibration: a fixed pure-Python kernel timed during a run.

The shared hosts the benchmark runs on drift in speed by 20% and more
over minutes: the same code's best time moves with them, so two sets of
runs an hour apart disagree although the code did not change.  The
kernel below is timed many times, interleaved with the workload; a time
``t`` measured in the run is reported as ``t * REFERENCE_KERNEL_S / k``,
the time a *reference host* on which the kernel takes exactly
``REFERENCE_KERNEL_S`` would show.  ``k`` is a statistic like the one
taken of ``t``: the kernel's best time for best-of-repetition times
(:attr:`Calibration.scale`), its median time for median-of-sample times
such as set-up (:meth:`Calibration.typical_scale`).  On a busy host the
best 10 ms kernel call still finds a fast moment that a half-second unit
does not, so the median tracks single-shot times better.

The kernel imports nothing from the program, so a change to the program
moves the workload's times and not the calibration.  It does what the
simulator spends its time on: integer hashing, small-object attribute
updates, list indexing and dict counting in a plain Python loop.
"""

from __future__ import annotations

import math
import statistics
import time

#: kernel seconds on the reference host: about its best on the 2-vCPU
#: Xeon virtual machine the bounds were set on
REFERENCE_KERNEL_S = 0.008
#: kernel calls per :meth:`Calibration.sample`
CALLS_PER_SAMPLE = 3


class _Entry:
    __slots__ = ("ctr", "tag")

    def __init__(self) -> None:
        self.ctr = 0
        self.tag = 0


def _update(entry: _Entry, taken: int, tag: int) -> bool:
    if entry.tag == tag:
        entry.ctr = min(3, entry.ctr + 1) if taken else max(-4, entry.ctr - 1)
        return entry.ctr >= 0
    entry.tag = tag
    entry.ctr = 0
    return False


def kernel(steps: int = 20_000) -> int:
    """A tagged-counter table driven by a 64-bit LCG; returns the hit count."""
    table = [_Entry() for _ in range(1024)]
    history = hits = 0
    seen = {}
    x = 0x9E3779B97F4A7C15
    for _ in range(steps):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        pc = (x >> 20) & 0xFFF
        taken = (x >> 40) & 1
        if _update(table[(pc ^ history) & 1023], taken, pc >> 4) == bool(taken):
            hits += 1
        seen[pc] = seen.get(pc, 0) + 1
        history = ((history << 1) | taken) & 0xFFFF
    return hits


class Calibration:
    """Kernel times seen in a run, and the scales they imply."""

    def __init__(self) -> None:
        self.times = []

    @property
    def best(self) -> float:
        return min(self.times, default=math.inf)

    @property
    def calls(self) -> int:
        return len(self.times)

    def sample(self, calls: int = CALLS_PER_SAMPLE) -> None:
        for _ in range(calls):
            start = time.perf_counter()
            kernel()
            self.times.append(time.perf_counter() - start)

    def typical_scale(self) -> float:
        """Reference-host seconds per second, from the median call so far."""
        if not self.times:
            raise ValueError("no calibration sample taken")
        return REFERENCE_KERNEL_S / statistics.median(self.times)

    @property
    def scale(self) -> float:
        """Reference-host seconds per second measured on this host."""
        if not self.calls:
            raise ValueError("no calibration sample taken")
        return REFERENCE_KERNEL_S / self.best
