"""The speed of the benchmark's CPU, sampled while the program runs on it.

The benchmark host shares its cores with other tenants: a neighbour's load
slows a core by up to 1.8x, switching within a second and drifting over
minutes, and the two cores change independently.  The raw wall time of one
chain therefore spreads by a third between runs, and no run length tried
(up to 60 s) averaged that out.

The benchmark pins itself, and so every child it starts, to one CPU.  A
thread of the benchmark, pinned there too, times a fixed numpy kernel every
PERIOD_S seconds by its own thread CPU time.  The kernel streams about 2 MB
through the caches, so it slows the way the program does when it shares the
core and its caches with a neighbour at the same moments.  The kernel's
time on an idle core, REFERENCE_S, divided by its time at a moment is the
share of full speed the CPU gave then; a span's time at full speed is its
wall time times the mean of that share over the span.

REFERENCE_S is a constant, the kernel's best time on the 2-vCPU host the
benchmark was tuned on, so that full-speed seconds there are close to the
wall time of an idle host.  Elsewhere they are in the same units and compare
runs on that host only.  The kernel takes about 1 ms every 40 ms, so the
program loses a few per cent of its CPU to it; that cost is the same on
every run.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

import numpy as np

PERIOD_S = 0.04
REFERENCE_S = 1.1e-3
KERNEL_POINTS = 150_000


def pin_to_one_cpu() -> int:
    """Pin this process to its lowest allowed CPU; later children inherit it."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """Samples the kernel's time on this process's CPU until closed."""

    def __init__(self):
        self.ends: list = []     # perf_counter at the end of each sample
        self.times: list = []    # the kernel's thread CPU seconds in that sample
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        x = np.linspace(0.0, 1.0, KERNEL_POINTS)
        while not self._stop.wait(PERIOD_S):
            start = time.thread_time()
            (np.sin(x) * x).sum()
            took = time.thread_time() - start
            self.ends.append(time.perf_counter())
            self.times.append(took)

    def full_speed_s(self, start: float, end: float) -> float:
        """Seconds that the span [start, end] would take at full speed."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        if hi <= lo:
            raise RuntimeError(f"no speed sample in a span of {end - start:.3f} s")
        share = np.mean(REFERENCE_S / np.asarray(self.times[lo:hi]))
        return (end - start) * float(share)
