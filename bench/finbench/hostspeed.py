"""Host speed from a fixed reference task, used to scale wall times.

The shared 2-vCPU host the benchmark was built on changes speed by up to
45 % within a minute, for every process alike: in one warm triangle
process, operations per second fell from 145 to 82 and rose again, while
the ratio of cycle time to the time of a fixed pure-Python loop run
between cycles stayed within +-7 %.  So the benchmark times a reference
task between operations, at most every REF_EVERY_S seconds, and every
timing it reports is the wall time divided by the host's slowness around
it: the mean reference time of the `window` samples before and after, over
the reference's nominal time.  A scaled time reads as the wall time on a
host where the reference takes its nominal time, about this host's typical
speed.  The raw wall figures are printed in each workload's notes.

Two references, one per kind of work (spec.REFERENCE says which workload
uses which):
  loop         integer and Fraction arithmetic in the measuring process,
               for the in-process workloads;
  interpreter  a fresh interpreter that runs `pass`, for the cli workload:
               process start-up cost on this host does not follow the
               in-process loop (their correlation was -0.13), but follows
               another start-up (the same command's quartile spread was
               0.14-0.15 of its median scaled, 0.25-0.38 raw).  A bare
               interpreter also stays below any cli process in memory, so
               it never sets the cli workload's peak_rss_mb.
Neither runs finfree code, so a change to the library cannot move them; a
change that keeps the processor busy in the background (a thread, a child
process) would slow them and so hide part of its own cost.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter
from typing import Callable, NamedTuple

REF_EVERY_S = 0.1


def ref_loop() -> float:
    """Wall seconds of one pass of the in-process loop (about 3.4 ms)."""
    t0 = perf_counter()
    sum(i * i % 7 for i in range(20_000))
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(i % 7 - 3, i)
    return perf_counter() - t0


def ref_interpreter() -> float:
    """Wall seconds of a fresh interpreter that does nothing (60-120 ms)."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return perf_counter() - t0


class Reference(NamedTuple):
    name: str
    run: Callable[[], float]
    nominal_s: float
    window: int  # samples taken on each side of an interval to scale it

    def samples(self) -> list:
        return [self.run() for _ in range(self.window)]

    def slowness(self, samples) -> float:
        """Mean of reference samples over the nominal time: 1.0 on a nominal
        host, 1.4 on one 40 % slower."""
        return statistics.fmean(samples) / self.nominal_s


REFERENCES = {
    "loop": Reference("loop", ref_loop, 0.0034, 3),
    "interpreter": Reference("interpreter", ref_interpreter, 0.08, 1),
}


class HostSpeed:
    """Reference samples taken along a run, and the scaling they give."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.times = []
        self.refs = []

    def sample(self) -> None:
        took = self.ref.run()
        self.times.append(perf_counter())
        self.refs.append(took)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= REF_EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Slowness around the interval [t0, t1]: the `window` samples taken
        before t0, the `window` taken after t1, and any between."""
        w = self.ref.window
        lo = max(0, bisect.bisect_right(self.times, t0) - w)
        hi = bisect.bisect_left(self.times, t1) + w
        return self.ref.slowness(self.refs[lo:hi] or self.refs)

    def slowness(self) -> float:
        return self.ref.slowness(self.refs)
