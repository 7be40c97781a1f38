"""Host-speed calibration: scale measured host times to a reference speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes: a fixed pure-Python loop on a shared 2-core x86
VM ran 1.5x slower for whole minutes, in CPU time as well as in wall
time (so it is not time the hypervisor takes away, which CPU time would
leave out).  No minimum or median over one run removes a slowdown that
lasts the whole run, so runs of the same code disagreed by more than the
benchmark's bounds.

So while the benchmark measures, a *sampler* thread wakes every
:data:`PERIOD_S` seconds and times a fixed kernel of the standard
library only (heap, dict and float work, the kinds of interpreter work
the simulator and the service do) in its own CPU time.  An interval of
host time measured by the benchmark is scaled by ``REFERENCE_S / (mean
kernel CPU time of the samples in and around the interval)``: the
seconds it would have taken with the host at the speed at which the
kernel takes :data:`REFERENCE_S`.  Sampling during the interval matters:
slow spells last from a second to minutes, so timing the host only
between operations misses the spells inside a multi-second simulation.

The kernel runs no code of the program, so a faster or slower program
moves scaled figures exactly as it moves raw ones; only the host's
drift cancels.  The sampler's own time (2-3 % of each interval, in
half-millisecond slices while it holds the interpreter lock) stays in
the measured intervals, the same share for every version of the
program.
"""

from __future__ import annotations

import bisect
import heapq
import threading
import time
from typing import List

#: CPU seconds the kernel takes at the reference speed (that of a quiet
#: 2-core x86 VM, Python 3.11), so scaled figures read as host seconds
#: on such a host.
REFERENCE_S = 0.0005
#: Seconds the sampler sleeps between samples.
PERIOD_S = 0.025
#: An interval is scaled by the samples within this many seconds of it,
#: and by at least MIN_SAMPLES (the nearest ones) however short it is.
MARGIN_S = 0.25
MIN_SAMPLES = 10


def kernel() -> float:
    """A fixed half millisecond of heap, dict and float work."""
    heap: List[int] = []
    table: dict = {}
    acc = 0.0
    for i in range(1000):
        heapq.heappush(heap, (i * 7919) % 10007)
        key = i & 511
        table[key] = table.get(key, 0) + i
        acc += i * 1.000001
    while heap:
        acc -= heapq.heappop(heap)
    return acc


class Speed:
    """A sampler thread, running between :meth:`start` and :meth:`stop`
    (or as a context manager), and the scale factors it yields."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        #: Host time (perf_counter) at the middle of each sample, and the
        #: kernel's CPU seconds in it.
        self.at: List[float] = []
        self.cost: List[float] = []
        self._halt = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="perfbench-speed", daemon=True
        )

    def _run(self) -> None:
        clock, cpu = time.perf_counter, time.thread_time
        while True:
            w0, c0 = clock(), cpu()
            kernel()
            c1, w1 = cpu(), clock()
            # cost first: a reader that sees a time sees its cost too.
            self.cost.append(c1 - c0)
            self.at.append((w0 + w1) / 2)
            if self._halt.wait(self.period):
                return

    def start(self) -> "Speed":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sampler and wait for it to end."""
        self._halt.set()
        if self._thread.is_alive():
            self._thread.join()

    def __enter__(self) -> "Speed":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def scale(self, t0: float, t1: float) -> float:
        """Factor from host seconds to reference seconds for the host
        interval [t0, t1] (perf_counter readings)."""
        at = self.at[:]  # the sampler may append meanwhile
        lo = bisect.bisect_left(at, t0 - MARGIN_S)
        hi = bisect.bisect_right(at, t1 + MARGIN_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(at)):
            # Widen by the nearer neighbour.
            if hi >= len(at) or (lo > 0 and t0 - at[lo - 1] <= at[hi] - t1):
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            raise RuntimeError("no speed sample yet: start the sampler first")
        return REFERENCE_S * (hi - lo) / sum(self.cost[lo:hi])
