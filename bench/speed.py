"""Machine-speed probe that scales measured times to one reference speed.

On a shared host a core's speed changes from second to second as other
tenants load its sibling hyperthread.  On the 2-vCPU Intel Xeon host the
baseline was recorded on, a fixed pure-Python loop ran about 1.8x slower
in contended stretches than in idle ones, and whole workload passes
varied by 10-20% between runs, so raw wall times could not tell a 10%
change from noise.  While a SpeedProbe is active, a SIGALRM handler times
a short fixed loop every 20 ms.  `scale(start, end)` is the loop's
reference time over its mean time inside that interval: multiplying the
interval's measured time by it estimates the time at the reference
speed.  The mean leaves out the slowest and the fastest tenth of the
probes, so that one probe the OS descheduled does not move it; a median
would not do, because it can follow one of the two speeds where the mean
follows their mix.  The handler runs between bytecodes of the main
thread; it starts no thread or process.

There are two loops, because contention slows interpreted code and
vectorised numpy code by different amounts.  "python" is a pure-Python
loop (about 0.2% of the run); it suits workloads of many small calls.
"numpy" is one in-place row operation of a GF(7) elimination on a 48 x
576 int64 array (about 2% of the run); it suits workloads of large
eliminations.  On the host above, over eight passes of the
large-instance workload in one process, the per-pass standard deviation
was 1.1% with it, 1.7% with the pure-Python loop and 1.8% raw; on
verify-grid a numpy loop was far worse (18% against 2%).  The
numpy loop allocates nothing, since a loop that allocates times the
allocator's state, which differs between workloads.
"""

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02
# The share of probes left out at each end of the trimmed mean.
TRIM = 0.1


def _python_loop():
    x = 0
    for i in range(300):
        x += i * i % 7


_ROWS = np.random.default_rng(0).integers(0, 7, size=(48, 576), dtype=np.int64)
_PIVOT = np.empty_like(_ROWS[0])
_OUT = np.empty_like(_ROWS)


def _numpy_loop():
    np.multiply(_ROWS[0], 3, out=_PIVOT)
    np.subtract(_ROWS, _PIVOT, out=_OUT)
    np.remainder(_OUT, 7, out=_OUT)


# Each loop with its reference time: about its time on the host above.
LOOPS = {"python": (_python_loop, 20e-6), "numpy": (_numpy_loop, 200e-6)}


class SpeedProbe:
    def __init__(self, loop: str = "python"):
        self._loop, self._ref_s = LOOPS[loop]
        self.samples = []  # (start, duration) per probe
        self._previous = None

    def _probe(self, signum=None, frame=None):
        # The first call warms the caches, so the timed one sees the core's
        # speed and not what the program evicted.
        self._loop()
        t0 = perf_counter()
        self._loop()
        self.samples.append((t0, perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._probe()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """The reference time over the trimmed mean probe time in [start, end], or over the whole run's if none fell inside."""
        inside = sorted(d for t, d in self.samples if start <= t <= end) or sorted(d for _, d in self.samples)
        cut = int(len(inside) * TRIM)
        kept = inside[cut : len(inside) - cut]
        return self._ref_s * len(kept) / sum(kept)
