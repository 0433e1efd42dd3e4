"""A fixed reference loop that gauges how fast the host runs right now.

On a shared virtual machine the same single-threaded call runs at speeds
up to 2x apart, in phases from a fraction of a second to minutes. The time
goes into the process's own CPU time, so neither CPU time nor steal time
separates it out, and a reference run on the other vCPU does not follow it.
So the benchmark samples the speed of its own thread: `Sampler` runs the
reference loop from a timer signal every INTERVAL_S while the calls under
test run, and a call's time is reported as

    (wall time - time spent in the sampler) * mean(REFERENCE_S / sample)

over the samples taken during the call: seconds at a fixed host speed.
The samples are evenly spaced in wall time, so the mean speed is the work
the host did per second of the call. A call too short for MIN_SAMPLES
samples also counts those from WINDOW_S before it to WINDOW_S after it.

The loop is the shape of the tracker's hot path: a cosine distance per
pair of 64-d vectors through small numpy calls, pushed on a heap that is
then popped empty. It is never changed together with the program, so it
measures the host and not the code under test.

Set-up, which runs before numpy is loaded, does not follow the loop: it
unpacks and links a few hundred modules, and on a busy host it slowed from
0.6 s to 1.2 s within an hour while the loop kept its speed. Its gauge is
REFERENCE_IMPORT, timed in fresh interpreters of its own: the third-party
part of fcgtrack's set-up, which no change to fcgtrack touches. Set-up is
reported as

    median set-up * REFERENCE_IMPORT_S / median time of the reference import
"""

from __future__ import annotations

import heapq
import math
import signal
import statistics
import time
from typing import Callable

import numpy as np

# Median time of one reference() on the host that defined the benchmark
# (2-vCPU KVM guest, Intel Xeon family 6 model 143, Python 3.11.7,
# numpy 2.4.6). It only sets the scale of the reported seconds.
REFERENCE_S = 0.0065
REFERENCE_IMPORT = "scipy.optimize"
# Time of `import scipy.optimize` in a fresh interpreter on that host; it
# too only sets the scale.
REFERENCE_IMPORT_S = 0.5
INTERVAL_S = 0.1  # between samples; a sample costs about 7 % of the time
MIN_SAMPLES = 3  # a call with fewer samples also counts those nearby
WINDOW_S = 0.5  # how near

_VECTORS = np.random.default_rng(20221006).standard_normal((50, 64))


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return 1.0 - float(np.dot(a, b)) / math.sqrt(float(np.dot(a, a)) * float(np.dot(b, b)))


def reference() -> float:
    """Run the reference loop once; return its wall time in seconds."""
    start = time.perf_counter()
    heap: list[tuple[float, int, int]] = []
    n = len(_VECTORS)
    for i in range(n):
        for j in range(i + 1, n):
            heapq.heappush(heap, (_cosine(_VECTORS[i], _VECTORS[j]), i, j))
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - start


class Sampler:
    """Runs reference() every INTERVAL_S on this process's main thread.

    `samples` holds [perf_counter at start, duration] of each run.
    `on_sample(duration)`, if given, is told the time each sample took
    from whatever code it interrupted.
    """

    def __init__(self, on_sample: Callable[[float], None] | None = None):
        self.samples: list[list[float]] = []
        self._on_sample = on_sample

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append([start, reference()])
        if self._on_sample is not None:
            self._on_sample(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def speed(begin: float, end: float, samples: list[list[float]]) -> float:
    """Mean host speed during a call from `begin` to `end`, 1.0 at the reference.

    `samples` are the [start, duration] pairs of the Sampler that ran
    during the call, in the same process.
    """
    near = [d for s, d in samples if begin <= s < end]
    if len(near) < MIN_SAMPLES:
        near = [d for s, d in samples if begin - WINDOW_S <= s < end + WINDOW_S]
    if not near:
        raise ValueError("no reference samples near the call")
    return statistics.mean(REFERENCE_S / d for d in near)


def normalized(begin: float, end: float, samples: list[list[float]]) -> float:
    """Seconds at reference speed of a call that ran from `begin` to `end`."""
    inside = sum(d for s, d in samples if begin <= s < end)
    return (end - begin - inside) * speed(begin, end, samples)
