"""Machine-speed calibration for the timed metrics.

On a shared virtual machine the speed of a core can change by up to a
factor of two within a fraction of a second, in both directions, and two
cores change independently of each other. The benchmark therefore samples
a fixed reference kernel (benchmark code only, independent of trialopt)
every ``PERIOD_S`` from a background thread, on the core the work runs
on, and scales each operation's wall time by ``reference / kernel time``
averaged over the operation: times are reported as they would read on a
core where the kernel takes its reference time. The raw wall-clock
figures are printed in the run note next to them.

Interpreter-bound code on small arrays and vectorized code on large arrays
speed up by different factors when a core speeds up, so there are two
kernels, one of each kind; a workload uses the one that matches its work.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
import time

import numpy as np
from scipy.special import ndtr

PERIOD_S = 0.1


def scalar_kernel() -> float:
    """Small-array numpy, scipy.special and Python calls: the kind of work
    quadrature, the level condition and the optimizer do."""
    x = np.linspace(-4.0, 4.0, 15)
    acc = 0.0
    for i in range(300):
        y = ndtr(x * (1.0 + 1e-3 * i)) * np.exp(-0.5 * x * x)
        acc += float(y.sum()) + math.fsum(range(i % 40))
    return acc


def vector_kernel() -> float:
    """Random draws and arithmetic on 32k-element arrays: the kind of work
    the Monte Carlo oracle does."""
    rng = np.random.default_rng(0)
    z = rng.standard_normal(1 << 15)
    t = 0.6 * z + 0.8 * rng.standard_normal(1 << 15)
    return float(((z > 1.96) | (t > 2.1)).mean() + np.maximum(t - 0.1, 0.0).sum())


# Kernel and its typical CPU time on a 2-vCPU Linux VM (Python 3.11,
# numpy 2.4). The reference time only fixes the scale of the reports.
KERNELS = {"scalar": (scalar_kernel, 0.003), "vector": (vector_kernel, 0.002)}


def kernel_seconds(kernel) -> float:
    """CPU time of one kernel run on this thread. Waiting for the
    interpreter lock or for a core does not count."""
    t0 = time.thread_time()
    kernel()
    return time.thread_time() - t0


class SpeedLog:
    """Kernel timings over a run, taken by a sampler thread.

    The sampler pins itself to ``cpus`` in turn. A single-process workload
    pins its own thread to one core and samples that core; the sweep's
    worker processes use every core, so all of them are sampled.
    """

    def __init__(self, cpus, kind="scalar"):
        self.cpus = list(cpus)
        self.kind = kind
        self._kernel, self.reference = KERNELS[kind]
        self.at = []
        self.kernel = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def __enter__(self):
        self._thread.start()
        while not self.at:
            time.sleep(0.001)
        return self

    def __exit__(self, *exc):
        # one more sample after the last operation, then stop
        mark = time.perf_counter()
        while self.at[-1] <= mark and self._thread.is_alive():
            time.sleep(0.005)
        self._stop.set()
        self._thread.join()

    def _run(self):
        i = 0
        while not self._stop.is_set():
            os.sched_setaffinity(0, {self.cpus[i % len(self.cpus)]})
            i += 1
            t0 = time.perf_counter()
            self.kernel.append(kernel_seconds(self._kernel))
            self.at.append(0.5 * (t0 + time.perf_counter()))
            self._stop.wait(PERIOD_S)

    def scale(self, t: float) -> float:
        """Reference over kernel time at instant t, interpolated."""
        i = bisect.bisect_right(self.at, t)
        if i == 0:
            k = self.kernel[0]
        elif i == len(self.at):
            k = self.kernel[-1]
        else:
            t0, t1 = self.at[i - 1], self.at[i]
            w = (t - t0) / (t1 - t0)
            k = (1.0 - w) * self.kernel[i - 1] + w * self.kernel[i]
        return self.reference / k

    def normalized(self, start: float, seconds: float) -> float:
        """Wall time scaled by the mean scale over the interval."""
        points = max(5, int(seconds / (0.25 * PERIOD_S)))
        mean = sum(self.scale(start + seconds * (i + 0.5) / points)
                   for i in range(points)) / points
        return seconds * mean
